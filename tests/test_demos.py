"""Smoke test: each fast demo runs to completion in a fresh interpreter."""

import subprocess
import sys
from pathlib import Path

import pytest

from conftest import subprocess_env

DEMOS = Path(__file__).resolve().parents[1] / "demos"


# two_state_pulse.py is left out: it takes about 8 s, nearly all of it in the
# RK integrator (ROADMAP item 4)
@pytest.mark.parametrize("demo", ["kummer_basics.py", "q_spectra.py",
                                  "reflection_map.py", "series_families.py"])
def test_demo_runs(demo):
    proc = subprocess.run([sys.executable, str(DEMOS / demo)],
                          capture_output=True, env=subprocess_env(),
                          timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
