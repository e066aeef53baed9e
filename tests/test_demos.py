"""Smoke test: each fast demo runs to completion in a fresh interpreter."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import heunkummer

DEMOS = Path(__file__).resolve().parents[1] / "demos"
# the directory the test process imports heunkummer from, first on the
# subprocess PYTHONPATH so the demos run the same source
PACKAGE_PARENT = str(Path(heunkummer.__file__).resolve().parents[1])


# two_state_pulse.py is left out: it takes about 8 s, nearly all of it in the
# RK integrator (ROADMAP item 4)
@pytest.mark.parametrize("demo", ["kummer_basics.py", "q_spectra.py",
                                  "reflection_map.py", "series_families.py"])
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [PACKAGE_PARENT, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(DEMOS / demo)],
                          capture_output=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
