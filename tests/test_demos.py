"""Smoke tests: each demo, and each python block of README.md, runs to
completion in a fresh interpreter."""

import re
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import subprocess_env

ROOT = Path(__file__).resolve().parents[1]
DEMOS = ROOT / "demos"
README_BLOCKS = re.findall(r"^```python\n(.*?)^```",
                           (ROOT / "README.md").read_text(encoding="utf-8"),
                           re.MULTILINE | re.DOTALL)


@pytest.mark.parametrize("demo", ["kummer_basics.py", "q_spectra.py",
                                  "reflection_map.py", "series_families.py",
                                  "two_state_pulse.py"])
def test_demo_runs(demo):
    proc = subprocess.run([sys.executable, str(DEMOS / demo)],
                          capture_output=True, env=subprocess_env(),
                          timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()


@pytest.mark.parametrize("block", README_BLOCKS,
                         ids=[f"block{i}" for i in range(len(README_BLOCKS))])
def test_readme_python_block_runs(block):
    proc = subprocess.run([sys.executable, "-c", block], capture_output=True,
                          env=subprocess_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
