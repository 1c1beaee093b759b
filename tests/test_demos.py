"""Smoke test: demos 01-04 run to completion in a fresh interpreter.

Demo 05 re-runs the quick profile, which test_checks.py and the
acceptance suite already cover.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("0[1-4]_*.py"))


def test_four_demos_found():
    assert [p.name[:2] for p in DEMOS] == ["01", "02", "03", "04"]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_exits_0(demo):
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    proc = subprocess.run(
        [sys.executable, str(demo)], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
    if demo.name.startswith("02"):
        # the kernel lattice content, built from its valuation map
        assert "content: (1)/(576*s - 820*s^3 + 273*s^5 - 30*s^7 + s^9)" in proc.stdout
