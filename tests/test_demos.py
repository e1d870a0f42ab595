"""Each demo runs to the end and prints exactly its recorded walkthrough."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_every_demo_has_a_golden():
    assert [d.stem for d in DEMOS] == sorted(p.stem for p in (ROOT / "tests" / "golden").glob("*.txt"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda d: d.stem)
def test_demo_output_is_byte_identical_to_golden(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    res = subprocess.run([sys.executable, str(demo)], capture_output=True, env=env, cwd=ROOT)
    assert res.returncode == 0, res.stderr.decode()
    assert res.stdout == (ROOT / "tests" / "golden" / f"{demo.stem}.txt").read_bytes()
