"""Each demo runs to the end and prints exactly its recorded walkthrough, and
the README's quick start runs and prints what its comments say."""

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


def test_readme_quick_start_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Quick start", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, env=env, cwd=ROOT)
    assert res.returncode == 0, res.stderr.decode()
    assert res.stdout == b"Z^2\n"
