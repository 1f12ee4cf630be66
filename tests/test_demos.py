"""Each demo prints its committed transcript, byte for byte."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[demo.stem for demo in DEMOS])
def test_demo_prints_its_transcript(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env,
                          capture_output=True, check=False)
    assert done.returncode == 0, done.stderr.decode()
    expected = (ROOT / "demos" / "expected" / f"{demo.stem}.txt").read_bytes()
    assert done.stdout == expected
