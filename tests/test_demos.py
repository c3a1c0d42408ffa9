"""Each demo prints exactly the bytes checked in under tests/demo_output/."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = ("classification_tour", "contraction_diagram", "rigidity_and_cohomology")


@pytest.mark.parametrize("name", DEMOS)
def test_demo_stdout_unchanged(name):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, str(ROOT / "demos" / f"{name}.py")],
                          capture_output=True, env=env, timeout=60, check=False)
    assert done.returncode == 0, done.stderr.decode()
    assert done.stdout == (ROOT / "tests" / "demo_output" / f"{name}.txt").read_bytes()
