"""Smoke test: every demo script runs to completion."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)


@pytest.mark.parametrize(
    "name", ["efficiency_tour.py", "firm_behaviors_tour.py", "market_splits_tour.py"]
)
def test_demo_runs(name):
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "demos", name)],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
