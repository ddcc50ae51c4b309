"""Smoke runs of the analysis scripts under ``scripts/`` at a small size."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "script, line",
    [
        ("detection_sweep.py", "runs=100 n=20000 codec=parity"),
        ("overhead_comparison.py", "per-op steps: baseline B=4, fully checked 2B+2=10"),
    ],
)
def test_script_runs_at_a_small_size(script, line):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), "--n", "20000"],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert line in proc.stdout.splitlines()


@pytest.mark.parametrize("script", ["detection_sweep.py", "overhead_comparison.py"])
def test_an_unknown_codec_is_a_usage_error(script):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), "--n", "10", "--codec", "bogus"],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("usage: ")
    assert "argument --codec: invalid choice: 'bogus'" in proc.stderr
    assert "Traceback" not in proc.stderr
