"""The benchmark's own tests (`perfbench/selftest.py`) run with the suite."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_selftest_passes():
    proc = subprocess.run(
        [sys.executable, "perfbench/selftest.py"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
