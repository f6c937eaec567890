"""The benchmark's own tests (`perfbench/selftest.py`) run with the suite.

Both tests run in a subprocess, so that perfbench's modules stay off the
suite's `sys.path`.
"""

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


# Wraps every traced and counted name in the eight modules the traced pass
# hands to the tracer (perfbench/passrun.py), then restores them; a traced
# name that the package no longer defines makes `install()` raise.
TRACER_ROUND_TRIP = """
import sys
sys.path[:0] = ["src", "perfbench"]
import kuniform
import kuniform.cli
from kuniform import bounds, cli, enumerators, exact, hetero, oracle, tables
from tracing import Tracer

modules = {
    "cli": cli, "tables": tables, "bounds": bounds, "enumerators": enumerators,
    "hetero": hetero, "oracle": oracle, "exact": exact, "kuniform": kuniform,
}
before = {name: dict(vars(m)) for name, m in modules.items()}
tracer = Tracer(modules)
tracer.install()
assert enumerators.c_to_b is not before["enumerators"]["c_to_b"]
tracer.uninstall()
assert all(dict(vars(m)) == before[name] for name, m in modules.items())
"""


def test_tracer_wraps_every_traced_name():
    proc = subprocess.run(
        [sys.executable, "-c", TRACER_ROUND_TRIP],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
