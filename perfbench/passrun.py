"""One pass of a workload in a fresh interpreter: run, time, then check.

Usage: python3 -S passrun.py <src dir> <ops.json> <trace 0|1> <spans file>

Imports kuniform from <src dir>, runs every operation of <ops.json> in
order and records when each one starts and ends (`time.perf_counter`,
which is the system-wide monotonic clock, so the caller can line the
times up with its own).  A CLI operation goes through
`kuniform.cli.main(argv)` with stdout captured, so argument parsing and
envelope rendering are timed; a library operation calls the public
functions directly.

Before the first and after the last operation this interpreter prints
READY or DONE and waits for a line on stdin, so that the caller can run
the reference computation while nothing else runs.  In between, the
caller stops this interpreter with SIGSTOP for each further reference and
resumes it with SIGCONT.  Peak resident memory is read once the
operations are done.  Only then are the outputs checked, untimed,
against the computations in `checks`.  The last line of stdout is one
JSON object.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
from fractions import Fraction
from pathlib import Path

import checks

READY = "READY"
DONE = "DONE"


def _handshake(word: str) -> None:
    print(word, flush=True)
    sys.stdin.readline()


def _run_cli(cli, argv) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
    return {"rc": rc, "out": out.getvalue() or err.getvalue()}


def _run_roundtrip(kuniform, op) -> dict:
    enum = kuniform.enumerators
    inv = enum.InvariantBasisCoeffs(op["n"], op["d"], [Fraction(x) for x in op["c"]])
    a = enum.c_to_a(inv)
    b = enum.c_to_b(inv)
    return {
        "a": a.coeffs,
        "b": b.coeffs,
        "a_to_c": enum.a_to_c(a).coeffs,
        "b_to_c": enum.b_to_c(b, op["d"]).coeffs,
        "macwilliams": enum.macwilliams_transform(a).coeffs,
        "shadow": enum.shadow_transform(a).coeffs,
        "duality_invariant": enum.validate_state_constraints(a).duality_invariant,
    }


def _run_hetero_shadow(kuniform, op) -> tuple:
    hetero = kuniform.hetero
    return hetero.hetero_shadow(hetero.DimensionProfile.parse(op["dims"])).s


def run_op(kuniform, op: dict):
    """The operation's raw output."""
    if "cli" in op:
        return _run_cli(kuniform.cli, op["cli"])
    if op["lib"] == "roundtrip":
        return _run_roundtrip(kuniform, op)
    return _run_hetero_shadow(kuniform, op)


def second_routes(kuniform) -> dict:
    """The program's independent routes that `checks` compares against."""
    return {
        "alpha_oracle": kuniform.bounds.alpha_oracle,
        "ame_shadow_oracle": lambda dims: kuniform.oracle.ame_shadow_oracle(
            kuniform.hetero.DimensionProfile(tuple(dims))
        ),
    }


def check_outputs(ops: list[dict], outputs: list, oracles: dict) -> list[dict]:
    """One record per operation: its kind, and what went wrong, if anything."""
    records = []
    for op, raw in zip(ops, outputs):
        problems, error = [], None
        if isinstance(raw, Exception):
            error = f"{type(raw).__name__}: {raw}"
        else:
            try:
                problems = checks.check_op(op, raw, oracles)
            except (ValueError, KeyError, TypeError, IndexError) as exc:
                error = f"{type(exc).__name__}: {exc}"
        records.append({"kind": op["kind"], "error": error, "problems": problems})
    return records


def main() -> int:
    src, ops_path, trace_flag, spans_path = sys.argv[1:5]
    src = Path(src).resolve()
    sys.path.insert(0, str(src))
    import kuniform
    import kuniform.cli
    from kuniform import bounds, cli, enumerators, exact, hetero, oracle, tables

    if not Path(kuniform.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"kuniform imported from {kuniform.__file__}, not {src}")
    ops = json.loads(Path(ops_path).read_text())

    tracer = None
    if trace_flag == "1":
        from tracing import Tracer

        modules = {
            "cli": cli, "tables": tables, "bounds": bounds, "enumerators": enumerators,
            "hetero": hetero, "oracle": oracle, "exact": exact, "kuniform": kuniform,
        }
        tracer = Tracer(modules)
        tracer.install()

    outputs, spans = [], []
    clock = time.perf_counter
    _handshake(READY)
    for op in ops:
        frame = tracer.begin_op(op["kind"]) if tracer else None
        start = clock()
        try:
            outputs.append(run_op(kuniform, op))
        except Exception as exc:  # a crashing operation is counted as failed
            outputs.append(exc)
        end = clock()
        if tracer:
            tracer.end_op(frame, start, end)
        spans.append((start, end))
    _handshake(DONE)
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    result: dict = {"peak_rss_kb": peak_rss_kb}
    if tracer:
        tracer.uninstall()
        result["trace"] = tracer.summary()
        tracer.write_spans(spans_path)

    result["ops"] = check_outputs(ops, outputs, second_routes(kuniform))
    for record, (start, end) in zip(result["ops"], spans):
        record["start"], record["end"] = start, end
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
