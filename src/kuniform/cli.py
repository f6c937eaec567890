"""Command-line front end.

Five subcommands cover the library surface:

  bound   upper bounds on k for homogeneous systems (single N or a range)
  table   recompute a pinned reference table and diff it cell by cell
  ame     AME non-existence verdict for a dimension profile
  state   brute-force checks on an explicit state file
  verify  internal cross-validation suites at desk scale

Every run prints a single JSON envelope {command, status, timestamp,
payload} (or plain CSV rows with --format csv where a tabular layout is
defined).  Envelopes are byte-deterministic apart from the timestamp
field.  Exit status: 0 for "ok" and for "violation-found" (a found
non-existence certificate or table mismatch is a successful computation),
1 for errors, 2 for usage errors, 3 for not-applicable requests.  A
reader that closes stdout early (`kuniform ... | head`) ends the run
with exit 1 and nothing on stderr.

Global flags may also be set through environment variables with the
KUNIFORM_ prefix (KUNIFORM_FORMAT, KUNIFORM_BUDGET, KUNIFORM_CAP_DIM);
explicit flags win, and an invalid environment value is a usage error.
Rationals are printed as exact "p/q" strings, never floats.  Party counts
above errors.MAX_PARTIES (in `bound --n`, `bound --n-range` and the
`ame --dims` profile) are refused with a capacity error before any work.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from datetime import datetime, timezone
from typing import Optional, Sequence

from . import bounds, oracle, tables
from .enumerators import shadow_transform
from .errors import (
    BudgetExceededError,
    CapacityError,
    NotApplicableError,
    check_party_count,
)
from .hetero import DEFAULT_SUBSET_BUDGET, DimensionProfile, ame_verdict

ENV_PREFIX = "KUNIFORM_"

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_USAGE = 2
EXIT_NOT_APPLICABLE = 3

STATUS_OK = "ok"
STATUS_VIOLATION = "violation-found"
STATUS_NOT_APPLICABLE = "not-applicable"
STATUS_ERROR = "error"


class _UsageError(Exception):
    pass


def _env_default(name: str, fallback):
    raw = os.environ.get(ENV_PREFIX + name)
    if raw is None:
        return fallback
    return raw


def _env_int(name: str, fallback: int) -> int:
    raw = os.environ.get(ENV_PREFIX + name)
    if raw is None:
        return fallback
    try:
        return int(raw)
    except ValueError as exc:
        raise _UsageError(f"invalid {ENV_PREFIX}{name} {raw!r}, expected an integer") from exc


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format",
        choices=("json", "csv"),
        default=None,
        help="output format (default json; env KUNIFORM_FORMAT)",
    )
    common.add_argument(
        "--budget",
        type=int,
        default=None,
        help="subset-search evaluation budget (env KUNIFORM_BUDGET)",
    )
    common.add_argument(
        "--cap-dim",
        type=int,
        default=None,
        help="Hilbert-dimension cap for state brute force (env KUNIFORM_CAP_DIM)",
    )

    parser = argparse.ArgumentParser(
        prog="kuniform",
        description="Exact bounds on k-uniform states and AME non-existence certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_bound = sub.add_parser("bound", parents=[common], help="upper bounds on k")
    p_bound.add_argument("--d", type=int, required=True, help="local dimension")
    group = p_bound.add_mutually_exclusive_group(required=True)
    group.add_argument("--n", type=int, help="single party count")
    group.add_argument("--n-range", help="inclusive party-count range A:B")

    p_table = sub.add_parser("table", parents=[common], help="reproduce a reference table")
    p_table.add_argument(
        "--paper", required=True, choices=tables.TABLE_IDS, help="table identifier"
    )

    p_ame = sub.add_parser("ame", parents=[common], help="AME non-existence verdict")
    p_ame.add_argument(
        "--dims", required=True, help='profile string "<dim>x<count>,...", e.g. "3x1,2x10"'
    )

    p_state = sub.add_parser("state", parents=[common], help="explicit-state checks")
    p_state.add_argument("--file", required=True, help="state JSON file")
    state_group = p_state.add_mutually_exclusive_group(required=True)
    state_group.add_argument("--check-uniform", type=int, metavar="K")
    state_group.add_argument("--enumerate", action="store_true")

    p_verify = sub.add_parser("verify", parents=[common], help="cross-validation suites")
    p_verify.add_argument(
        "--suite", required=True, choices=("alpha", "recurrence", "shadow-oracle")
    )
    return parser


# ---------------------------------------------------------------------------
# subcommand payloads
# ---------------------------------------------------------------------------


def _parse_n_range(text: str) -> tuple[int, int]:
    parts = text.split(":")
    if len(parts) != 2:
        raise _UsageError(f"--n-range expects A:B, got {text!r}")
    try:
        lo, hi = int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise _UsageError(f"--n-range expects integers, got {text!r}") from exc
    if lo > hi:
        raise _UsageError(f"--n-range expects A <= B, got {text!r}")
    return lo, hi


def _run_bound(args) -> tuple[str, dict, Optional[str]]:
    if args.d < 2:
        raise _UsageError("--d must be >= 2")
    if args.n is not None:
        lo = hi = args.n
    else:
        lo, hi = _parse_n_range(args.n_range)
    if lo < 2:
        raise _UsageError("party counts must be >= 2")
    check_party_count(hi)  # lo <= hi, so this bounds both ends
    records = tables.compute_bound_records(args.d, lo, hi)
    payload = {"d": args.d, "records": [r.to_json_dict() for r in records]}
    csv_lines = ["N,k_max,provenance"]
    csv_lines += [f"{r.n_parties},{r.k_max},{r.provenance}" for r in records]
    return STATUS_OK, payload, "\n".join(csv_lines)


def _run_table(args) -> tuple[str, dict, Optional[str]]:
    diff = tables.diff_table(args.paper)
    payload: dict = {
        "table": diff.table_id,
        "match": diff.match,
        "diffs": [d.to_json_dict() for d in diff.diffs],
    }
    if diff.table_id == "IV":
        payload["rows"] = [
            {"d1": d1, "d2": d2, "threshold_n": thr, "shadow_certified_n": list(ns)}
            for d1, d2, thr, ns in diff.computed
        ]
    else:
        payload["cells"] = [
            {"n_range": tables.format_n_range(lo, hi), "k_max": k}
            for lo, hi, k in diff.computed
        ]
        payload["records"] = [r.to_json_dict() for r in diff.records]
    status = STATUS_OK if diff.match else STATUS_VIOLATION
    return status, payload, tables.table_csv(diff)


def _run_ame(args, budget: int) -> tuple[str, dict, Optional[str]]:
    try:
        profile = DimensionProfile.parse(args.dims)
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc
    verdict = ame_verdict(profile, budget=budget)
    payload = verdict.to_json_dict()
    status = STATUS_OK if verdict.status == "unknown" else STATUS_VIOLATION
    return status, payload, None


def _run_state(args, cap_dim: int) -> tuple[str, dict, Optional[str]]:
    try:
        state = oracle.PureState.load(args.file)
    except (OSError, ValueError) as exc:
        raise ValueError(f"cannot read state file {args.file}: {exc}") from exc
    if args.check_uniform is not None:
        k = args.check_uniform
        answer = oracle.is_k_uniform(state, k, dim_cap=cap_dim)
        payload = {
            "dims": list(state.profile.dims),
            "k": k,
            "uniform": answer,
        }
        return STATUS_OK, payload, None
    a = oracle.direct_enumerator(state, dim_cap=cap_dim)
    s_direct = oracle.direct_shadow(state, dim_cap=cap_dim)
    payload = {
        "dims": list(state.profile.dims),
        "a": a.to_json_dict(),
        "s": s_direct.to_json_dict(),
        "s_matches_transform": shadow_transform(a).coeffs == s_direct.coeffs,
    }
    return STATUS_OK, payload, None


def _run_verify(args) -> tuple[str, dict, Optional[str]]:
    if args.suite == "alpha":
        checks, failures = bounds.cross_validate_alpha()
    elif args.suite == "recurrence":
        checks, failures = bounds.cross_validate_recurrences()
    else:  # shadow-oracle
        checks, failures = oracle.cross_validate_ame_shadow()
    payload = {"suite": args.suite, "checks": checks, "failures": failures}
    status = STATUS_OK if not failures else STATUS_ERROR
    return status, payload, None


# ---------------------------------------------------------------------------
# envelope and dispatch
# ---------------------------------------------------------------------------


def _emit(command: str, status: str, payload: dict, fmt: str, csv_text: Optional[str]) -> None:
    if fmt == "csv" and csv_text is not None:
        print(csv_text)
        return
    envelope = {
        "command": command,
        "status": status,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "payload": payload,
    }
    print(json.dumps(envelope, sort_keys=True))


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        code = _main(argv)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout early (`kuniform ... | head`); the Python
        # docs' idiom points stdout at devnull so the exit-time flush is quiet
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_ERROR
    return code


def _main(argv: Optional[Sequence[str]]) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)

    fmt = args.format or _env_default("FORMAT", "json")
    if fmt not in ("json", "csv"):
        print(f"kuniform: invalid format {fmt!r}", file=sys.stderr)
        return EXIT_USAGE

    try:
        budget = args.budget if args.budget is not None else _env_int(
            "BUDGET", DEFAULT_SUBSET_BUDGET
        )
        cap_dim = args.cap_dim if args.cap_dim is not None else _env_int(
            "CAP_DIM", oracle.DEFAULT_DIM_CAP
        )
        if args.command == "bound":
            status, payload, csv_text = _run_bound(args)
        elif args.command == "table":
            status, payload, csv_text = _run_table(args)
        elif args.command == "ame":
            status, payload, csv_text = _run_ame(args, budget)
        elif args.command == "state":
            status, payload, csv_text = _run_state(args, cap_dim)
        else:
            status, payload, csv_text = _run_verify(args)
    except _UsageError as exc:
        print(f"kuniform: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NotApplicableError as exc:
        _emit(args.command, STATUS_NOT_APPLICABLE, {"error": str(exc)}, "json", None)
        return EXIT_NOT_APPLICABLE
    except (BudgetExceededError, CapacityError, ValueError) as exc:
        _emit(args.command, STATUS_ERROR, {"error": str(exc)}, "json", None)
        return EXIT_ERROR

    _emit(args.command, status, payload, fmt, csv_text)
    if status == STATUS_ERROR:
        return EXIT_ERROR
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
