"""Command-line front end.

Five subcommands cover the library surface, each with the flags it reads:

  bound   upper bounds on k for homogeneous systems (single N or a range)
            --format json|csv
  table   recompute a pinned reference table and diff it cell by cell
            --format json|csv
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

`main` may be called any number of times in one process: the argument
parser is built at the first call and reused after it, and importing
the module builds none.

A run reads only its command-line arguments.  Usage errors are an
integer not written in ASCII digits with an optional "-" (`1_0`, `+3`,
` 3`), a negative --check-uniform, a --d or a party count of `bound`
below 2 (each checked once, by `errors.read_int`) and a flag given to a
subcommand that does not take it.
Rationals are printed as exact "p/q" strings, never floats.  Party counts
above errors.MAX_PARTIES (in `bound --n`, `bound --n-range`, the
`ame --dims` profile and a state file) are refused with a capacity error
before any work, and so is a profile whose dimensions take more than
errors.MAX_DIM_BITS bits, and a state whose brute force would take more
than oracle.WORK_CAP = 2^22 steps, K (N + min(K, D_S)) per subset S read
with K nonzero kets: the one size rule of `state` (see `oracle`).
Below those caps no `bound` or `ame` request
needs a search limit: one bound is an O(N) sign scan, each further N of
a range O(1) steps along the sign boundary, and
`bound --d 5 --n-range 2:4096` runs in about 0.4 s with a 29 MB peak
resident set (2-core VM); the subset search behind `ame` evaluates at
most floor(N/2)+3 draws, in under 0.3 s on the widest profiles.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from datetime import datetime, timezone
from functools import lru_cache
from typing import Optional, Sequence

from . import bounds, oracle, tables
from .enumerators import shadow_transform
from .errors import (
    CapacityError,
    NotApplicableError,
    check_party_count,
    read_int,
)
from .hetero import DimensionProfile, ame_verdict

FORMATS = ("json", "csv")

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_USAGE = 2
EXIT_NOT_APPLICABLE = 3

STATUS_OK = "ok"
STATUS_VIOLATION = "violation-found"
STATUS_NOT_APPLICABLE = "not-applicable"
STATUS_ERROR = "error"

# each suite returns (checks, failures)
_VERIFY_SUITES = {
    "alpha": bounds.cross_validate_alpha,
    "recurrence": bounds.cross_validate_recurrences,
    "shadow-oracle": oracle.cross_validate_ame_shadow,
}


class _UsageError(Exception):
    pass


def _usage_int(text: str, what: str, least: int) -> int:
    """`errors.read_int` on a command-line value; a refusal is a usage error."""
    try:
        return read_int(text, what, least)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None


@lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of the process, built at the first `main` call.

    `parse_args` leaves the parser as it was and returns a fresh
    namespace, and every choice and default here is a module constant,
    so later calls reuse it.
    """
    parser = argparse.ArgumentParser(
        prog="kuniform",
        description="Exact bounds on k-uniform states and AME non-existence certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_bound = sub.add_parser("bound", help="upper bounds on k")
    p_bound.set_defaults(run=_run_bound)
    p_bound.add_argument("--d", required=True, help="local dimension")
    group = p_bound.add_mutually_exclusive_group(required=True)
    group.add_argument("--n", help="single party count")
    group.add_argument("--n-range", help="inclusive party-count range A:B")

    p_table = sub.add_parser("table", help="reproduce a reference table")
    p_table.set_defaults(run=_run_table)
    p_table.add_argument(
        "--paper", required=True, choices=tables.TABLE_IDS, help="table identifier"
    )
    for p in (p_bound, p_table):
        p.add_argument(
            "--format", choices=FORMATS, default="json", help="output format (default json)"
        )

    p_ame = sub.add_parser("ame", help="AME non-existence verdict")
    p_ame.set_defaults(run=_run_ame)
    p_ame.add_argument(
        "--dims", required=True, help='profile string "<dim>x<count>,...", e.g. "3x1,2x10"'
    )

    p_state = sub.add_parser("state", help="explicit-state checks")
    p_state.set_defaults(run=_run_state)
    p_state.add_argument("--file", required=True, help="state JSON file")
    state_group = p_state.add_mutually_exclusive_group(required=True)
    state_group.add_argument("--check-uniform", metavar="K")
    state_group.add_argument("--enumerate", action="store_true")

    p_verify = sub.add_parser("verify", help="cross-validation suites")
    p_verify.set_defaults(run=_run_verify)
    p_verify.add_argument(
        "--suite", required=True, choices=_VERIFY_SUITES
    )
    return parser


# ---------------------------------------------------------------------------
# subcommand payloads
# ---------------------------------------------------------------------------


def _parse_n_range(text: str) -> tuple[int, int]:
    parts = text.split(":")
    if len(parts) != 2:
        raise _UsageError(f"--n-range expects A:B, got {text!r}")
    lo, hi = _usage_int(parts[0], "--n-range A", 2), _usage_int(parts[1], "--n-range B", 2)
    if lo > hi:
        raise _UsageError(f"--n-range expects A <= B, got {text!r}")
    return lo, hi


def _run_bound(args) -> tuple[str, dict, Optional[str]]:
    d = _usage_int(args.d, "--d", 2)
    if args.n is not None:
        lo = hi = _usage_int(args.n, "--n", 2)
    else:
        lo, hi = _parse_n_range(args.n_range)
    check_party_count(hi)  # lo <= hi, so this bounds both ends
    records = tables.compute_bound_records(d, lo, hi)
    payload = {"d": d, "records": [r.to_json_dict() for r in records]}
    return STATUS_OK, payload, tables.bound_csv(records) if args.format == "csv" else None


def _run_table(args) -> tuple[str, dict, Optional[str]]:
    diff = tables.diff_table(args.paper)
    status = STATUS_OK if diff.match else STATUS_VIOLATION
    return status, diff.to_json_dict(), tables.table_csv(diff) if args.format == "csv" else None


def _run_ame(args) -> tuple[str, dict, Optional[str]]:
    try:
        profile = DimensionProfile.parse(args.dims)
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc
    verdict = ame_verdict(profile)
    payload = verdict.to_json_dict()
    status = STATUS_OK if verdict.status == "unknown" else STATUS_VIOLATION
    return status, payload, None


def _run_state(args) -> tuple[str, dict, Optional[str]]:
    k = args.check_uniform
    if k is not None:
        # above N//2 depends on the file, so only the sign is a usage error
        k = _usage_int(k, "--check-uniform", 0)
    try:
        state = oracle.PureState.load(args.file)
    except (OSError, ValueError) as exc:
        raise ValueError(f"cannot read state file {args.file}: {exc}") from exc
    if k is not None:
        answer = oracle.is_k_uniform(state, k)
        payload = {
            "dims": list(state.profile.dims),
            "k": k,
            "uniform": answer,
        }
        return STATUS_OK, payload, None
    a, s_direct = oracle.direct_distributions(state)
    payload = {
        "dims": list(state.profile.dims),
        "a": a.to_json_dict(),
        "s": s_direct.to_json_dict(),
        "s_matches_transform": shadow_transform(a).coeffs == s_direct.coeffs,
    }
    return STATUS_OK, payload, None


def _run_verify(args) -> tuple[str, dict, Optional[str]]:
    checks, failures = _VERIFY_SUITES[args.suite]()
    payload = {"suite": args.suite, "checks": checks, "failures": failures}
    status = STATUS_OK if not failures else STATUS_ERROR
    return status, payload, None


# ---------------------------------------------------------------------------
# envelope and dispatch
# ---------------------------------------------------------------------------


def _emit(command: str, status: str, payload: dict, csv_text: Optional[str] = None) -> None:
    if csv_text is not None:
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

    try:
        status, payload, csv_text = args.run(args)
    except _UsageError as exc:
        print(f"kuniform: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NotApplicableError as exc:
        _emit(args.command, STATUS_NOT_APPLICABLE, {"error": str(exc)})
        return EXIT_NOT_APPLICABLE
    except (CapacityError, ValueError) as exc:
        _emit(args.command, STATUS_ERROR, {"error": str(exc)})
        return EXIT_ERROR

    _emit(args.command, status, payload, csv_text)
    if status == STATUS_ERROR:
        return EXIT_ERROR
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
