"""Command-line front end.

usage: kuniform <subcommand> --flag value ...

  bound   upper bounds on k for homogeneous systems (single N or a range)
            --d D  (--n N | --n-range A:B)  [--format json|csv]
  table   recompute a pinned reference table and diff it cell by cell
            --paper I|II|III|IV  [--format json|csv]
  ame     AME non-existence verdict for a dimension profile
            --dims "<dim>x<count>,..." or "[<dim>,...]"
  state   brute-force checks on an explicit state file
            --file F  (--check-uniform K | --enumerate)
  verify  internal cross-validation suites at desk scale
            --suite alpha|recurrence|shadow-oracle

Flags are spelled in full, as `--flag value` or `--flag=value`; a
repeated flag keeps its last value, and a value is taken as it is, even
one that starts with "-".  `-h` or `--help` prints this summary.

Every run prints a single JSON envelope {command, status, timestamp,
payload} (or plain CSV rows with --format csv where a tabular layout is
defined).  Envelopes are byte-deterministic apart from the timestamp
field.  Exit status: 0 for "ok" and for "violation-found" (a found
non-existence certificate or table mismatch is a successful computation),
1 for errors, 2 for usage errors, 3 for not-applicable requests.  A
reader that closes stdout early (`kuniform ... | head`) ends the run
with exit 1 and nothing on stderr.

The summary above is the help text (its second to fourth paragraphs) and
`_SPEC` is the parser: one entry per subcommand with the flags it takes,
the flags it requires, its one-of groups and the function that runs it,
read by `_parse` in one pass over argv.  Every usage error raises
`_UsageError`, and `main` returns 2 with one `kuniform: ...` line on
stderr and nothing on stdout.  `main` never raises `SystemExit`, so an
in-process caller sees the exit status `python -m kuniform.cli` exits
with.

Modules load on first use.  At import this module loads only
`kuniform.errors`; each runner reads the modules it runs off the package
namespace `_lib`, which imports a submodule at its first read, and a
choice named by a "module.NAME" string in `_SPEC` (the --paper tables) is
read only when its flag is given.  So `--help` and most usage errors load
no other module, `bound` and `table --paper I..III` load `bounds` with
`enumerators` and `exact` (and `tables`, for --format csv or a table),
`ame` and `table --paper IV` load `hetero`, and only `state` and
`verify --suite shadow-oracle` load `oracle`.

A run reads only its command-line arguments.  Usage errors are an
empty command line, an unknown subcommand, a flag the subcommand does
not take, a missing required flag, a one-of group given none or both of
its flags, a value outside its choices, a flag with no value, an integer
not written in ASCII digits with an optional "-" (`1_0`, `+3`, ` 3`), a
negative --check-uniform, a --d or a party count of `bound` below 2
(each integer checked once, by `errors.read_int`) and an unreadable
`ame --dims` profile.
Rationals are printed as exact "p/q" strings, never floats.  Party counts
above errors.MAX_PARTIES (in `bound --n`, `bound --n-range`, the
`ame --dims` profile and a state file) are refused with a capacity error
before any work, and so is a profile whose dimensions take more than
errors.MAX_DIM_BITS bits, and a state whose brute force would take more
than oracle.WORK_CAP = 2^22 steps, K (N + min(K, D_S)) per subset S read
with K nonzero kets: the one size rule of `state` (see `oracle`).
Below those caps no `bound` or `ame` request needs a search limit: one
bound climbs the alpha sign test from its seeds in O(N) steps, each
further N of a range takes O(1) steps along the sign boundary, and a whole
`bound --d 5 --n-range 2:4096` process runs in 0.15-0.22 s with a 28 MB
peak resident set (2-core VM, Python 3.11.7); the subset search behind
`ame` evaluates at most floor(N/2)+3 draws, in under 0.3 s on the widest
profiles.
"""

from __future__ import annotations

import json
import os
import sys
import time
from collections.abc import Sequence

from .errors import (
    CapacityError,
    NotApplicableError,
    read_int,
)

FORMATS = ("json", "csv")

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_USAGE = 2
EXIT_NOT_APPLICABLE = 3

STATUS_OK = "ok"
STATUS_VIOLATION = "violation-found"
STATUS_NOT_APPLICABLE = "not-applicable"
STATUS_ERROR = "error"

# suite -> "module.function" of the function that runs it and returns
# (checks, failures)
_VERIFY_SUITES = {
    "alpha": "bounds.cross_validate_alpha",
    "recurrence": "bounds.cross_validate_recurrences",
    "shadow-oracle": "oracle.cross_validate_ame_shadow",
}


_lib = sys.modules[__package__]  # the package, which imports a submodule at its first read


def _resolve(path: str):
    """The object "module.name" names in this package."""
    module, _, name = path.partition(".")
    return getattr(getattr(_lib, module), name)


class _UsageError(Exception):
    pass


def _usage_int(text: str, what: str, least: int) -> int:
    """`errors.read_int` on a command-line value; a refusal is a usage error."""
    try:
        return read_int(text, what, least)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None


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


def _run_bound(args: dict) -> tuple[str, dict, str | None]:
    d = _usage_int(args["--d"], "--d", 2)
    if "--n" in args:
        lo = hi = _usage_int(args["--n"], "--n", 2)
    else:
        lo, hi = _parse_n_range(args["--n-range"])
    records = _lib.bounds.compute_bound_records(d, lo, hi)
    payload = {"d": d, "records": [r.to_json_dict() for r in records]}
    csv_text = _lib.tables.bound_csv(records) if args.get("--format") == "csv" else None
    return STATUS_OK, payload, csv_text


def _run_table(args: dict) -> tuple[str, dict, str | None]:
    tables = _lib.tables
    diff = tables.diff_table(args["--paper"])
    status = STATUS_OK if diff.match else STATUS_VIOLATION
    csv_text = tables.table_csv(diff) if args.get("--format") == "csv" else None
    return status, diff.to_json_dict(), csv_text


def _run_ame(args: dict) -> tuple[str, dict, str | None]:
    hetero = _lib.hetero
    try:
        profile = hetero.DimensionProfile.parse(args["--dims"])
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc
    verdict = hetero.ame_verdict(profile)
    payload = verdict.to_json_dict()
    status = STATUS_OK if verdict.status == "unknown" else STATUS_VIOLATION
    return status, payload, None


def _run_state(args: dict) -> tuple[str, dict, str | None]:
    path = args["--file"]
    k = args.get("--check-uniform")
    if k is not None:
        # above N//2 depends on the file, so only the sign is a usage error
        k = _usage_int(k, "--check-uniform", 0)
    oracle = _lib.oracle
    try:
        state = oracle.PureState.load(path)
    except (OSError, ValueError) as exc:
        raise ValueError(f"cannot read state file {path}: {exc}") from exc
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
        "s_matches_transform": _lib.enumerators.shadow_transform(a).coeffs == s_direct.coeffs,
    }
    return STATUS_OK, payload, None


def _run_verify(args: dict) -> tuple[str, dict, str | None]:
    suite = args["--suite"]
    checks, failures = _resolve(_VERIFY_SUITES[suite])()
    payload = {"suite": suite, "checks": checks, "failures": failures}
    status = STATUS_OK if not failures else STATUS_ERROR
    return status, payload, None


# ---------------------------------------------------------------------------
# the command line: one spec entry per subcommand, one pass over argv
# ---------------------------------------------------------------------------

# subcommand -> (flags, required flags, one-of groups, runner); a flag's
# entry is its tuple of choices, a "module.NAME" string naming the tuple
# (read, and its module imported, only when the flag is given), `str` for
# any text or `bool` for a switch
_SPEC = {
    "bound": (
        {"--d": str, "--n": str, "--n-range": str, "--format": FORMATS},
        ("--d",),
        (("--n", "--n-range"),),
        _run_bound,
    ),
    "table": ({"--paper": "tables.TABLE_IDS", "--format": FORMATS}, ("--paper",), (), _run_table),
    "ame": ({"--dims": str}, ("--dims",), (), _run_ame),
    "state": (
        {"--file": str, "--check-uniform": str, "--enumerate": bool},
        ("--file",),
        (("--check-uniform", "--enumerate"),),
        _run_state,
    ),
    "verify": ({"--suite": tuple(_VERIFY_SUITES)}, ("--suite",), (), _run_verify),
}


def _parse(argv: Sequence[str]) -> tuple[str, dict] | None:
    """The subcommand and its {flag: value}, or None for a help request.

    A switch's value is True; a flag not given has no key.
    """
    if not argv:
        raise _UsageError(f"expected a subcommand: {', '.join(_SPEC)}")
    command = argv[0]
    if command in ("-h", "--help"):
        return None
    if command not in _SPEC:
        raise _UsageError(f"unknown subcommand {command!r}, expected one of {', '.join(_SPEC)}")
    flags, required, groups, _ = _SPEC[command]
    args = {}
    tokens = iter(argv[1:])
    for token in tokens:
        if token in ("-h", "--help"):
            return None
        flag, eq, value = token.partition("=")
        kind = flags.get(flag)
        if kind is None:
            raise _UsageError(f"{command} takes no argument {flag!r}")
        if kind is bool:
            if eq:
                raise _UsageError(f"{flag} takes no value, got {token!r}")
            args[flag] = True
            continue
        if not eq:
            value = next(tokens, None)
            if value is None:
                raise _UsageError(f"{flag} expects a value")
        if isinstance(kind, str):
            kind = _resolve(kind)
        if kind is not str and value not in kind:
            raise _UsageError(f"{flag} must be one of {', '.join(kind)}, got {value!r}")
        args[flag] = value
    for flag in required:
        if flag not in args:
            raise _UsageError(f"{command} requires {flag}")
    for group in groups:
        if sum(flag in args for flag in group) != 1:
            raise _UsageError(f"{command} takes exactly one of {', '.join(group)}")
    return command, args


def _timestamp() -> str:
    """UTC now in ISO 8601, always with six fractional digits."""
    seconds, micros = divmod(time.time_ns() // 1000, 1_000_000)
    t = time.gmtime(seconds)
    return (
        f"{t.tm_year:04d}-{t.tm_mon:02d}-{t.tm_mday:02d}T"
        f"{t.tm_hour:02d}:{t.tm_min:02d}:{t.tm_sec:02d}.{micros:06d}+00:00"
    )


def _emit(command: str, status: str, payload: dict, csv_text: str | None = None) -> None:
    if csv_text is not None:
        print(csv_text)
        return
    envelope = {
        "command": command,
        "status": status,
        "timestamp": _timestamp(),
        "payload": payload,
    }
    print(json.dumps(envelope, sort_keys=True))


def main(argv: Sequence[str] | None = None) -> int:
    try:
        code = _main(sys.argv[1:] if argv is None else argv)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout early (`kuniform ... | head`); the Python
        # docs' idiom points stdout at devnull so the exit-time flush is quiet
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_ERROR
    return code


def _main(argv: Sequence[str]) -> int:
    try:
        parsed = _parse(argv)
        if parsed is None:  # the docstring's usage, summary and spellings
            print("\n\n".join((__doc__ or "").split("\n\n")[1:4]))
            return EXIT_OK
        command, args = parsed
        status, payload, csv_text = _SPEC[command][3](args)
    except _UsageError as exc:
        print(f"kuniform: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NotApplicableError as exc:
        _emit(command, STATUS_NOT_APPLICABLE, {"error": str(exc)})
        return EXIT_NOT_APPLICABLE
    except (CapacityError, ValueError) as exc:
        _emit(command, STATUS_ERROR, {"error": str(exc)})
        return EXIT_ERROR

    _emit(command, status, payload, csv_text)
    if status == STATUS_ERROR:
        return EXIT_ERROR
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
