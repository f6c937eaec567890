"""The benchmark's own tests.

Usage, from the root of a kuniform checkout:

    python3 perfbench/selftest.py

They show that an altered table cell, certificate value or count is
counted as a failed operation, that the benchmark's own shadow route
agrees with both of the program's routes, that the Table IV
transcription follows from the published formulas, and that the inputs
depend on the seed alone.  Exit code 0 when every test passes.
"""

from __future__ import annotations

import json
import random
import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path.cwd() / "src"))

import kuniform  # noqa: E402
import kuniform.cli  # noqa: E402,F401

import checks  # noqa: E402
import passrun  # noqa: E402
import published  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def _cli_op(check: str, *argv, **extra) -> dict:
    return {"kind": "small", "check": check, "cli": list(argv), **extra}


def _edit_payload(edit):
    def mutate(raw: dict) -> dict:
        doc = json.loads(raw["out"])
        edit(doc["payload"])
        return {"rc": raw["rc"], "out": json.dumps(doc)}

    return mutate


def _shift(cert_path: tuple, key: str):
    def edit(payload):
        node = payload
        for step in cert_path:
            node = node[step]
        node[key] = str(Fraction(node[key]) - 1)

    return edit


def _edit_shadow(raw):
    s = list(raw)
    s[1], s[2] = s[1] + 1, s[2] - 1  # keeps the sum at 2^N
    return tuple(s)


def test_altered_outputs_count_as_failed():
    state = workloads.write_state_files(Path(run.OUT_DIR) / "selftest-states")
    ghz = workloads.corpus_states()[3]
    ops = [
        _cli_op("table", "table", "--paper", "I"),
        _cli_op("bound", "bound", "--d", "2", "--n", "40"),
        _cli_op("ame", "ame", "--dims", "2x1,4x34"),
        _cli_op("ame", "ame", "--dims", "3x19,4x2"),
        _cli_op("ame", "ame", "--dims", "3x1,2x8"),
        _cli_op("verify", "verify", "--suite", "recurrence"),
        _cli_op("enumerate", "state", "--file", state[ghz[0]], "--enumerate", state=ghz[0], dims=ghz[1]),
        {"kind": "large", "check": "hetero_shadow", "lib": "hetero_shadow", "dims": "3x1,2x8"},
    ]
    mutations = {
        "table cell": (0, _edit_payload(lambda p: p["cells"][5].update(k_max=p["cells"][5]["k_max"] + 2))),
        "table record": (0, _edit_payload(lambda p: p["records"][40].update(k_max=p["records"][40]["k_max"] - 1))),
        "alpha witness": (1, _edit_payload(_shift(("records", 0), "witness"))),
        "corollary7 value": (2, _edit_payload(_shift(("certificate", "witness"), "value"))),
        "scott witness value": (3, _edit_payload(_shift(("certificate", "witness"), "value"))),
        "shadow certificate value": (4, _edit_payload(_shift(("certificate",), "s_j"))),
        "verify count": (5, _edit_payload(lambda p: p.update(checks=p["checks"] + 1))),
        "enumerator coefficient": (6, _edit_payload(lambda p: p["a"]["coeffs"].__setitem__(2, "2"))),
        "shadow coefficient": (7, _edit_shadow),
    }
    outputs = [passrun.run_op(kuniform, op) for op in ops]
    oracles = passrun.second_routes(kuniform)
    clean = run.tally(passrun.check_outputs(ops, outputs, oracles))
    assert clean == {"correct": True, "attempted": len(ops), "failed": 0}, clean
    for name, (index, mutate) in mutations.items():
        altered = list(outputs)
        altered[index] = mutate(outputs[index])
        counts = run.tally(passrun.check_outputs(ops, altered, oracles))
        assert counts == {"correct": False, "attempted": len(ops), "failed": 1}, (name, counts)


def test_crashing_operation_is_failed_but_not_incorrect():
    ops = [_cli_op("ame", "ame", "--dims", "3x1,2x8")]
    records = passrun.check_outputs(ops, [RuntimeError("boom")], {})
    assert run.tally(records) == {"correct": True, "attempted": 1, "failed": 1}


def test_shadow_routes_agree():
    profiles = ["3x1,2x4", "5x2,6x3,7x2", "5x1,3x6", "2x7", "9x2,8x3,7x4", "9x9,8x12", "3x1,2x40"]
    for spec in profiles:
        dims = checks.parse_dims(spec)
        assert checks.schmidt_feasible(dims), spec  # the routes agree on feasible profiles
        profile = kuniform.DimensionProfile(tuple(dims))
        own = checks.ame_shadow(dims)
        assert own == list(kuniform.hetero_shadow(profile).s), spec
        if len(dims) <= checks.ORACLE_SHADOW_MAX_N:
            assert tuple(own) == kuniform.ame_shadow_oracle(profile), spec


def test_shadow_sums_to_2_to_the_n_for_any_purity_profile():
    rng = random.Random(7)
    for n in (3, 4, 5, 6, 7):
        purities = [Fraction(1)] + [Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(2**n - 1)]
        assert sum(kuniform.oracle.shadow_from_purities(purities)) == 2**n


def test_table_iv_transcription_follows_from_the_formulas():
    for d1, d2, threshold, shadow_ns in published.table_iv_rows():
        assert checks.pair_threshold(d1, d2) == threshold, (d1, d2)
        certified = [
            n for n in range(1, threshold)
            if checks.first_negative(checks.ame_shadow([d1] + [d2] * (2 * n))) is not None
        ]
        assert certified == shadow_ns, (d1, d2, certified)


def test_inputs_depend_on_the_seed_alone():
    states = Path(run.OUT_DIR) / "selftest-states"
    for name in workloads.WORKLOADS:
        first = workloads.build(name, 11, states)
        assert first == workloads.build(name, 11, states), name
        assert first != workloads.build(name, 12, states), name


def main() -> int:
    failures = 0
    for name, test in list(globals().items()):
        if name.startswith("test_"):
            try:
                test()
                print(f"PASS {name}")
            except AssertionError as exc:
                failures += 1
                print(f"FAIL {name}: {exc}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
