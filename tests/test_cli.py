import io
import itertools
import json
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kuniform import bounds, oracle, tables
from kuniform.cli import _build_parser, main
from kuniform.exact import GaussianRational
from kuniform.hetero import DimensionProfile
from kuniform.oracle import PureState, ghz_state, product_zero_state


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run_cli(capsys, *argv)
    return code, json.loads(out)


def test_bound_single(capsys):
    code, doc = run_json(capsys, "bound", "--d", "3", "--n", "8")
    assert code == 0 and doc["status"] == "ok"
    (record,) = doc["payload"]["records"]
    assert record["k_max"] == 3
    assert record["provenance"] == "alpha-sign(4)"
    assert record["witness"] == "-32"


def test_bound_range_csv(capsys):
    code, out = run_cli(
        capsys, "bound", "--d", "3", "--n-range", "2:88", "--format", "csv"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "N,k_max,provenance"
    assert len(lines) == 88  # header + 87 rows
    assert lines[1].startswith("2,1,")
    assert lines[-1].startswith("88,37,")


def test_bound_range_equals_the_per_n_runs(capsys):
    # the range walks the alpha sign boundary; each --n run scans on its own
    singles = [run_json(capsys, "bound", "--d", "5", "--n", str(n))[1] for n in range(2, 301)]
    _, doc = run_json(capsys, "bound", "--d", "5", "--n-range", "2:300")
    assert doc["payload"]["records"] == [r for s in singles for r in s["payload"]["records"]]
    _, out = run_cli(capsys, "bound", "--d", "5", "--n-range", "2:300", "--format", "csv")
    rows = [
        run_cli(capsys, "bound", "--d", "5", "--n", str(n), "--format", "csv")[1].splitlines()
        for n in range(2, 301)
    ]
    assert out.splitlines() == rows[0][:1] + [row for lines in rows for row in lines[1:]]


def test_bound_qubit_example(capsys):
    code, doc = run_json(capsys, "bound", "--d", "2", "--n", "10")
    assert doc["payload"]["records"][0]["k_max"] == 3


@pytest.mark.parametrize(
    "argv, what, text",
    [
        (["bound", "--d", "3", "--n", "1_0"], "--n", "1_0"),
        (["bound", "--d", "3", "--n", "\u0663"], "--n", "\u0663"),
        (["bound", "--d", " 3", "--n", "5"], "--d", " 3"),
        (["bound", "--d", "3", "--n-range", "+3:4"], "--n-range A", "+3"),
        (["bound", "--d", "3", "--n-range", "3:4\n"], "--n-range B", "4\n"),
        (["state", "--file", "ghz3.json", "--check-uniform", "1_0"], "--check-uniform", "1_0"),
    ],
)
def test_cli_integers_are_ascii_digits(tmp_path, capsys, monkeypatch, argv, what, text):
    # int() once read each of these, so `bound --n 1_0` was answered for N = 10
    monkeypatch.chdir(tmp_path)
    (tmp_path / "ghz3.json").write_text(json.dumps(ghz_state(3, 2).to_json_dict()))
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"kuniform: {what} must be an integer, got {text!r}\n"


def test_cli_integer_above_the_digit_limit_names_its_flag(capsys):
    # Python's int() refuses more than 4300 digits with a message naming no flag
    assert main(["bound", "--d", "3", "--n", "9" * 5000]) == 2
    assert capsys.readouterr().err == "kuniform: --n has 5000 digits, more than Python converts\n"


def test_bound_usage_errors(capsys):
    # each value passes the input rule once, and the line is the rule's
    for argv, line in [
        (["--d", "3", "--n-range", "8"], "--n-range expects A:B, got '8'"),
        (["--d", "1", "--n", "8"], "--d must be >= 2, got 1"),
        (["--d", "3", "--n", "1"], "--n must be >= 2, got 1"),
        (["--d", "3", "--n-range", "0:4"], "--n-range A must be >= 2, got 0"),
    ]:
        assert main(["bound", *argv]) == 2
        assert capsys.readouterr().err == f"kuniform: {line}\n"
    with pytest.raises(SystemExit):
        main(["bound", "--d", "3"])  # argparse: missing --n/--n-range


@pytest.mark.parametrize("table_id", ["I", "II", "III", "IV"])
def test_table_reproduction(capsys, table_id):
    code, doc = run_json(capsys, "table", "--paper", table_id)
    assert code == 0
    assert doc["status"] == "ok"
    assert doc["payload"]["match"] is True
    assert doc["payload"]["diffs"] == []


@pytest.mark.parametrize("table_id", ["I", "II", "III", "IV"])
def test_committed_table_csvs_are_current(table_id):
    # the exact text scripts/reproduce_tables.py writes into out/
    path = Path(__file__).resolve().parents[1] / "out" / f"table_{table_id}.csv"
    assert path.read_text() == tables.table_csv(tables.diff_table(table_id)) + "\n"


def test_table_csv_layout(capsys):
    code, out = run_cli(capsys, "table", "--paper", "I", "--format", "csv")
    lines = out.strip().splitlines()
    assert lines[0] == "N_range,k_max"
    assert lines[1] == "2-3,1"
    assert "9,4" in lines  # single-N cell renders bare
    assert lines[-1] == "84-88,37"


def test_ame_shadow_certificate(capsys):
    code, doc = run_json(capsys, "ame", "--dims", "3x1,2x8")
    assert code == 0
    assert doc["status"] == "violation-found"
    cert = doc["payload"]["certificate"]
    assert cert["kind"] == "shadow-negative(1)"
    assert cert["s_j"] == "-23/12"


def test_ame_scott_certificate(capsys):
    code, doc = run_json(capsys, "ame", "--dims", "2x1,4x34")
    assert code == 0
    assert doc["payload"]["status"] == "nonexistent"
    cert = doc["payload"]["certificate"]
    assert cert["kind"] == "corollary7"
    assert cert["witness"]["value"] == "-6"


def test_ame_unknown(capsys):
    code, doc = run_json(capsys, "ame", "--dims", "2x4")
    assert code == 0
    assert doc["status"] == "ok"
    assert doc["payload"]["status"] == "unknown"


def test_ame_bad_profile(capsys):
    assert main(["ame", "--dims", "banana"]) == 2


@pytest.mark.parametrize(
    "text",
    ["1_0x1,2x2", "+3x1,2x2", "3 x 1,2x2", "\u0663x1,2x2", "3x1,2x\uff12", "3x-1,2x2"],
    ids=["underscore", "sign", "inner-space", "arabic-indic-digit", "fullwidth-digit",
         "negative-count"],
)
def test_ame_profile_terms_are_ascii_digits(capsys, text):
    # int() once read these, as [10, 2, 2] and [3, 2, 2]
    assert main(["ame", "--dims", text]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("kuniform: bad profile term")


@pytest.mark.parametrize(
    "dims",
    [f"{10**100 + 1}x2047,{10**100}x2048", f"{10**1000 + 1}x1,{10**1000}x1000"],
    ids=["2047-and-2048-of-10^100", "1001-of-10^1000"],
)
def test_ame_wide_dimensions_fail_at_once(capsys, dims):
    # these once took 20.5 s and 17.9 s before a capacity error
    start = time.monotonic()
    code, doc = run_json(capsys, "ame", "--dims", dims)
    assert time.monotonic() - start < 1.0
    assert code == 1 and doc["status"] == "error"
    assert "above the cap of 65536 bits" in doc["payload"]["error"]


def test_ame_profile_allows_whitespace_around_terms(capsys):
    for text in ("3x1, 2x2", " 3x1 ,2x2 ", "[3, 2, 2]"):
        code, doc = run_json(capsys, "ame", "--dims", text)
        assert code == 0 and doc["payload"]["profile"] == [3, 2, 2], text


def test_ame_takes_no_budget_flag():
    # the subset search evaluates at most floor(N/2)+3 draws, so it needs no cap
    with pytest.raises(SystemExit) as exc:
        main(["ame", "--dims", "3x1,2x8", "--budget", "1"])
    assert exc.value.code == 2


def test_ame_on_a_wide_four_class_profile_ends_at_once(capsys):
    # 27 270 901 dimension multisets of 1002 parties, none negative; the
    # shadow test then refuses 2001 parties
    start = time.monotonic()
    code, doc = run_json(capsys, "ame", "--dims", "1003x300,1002x300,1001x300,1000x1101")
    assert time.monotonic() - start < 1.0
    assert code == 1
    assert doc["payload"] == {"error": "the shadow test takes at most 1001 parties, got 2001"}


def test_ame_above_the_shadow_cap(capsys):
    # Corollary 7 decides 3x1,2x4094 before the shadow test; 33x1003 needs
    # the shadow test, which stops at 1001 parties
    code, doc = run_json(capsys, "ame", "--dims", "3x1,2x4094")
    assert code == 0
    assert doc["payload"]["certificate"]["kind"] == "corollary7"
    code, doc = run_json(capsys, "ame", "--dims", "33x1003")
    assert code == 1
    assert doc["status"] == "error"
    assert "at most 1001 parties" in doc["payload"]["error"]


def test_ame_wide_dimensions_fail_fast(capsys):
    # 1000000x1001 reaches the shadow test, whose D of 19952 bits is refused
    start = time.monotonic()
    code, doc = run_json(capsys, "ame", "--dims", "1000000x1001")
    assert time.monotonic() - start < 1.0
    assert code == 1
    assert doc["status"] == "error"
    assert "at most 8192 bits, got 19952" in doc["payload"]["error"]


def test_state_commands(tmp_path, capsys):
    path = tmp_path / "ghz3.json"
    path.write_text(json.dumps(ghz_state(3, 2).to_json_dict()))
    code, doc = run_json(capsys, "state", "--file", str(path), "--enumerate")
    assert code == 0
    assert doc["payload"]["a"]["coeffs"] == ["1", "0", "3", "4"]
    assert doc["payload"]["s"]["coeffs"] == ["0", "3", "0", "5"]
    assert doc["payload"]["s_matches_transform"] is True

    code, doc = run_json(capsys, "state", "--file", str(path), "--check-uniform", "1")
    assert code == 0 and doc["payload"]["uniform"] is True

    prod = tmp_path / "prod.json"
    prod.write_text(json.dumps(product_zero_state(2).to_json_dict()))
    code, doc = run_json(capsys, "state", "--file", str(prod), "--check-uniform", "1")
    assert code == 0 and doc["payload"]["uniform"] is False


def test_state_malformed_file(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, doc = run_json(capsys, "state", "--file", str(path), "--enumerate")
    assert code == 1 and doc["status"] == "error"


def test_state_file_holds_integers_only(tmp_path, capsys):
    # dims 2.9 and ket 1.7 were once truncated and answered as a 2 x 2 state
    path = tmp_path / "float.json"
    doc = {"dims": [2.9, 2], "amps": [{"ket": [1.7, 1], "re": "1"}]}
    path.write_text(json.dumps(doc))
    code, doc = run_json(capsys, "state", "--file", str(path), "--enumerate")
    assert code == 1 and doc["status"] == "error"
    assert doc["payload"]["error"].startswith(f"cannot read state file {path}: dims")


@pytest.mark.parametrize(
    "text",
    [
        json.dumps({"dims": [2, 2], "amps": [5]}),
        json.dumps([1, 2]),
        json.dumps({"dims": [2, 2], "amps": {"ket": [0, 0], "re": "1"}}),
        json.dumps({"dims": [2, 2], "amps": [{"ket": [0, 0], "re": "1/0"}]}),
        "[" * 100000,
    ],
    ids=["scalar-amp", "top-level-array", "amps-object", "zero-denominator",
         "deep-nesting"],
)
def test_state_file_of_wrong_shape(tmp_path, capsys, text):
    # each of these once ended in a traceback with no envelope
    path = tmp_path / "shape.json"
    path.write_text(text)
    code, doc = run_json(capsys, "state", "--file", str(path), "--enumerate")
    assert code == 1 and doc["status"] == "error"
    assert doc["payload"]["error"].startswith(f"cannot read state file {path}: ")


@pytest.mark.parametrize(
    "doc, message",
    [
        ({}, "state is missing key 'dims'"),
        ({"dims": [2, 2]}, "state is missing key 'amps'"),
        (
            {"dims": [2, 2], "amps": [{"ket": [0, 0], "re": "1"}, {"re": "1"}]},
            "amps[1] is missing key 'ket'",
        ),
    ],
    ids=["empty", "no-amps", "no-ket"],
)
def test_state_file_missing_key(tmp_path, capsys, doc, message):
    # these once read "cannot read state file F: 'dims'", naming no key
    path = tmp_path / "partial.json"
    path.write_text(json.dumps(doc))
    code, doc = run_json(capsys, "state", "--file", str(path), "--enumerate")
    assert code == 1 and doc["status"] == "error"
    assert doc["payload"]["error"] == f"cannot read state file {path}: {message}"


def test_state_file_amplitudes_are_ascii_rationals(tmp_path, capsys):
    # Fraction() once read "1_0" as 10 and answered for that state
    path = tmp_path / "amps.json"
    amps = [{"ket": [0, 0], "re": "1_0"}, {"ket": [1, 1], "re": 3}]
    path.write_text(json.dumps({"dims": [2, 2], "amps": amps}))
    code, doc = run_json(capsys, "state", "--file", str(path), "--check-uniform", "1")
    assert code == 1 and doc["status"] == "error"
    assert doc["payload"]["error"] == (
        f"cannot read state file {path}: "
        "rational strings must be p/q in ASCII digits, got '1_0'"
    )
    # "3" reads, and so does the JSON integer 3 of the other ket
    amps[0]["re"] = "3"
    path.write_text(json.dumps({"dims": [2, 2], "amps": amps}))
    code, doc = run_json(capsys, "state", "--file", str(path), "--check-uniform", "1")
    assert code == 0 and doc["payload"]["uniform"] is True


def test_state_file_with_a_repeated_ket(tmp_path, capsys):
    # this once answered "ok" with a = (4, 8, 4), though a pure state has a_0 = 1
    path = tmp_path / "twice.json"
    amp = {"ket": [0, 0], "re": "1"}
    path.write_text(json.dumps({"dims": [2, 2], "amps": [amp, amp]}))
    code, doc = run_json(capsys, "state", "--file", str(path), "--enumerate")
    assert code == 1 and doc["status"] == "error"
    assert doc["payload"]["error"] == (
        f"cannot read state file {path}: ket (0, 0) appears more than once"
    )


def test_negative_check_uniform_is_a_usage_error(tmp_path, capsys):
    # this once ended in an error envelope with exit 1
    path = tmp_path / "ghz3.json"
    path.write_text(json.dumps(ghz_state(3, 2).to_json_dict()))
    assert main(["state", "--file", str(path), "--check-uniform", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "kuniform: --check-uniform must be >= 0, got -1\n"
    # k above N//2 depends on the file, so it stays an error envelope
    code, doc = run_json(capsys, "state", "--file", str(path), "--check-uniform", "2")
    assert code == 1 and doc["status"] == "error"
    assert doc["payload"]["error"] == "k must be in 0..1, got 2"


def test_state_capacity_error(tmp_path, capsys):
    # 2^18 subsets at 18 + 1 steps each, above the cap of 2^22 steps
    path = tmp_path / "product18.json"
    path.write_text(json.dumps(product_zero_state(18).to_json_dict()))
    code, doc = run_json(capsys, "state", "--file", str(path), "--enumerate")
    assert code == 1 and doc["status"] == "error"
    assert doc["payload"]["error"] == "brute force of about 2^22.25 steps exceeds cap 4194304"


def test_state_answers_the_two_uniform_tetracode_state(tmp_path, capsys, tetracode):
    # eight qutrits, 81 kets: once refused for its Hilbert dimension of 3^8
    path = tmp_path / "tetracode.json"
    path.write_text(json.dumps(tetracode.to_json_dict()))
    for k, uniform in (("2", True), ("3", False)):
        code, doc = run_json(capsys, "state", "--file", str(path), "--check-uniform", k)
        assert code == 0 and doc["payload"]["uniform"] is uniform
    code, doc = run_json(capsys, "state", "--file", str(path), "--enumerate")
    assert code == 0 and doc["payload"]["s_matches_transform"] is True
    assert doc["payload"]["a"]["coeffs"][:3] == ["1", "0", "0"]


def test_state_work_cap_refuses_a_dense_nine_qubit_state(tmp_path, capsys):
    # 512 (9 + min(512, D_S)) steps per subset, 6^9 of them ket pairs: the
    # purity sweep once ran about 6 s on this state
    amps = {
        ket: GaussianRational.of(1 + sum(ket), ket[0])
        for ket in itertools.product((0, 1), repeat=9)
    }
    path = tmp_path / "dense9.json"
    path.write_text(json.dumps(PureState.from_amplitudes((2,) * 9, amps).to_json_dict()))
    start = time.monotonic()
    code, doc = run_json(capsys, "state", "--file", str(path), "--enumerate")
    assert time.monotonic() - start < 1
    assert code == 1 and doc["status"] == "error"
    assert doc["payload"]["error"] == "brute force of about 2^23.57 steps exceeds cap 4194304"


def test_state_dim_cap_error_names_bits(tmp_path, capsys):
    # the dimension 100^4096 once went into the message, and printing its
    # 8193 digits raised Python's integer string conversion limit instead;
    # every refused count is named by its log2, as the 2^4096 * 4097 steps
    # of a full sweep are
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(product_zero_state(4096, 100).to_json_dict()))
    code, doc = run_json(capsys, "state", "--file", str(path), "--check-uniform", "1")
    assert code == 1 and doc["status"] == "error"
    assert doc["payload"]["error"] == "brute force of about 2^24.00 steps exceeds cap 4194304"
    code, doc = run_json(capsys, "state", "--file", str(path), "--enumerate")
    assert code == 1 and doc["status"] == "error"
    assert doc["payload"]["error"] == "brute force of about 2^4108.00 steps exceeds cap 4194304"


def test_state_with_wide_dimensions_is_answered_at_once(tmp_path, capsys):
    # 600 parties of dimension 2^31 +- 1 and one ket: 600 * 601 steps, but
    # the subset table once multiplied their dimensions of up to 18600 bits
    # for 2 s before any purity, and 2000 such parties ran for minutes
    dims = [2**31 + 1] * 300 + [2**31 - 1] * 300
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({"dims": dims, "amps": [{"ket": [0] * 600, "re": "1"}]}))
    start = time.monotonic()
    code, doc = run_json(capsys, "state", "--file", str(path), "--check-uniform", "1")
    assert time.monotonic() - start < 1
    assert code == 0 and doc["payload"]["uniform"] is False


def test_state_file_party_cap(tmp_path, capsys):
    # a state file once reached the brute force with no party cap at all
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(
        {"dims": [2] * 4097, "amps": [{"ket": [0] * 4097, "re": "1"}]}
    ))
    for flag in (["--enumerate"], ["--check-uniform", "1"]):
        code, doc = run_json(capsys, "state", "--file", str(path), *flag)
        assert code == 1 and doc["status"] == "error"
        assert doc["payload"]["error"] == "party count 4097 exceeds the cap of 4096 parties"


def test_state_enumerate_refuses_before_any_purity(tmp_path, capsys, monkeypatch):
    # the 2^N purity table and its O(3^N) inversion once ran before the
    # shadow's party cap refused the state; 2^17 subsets of 17 parties and
    # 2 kets are above the cap
    calls = []
    real = oracle._purity_numerator
    monkeypatch.setattr(
        oracle, "_purity_numerator", lambda *a: calls.append(a) or real(*a)
    )
    path = tmp_path / "ghz17.json"
    path.write_text(json.dumps(ghz_state(17, 2).to_json_dict()))
    code, doc = run_json(capsys, "state", "--file", str(path), "--enumerate")
    assert code == 1 and doc["status"] == "error"
    steps = 2 * (2**17 * 17 + 1 + (2**17 - 1) * 2)
    assert steps == 4980734
    assert doc["payload"]["error"] == "brute force of about 2^22.25 steps exceeds cap 4194304"
    assert calls == []


def test_state_enumerate_builds_the_purity_table_once(tmp_path, capsys, monkeypatch):
    # the shadow and the weight distribution once built the 2^N table each
    calls = []
    real = oracle._purity_numerator
    monkeypatch.setattr(
        oracle, "_purity_numerator", lambda *a: calls.append(a[2]) or real(*a)
    )
    path = tmp_path / "ghz6.json"
    path.write_text(json.dumps(ghz_state(6, 2).to_json_dict()))
    code, doc = run_json(capsys, "state", "--file", str(path), "--enumerate")
    assert code == 0 and doc["payload"]["s_matches_transform"] is True
    assert sorted(calls) == list(range(2**6))


def test_state_enumerate_keeps_nothing_between_runs(tmp_path, capsys, monkeypatch):
    # the last state's purity table was once kept, so a second run on the
    # same file was answered from it after the cap had been lowered
    path = tmp_path / "ghz6.json"
    path.write_text(json.dumps(ghz_state(6, 2).to_json_dict()))
    code, doc = run_json(capsys, "state", "--file", str(path), "--enumerate")
    assert code == 0 and doc["status"] == "ok"
    # 2 kets, each regrouped by its 6 labels for each of the 64 subsets; the
    # empty subset groups them apart, each of the other 63 together
    steps = 2 * (64 * 6 + 1 + 63 * 2)
    monkeypatch.setattr(oracle, "WORK_CAP", steps - 1)
    code, doc = run_json(capsys, "state", "--file", str(path), "--enumerate")
    assert code == 1 and doc["status"] == "error"
    assert steps == 1022
    assert doc["payload"]["error"] == "brute force of about 2^10.00 steps exceeds cap 1021"


def test_state_enumerate_heterogeneous_is_not_applicable(tmp_path, capsys):
    state = PureState.from_amplitudes((3, 2, 2), {(0, 0, 0): GaussianRational.of(1)})
    path = tmp_path / "hetero.json"
    path.write_text(json.dumps(state.to_json_dict()))
    code, doc = run_json(capsys, "state", "--file", str(path), "--enumerate")
    assert code == 3 and doc["status"] == "not-applicable"
    assert "homogeneous profiles" in doc["payload"]["error"]


@pytest.mark.parametrize("suite", ["alpha", "recurrence", "shadow-oracle"])
def test_verify_suites_pass(capsys, suite):
    code, doc = run_json(capsys, "verify", "--suite", suite)
    assert code == 0
    assert doc["status"] == "ok"
    assert doc["payload"]["failures"] == []
    assert doc["payload"]["checks"] > 0


def test_verify_alpha_drives_the_recurrence(capsys, monkeypatch):
    # the suite checks the engine `bound` and `table` run, once per (N, d),
    # on its integer sums, and fills neither route's cache of Fractions
    calls = []
    alpha_sums = bounds._alpha_sums

    def counting_sums(n, d):
        calls.append((n, d))
        return alpha_sums(n, d)

    monkeypatch.setattr(bounds, "_alpha_sums", counting_sums)
    caches = (bounds.alpha_vector, bounds.alpha_oracle_vector)
    for cache in caches:  # emptied, so that a value the suite caches would show
        cache.cache_clear()
    code, doc = run_json(capsys, "verify", "--suite", "alpha")
    assert code == 0 and doc["payload"]["failures"] == []
    assert doc["payload"]["checks"] == 3836
    assert sorted(calls) == [(n, d) for n in range(2, 61) for d in (2, 3, 4, 5)]
    assert [cache.cache_info().currsize for cache in caches] == [0, 0]


def test_envelopes_are_deterministic_modulo_timestamp(capsys):
    _, doc1 = run_json(capsys, "bound", "--d", "3", "--n-range", "2:20")
    _, doc2 = run_json(capsys, "bound", "--d", "3", "--n-range", "2:20")
    doc1.pop("timestamp"), doc2.pop("timestamp")
    assert json.dumps(doc1, sort_keys=True) == json.dumps(doc2, sort_keys=True)


def _run_captured(capsys, argv):
    """Exit code, stdout with the timestamp blanked, and stderr of one call."""
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse's own usage errors and --help
        code = exc.code
    captured = capsys.readouterr()
    out = re.sub(r'"timestamp": "[^"]*"', '"timestamp": ""', captured.out)
    return code, out, captured.err


def test_one_parser_serves_every_call_of_a_process(tmp_path, capsys):
    # the parser was once built again by every call, most of a small
    # call's time; reused, it must answer as a freshly built one does
    path = tmp_path / "ghz4.json"
    path.write_text(json.dumps(ghz_state(4, 2).to_json_dict()))
    sequence = [
        ["bound", "--d", "3", "--n-range", "2:30", "--format", "csv"],
        ["bound", "--d", "3", "--n-range", "2:30"],
        ["bound", "--d", "1", "--n", "8"],
        ["bound", "--d", "3"],
        ["--help"],
        ["state", "--file", str(path), "--enumerate"],
        ["verify", "--suite", "recurrence"],
    ]
    _build_parser.cache_clear()
    reused = [_run_captured(capsys, argv) for argv in sequence]
    assert _build_parser.cache_info().misses == 1
    fresh = []
    for argv in sequence:
        _build_parser.cache_clear()
        fresh.append(_run_captured(capsys, argv))
    assert [code for code, _, _ in reused] == [0, 0, 2, 2, 0, 0, 0]
    assert reused == fresh


def test_importing_the_cli_builds_no_parser():
    probe = (
        "import sys; sys.path.insert(0, 'src'); import kuniform.cli as c; "
        "print(c._build_parser.cache_info().misses)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        cwd=Path(__file__).resolve().parents[1],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "0\n"


def test_environment_variables_are_ignored(tmp_path, capsys, monkeypatch):
    # KUNIFORM_FORMAT once set --format, and KUNIFORM_CAP_DIM the dimension cap
    monkeypatch.setenv("KUNIFORM_FORMAT", "csv")
    monkeypatch.setenv("KUNIFORM_CAP_DIM", "1")
    code, doc = run_json(capsys, "bound", "--d", "2", "--n", "4")
    assert code == 0 and doc["status"] == "ok"
    path = tmp_path / "ghz3.json"
    path.write_text(json.dumps(ghz_state(3, 2).to_json_dict()))
    code, doc = run_json(capsys, "state", "--file", str(path), "--enumerate")
    assert code == 0 and doc["payload"]["s_matches_transform"] is True


def test_flags_and_variables_reach_only_their_subcommand(capsys):
    # a flag a subcommand did not read was once accepted and ignored
    for argv in (
        ["ame", "--dims", "3x1,2x8", "--format", "csv"],
        ["bound", "--d", "3", "--n", "5", "--cap-dim", "1"],
        ["verify", "--suite", "recurrence", "--cap-dim", "1"],
        ["state", "--file", "ghz3.json", "--enumerate", "--cap-dim", "4096"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv


@pytest.mark.parametrize(
    "argv",
    [
        ["bound", "--d", "3", "--n-range", "2:100000"],
        ["bound", "--d", "3", "--n", "4097"],
        ["ame", "--dims", "2x100000000"],
    ],
)
def test_party_counts_above_cap_fail_at_once(capsys, argv):
    code, doc = run_json(capsys, *argv)
    assert code == 1
    assert doc["status"] == "error"
    assert "exceeds the cap of 4096 parties" in doc["payload"]["error"]


def _run_contract(argv):
    """Run `argv` and check the exit contract.

    Returns the exit code and the envelope, or None for a usage error:
    one exit code of the contract with one envelope or one `kuniform:`
    stderr line, never a stray exception.
    """
    out, err = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sys, "stdout", out)
        mp.setattr(sys, "stderr", err)
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse itself rejects flag-shaped text
            assert exc.code == 2
            return 2, None
    assert code in (0, 1, 2, 3)
    if code == 2:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("kuniform: ")
        assert err.getvalue().count("\n") == 1
        return code, None
    assert err.getvalue() == ""
    assert out.getvalue().count("\n") == 1
    doc = json.loads(out.getvalue())
    assert set(doc) == {"command", "status", "timestamp", "payload"}
    statuses = {0: ("ok", "violation-found"), 1: ("error",), 3: ("not-applicable",)}
    assert doc["status"] in statuses[code]
    return code, doc


@given(st.one_of(
    st.text(min_size=1, max_size=20),
    st.text(alphabet="0123456789x,[] -+.e", min_size=1, max_size=12),
    st.lists(
        st.one_of(st.integers(-3, 9), st.floats(-9, 9), st.booleans(), st.none()),
        max_size=9,
    ).map(json.dumps),
))
def test_exit_code_contract_on_garbage_profiles(text):
    code, doc = _run_contract(["ame", "--dims", text])
    if code == 0:
        assert doc["payload"]["profile"] == list(DimensionProfile.parse(text).dims)


# party counts up to 300 as plain integers, short garbage texts, and ranges
# at most a few wide, so that no example computes hundreds of bounds
_garbage = st.text(alphabet="0123456789:-+. x", max_size=4)
_n_text = st.one_of(st.integers(-5, 300).map(str), _garbage)
_range_text = st.one_of(
    st.tuples(st.integers(-5, 300), st.integers(-2, 4)).map(
        lambda p: f"{p[0]}:{p[0] + p[1]}"
    ),
    _garbage,
)


@settings(max_examples=80, deadline=None)
@given(
    st.integers(-3, 12),
    st.one_of(
        st.tuples(st.just("--n"), _n_text), st.tuples(st.just("--n-range"), _range_text)
    ),
)
def test_exit_code_contract_on_bound_arguments(d, n_arg):
    code, doc = _run_contract(["bound", "--d", str(d), *n_arg])
    if d < 2:
        assert code == 2
    if code == 0:
        for record in doc["payload"]["records"]:
            assert record["d"] == d and 0 <= record["k_max"] <= record["n"] // 2


def _nonnegative_int(text):
    """Whether `text` is ASCII digits, with an optional "-", for an integer >= 0."""
    return re.fullmatch("-?[0-9]+", text) is not None and int(text) >= 0


@settings(max_examples=80, deadline=None)
@given(
    st.one_of(
        st.integers(-10, 10).map(str),
        st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00"),
                max_size=5),
    ),
)
def test_exit_code_contract_on_counts(tmp_path_factory, text):
    # a --check-uniform K that is not an integer >= 0 is a usage error; a K
    # above N//2 depends on the file, so it is an error envelope
    path = tmp_path_factory.mktemp("state") / "ghz3.json"
    path.write_text(json.dumps(ghz_state(3, 2).to_json_dict()))
    code, _ = _run_contract(["state", "--file", str(path), "--check-uniform", text])
    assert (code == 2) == (not _nonnegative_int(text))


# JSON documents biased towards the state-file keys and small integers, so
# that some come close to a valid state and reach the deeper checks
_json_leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2, 4),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from(["0", "1", "-1/2", "1/0", "1.5", "x"]),
    st.text(max_size=4),
)
_json_docs = st.recursive(
    _json_leaves,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(
        st.sampled_from(["dims", "amps", "ket", "re", "im"]) | st.text(max_size=3),
        inner,
        max_size=4,
    ),
    max_leaves=12,
)


@settings(max_examples=150, deadline=None)
@given(_json_docs)
def test_exit_code_contract_on_arbitrary_state_files(tmp_path_factory, doc):
    # any JSON document as a state file ends in exit 0 with an "ok" envelope
    # or exit 1 with an "error" envelope, never a stray exception
    path = tmp_path_factory.mktemp("state") / "state.json"
    path.write_text(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sys, "stdout", out)
        mp.setattr(sys, "stderr", err)
        code = main(["state", "--file", str(path), "--enumerate"])
    assert err.getvalue() == ""
    assert out.getvalue().count("\n") == 1
    envelope = json.loads(out.getvalue())
    assert set(envelope) == {"command", "status", "timestamp", "payload"}
    assert (code, envelope["status"]) in ((0, "ok"), (1, "error"))


def test_ame_json_profile_holds_integers_only(capsys):
    for text in ("[2.9,3,3]", "[[2],3,3]", "[null,2,2]", "[true,2,2]"):
        assert main(["ame", "--dims", text]) == 2, text
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("kuniform: dims[0] must be an integer")


class _ClosedPipe:
    """A stdout whose reader has gone away, backed by a real descriptor."""

    def __init__(self, fd):
        self.fd = fd

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        pass

    def fileno(self):
        return self.fd


def test_closed_stdout_exits_quietly(tmp_path, capsys, monkeypatch):
    with open(tmp_path / "stdout", "w") as backing:
        monkeypatch.setattr(sys, "stdout", _ClosedPipe(backing.fileno()))
        code = main(["table", "--paper", "I"])
    assert code == 1
    assert capsys.readouterr().err == ""
