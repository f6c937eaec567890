import io
import json
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kuniform.cli import main
from kuniform.hetero import DimensionProfile
from kuniform.oracle import ghz_state, product_zero_state


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


def test_bound_qubit_example(capsys):
    code, doc = run_json(capsys, "bound", "--d", "2", "--n", "10")
    assert doc["payload"]["records"][0]["k_max"] == 3


def test_bound_usage_errors(capsys):
    assert main(["bound", "--d", "3", "--n-range", "8"]) == 2
    assert main(["bound", "--d", "1", "--n", "8"]) == 2
    with pytest.raises(SystemExit):
        main(["bound", "--d", "3"])  # argparse: missing --n/--n-range


@pytest.mark.parametrize("table_id", ["I", "II", "III", "IV"])
def test_table_reproduction(capsys, table_id):
    code, doc = run_json(capsys, "table", "--paper", table_id)
    assert code == 0
    assert doc["status"] == "ok"
    assert doc["payload"]["match"] is True
    assert doc["payload"]["diffs"] == []


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


def test_ame_budget_exceeded(capsys):
    # feasible, below the closed-form threshold, with two subset classes
    code, doc = run_json(capsys, "ame", "--dims", "3x1,2x8", "--budget", "1")
    assert code == 1
    assert doc["status"] == "error"
    assert "budget" in doc["payload"]["error"]


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


def test_state_capacity_error(tmp_path, capsys):
    path = tmp_path / "ghz6.json"
    path.write_text(json.dumps(ghz_state(6, 2).to_json_dict()))
    code, doc = run_json(
        capsys, "state", "--file", str(path), "--enumerate", "--cap-dim", "4"
    )
    assert code == 1 and doc["status"] == "error"


@pytest.mark.parametrize("suite", ["alpha", "recurrence", "shadow-oracle"])
def test_verify_suites_pass(capsys, suite):
    code, doc = run_json(capsys, "verify", "--suite", suite)
    assert code == 0
    assert doc["status"] == "ok"
    assert doc["payload"]["failures"] == []
    assert doc["payload"]["checks"] > 0


def test_envelopes_are_deterministic_modulo_timestamp(capsys):
    _, doc1 = run_json(capsys, "bound", "--d", "3", "--n-range", "2:20")
    _, doc2 = run_json(capsys, "bound", "--d", "3", "--n-range", "2:20")
    doc1.pop("timestamp"), doc2.pop("timestamp")
    assert json.dumps(doc1, sort_keys=True) == json.dumps(doc2, sort_keys=True)


def test_env_variable_mirrors_flags(capsys, monkeypatch):
    monkeypatch.setenv("KUNIFORM_FORMAT", "csv")
    code, out = run_cli(capsys, "bound", "--d", "2", "--n", "4")
    assert code == 0 and out.startswith("N,k_max,provenance")
    # explicit flag wins over the environment
    code, out = run_cli(capsys, "bound", "--d", "2", "--n", "4", "--format", "json")
    assert json.loads(out)["status"] == "ok"


@pytest.mark.parametrize("name", ["KUNIFORM_BUDGET", "KUNIFORM_CAP_DIM"])
def test_non_integer_env_value_is_usage_error(capsys, monkeypatch, name):
    monkeypatch.setenv(name, "abc")
    code = main(["ame", "--dims", "3x1,2x8"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith(f"kuniform: invalid {name} 'abc'")


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


@given(st.one_of(
    st.text(min_size=1, max_size=20),
    st.text(alphabet="0123456789x,[] -+.e", min_size=1, max_size=12),
    st.lists(
        st.one_of(st.integers(-3, 9), st.floats(-9, 9), st.booleans(), st.none()),
        max_size=9,
    ).map(json.dumps),
))
def test_exit_code_contract_on_garbage_profiles(text):
    # any profile text ends in one exit code of the contract with one
    # envelope or one `kuniform:` stderr line, never a stray exception
    out, err = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sys, "stdout", out)
        mp.setattr(sys, "stderr", err)
        try:
            code = main(["ame", "--dims", text, "--budget", "1000"])
        except SystemExit as exc:  # argparse itself rejects flag-shaped text
            assert exc.code == 2
            return
    assert code in (0, 1, 2, 3)
    if code == 2:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("kuniform: ")
        assert err.getvalue().count("\n") == 1
        return
    assert err.getvalue() == ""
    assert out.getvalue().count("\n") == 1
    doc = json.loads(out.getvalue())
    assert set(doc) == {"command", "status", "timestamp", "payload"}
    statuses = {0: ("ok", "violation-found"), 1: ("error",), 3: ("not-applicable",)}
    assert doc["status"] in statuses[code]
    if code == 0:
        assert doc["payload"]["profile"] == list(DimensionProfile.parse(text).dims)


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
        assert captured.err.startswith("kuniform: profile JSON must hold integers")


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
