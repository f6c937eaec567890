"""The contract every result record keeps: equality, hash, immutability, repr and constructor.

The repr strings and constructor signatures are pinned to what the records
printed and took as frozen dataclasses, so the move to `exact.FrozenRecord`
changed none of them.
"""

import inspect
import pickle
from fractions import Fraction

import pytest

from kuniform.bounds import BoundVerdict, RecurrenceSpec
from kuniform.enumerators import (
    InvariantBasisCoeffs,
    ShadowCompressed,
    ShadowEnumerator,
    StateConstraintReport,
    WeightEnumerator,
)
from kuniform.exact import GaussianRational
from kuniform.hetero import AmeVerdict, Certificate, DimensionProfile, HeteroShadow, ScottWitness
from kuniform.oracle import PureState
from kuniform.tables import CellDiff, TableDiff

ONE = GaussianRational.of(1)
PAIR = DimensionProfile((2, 2))

# (class, arguments, arguments of an unequal record, repr, parameters); a
# parameter with a default is pinned as (name, default)
RECORDS = [
    (
        BoundVerdict,
        (5, 3, 2, "alpha-sign(3)", Fraction(-5, 3)),
        (5, 3, 2, "alpha-sign(3)"),
        "BoundVerdict(n_parties=5, local_dim=3, k_max=2, provenance='alpha-sign(3)',"
        " witness=Fraction(-5, 3))",
        ["n_parties", "local_dim", "k_max", "provenance", ("witness", None)],
    ),
    (
        RecurrenceSpec,
        (0, (1, 2), (3,), (4,), ((1, 5),), 2),
        (0, (1, 2), (3,), (4,), ((1, 5),), 3),
        "RecurrenceSpec(offset=0, lead=(1, 2), mid=(3,), low=(4,), initial_terms=((1, 5),),"
        " positive_from=2)",
        ["offset", "lead", "mid", "low", "initial_terms", "positive_from"],
    ),
    (
        WeightEnumerator,
        (2, 2, (1, 0, 3)),
        (2, 3, (1, 0, 3)),
        "WeightEnumerator(n_parties=2, local_dim=2,"
        " coeffs=(Fraction(1, 1), Fraction(0, 1), Fraction(3, 1)))",
        ["n_parties", "local_dim", "coeffs"],
    ),
    (
        ShadowEnumerator,
        (2, 2, (1, 0, 3)),
        (2, 2, (1, 0, 4)),
        "ShadowEnumerator(n_parties=2, local_dim=2,"
        " coeffs=(Fraction(1, 1), Fraction(0, 1), Fraction(3, 1)))",
        ["n_parties", "local_dim", "coeffs"],
    ),
    (
        InvariantBasisCoeffs,
        (2, 2, (1, Fraction(1, 2))),
        (2, 2, (1, Fraction(-1, 2))),
        "InvariantBasisCoeffs(n_parties=2, local_dim=2, coeffs=(Fraction(1, 1), Fraction(1, 2)))",
        ["n_parties", "local_dim", "coeffs"],
    ),
    (
        ShadowCompressed,
        (3, 1, (1, 0)),
        (2, 0, (1, 0)),
        "ShadowCompressed(n_parties=3, parity=1, coeffs=(Fraction(1, 1), Fraction(0, 1)))",
        ["n_parties", "parity", "coeffs"],
    ),
    (
        StateConstraintReport,
        (True, True, False, True, False, None),
        (True, True, False, True, False, False),
        "StateConstraintReport(a0_is_one=True, coeffs_nonnegative=True, duality_invariant=False,"
        " shadow_nonnegative=True, shadow_odd_tail_zero=False, uniform_prefix_zero=None)",
        [
            "a0_is_one",
            "coeffs_nonnegative",
            "duality_invariant",
            "shadow_nonnegative",
            "shadow_odd_tail_zero",
            "uniform_prefix_zero",
        ],
    ),
    (
        GaussianRational,
        (Fraction(1, 2), Fraction(-1)),
        (Fraction(1, 2),),
        "GaussianRational(re=Fraction(1, 2), im=Fraction(-1, 1))",
        [("re", Fraction(0)), ("im", Fraction(0))],
    ),
    (
        DimensionProfile,
        ((3, 2, 2),),
        ((2, 3, 2),),
        "DimensionProfile(dims=(3, 2, 2))",
        ["dims"],
    ),
    (
        ScottWitness,
        ((0, 1), Fraction(-1, 4)),
        ((0, 2), Fraction(-1, 4)),
        "ScottWitness(subset=(0, 1), value=Fraction(-1, 4))",
        ["subset", "value"],
    ),
    (
        HeteroShadow,
        ((1, -2, 3), 12),
        ((1, -2, 3), 24),
        "HeteroShadow(numerators=(1, -2, 3), total=12)",
        ["numerators", "total"],
    ),
    (
        Certificate,
        ("shadow-negative(1)", None, 1, Fraction(-1, 6)),
        ("shadow-negative(1)", None, 1, Fraction(-1, 6), 4),
        "Certificate(kind='shadow-negative(1)', witness=None, shadow_index=1,"
        " shadow_value=Fraction(-1, 6), threshold=None)",
        [
            "kind",
            ("witness", None),
            ("shadow_index", None),
            ("shadow_value", None),
            ("threshold", None),
        ],
    ),
    (
        AmeVerdict,
        (PAIR, "unknown"),
        (PAIR, "infeasible"),
        "AmeVerdict(profile=DimensionProfile(dims=(2, 2)), status='unknown', certificate=None)",
        ["profile", "status", ("certificate", None)],
    ),
    (
        PureState,
        (PAIR, (((1, 1), ONE), ((0, 0), ONE))),
        (PAIR, (((0, 0), ONE),)),
        "PureState(profile=DimensionProfile(dims=(2, 2)), amplitudes=("
        "((0, 0), GaussianRational(re=Fraction(1, 1), im=Fraction(0, 1))),"
        " ((1, 1), GaussianRational(re=Fraction(1, 1), im=Fraction(0, 1)))))",
        ["profile", "amplitudes"],
    ),
    (
        CellDiff,
        ("d=3 N=4", 2, 1),
        ("d=3 N=4", 2, 3),
        "CellDiff(where='d=3 N=4', expected=2, computed=1)",
        ["where", "expected", "computed"],
    ),
    (
        TableDiff,
        ("I", ((2, 3, 1),), ()),
        ("II", ((2, 3, 1),), ()),
        "TableDiff(table_id='I', computed=((2, 3, 1),), diffs=(), records=None)",
        ["table_id", "computed", "diffs", ("records", None)],
    ),
]


@pytest.mark.parametrize(
    "cls, args, other, text, params", RECORDS, ids=[case[0].__name__ for case in RECORDS]
)
def test_record_contract(cls, args, other, text, params):
    record = cls(*args)
    assert repr(record) == text
    signature = inspect.signature(cls).parameters.values()
    assert [p.name if p.default is p.empty else (p.name, p.default) for p in signature] == params
    # the same arguments by keyword build an equal record
    names = [p if isinstance(p, str) else p[0] for p in params]
    twin = cls(**dict(zip(names, args)))
    assert twin == record and hash(twin) == hash(record) and twin is not record
    assert hash(record) == hash(tuple(getattr(record, name) for name in names))
    assert cls(*other) != record
    assert pickle.loads(pickle.dumps(record)) == record
    assert cls.__match_args__ == tuple(names)
    assert record != object() and record != tuple(getattr(record, name) for name in names)
    for name in (names[0], "extra"):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert repr(record) == text


def test_records_of_equal_fields_and_different_types_differ():
    weight, shadow = WeightEnumerator(2, 2, (1, 0, 3)), ShadowEnumerator(2, 2, (1, 0, 3))
    assert weight != shadow and shadow != weight
    assert ShadowCompressed(3, parity=1, coeffs=(1, 0)).parity == 1


def test_profile_classes_stay_out_of_equality_hash_and_repr():
    profile = DimensionProfile((2, 3, 2))
    assert profile.classes == ((3, (1,)), (2, (0, 2)))
    assert hash(profile) == hash(((2, 3, 2),))
    assert repr(profile) == "DimensionProfile(dims=(2, 3, 2))"
    with pytest.raises(AttributeError):
        profile.classes = ()


def test_failed_checks_follow_the_field_order():
    report = StateConstraintReport(False, False, False, False, False, False)
    assert report.failed_checks() == (
        "a0_is_one",
        "coeffs_nonnegative",
        "duality_invariant",
        "shadow_nonnegative",
        "shadow_odd_tail_zero",
        "uniform_prefix_zero",
    )
    # None, no k supplied, is not a failure
    report = StateConstraintReport(True, False, True, False, True, None)
    assert report.failed_checks() == ("coeffs_nonnegative", "shadow_nonnegative")


def test_hetero_shadow_s_is_cached():
    shadow = HeteroShadow((3, -6), 12)
    assert shadow.s == (Fraction(1, 4), Fraction(-1, 2))
    assert shadow.s is shadow.s
    with pytest.raises(AttributeError):
        shadow.s = ()
