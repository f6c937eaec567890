"""Acceptance suite: one test per criterion, exact tolerances, timed.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS line per
criterion.  Every equality here is exact rational equality; the only
tolerances are the stated wall-clock budgets.
"""

import random
import time
from fractions import Fraction

from kuniform.bounds import (
    alpha_closed_form,
    cross_validate_alpha,
    cross_validate_recurrences,
    k_upper_bound,
    rains_bound,
    recurrence_block,
    recurrence_specs,
)
from kuniform.enumerators import (
    InvariantBasisCoeffs,
    WeightEnumerator,
    a_to_c,
    b_to_c,
    c_to_a,
    c_to_b,
    macwilliams_transform,
    shadow_transform,
    validate_state_constraints,
)
from kuniform.hetero import DimensionProfile, hetero_shadow, scott_check
from kuniform.oracle import (
    cross_validate_ame_shadow,
    direct_enumerator,
    direct_shadow,
    is_k_uniform,
)
from kuniform.tables import HETERO_TABLE, RANGE_TABLES, diff_table


def _pair(d1, d2, n):
    return DimensionProfile((d1,) + (d2,) * (2 * n))


def test_criterion_1_table_d3_reproduction():
    start = time.monotonic()
    diff = diff_table("I")
    elapsed = time.monotonic() - start
    assert len(RANGE_TABLES["I"]) == 24
    assert diff.match, diff.diffs
    assert diff.computed == RANGE_TABLES["I"]
    assert elapsed < 60
    print(f"ACCEPTANCE 1 PASS: d=3 table, 24/24 range cells exact ({elapsed:.1f}s)")


def test_criterion_2_tables_d4_d5_reproduction():
    start = time.monotonic()
    diff4 = diff_table("II")
    diff5 = diff_table("III")
    elapsed = time.monotonic() - start
    assert diff4.match, diff4.diffs
    assert diff5.match, diff5.diffs
    assert diff4.computed == RANGE_TABLES["II"]
    assert diff5.computed == RANGE_TABLES["III"]
    assert elapsed < 600
    print(f"ACCEPTANCE 2 PASS: d=4 and d=5 tables exact ({elapsed:.1f}s)")


def test_criterion_3_rains_consistency():
    for n in range(4, 61):
        assert k_upper_bound(n, 2).k_max == rains_bound(n), n
    assert k_upper_bound(10, 2).k_max == 3
    print("ACCEPTANCE 3 PASS: qubit bounds equal the piecewise formula, N=4..60")


def test_criterion_4_alpha_cross_validation():
    start = time.monotonic()
    checked, failures = cross_validate_alpha()
    elapsed = time.monotonic() - start
    assert failures == []
    assert checked == 3836  # N = 2..60, d = 2..5, every index 0..N//2
    assert elapsed < 120
    print(f"ACCEPTANCE 4 PASS: {checked} alpha values, recurrence == solve ({elapsed:.1f}s)")


def test_criterion_5_sign_facts_and_recurrences():
    # sign claims per band of N mod 14; vacuous when the index exceeds N//2
    checked = 0
    for offset in range(-4, 10):
        block = recurrence_block(offset)
        for m in range(1, 11):
            n_parties = 14 * m + offset
            index = 6 * m + 2 * block
            if index > n_parties // 2:
                continue
            value = alpha_closed_form(n_parties, 3, index)
            expect_negative = not (offset == 9 and m in (1, 2, 3))
            assert (value < 0) == expect_negative, (offset, m, value)
            checked += 1
    # three-term recurrences, exact, n <= 30, with the stated initial terms
    by_offset = {s.offset: s for s in recurrence_specs()}
    assert by_offset[-1].initial_terms == ((1, 4), (2, 36))
    assert by_offset[-2].initial_terms == ((1, 6), (2, 120), (3, 3150), (4, 80304))
    identities, failures = cross_validate_recurrences(n_max=30)
    assert failures == []
    assert identities == 420  # 14 offsets, n = 1..30 each
    print(
        f"ACCEPTANCE 5 PASS: {checked} sign facts (3 stated exceptions) and "
        f"{len(by_offset)} recurrences ({identities} identities) verified to n=30"
    )


def test_criterion_6_heterogeneous_exact_values():
    assert hetero_shadow(_pair(3, 2, 4)).s[1] == Fraction(-23, 12)
    assert hetero_shadow(_pair(4, 2, 4)).s[1] == Fraction(-7, 4)
    assert hetero_shadow(_pair(3, 2, 5)).s[3] == Fraction(-65, 4)
    assert hetero_shadow(_pair(4, 2, 5)).s[3] == Fraction(-225, 16)
    print("ACCEPTANCE 6 PASS: four heterogeneous shadow values exact")


def test_criterion_7_hetero_table_reproduction():
    diff = diff_table("IV")
    assert diff.match, diff.diffs
    rows = sum(hi - lo + 1 for lo, hi, _, _, _ in HETERO_TABLE)
    # the 2 x 4^34 case: scott-family certificate present, shadow silent
    profile = _pair(2, 4, 17)
    subset = tuple(range(1, 20))  # the 19 largest-dimension parties
    assert scott_check(profile, subset) < 0
    shadow = hetero_shadow(profile)
    assert all(s >= 0 for s in shadow.s)
    print(f"ACCEPTANCE 7 PASS: family table exact for {rows} (d1, d2) pairs; "
          f"2x4^34 scott-certified with nonnegative shadow")


def test_criterion_8_proposition_desk_scale():
    for d in (3, 4):
        for n in range(4, 21, 2):
            assert hetero_shadow(_pair(d, 2, n)).s[1] < 0, (d, n)
        for n in range(5, 22, 2):
            assert hetero_shadow(_pair(d, 2, n)).s[3] < 0, (d, n)
    for d in (2, 4, 5, 6, 7, 8, 9):
        certified = [
            n
            for n in range(1, 21)
            if hetero_shadow(_pair(d, 3, n)).first_negative() is not None
        ]
        expected = [
            n for n in range(6, 21) if n != 7 and not (d == 9 and n == 9)
        ]
        assert certified == expected, (d, certified)
    print("ACCEPTANCE 8 PASS: shadow sign families hold at desk scale (n <= 21)")


def test_criterion_9_oracle_equivalence_suite(corpus):
    start = time.monotonic()
    assert len(corpus) >= 12
    for name, state in corpus:
        enum = direct_enumerator(state)
        assert shadow_transform(enum).coeffs == direct_shadow(state).coeffs, name
        assert validate_state_constraints(enum).ok, name
        n, d = state.profile.n_parties, state.profile.dims[0]
        assert sum(enum.coeffs) == d**n, name
        for k in range(n // 2 + 1):
            prefix_zero = all(enum.coeffs[j] == 0 for j in range(1, k + 1))
            assert is_k_uniform(state, k) == prefix_zero, (name, k)
    elapsed = time.monotonic() - start
    assert elapsed < 30
    print(f"ACCEPTANCE 9 PASS: {len(corpus)} corpus states, all oracle "
          f"equivalences exact ({elapsed:.1f}s)")


def test_criterion_10_algebra_invariants():
    rng = random.Random(20240917)

    def rand_fraction():
        return Fraction(rng.randint(-40, 40), rng.randint(1, 12))

    start = time.monotonic()
    for _ in range(1000):
        n = rng.randint(1, 12)
        d = rng.choice((2, 3, 4, 5))
        enum = WeightEnumerator(
            n, d, tuple(rand_fraction() for _ in range(n + 1))
        )
        assert macwilliams_transform(macwilliams_transform(enum)).coeffs == enum.coeffs
    for _ in range(1000):
        n = rng.randint(1, 12)
        d = rng.choice((2, 3, 4, 5))
        inv = InvariantBasisCoeffs(
            n, d, tuple(rand_fraction() for _ in range(n // 2 + 1))
        )
        assert a_to_c(c_to_a(inv)).coeffs == inv.coeffs
    for _ in range(1000):
        n = rng.randint(1, 12)
        d = rng.choice((2, 3, 4, 5))
        inv = InvariantBasisCoeffs(
            n, d, tuple(rand_fraction() for _ in range(n // 2 + 1))
        )
        assert b_to_c(c_to_b(inv), d).coeffs == inv.coeffs
    # the two shadow routes agree on every feasible odd profile with dims <= 4
    profiles, failures = cross_validate_ame_shadow()
    assert failures == []
    assert profiles == 89  # odd N = 3..11, dims in {2, 3, 4}, Schmidt-feasible
    elapsed = time.monotonic() - start
    print(f"ACCEPTANCE 10 PASS: 3x1000 randomized algebra instances and "
          f"{profiles} shadow cross-checks exact ({elapsed:.1f}s)")
