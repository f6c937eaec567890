import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kuniform import bounds
from kuniform.bounds import (
    PROVENANCE_AME_TABLE,
    PROVENANCE_SCOTT,
    PROVENANCE_TRIVIAL,
    RECURRENCE_BASE_N,
    RecurrenceSpec,
    alpha_closed_form,
    alpha_oracle,
    cross_validate_alpha,
    k_upper_bound,
    known_ame_nonexistence,
    poly_eval,
    rains_bound,
    range_formula_d3,
    recurrence_block,
    recurrence_specs,
    recurrence_sum,
    scott_gap_condition,
    taylor_shift,
    verify_recurrence,
)
from kuniform.errors import MAX_PARTIES, NotApplicableError
from kuniform.exact import binom, falling_binom
from kuniform.tables import RANGE_TABLE_DIMS, RANGE_TABLES, compute_bound_records


def test_alpha_base_cases():
    for n in (2, 7, 20):
        for d in (2, 3, 5):
            assert alpha_closed_form(n, d, 0) == 1
            assert alpha_closed_form(n, d, 1) == -n * (d - 1)


def test_alpha_worked_values():
    assert alpha_oracle(2, 2, 1) == -2
    assert alpha_closed_form(2, 2, 1) == -2
    assert alpha_closed_form(13, 3, 6) < 0
    assert alpha_closed_form(16, 2, 6) == -56


def test_alpha_range_errors():
    with pytest.raises(ValueError):
        alpha_closed_form(10, 3, 6)
    with pytest.raises(ValueError):
        alpha_oracle(10, 3, -1)


@given(st.integers(2, 36), st.sampled_from([2, 3, 4, 5]))
def test_alpha_closed_form_matches_triangular_solve(n, d):
    for i in range(n // 2 + 1):
        assert alpha_closed_form(n, d, i) == alpha_oracle(n, d, i)


def _alpha_reference(n, d, i):
    """The direct sum with two fresh binomials per term, for comparison."""
    if i == 0:
        return Fraction(1)
    total = 0
    for j in range(i):
        total += (
            (1 - d) ** j
            * math.comb(n - 2 * i + j, n - 2 * i)
            * math.comb(2 * i - 2 - j, i - 1)
        )
    return Fraction(-n * (d - 1) * total, i)


@pytest.mark.parametrize("n, d", [(503, 3), (704, 4), (809, 5)])
def test_alpha_closed_form_matches_direct_sum_at_large_n(n, d):
    half = n // 2
    for i in sorted({*range(0, half + 1, half // 19), 1, half}):
        got, want = alpha_closed_form(n, d, i), _alpha_reference(n, d, i)
        assert (got.numerator, got.denominator) == (want.numerator, want.denominator), i


def test_alpha_cross_validation_beyond_suite_range():
    checks, failures = cross_validate_alpha(n_values=(61, 97, 150))
    assert checks == 4 * (31 + 49 + 76)
    assert failures == []


def test_alpha_routes_agree_at_every_table_n():
    # both routes at every (N, d) behind the pinned Tables I-III, index by index
    checks = 0
    for table_id, d in RANGE_TABLE_DIMS.items():
        cells = RANGE_TABLES[table_id]
        n_values = range(cells[0][0], cells[-1][1] + 1)
        got, failures = cross_validate_alpha(n_values=n_values, local_dims=(d,))
        assert failures == [], table_id
        checks += got
    assert checks == 18866


def test_alpha_cross_validation_names_one_perturbed_sum(monkeypatch):
    # the suite compares the recurrence's integers: one S_i off by one is
    # one mismatch, named by its index
    real = bounds._alpha_sums

    def perturbed(n, d):
        for i, s in enumerate(real(n, d), 1):
            yield s + 1 if (n, d, i) == (37, 4, 7) else s

    monkeypatch.setattr(bounds, "_alpha_sums", perturbed)
    assert cross_validate_alpha() == (3836, ["alpha mismatch at N=37 d=4 i=7"])


def test_alpha_cross_validation_checks_the_constant_term(monkeypatch):
    real = bounds._c_numerators

    def perturbed(ints, n, d):
        c = real(ints, n, d)
        c[0] += (n, d) == (12, 5)
        return c

    monkeypatch.setattr(bounds, "_c_numerators", perturbed)
    assert cross_validate_alpha() == (3836, ["alpha mismatch at N=12 d=5 i=0"])


@pytest.mark.parametrize("change", [lambda s: s[:-1], lambda s: s + [0]], ids=["short", "long"])
def test_alpha_cross_validation_refuses_a_route_of_the_wrong_length(monkeypatch, change):
    real = bounds._alpha_sums
    monkeypatch.setattr(bounds, "_alpha_sums", lambda n, d: change(list(real(n, d))))
    with pytest.raises(ValueError):
        cross_validate_alpha(n_values=(10,), local_dims=(3,))


def test_alpha_public_routes_agree():
    # the suite compares integers, so the two routes' public Fraction
    # vectors are compared here
    for n in (2, 3, 17, 60, 61, 128):
        for d in (2, 3, 4, 5, 7):
            assert bounds.alpha_vector(n, d) == bounds.alpha_oracle_vector(n, d), (n, d)


def test_alpha_oracle_sweep_solves_once(monkeypatch):
    solves = []
    solve = bounds.a_to_c

    def counting_solve(enum):
        solves.append((enum.n_parties, enum.local_dim))
        return solve(enum)

    monkeypatch.setattr(bounds, "a_to_c", counting_solve)
    bounds.alpha_oracle_vector.cache_clear()
    values = [alpha_oracle(41, 3, i) for i in range(41 // 2 + 1)]
    assert solves == [(41, 3)]
    assert tuple(values) == bounds.alpha_oracle_vector(41, 3)


def test_rains_bound_values():
    assert rains_bound(10) == 3
    assert rains_bound(4) == 1
    assert rains_bound(5) == 2
    assert rains_bound(17) == 6


def test_scott_gap_condition():
    assert scott_gap_condition(18, 3)      # even, 18 > 16
    assert not scott_gap_condition(16, 3)
    assert scott_gap_condition(25, 3)      # odd, 25 > 23
    assert not scott_gap_condition(23, 3)


def test_known_ame_nonexistence_lists():
    assert known_ame_nonexistence(14, 3)
    assert not known_ame_nonexistence(15, 3)
    assert known_ame_nonexistence(39, 4)
    assert known_ame_nonexistence(48, 5)
    assert not known_ame_nonexistence(48, 7)
    # qubit membership is the computed formula predicate
    assert known_ame_nonexistence(4, 2)
    assert known_ame_nonexistence(8, 2)
    assert not known_ame_nonexistence(7, 2)


def test_k_upper_bound_worked_examples():
    assert k_upper_bound(8, 3).k_max == 3
    assert k_upper_bound(10, 2).k_max == 3
    v14 = k_upper_bound(14, 3)
    assert (v14.k_max, v14.provenance) == (6, PROVENANCE_AME_TABLE)
    assert k_upper_bound(161, 4).k_max == 75
    assert k_upper_bound(276, 5).k_max == 135


def test_k_upper_bound_witness_only_for_alpha():
    v = k_upper_bound(8, 3)
    assert v.provenance == "alpha-sign(4)"
    assert v.witness == Fraction(-32)
    assert k_upper_bound(15, 3).provenance == PROVENANCE_TRIVIAL
    assert k_upper_bound(15, 3).witness is None
    # alpha and the classical threshold tie at N=18; alpha wins the tie order
    v18 = k_upper_bound(18, 3)
    assert v18.k_max == 7 and v18.provenance == "alpha-sign(8)"


@given(st.integers(2, 40), st.sampled_from([2, 3, 4, 5, 6, 7]))
def test_k_upper_bound_never_exceeds_trivial(n, d):
    v = k_upper_bound(n, d)
    assert 0 <= v.k_max <= n // 2
    if v.provenance == PROVENANCE_TRIVIAL:
        assert v.k_max == n // 2
    else:
        assert v.k_max < n // 2 or d == 2  # rains can tie the trivial bound
    # the witness travels with alpha-sign provenance and only with it
    assert (v.witness is not None) == v.provenance.startswith("alpha-sign")


# ---------------------------------------------------------------------------
# the boundary walk behind compute_bound_records
# ---------------------------------------------------------------------------


def _scanned(d, lo, hi):
    return [k_upper_bound(n, d).to_json_dict() for n in range(lo, hi + 1)]


@settings(max_examples=40)
@given(st.integers(2, 9), st.integers(2, 700), st.integers(0, 40))
@example(5, 300, 0)  # one N: the scan alone
@example(2, 2, 10)  # N = 2..12 straddles the walk's first step at N = 6
@example(6, 5, 3)  # N = 5..8 at a d where no alpha index fires
def test_walk_equals_the_per_n_scan(d, lo, width):
    hi = min(lo + width, 700)
    walked = [r.to_json_dict() for r in compute_bound_records(d, lo, hi)]
    assert walked == _scanned(d, lo, hi)


def test_walk_steps_stay_where_their_proofs_hold(monkeypatch):
    # the relation in N is proven for 1 <= i <= N//2 - 1, and the
    # i-recurrence for 1 <= i with S_(i+2) present; the top pair (h-1, h)
    # must be carried as (h-2, h-1), not stepped past the top
    steps = []

    def within(name, low, top):
        step = getattr(bounds, name)

        def checked(n, d, i, a, b):
            assert low <= i <= n // 2 - top, (name, n, d, i)
            steps.append(name)
            return step(n, d, i, a, b)

        monkeypatch.setattr(bounds, name, checked)

    within("_step_n", 1, 1)
    within("_step_up", 1, 2)
    within("_step_down", 1, 2)
    for d in range(2, 8):
        assert compute_bound_records(d, 2, 300) == [k_upper_bound(n, d) for n in range(2, 301)]
    assert {"_step_n", "_step_up", "_step_down"} <= set(steps)


@pytest.mark.parametrize("d", [3, 5, 6])
def test_walk_equals_the_per_n_scan_at_the_party_cap(d):
    walked = [r.to_json_dict() for r in compute_bound_records(d, 3990, MAX_PARTIES)]
    assert walked == _scanned(d, 3990, MAX_PARTIES)


def test_range_formula_d3():
    assert range_formula_d3(28) == 13
    assert range_formula_d3(88) == 37
    assert range_formula_d3(13) == 5
    with pytest.raises(NotApplicableError):
        range_formula_d3(23)
    with pytest.raises(NotApplicableError):
        range_formula_d3(9)


def test_range_formula_d3_never_undercuts_computed():
    # the formula is the all-N statement the recurrences prove, so no
    # computed bound may lie above it
    for n in range(10, 601):
        if n in (23, 37, 51):
            continue
        assert range_formula_d3(n) >= k_upper_bound(n, 3).k_max


# ---------------------------------------------------------------------------
# recurrence data
# ---------------------------------------------------------------------------


def test_recurrence_specs_cover_all_offsets():
    specs = recurrence_specs()
    assert sorted(s.offset for s in specs) == list(range(-4, 10))


def test_recurrence_stated_initial_terms():
    by_offset = {s.offset: s for s in recurrence_specs()}
    assert by_offset[-1].initial_terms == ((1, 4), (2, 36))
    assert by_offset[-2].initial_terms == ((1, 6), (2, 120), (3, 3150), (4, 80304))
    assert recurrence_sum(-1, 1) == 4
    assert recurrence_sum(-1, 2) == 36
    assert recurrence_sum(-2, 3) == 3150
    assert recurrence_sum(-2, 4) == 80304


def test_verify_recurrence_passes_on_shipped_specs():
    for spec in recurrence_specs():
        checks, failures = verify_recurrence(spec, n_max=12)
        assert checks == 12 and failures == [], (spec.offset, failures)


def test_verify_recurrence_catches_corruption():
    spec = next(s for s in recurrence_specs() if s.offset == -1)
    corrupted = RecurrenceSpec(
        offset=spec.offset,
        lead=spec.lead[:-1] + (spec.lead[-1] + 1,),
        mid=spec.mid,
        low=spec.low,
        initial_terms=spec.initial_terms,
        positive_from=spec.positive_from,
    )
    _, failures = verify_recurrence(corrupted, n_max=6)
    assert failures
    assert any("recurrence violated at n=" in f for f in failures)


def test_verify_recurrence_proves_positivity_beyond_n_max():
    # multiplying all three polynomials by 100 - n keeps every identity and
    # every sampled value up to n_max positive, but they turn negative at
    # n = 101, which only a proof for all n catches
    spec = next(s for s in recurrence_specs() if s.offset == 4)
    factor = (100, -1)
    corrupted = RecurrenceSpec(
        offset=spec.offset,
        lead=bounds._expand(1, (spec.lead, factor)),
        mid=bounds._expand(1, (spec.mid, factor)),
        low=bounds._expand(1, (spec.low, factor)),
        initial_terms=spec.initial_terms,
        positive_from=spec.positive_from,
    )
    checks, failures = verify_recurrence(corrupted, n_max=30)
    assert checks == 30
    assert all(poly_eval(corrupted.lead, n) > 0 for n in range(spec.positive_from, 31))
    assert poly_eval(corrupted.lead, 101) < 0
    assert failures == [
        f"{name} not proven positive from n={spec.positive_from}"
        for name in ("lead", "mid", "low")
    ]


def test_stated_positivity_starts_as_early_as_it_can():
    # the shipped specs pass the proof (above); one step earlier some
    # polynomial is not positive, so no claim is weaker than it must be
    for spec in recurrence_specs():
        if spec.positive_from > RECURRENCE_BASE_N:
            n = spec.positive_from - 1
            assert min(poly_eval(p, n) for p in (spec.lead, spec.mid, spec.low)) <= 0


def test_taylor_shift():
    assert taylor_shift((0, 0, 1), 1) == (1, 2, 1)  # (1 + t)^2
    coeffs = (5, -3, 0, 2)
    for shift in (-2, 0, 3):
        shifted = taylor_shift(coeffs, shift)
        for t in range(-3, 4):
            assert poly_eval(shifted, t) == poly_eval(coeffs, shift + t)


# expanded coefficients of the file's factored polynomials, pinned from the
# earlier expanded copy of the data: a slip in a factor fails here by name
_PINNED_POLYNOMIALS = {
    (-1, "lead"): (
        0, 4315680, 54931608, 282968640, 759725892, 1142499735, 961035597,
        419543145, 73634103,
    ),
    (0, "mid"): (
        75658302720, 392787004608, 826324382208, 866154718512, 377915105664,
        -107337964608, -203524030080, -88087109472, -11812514304, 1259001360,
        214404192,
    ),
    (9, "low"): (
        9092488204800, 40528050595200, 78353684434368, 85803662059136,
        58202406508736, 25037718661760, 6669640400192, 1005750241664,
        65725319744,
    ),
}


@pytest.mark.parametrize("offset, name", sorted(_PINNED_POLYNOMIALS))
def test_factored_data_expands_to_the_pinned_polynomials(offset, name):
    spec = next(s for s in recurrence_specs() if s.offset == offset)
    assert getattr(spec, name) == _PINNED_POLYNOMIALS[offset, name]


def test_recurrence_sum_ties_back_to_alpha():
    # at even n = 2m the sum gives the alpha coefficient of the matching band
    for offset in range(-4, 10):
        block = recurrence_block(offset)
        for m in (1, 2, 3):
            n_parties = 14 * m + offset
            index = 6 * m + 2 * block
            if index > n_parties // 2:
                continue
            expected = Fraction(-n_parties, 3 * m + block) * recurrence_sum(offset, 2 * m)
            assert alpha_closed_form(n_parties, 3, index) == expected


def _recurrence_sum_reference(offset, n):
    """The literal sum of p_n, two fresh binomials per term."""
    b = recurrence_block(offset)
    upper = 3 * n - 1 + 2 * b
    c0 = offset - 4 * b
    return sum(
        (-2) ** i * falling_binom(i + n + c0, i) * binom(2 * upper - i, upper)
        for i in range(upper + 1)
    )


def test_recurrence_sum_equals_the_literal_sum():
    # the term-ratio walk against the literal sum, every offset, n = 1..32
    for offset in range(-4, 10):
        for n in range(1, 33):
            assert recurrence_sum(offset, n) == _recurrence_sum_reference(offset, n), (
                offset, n
            )


def test_poly_eval():
    assert poly_eval((3, 2, 1), 5) == 3 + 2 * 5 + 25
    assert poly_eval((7,), 100) == 7


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda: rains_bound(7.5), "n_parties"),
        (lambda: k_upper_bound(7.0, 3), "n_parties"),
        (lambda: alpha_closed_form(6, 2.5, 2), "local_dim"),
        (lambda: alpha_closed_form(6, 2, 1.0), "index"),
    ],
    ids=["rains-float-n", "k-bound-float-n", "alpha-float-d", "alpha-float-index"],
)
def test_int_arguments_pass_the_rule(call, name):
    # rains_bound(7.5) once returned 3.0 and the others raised TypeError
    with pytest.raises(ValueError, match=f"^{name} must be an integer"):
        call()
