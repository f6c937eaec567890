import random
from fractions import Fraction
from itertools import accumulate
from operator import mul

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from kuniform import bounds, enumerators, exact
from kuniform.enumerators import (
    InvariantBasisCoeffs,
    ShadowCompressed,
    ShadowEnumerator,
    WeightEnumerator,
    a_to_c,
    b_to_c,
    basis_matrix_entry,
    c_to_a,
    c_to_b,
    macwilliams_transform,
    shadow_transform,
    validate_state_constraints,
)
from kuniform.exact import binom

rationals = st.fractions(min_value=-30, max_value=30, max_denominator=12)


@st.composite
def weight_enumerators(draw, max_parties=14):
    n = draw(st.integers(1, max_parties))
    d = draw(st.sampled_from([2, 3, 4, 5]))
    coeffs = draw(st.lists(rationals, min_size=n + 1, max_size=n + 1))
    return WeightEnumerator(n, d, tuple(coeffs))


@st.composite
def invariant_coeffs(draw, max_parties=14):
    n = draw(st.integers(1, max_parties))
    d = draw(st.sampled_from([2, 3, 4, 5]))
    coeffs = draw(st.lists(rationals, min_size=n // 2 + 1, max_size=n // 2 + 1))
    return InvariantBasisCoeffs(n, d, tuple(coeffs))


def _seeded_coeffs(rng, size):
    # about a quarter zeros; numerators of both signs
    return tuple(
        Fraction(0)
        if rng.random() < 0.25
        else Fraction(rng.randint(-60, 60), rng.randint(1, 15))
        for _ in range(size)
    )


def _seeded_int_enumerator(n, d, seed):
    rng = random.Random(seed)
    return WeightEnumerator(n, d, tuple(rng.randint(-10**6, 10**6) for _ in range(n + 1)))


BELL = WeightEnumerator(2, 2, (1, 0, 3))
GHZ3 = WeightEnumerator(3, 2, (1, 0, 3, 4))
PRODUCT2 = WeightEnumerator(2, 2, (1, 2, 1))


def test_macwilliams_worked_examples():
    assert macwilliams_transform(BELL).coeffs == (1, 0, 3)
    assert macwilliams_transform(WeightEnumerator(1, 2, (1, 0))).coeffs == (
        Fraction(1, 2),
        Fraction(3, 2),
    )


@example(_seeded_int_enumerator(201, 5, 201))
@given(weight_enumerators())
def test_macwilliams_is_an_involution(enum):
    twice = macwilliams_transform(macwilliams_transform(enum))
    assert twice.coeffs == enum.coeffs


def test_shadow_worked_examples():
    assert shadow_transform(BELL).coeffs == (1, 0, 3)
    assert shadow_transform(GHZ3).coeffs == (0, 3, 0, 5)


@given(invariant_coeffs())
def test_shadow_reflection_symmetry_on_invariant_inputs(inv):
    # enumerators built from the invariant basis satisfy S(x, y) = S(-x, y)
    enum = c_to_a(inv)
    s = shadow_transform(enum).coeffs
    n = enum.n_parties
    flipped = tuple((-1) ** (n - j) * s[j] for j in range(n + 1))
    assert s == flipped


def test_a_to_c_worked_examples():
    assert a_to_c(BELL).coeffs == (1, -2)
    assert a_to_c(PRODUCT2).coeffs == (1, 0)
    for d in (2, 3, 5):
        for n in (2, 5, 9):
            enum = WeightEnumerator(n, d, (1, 0) + (0,) * (n - 1))
            c = a_to_c(enum)
            assert c.coeffs[0] == 1
            assert c.coeffs[1] == -n * (d - 1)


def test_c_to_a_worked_examples():
    assert c_to_a(InvariantBasisCoeffs(2, 2, (1, -2))).coeffs == (1, 0, 3)
    # a single leading basis term expands to the binomial row
    for n, d in ((4, 3), (5, 2), (7, 4)):
        inv = InvariantBasisCoeffs(n, d, (1,) + (0,) * (n // 2))
        expected = tuple(binom(n, j) * (d - 1) ** j for j in range(n + 1))
        assert c_to_a(inv).coeffs == expected


@example(InvariantBasisCoeffs(201, 5, _seeded_coeffs(random.Random(2015), 101)))
@given(invariant_coeffs())
def test_a_to_c_inverts_c_to_a(inv):
    # the series inversion shares no code with the kernel behind c_to_a
    assert a_to_c(c_to_a(inv)).coeffs == inv.coeffs


def test_c_to_b_worked_examples():
    b = c_to_b(InvariantBasisCoeffs(2, 2, (1, -2)))
    assert b.coeffs == (1, 3) and b.parity == 0
    ghz_b = c_to_b(a_to_c(GHZ3))
    assert ghz_b.coeffs == (3, 5) and ghz_b.parity == 1


def _c_to_b_reference(inv):
    """The closed-form c -> b double loop on Fractions that c_to_b replaced."""
    n, d, c = inv.n_parties, inv.local_dim, inv.coeffs
    half, t = n // 2, n % 2
    b = []
    for j in range(half + 1):
        acc = Fraction(0)
        for m in range(j + 1):
            acc += (
                Fraction(2 ** (2 * m + t))
                * Fraction(1, d ** (half - m))
                * binom(half - m, half - j)
                * (-1) ** (half - j)
                * c[half - m]
            )
        b.append(acc)
    return tuple(b)


def _with_large_cases(test):
    """Add seeded explicit examples at N = 61, 97, 150 and d = 2, 3, 5."""
    rng = random.Random(20261019)
    for n in (61, 97, 150):
        for d in (2, 3, 5):
            coeffs = _seeded_coeffs(rng, n // 2 + 1)
            test = example(InvariantBasisCoeffs(n, d, coeffs))(test)
    return test


@_with_large_cases
@given(invariant_coeffs(max_parties=30))
def test_c_to_b_equals_the_closed_form(inv):
    b = c_to_b(inv)
    assert b.coeffs == _c_to_b_reference(inv)
    assert (b.n_parties, b.parity) == (inv.n_parties, inv.n_parties % 2)


def test_b_to_c_worked_example():
    inv = b_to_c(ShadowCompressed(2, 0, (1, 3)), 2)
    assert inv.coeffs == (1, -2)
    zeros = b_to_c(ShadowCompressed(5, 1, (0, 0, 0)), 3)
    assert all(c == 0 for c in zeros.coeffs)


@_with_large_cases
@given(invariant_coeffs(max_parties=30))
def test_b_to_c_inverts_c_to_b(inv):
    assert b_to_c(c_to_b(inv), inv.local_dim).coeffs == inv.coeffs


def test_degenerate_single_party():
    inv = InvariantBasisCoeffs(1, 3, (Fraction(1),))
    enum = c_to_a(inv)
    assert enum.coeffs == (1, 2)
    assert a_to_c(enum).coeffs == (1,)
    b = c_to_b(inv)
    assert b.coeffs == (2,)
    assert b_to_c(b, 3).coeffs == (1,)


def test_validate_state_constraints_examples():
    assert validate_state_constraints(BELL, k=1).ok
    report = validate_state_constraints(WeightEnumerator(2, 2, (1, -1, 3)))
    assert not report.coeffs_nonnegative and not report.ok
    ghz_report = validate_state_constraints(GHZ3, k=2)
    assert ghz_report.uniform_prefix_zero is False
    assert ghz_report.failed_checks() == ("uniform_prefix_zero",)
    assert validate_state_constraints(GHZ3, k=1).ok


@pytest.mark.parametrize("k", [4, 1.5, -2, True, "1"])
def test_validate_state_constraints_refuses_a_bad_k(monkeypatch, k):
    # k = 4 > N once raised IndexError after both transforms, 1.5 a
    # TypeError; -2 gave a vacuous prefix check and True passed as 1
    calls = _record_calls(monkeypatch, ("substitute",))
    with pytest.raises(ValueError, match="k must"):
        validate_state_constraints(GHZ3, k=k)
    assert calls == []
    # 0 and N bound the range
    assert validate_state_constraints(GHZ3, k=0).ok
    assert validate_state_constraints(GHZ3, k=3).failed_checks() == ("uniform_prefix_zero",)


def test_constraint_report_fields_are_independent():
    report = validate_state_constraints(WeightEnumerator(2, 2, (2, 0, 6)))
    assert not report.a0_is_one
    assert report.coeffs_nonnegative


def test_json_round_trip():
    doc = BELL.to_json_dict()
    assert doc == {"n": 2, "d": 2, "coeffs": ["1", "0", "3"]}
    s = shadow_transform(GHZ3)
    assert tuple(map(Fraction, s.to_json_dict()["coeffs"])) == s.coeffs


@pytest.mark.parametrize(
    "make, match",
    [
        (lambda: InvariantBasisCoeffs(0, 1, (1,)), "n_parties"),
        (lambda: InvariantBasisCoeffs(4, 2.5, (1, 0, 0)), "local_dim"),
        (lambda: WeightEnumerator(2.0, 2, (1, 0, 0)), "n_parties"),
        (lambda: InvariantBasisCoeffs(2, True, (1, 0)), "local_dim"),
        (lambda: ShadowCompressed(0, 0, (1,)), "n_parties"),
        (lambda: ShadowCompressed(3, True, (1, 0)), "parity"),
        (lambda: b_to_c(ShadowCompressed(2, 0, (1, 3)), 1), "local_dim"),
        (lambda: b_to_c(ShadowCompressed(2, 0, (1, 3)), 2.5), "local_dim"),
        (lambda: WeightEnumerator(2, 2, (1.0, 0.5, 0.1)), "int or Fraction"),
        (lambda: InvariantBasisCoeffs(2, 2, (True, 0)), "int or Fraction"),
        (lambda: ShadowCompressed(2, 0, (1, "3")), "int or Fraction"),
    ],
    ids=["basis-n0-d1", "basis-float-d", "float-n", "bool-d", "compressed-n0",
         "bool-parity", "b_to_c-d1", "b_to_c-float-d", "float-coeffs", "bool-coeff",
         "string-coeff"],
)
def test_one_record_rule(make, match):
    # each of these was once accepted; 0.1 was stored as 3602879701896397/2^55
    with pytest.raises(ValueError, match=match):
        make()


def test_coefficients_are_stored_as_exact_fractions():
    # a Fraction is kept as it is; an int or a Fraction subclass becomes a Fraction
    class Half(Fraction):
        pass

    third = Fraction(1, 3)
    rec = WeightEnumerator(2, 2, (1, third, Half(1, 2)))
    assert rec.coeffs == (1, third, Fraction(1, 2))
    assert [type(c) for c in rec.coeffs] == [Fraction] * 3
    assert rec.coeffs[1] is third
    for bad in (0.5, True):
        with pytest.raises(ValueError, match="int or Fraction"):
            WeightEnumerator(2, 2, (1, bad, 0))


def test_coefficient_length_validation():
    with pytest.raises(ValueError):
        WeightEnumerator(3, 2, (1, 0, 0))
    with pytest.raises(ValueError):
        InvariantBasisCoeffs(4, 2, (1, 0))
    with pytest.raises(ValueError):
        ShadowCompressed(4, 1, (1, 0, 0))
    for cls in (WeightEnumerator, ShadowEnumerator):
        with pytest.raises(ValueError, match="n_parties"):
            cls(0, 2, (1,))
        with pytest.raises(ValueError, match="local_dim"):
            cls(2, 1, (1, 0, 0))


# ---------------------------------------------------------------------------
# reference: the O(N^3) Fraction expansion the substitution kernel replaced
# ---------------------------------------------------------------------------


def _linear_powers(cx, cy, k_max):
    """Coefficient vectors (in the y-power index) of (cx x + cy y)^k, k <= k_max."""
    rows = [[Fraction(1)]]
    for _ in range(k_max):
        prev = rows[-1]
        cur = [Fraction(0)] * (len(prev) + 1)
        for i, c in enumerate(prev):
            cur[i] += c * cx
            cur[i + 1] += c * cy
        rows.append(cur)
    return rows


def _convolve(u, v):
    out = [Fraction(0)] * (len(u) + len(v) - 1)
    for i, a in enumerate(u):
        if a == 0:
            continue
        for j, b in enumerate(v):
            out[i + j] += a * b
    return out


def _substitute_reference(coeffs, sub_x, sub_y):
    n = len(coeffs) - 1
    pow_x = _linear_powers(*sub_x, n)
    pow_y = _linear_powers(*sub_y, n)
    out = [Fraction(0)] * (n + 1)
    for j, aj in enumerate(coeffs):
        if aj == 0:
            continue
        term = _convolve(pow_x[n - j], pow_y[j])
        for idx, c in enumerate(term):
            out[idx] += aj * c
    return tuple(out)


def _c_to_a_reference(n, d, coeffs):
    out = [Fraction(0)] * (n + 1)
    base = _linear_powers(Fraction(1), Fraction(d - 1), n)
    mix = _linear_powers(Fraction(1), Fraction(-1), n // 2)
    for i, ci in enumerate(coeffs):
        if ci == 0:
            continue
        term = _convolve(base[n - 2 * i], mix[i])
        for idx, coeff in enumerate(term):
            out[idx + i] += ci * coeff
    return tuple(out)


def test_transforms_equal_the_reference_expansion():
    rng = random.Random(20260418)
    for n in range(1, 41):
        # every d up to N = 16; above it one d per N, each d on an odd and an
        # even N, since the O(N^3) reference dominates the time
        for d in range(2, 10) if n <= 16 else (2 + n // 2 % 8,):
            coeffs = _seeded_coeffs(rng, n + 1)
            enum = WeightEnumerator(n, d, coeffs)
            assert macwilliams_transform(enum).coeffs == _substitute_reference(
                coeffs,
                (Fraction(1, d), Fraction(d * d - 1, d)),
                (Fraction(1, d), Fraction(-1, d)),
            ), (n, d)
            assert shadow_transform(enum).coeffs == _substitute_reference(
                coeffs,
                (Fraction(d - 1, d), Fraction(d + 1, d)),
                (Fraction(-1, d), Fraction(1, d)),
            ), (n, d)
            inv_coeffs = _seeded_coeffs(rng, n // 2 + 1)
            inv = InvariantBasisCoeffs(n, d, inv_coeffs)
            assert c_to_a(inv).coeffs == _c_to_a_reference(n, d, inv_coeffs), (n, d)


def _a_to_c_reference(n, d, coeffs):
    """Forward solve of the basis_matrix_entry matrix, on Fractions."""
    c = []
    for j in range(n // 2 + 1):
        acc = coeffs[j]
        for i in range(j):
            acc -= basis_matrix_entry(n, d, j, i) * c[i]
        c.append(acc)
    return tuple(c)


def test_a_to_c_equals_the_fraction_solve():
    rng = random.Random(20261018)
    cases = [(n, d) for n in range(1, 41) for d in range(2, 10)]
    cases += [(n, d) for n in (61, 97, 150) for d in (2, 3, 5)]
    for n, d in cases:
        coeffs = _seeded_coeffs(rng, n + 1)
        enum = WeightEnumerator(n, d, coeffs)
        assert a_to_c(enum).coeffs == _a_to_c_reference(n, d, coeffs), (n, d)


def _c_numerators_reference(ints, n, d):
    """The y-domain peel: each step multiplies by (1 + e y)^2 / (1 - y)."""
    half = n // 2
    e = d - 1
    inverse = [1]
    for k in range(1, half + 1):
        inverse.append(inverse[-1] * (n + k - 1) * -e // k)
    inverse.reverse()
    series = [sum(map(mul, ints, inverse[half - k :])) for k in range(half + 1)]
    c = [series[0]]
    dd, lin, quad = d * d, d * d - 1, e * e
    for _ in range(half):
        s = series[1:]
        series = [
            dd * p - lin * v - quad * w
            for p, v, w in zip(accumulate(s), s, [0] + s)
        ]
        c.append(series[0])
    return c


def _numerator_shapes(rng, n):
    """Dense signed numerators, the unit prefix, the short [1], a single
    nonzero at index floor(N/2), and every other entry zero."""
    half = n // 2
    dense = [rng.randint(-10**6, 10**6) for _ in range(half + 1)]
    return [
        dense,
        [1] + [0] * half,
        [1],
        [0] * half + [rng.choice((-1, 1)) * rng.randint(1, 10**6)],
        [v if k % 2 == 0 else 0 for k, v in enumerate(dense)],
    ]


def test_c_numerators_equal_the_y_domain_peel():
    rng = random.Random(20261020)
    for n in range(1, 121):
        for d in range(2, 10):
            for ints in _numerator_shapes(rng, n):
                got = enumerators._c_numerators(ints, n, d)
                assert got == _c_numerators_reference(ints, n, d), (n, d, ints)


@pytest.mark.parametrize("d", [2, 5])
def test_c_numerators_equal_the_y_domain_peel_at_n_1001(d):
    rng = random.Random(1001 * d)
    dense = [rng.randint(-10**6, 10**6) for _ in range(501)]
    assert enumerators._c_numerators(dense, 1001, d) == _c_numerators_reference(dense, 1001, d)


def test_a_to_c_with_trailing_zero_numerators_equals_the_peel():
    # zeros after the last nonzero numerator change nothing: the answer is
    # the solve of all h + 1 of them
    rng = random.Random(20261021)
    for n in range(1, 61):
        half = n // 2
        for d in (2, 3, 5, 9):
            for last in sorted({-1, 0, half // 2, half}):  # -1: every a_j is 0
                head = [Fraction(rng.choice((-1, 1)) * rng.randint(1, 10**6), rng.randint(1, 50))
                        for _ in range(last + 1)]
                tail = [Fraction(rng.randint(-9, 9)) for _ in range(n - half)]  # not read
                coeffs = head + [Fraction(0)] * (half - last) + tail
                ints, den = exact.clear_denominators(coeffs[: half + 1])
                want = tuple(Fraction(v, den) for v in _c_numerators_reference(ints, n, d))
                assert a_to_c(WeightEnumerator(n, d, coeffs)).coeffs == want, (n, d, last)


def test_the_unit_prefix_reaches_the_solve_as_one_numerator(monkeypatch):
    # the h zeros after a_0 = 1 were once multiplied row by row, about h^2/2
    # products of zero at every alpha_oracle_vector call
    seen = []
    real = bounds._c_numerators
    monkeypatch.setattr(
        bounds, "_c_numerators", lambda ints, n, d: seen.append(list(ints)) or real(ints, n, d)
    )
    bounds.alpha_oracle_vector.cache_clear()
    assert bounds.alpha_oracle_vector(200, 5) == bounds.alpha_vector(200, 5)
    assert seen == [[1]]


def _record_calls(monkeypatch, names):
    """Wrap each named enumerators global so that a call appends its name.

    The kernel's helper `exact._compose` is wrapped too: every call of the
    kernel reaches it, whatever name the caller holds the kernel by.
    """
    calls = []
    for module, name in [(enumerators, n) for n in names] + [(exact, "_compose")]:
        real = getattr(module, name)
        monkeypatch.setattr(
            module,
            name,
            lambda *args, name=name, real=real: calls.append(name) or real(*args),
        )
    return calls


def test_record_calls_sees_the_kernel(monkeypatch):
    # the wrappers below do catch the kernel when a route does call it
    calls = _record_calls(monkeypatch, ("substitute",))
    c_to_a(InvariantBasisCoeffs(4, 3, (1, 0, 0)))
    assert calls == ["substitute", "_compose", "_compose"]


def test_a_to_c_builds_no_matrix(monkeypatch):
    # the series inversion reads the basis change off a power series: it
    # builds no basis_matrix_entry and shares no kernel with the other route
    calls = _record_calls(monkeypatch, ("basis_matrix_entry", "substitute"))
    for n in (2, 9, 40):
        a_to_c(WeightEnumerator(n, 3, (1,) + (0,) * n))
    assert calls == []


def test_b_to_c_calls_no_kernel(monkeypatch):
    # the lemma is the closed-form route back: it calls neither the
    # substitution kernel of c_to_b nor the other basis conversions
    calls = _record_calls(monkeypatch, ("substitute", "c_to_a", "a_to_c"))
    for n in (1, 2, 9, 40):
        b_to_c(ShadowCompressed(n, n % 2, (1,) * (n // 2 + 1)), 3)
    assert calls == []
