"""The three-term recurrence behind `bounds._alpha_sums`, proven and checked.

S_i = sum_j t(i, j), t(i, j) = (1-d)^j C(N-2i+j, j) C(2i-2-j, i-1), is the
integer sum in alpha_i(N) = -N (d-1) S_i / i.  The recurrence

    i (i+1) S_(i+2) = i L S_(i+1) + d (d-1)^2 (N-2i)(N-2i-1) S_i,
    L = (8 - (d-3)^2) i + (d-1)^2 N + 3 - (d-2)^2,

is proven by creative telescoping: applied to t(., j) it equals
G(j+1) - G(j), with G(j) = t(i+2, j) j P(j) / ((2i+2-j)(2i+1-j)(2i-j)).
The first-order relation in N behind `bounds._step_n`,

    d (d+1) (N-2i+1) S_i(N+1) = ((d^2+1) N - (d-1)^2 i) S_i(N) - i S_(i+1)(N),

is proven the same way, with G(j) = i j Q(j) t(i+1, j) / (M (M-1) (2i-j)),
M = N - 2i.  Only exact integer and `Fraction` arithmetic is used.  Near
the party cap the recurrence is compared with the closed form summed by
its term ratio, a route that shares no code with the package.
"""

import math
from fractions import Fraction

import pytest

from kuniform import bounds, tables
from kuniform.bounds import alpha_vector, k_upper_bound

# P(j) = i (i+1) / ((N-2i-2)(N-2i-3)) * sum_k Q_k j^k, where Q_k is stored as
# {(a, b, c): coefficient} for the monomials i^a N^b (d-1)^c.  Derived offline
# by solving for P over this ansatz; the identity below checks it.
_CERTIFICATE = (
    {  # j^0
        (0, 0, 1): -6, (0, 0, 2): -6, (0, 1, 1): 11, (0, 1, 2): 11, (0, 2, 1): -6,
        (0, 2, 2): -6, (0, 3, 1): 1, (0, 3, 2): 1, (1, 0, 0): -8, (1, 0, 1): -10,
        (1, 0, 2): -28, (1, 1, 0): -2, (1, 1, 1): 17, (1, 1, 2): 35, (1, 2, 0): 2,
        (1, 2, 1): -8, (1, 2, 2): -12, (1, 3, 1): 1, (1, 3, 2): 1, (2, 0, 0): -56,
        (2, 0, 1): -4, (2, 0, 2): -46, (2, 1, 0): 16, (2, 1, 1): 6, (2, 1, 2): 36,
        (2, 2, 1): -2, (2, 2, 2): -6, (3, 0, 0): -80, (3, 0, 2): -32, (3, 1, 0): 16,
        (3, 1, 2): 12, (4, 0, 0): -32, (4, 0, 2): -8,
    },
    {  # j^1
        (0, 0, 0): 4, (0, 0, 1): 8, (0, 0, 2): 17, (0, 1, 0): 1, (0, 1, 1): -14,
        (0, 1, 2): -23, (0, 2, 0): -1, (0, 2, 1): 7, (0, 2, 2): 9, (0, 3, 1): -1,
        (0, 3, 2): -1, (1, 0, 0): 40, (1, 0, 1): 6, (1, 0, 2): 57, (1, 1, 0): -6,
        (1, 1, 1): -9, (1, 1, 2): -48, (1, 2, 0): -2, (1, 2, 1): 3, (1, 2, 2): 9,
        (2, 0, 0): 88, (2, 0, 2): 60, (2, 1, 0): -16, (2, 1, 2): -24, (3, 0, 0): 48,
        (3, 0, 2): 20,
    },
    {  # j^2
        (0, 0, 0): -6, (0, 0, 1): -2, (0, 0, 2): -17, (0, 1, 0): -1, (0, 1, 1): 3,
        (0, 1, 2): 15, (0, 2, 0): 1, (0, 2, 1): -1, (0, 2, 2): -3, (1, 0, 0): -28,
        (1, 0, 2): -36, (1, 1, 0): 4, (1, 1, 2): 15, (2, 0, 0): -24, (2, 0, 2): -18,
    },
    {  # j^3
        (0, 0, 0): 2, (0, 0, 2): 7, (0, 1, 2): -3, (1, 0, 0): 4, (1, 0, 2): 7,
    },
    {  # j^4
        (0, 0, 2): -1,
    },
)


def _term(n, d, i, j):
    """t(i, j), the j-th summand of S_i."""
    return (1 - d) ** j * math.comb(n - 2 * i + j, j) * math.comb(2 * i - 2 - j, i - 1)


def _closed_sum(n, d, i):
    return sum(_term(n, d, i, j) for j in range(i))


def _rhs_factors(n, d, i):
    """The factors i L and d (d-1)^2 (N-2i)(N-2i-1) of S_(i+1) and S_i."""
    ell = (8 - (d - 3) ** 2) * i + (d - 1) ** 2 * n + 3 - (d - 2) ** 2
    return i * ell, d * (d - 1) ** 2 * (n - 2 * i) * (n - 2 * i - 1)


def _certificate_p(n, d, i, j):
    total = sum(
        coef * i**a * n**b * (d - 1) ** c * j**k
        for k, q in enumerate(_CERTIFICATE)
        for (a, b, c), coef in q.items()
    )
    return Fraction(i * (i + 1) * total, (n - 2 * i - 2) * (n - 2 * i - 3))


def _g(n, d, i, j):
    denominator = (2 * i + 2 - j) * (2 * i + 1 - j) * (2 * i - j)
    return Fraction(_term(n, d, i + 2, j) * j, denominator) * _certificate_p(n, d, i, j)


def _operator_on_term(n, d, i, j):
    """The recurrence applied to the summand: zero once summed over j."""
    mid, low = _rhs_factors(n, d, i)
    return (
        i * (i + 1) * _term(n, d, i + 2, j)
        - mid * _term(n, d, i + 1, j)
        - low * _term(n, d, i, j)
    )


def test_certificate_degrees_fit_the_grid():
    # Divided by t(i+2, j) and multiplied by
    # D = (2i+2-j)(2i+1-j)(2i-j)(2i-1-j)(N-2i-2)(N-2i-3), both sides of the
    # telescoping identity are polynomials.  The operator side has degree
    # (8, 6, 4, 3) in (i, j, N, d) as written.  On the G side
    # (1-d)(N-2i-3+j)(i+1-j) i (i+1) Q(j+1) and j (2i-1-j) i (i+1) Q(j) stay
    # within that bound when every Q_k has degree <= 4 in i, <= 3
    # in N and <= 2 in d, and k <= 4.
    assert len(_CERTIFICATE) == 5
    monomials = [m for q in _CERTIFICATE for m in q]
    assert max(a for a, _, _ in monomials) <= 4
    assert max(b for _, b, _ in monomials) <= 3
    assert max(c for _, _, c in monomials) <= 2


def test_telescoping_identity_on_a_grid_beyond_its_degree():
    # A polynomial of degree (8, 6, 4, 3) that vanishes on a 9 x 7 x 5 x 4
    # product grid is zero.  The grid avoids every pole and every zero of
    # t(i+2, j), so the cleared identity vanishes exactly where this holds.
    checked = 0
    for i in range(10, 19):
        for j in range(0, 7):
            for n in range(100, 105):
                for d in range(2, 6):
                    assert _term(n, d, i + 2, j) != 0
                    lhs = _operator_on_term(n, d, i, j)
                    assert lhs == _g(n, d, i, j + 1) - _g(n, d, i, j), (i, j, n, d)
                    checked += 1
    assert checked == 9 * 7 * 5 * 4


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_boundary_terms_vanish_and_the_sum_telescopes(d):
    # for i >= 3 and N - 2i >= 4: G(0) = G(i+2) = 0, and the range 0..i+1
    # adds only zero terms to S_i and S_(i+1)
    for i in range(3, 9):
        for n in range(2 * i + 4, 2 * i + 9):
            assert _g(n, d, i, 0) == 0 and _g(n, d, i, i + 2) == 0
            assert _term(n, d, i, i) == _term(n, d, i, i + 1) == _term(n, d, i + 1, i + 1) == 0
            assert sum(_operator_on_term(n, d, i, j) for j in range(i + 2)) == 0


def test_seeds_and_first_steps_as_identities_in_n_and_d():
    # S_1, S_2, S_3 and S_4 are polynomials of degree at most 3 in N and d,
    # and the steps i = 1, 2 of degree at most 3 in N and 4 in d; a
    # 4 x 5 grid with N >= 8 (where the binomials are those polynomials)
    # proves each identity for every N and d
    for n in range(10, 14):
        for d in range(2, 7):
            assert _closed_sum(n, d, 1) == 1
            assert _closed_sum(n, d, 2) == 2 + (1 - d) * (n - 3)
            for i in (1, 2):
                mid, low = _rhs_factors(n, d, i)
                assert i * (i + 1) * _closed_sum(n, d, i + 2) == (
                    mid * _closed_sum(n, d, i + 1) + low * _closed_sum(n, d, i)
                )


def test_alpha_sums_equal_the_closed_form_sums():
    for n in range(1, 121):
        for d in (2, 3, 4, 5, 7, 9):
            want = [_closed_sum(n, d, i) for i in range(1, n // 2 + 1)]
            assert list(bounds._alpha_sums(n, d)) == want, (n, d)


# Q(j) of the relation in N, stored as {(a, b, c): coefficient} per power
# of j for the monomials i^a N^b d^c.  Derived offline by solving for Q
# over this ansatz; the identity below checks it.
_N_CERTIFICATE = (
    {  # j^0
        (0, 2, 0): -1, (1, 1, 1): 1, (1, 1, 0): 7, (0, 1, 0): 1, (2, 0, 1): -2,
        (2, 0, 0): -10, (1, 0, 1): -1, (1, 0, 0): -3,
    },
    {  # j^1
        (1, 0, 1): 3, (1, 0, 0): 7, (0, 1, 1): -1, (0, 1, 0): -3, (0, 0, 1): 1,
        (0, 0, 0): 1,
    },
    {  # j^2
        (0, 0, 1): -1, (0, 0, 0): -1,
    },
)


def _n_factors(n, d, i):
    """The factors d (d+1) (N-2i+1) of S_i(N+1) and (d^2+1) N - (d-1)^2 i of S_i(N)."""
    return d * (d + 1) * (n - 2 * i + 1), (d * d + 1) * n - (d - 1) ** 2 * i


def _n_certificate_g(n, d, i, j):
    q = sum(
        coef * i**a * n**b * d**c * j**k
        for k, terms in enumerate(_N_CERTIFICATE)
        for (a, b, c), coef in terms.items()
    )
    m = n - 2 * i
    return Fraction(i * j * q * _term(n, d, i + 1, j), m * (m - 1) * (2 * i - j))


def _n_operator_on_term(n, d, i, j):
    """The relation in N applied to the summand: zero once summed over j."""
    up, here = _n_factors(n, d, i)
    return up * _term(n + 1, d, i, j) - here * _term(n, d, i, j) + i * _term(n, d, i + 1, j)


def test_n_certificate_degrees_fit_the_grid():
    # Divided by t(i+1, j) and multiplied by
    # D = (N-2i)(N-2i-1)(2i-j)(2i-1-j), both sides of the telescoping
    # identity are polynomials.  The operator side has degree (5, 4, 3, 2)
    # in (i, j, N, d) as written.  On the G side
    # i (1-d)(N-2i-1+j)(i-j) Q(j+1) and i j (2i-1-j) Q(j) stay within that
    # bound when every Q_k has degree <= 2 in i, <= 2 in N and <= 1 in d,
    # and k <= 2.
    assert len(_N_CERTIFICATE) == 3
    monomials = [m for q in _N_CERTIFICATE for m in q]
    assert max(a for a, _, _ in monomials) <= 2
    assert max(b for _, b, _ in monomials) <= 2
    assert max(c for _, _, c in monomials) <= 1


def test_n_telescoping_identity_on_a_grid_beyond_its_degree():
    # A polynomial of degree (5, 4, 3, 2) that vanishes on a 6 x 5 x 4 x 3
    # product grid is zero.  The grid (j < i) avoids every pole and every
    # zero of t(i+1, j), so the cleared identity vanishes exactly where
    # this holds.
    checked = 0
    for i in range(10, 16):
        for j in range(0, 5):
            for n in range(100, 104):
                for d in range(2, 5):
                    assert _term(n, d, i + 1, j) != 0
                    lhs = _n_operator_on_term(n, d, i, j)
                    assert lhs == _n_certificate_g(n, d, i, j + 1) - _n_certificate_g(n, d, i, j)
                    checked += 1
    assert checked == 6 * 5 * 4 * 3


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_n_boundary_terms_vanish_and_the_sum_telescopes(d):
    # for i >= 2 and N - 2i >= 2: G(0) = G(i+1) = 0, and the range 0..i
    # adds only zero terms to S_i at N and N+1
    for i in range(2, 9):
        for n in range(2 * i + 2, 2 * i + 7):
            assert _n_certificate_g(n, d, i, 0) == 0 and _n_certificate_g(n, d, i, i + 1) == 0
            assert _term(n, d, i, i) == _term(n + 1, d, i, i) == 0
            assert sum(_n_operator_on_term(n, d, i, j) for j in range(i + 1)) == 0


def test_n_relation_at_i_1_as_an_identity_in_n_and_d():
    # S_1 = 1 and S_2 = 2 + (1-d)(N-3): of degree at most 1 in N and 2 in
    # d, so a 2 x 3 grid with N >= 4 proves it for every N and d
    for n in (4, 5):
        for d in (2, 3, 4):
            up, here = _n_factors(n, d, 1)
            assert up * _closed_sum(n + 1, d, 1) == here * _closed_sum(n, d, 1) - _closed_sum(n, d, 2)


def test_relation_in_n_and_the_steps_on_the_closed_sums():
    # every i = 1 .. N//2 - 1 for N <= 60, including the N below the
    # certificate's range, against sums that share no package code, with
    # `_sums_from` run from each start index
    sums = {
        (n, d): [None] + [_closed_sum(n, d, i) for i in range(1, n // 2 + 1)]
        for d in range(2, 9)
        for n in range(2, 62)
    }
    for d in range(2, 9):
        for n in range(2, 61):
            s, s_next = sums[n, d], sums[n + 1, d]
            for i in range(1, n // 2):
                up, here = _n_factors(n, d, i)
                assert up * s_next[i] == here * s[i] - i * s[i + 1], (n, d, i)
                assert bounds._step_n(n, d, i, s[i], s[i + 1]) == s_next[i], (n, d, i)
                assert list(bounds._sums_from(n, d, i, s[i], s[i + 1])) == s[i + 2:], (n, d, i)


def _term_ratio_alpha(n, d, i):
    """alpha_i(N) from the closed form, its sum walked by the term ratio

    t_j / t_(j-1) = (1-d) (N-2i+j) (i-j) / (j (2i-1-j)),

    one binomial and i - 1 exact integer multiply-divide steps.
    """
    if i == 0:
        return Fraction(1)
    term = math.comb(2 * i - 2, i - 1)
    total = term
    for j in range(1, i):
        # t_j is an integer (a product of binomials and a power of 1-d), so
        # multiplying first leaves a numerator that j (2i-1-j) divides exactly.
        term = term * ((1 - d) * (n - 2 * i + j) * (i - j)) // (j * (2 * i - 1 - j))
        total += term
    return Fraction(-n * (d - 1) * total, i)


def test_term_ratio_walk_is_the_closed_form_sum():
    for n in range(2, 41):
        for d in (2, 3, 5):
            for i in range(1, n // 2 + 1):
                want = Fraction(-n * (d - 1) * _closed_sum(n, d, i), i)
                assert _term_ratio_alpha(n, d, i) == want, (n, d, i)


@pytest.mark.parametrize("n, d", [(4095, 3), (4096, 3), (4095, 5), (4096, 5)])
def test_alpha_vector_matches_the_closed_form_near_the_party_cap(n, d):
    half = n // 2
    vector = alpha_vector(n, d)
    assert len(vector) == half + 1
    for i in sorted({*range(0, half + 1, half // 19), 1, 2, half}):
        assert vector[i] == _term_ratio_alpha(n, d, i), i


def _closed_form_first_firing(n, d):
    return next(
        (i for i in range(1, n // 2 + 1) if (-1) ** i * _term_ratio_alpha(n, d, i) < 0),
        None,
    )


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_k_upper_bound_fires_where_the_closed_form_scan_does(d):
    for n in range(2, 401):
        verdict = k_upper_bound(n, d)
        first = _closed_form_first_firing(n, d)
        if verdict.provenance.startswith("alpha-sign"):
            assert verdict.provenance == bounds.provenance_alpha(first), n
            assert verdict.witness == _term_ratio_alpha(n, d, first), n
        else:
            # a firing alpha test loses only to a strictly smaller bound
            assert first is None or first - 1 > verdict.k_max, n


def test_bound_records_leave_the_alpha_cache_alone():
    before = alpha_vector.cache_info().currsize
    tables.compute_bound_records(5, 2, 300)
    assert alpha_vector.cache_info().currsize == before
