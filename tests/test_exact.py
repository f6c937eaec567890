from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from kuniform.exact import (
    binom,
    elem_sym,
    elem_sym_prefix,
    falling_binom,
    homogeneous_horner,
    rat_from_str,
    rat_to_str,
)

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=20)


def pascal_triangle(n_max):
    rows = [[1]]
    for n in range(1, n_max + 1):
        prev = rows[-1]
        row = [1] + [prev[k - 1] + prev[k] for k in range(1, n)] + [1]
        rows.append(row)
    return rows


def test_binom_against_pascal_recurrence():
    rows = pascal_triangle(52)
    for n in range(41):
        for k in range(n + 1):
            assert binom(n, k) == rows[n][k]
    assert binom(52, 26) == rows[52][26] == 495918532948104


def test_binom_conventions():
    assert binom(0, 0) == 1
    assert binom(5, 7) == 0
    assert binom(5, -1) == 0
    with pytest.raises(ValueError):
        binom(-1, 0)


def test_falling_binom_extends_binom():
    for a in range(0, 12):
        for k in range(0, 12):
            assert falling_binom(a, k) == binom(a, k)
    # power-series convention at negative upper index
    assert falling_binom(-1, 0) == 1
    assert falling_binom(-1, 1) == -1
    assert falling_binom(-2, 2) == 3
    assert falling_binom(3, -1) == 0


def test_elem_sym_examples():
    vals = [Fraction(1, 3), Fraction(1, 2), Fraction(1, 2)]
    assert elem_sym(vals, 1) == Fraction(4, 3)
    assert elem_sym(vals, 0) == 1
    assert elem_sym([Fraction(1, 2), Fraction(1, 2)], 2) == Fraction(1, 4)
    with pytest.raises(ValueError):
        elem_sym(vals, 4)


@given(st.lists(rationals, max_size=10))
def test_elem_sym_matches_product_expansion(values):
    # coefficients of prod(1 + v x), expanded term by term
    poly = [Fraction(1)]
    for v in values:
        poly = [
            (poly[k] if k < len(poly) else Fraction(0))
            + (v * poly[k - 1] if k > 0 else Fraction(0))
            for k in range(len(poly) + 1)
        ]
    expected = elem_sym_prefix(values, len(values))
    assert poly == expected


@given(rationals, rationals, rationals)
def test_rational_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a and a * b == b * a


def sign(x):
    return (x > 0) - (x < 0)


@given(rationals, rationals)
def test_sign_is_multiplicative(a, b):
    assert sign(a * b) == sign(a) * sign(b)


@given(rationals)
def test_rat_string_round_trip(q):
    text = rat_to_str(q)
    assert "/" in text or text.lstrip("-").isdigit()
    assert rat_from_str(text) == q


def test_rat_from_str_rejects_decimals():
    with pytest.raises(ValueError):
        rat_from_str("0.5")


def _times(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


small_ints = st.integers(-9, 9)


@given(
    st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=12),
    st.integers(1, 3).flatmap(
        lambda g: st.tuples(
            st.lists(small_ints, min_size=g + 1, max_size=g + 1),
            st.lists(small_ints, min_size=g + 1, max_size=g + 1),
        )
    ),
)
def test_homogeneous_horner_matches_term_by_term_expansion(coeffs, forms):
    x_form, y_form = forms
    n = len(coeffs) - 1
    expected = [0] * ((len(x_form) - 1) * n + 1)
    for j, a in enumerate(coeffs):
        term = [a]
        for _ in range(n - j):
            term = _times(term, x_form)
        for _ in range(j):
            term = _times(term, y_form)
        expected = [e + t for e, t in zip(expected, term)]
    assert homogeneous_horner(coeffs, x_form, y_form) == expected


def test_homogeneous_horner_needs_forms_of_one_degree():
    with pytest.raises(ValueError):
        homogeneous_horner([1, 2], [1, 1], [1, 0, 1])


@given(st.lists(st.integers(-50, 50), max_size=10))
def test_elem_sym_prefix_keeps_integers(values):
    e = elem_sym_prefix(values, len(values))
    assert all(type(v) is int for v in e)
    assert e == elem_sym_prefix([Fraction(v) for v in values], len(values))
