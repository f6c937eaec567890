import ast
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import kuniform
from kuniform.exact import (
    binom,
    elem_sym_prefix,
    falling_binom,
    rat_from_str,
    rat_to_str,
    substitute,
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
    assert elem_sym_prefix(vals, 1) == [1, Fraction(4, 3)]
    assert elem_sym_prefix(vals, 0) == [1]
    assert elem_sym_prefix([Fraction(1, 2), Fraction(1, 2)], 2)[2] == Fraction(1, 4)
    with pytest.raises(ValueError):
        elem_sym_prefix(vals, 4)


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


@pytest.mark.parametrize("text", ["1_0", "\u0663", "\uff13", "+3", " 3 ", "1/2_0", "1/0"])
def test_rat_from_str_reads_ascii_digits_only(text):
    # Fraction() once read the first six as 10, 3, 3, 3, 3 and 1/20
    with pytest.raises(ValueError):
        rat_from_str(text)


def _times(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def _power(poly, k):
    out = [1]
    for _ in range(k):
        out = _times(out, poly)
    return out


def _expand(coeffs, line, ratio, degree):
    """L^degree p(r(y/L)) term by term: c_k rho_(k,j) L^(degree-j) y^j for each term of r^k."""
    out = [0] * (degree + 1)
    for k, c in enumerate(coeffs):
        for j, rho in enumerate(_power(ratio, k)):
            term = [0] * j + [c * rho * v for v in _power(line, degree - j)]
            out = [o + t for o, t in zip(out, term)]
    return out


def _expand_forms(coeffs, x_form, y_form):
    """sum_j coeffs[j] X^(n-j) Y^j for binary forms X, Y of one degree, term by term."""
    n = len(coeffs) - 1
    out = [0] * ((len(x_form) - 1) * n + 1)
    for j, a in enumerate(coeffs):
        term = [a * v for v in _times(_power(x_form, n - j), _power(y_form, j))]
        out = [o + t for o, t in zip(out, term)]
    return out


small_ints = st.integers(-9, 9)


@given(
    st.lists(st.integers(-10**12, 10**12), min_size=1, max_size=9),
    st.tuples(small_ints, small_ints),
    st.lists(small_ints, min_size=1, max_size=4),
    st.integers(0, 3),
)
def test_substitute_matches_term_by_term_expansion(coeffs, line, ratio, extra):
    degree = (len(coeffs) - 1) * (len(ratio) - 1) + extra
    assert substitute(coeffs, line, ratio, degree) == _expand(
        coeffs, line, ratio, degree
    )


@given(st.lists(st.integers(-10**9, 10**9), min_size=1, max_size=14), st.integers(2, 9))
def test_substitute_expands_the_forms_of_each_caller(coeffs, d):
    # each caller writes its change of variables as L^N p(r(y/L)):
    # hetero_shadow, macwilliams_transform and shadow_transform substitute
    # linear forms X, Y into sum_j a_j X^(N-j) Y^j, and c_to_a expands
    # sum_i c_i u^(N-2i) v^i with u = x + (d-1) y, v = y (x - y)
    n = len(coeffs) - 1
    rev = coeffs[::-1]
    assert substitute(coeffs, (1, 1), (-1, 2), n) == _expand_forms(
        coeffs, (1, 1), (-1, 1)
    )
    assert substitute(rev, (1, -1), (1, d * d), n) == _expand_forms(
        coeffs, (1, d * d - 1), (1, -1)
    )
    assert substitute(rev, (-1, 1), (1 - d, 2 * d), n) == _expand_forms(
        coeffs, (d - 1, d + 1), (-1, 1)
    )
    half = coeffs[: n // 2 + 1]
    expected = [0] * (n + 1)
    for i, c in enumerate(half):
        term = _times(_power((1, d - 1), n - 2 * i), _power((0, 1, -1), i))
        expected = [e + c * t for e, t in zip(expected, term)]
    assert substitute(half, (1, d - 1), (0, 1, -d), n) == expected


def test_substitute_edge_cases():
    # N = 0: the constant, whatever the line and ratio
    assert substitute([7], (3, -2), (-1, 2), 0) == [7]
    assert substitute([0], (1, 1), (-1, 2), 0) == [0]
    # N = 1: c_0 L + c_1 L r(y/L) for L = 2x + 3y, r = -1 + 2t
    assert substitute([5, -4], (2, 3), (-1, 2), 1) == [18, 19]
    # a degree above deg(p) deg(r) multiplies by powers of L
    assert substitute([5], (1, 1), (-1, 2), 2) == [5, 10, 5]
    # zero coefficients anywhere, all of them included
    assert substitute([0, 0, 0], (1, 1), (-1, 2), 2) == [0, 0, 0]
    for coeffs in ([0, 3, 0, 0], [0, 0, 0, -2], [1, 0, 0, 0], [0, 5, 0, 7]):
        assert substitute(coeffs, (1, 2), (0, 1, -3), 6) == _expand(
            coeffs, (1, 2), (0, 1, -3), 6
        )


def test_substitute_needs_room_for_the_degree():
    with pytest.raises(ValueError):
        substitute([1, 2, 3], (1, 1), (0, 1, -1), 3)


@pytest.mark.parametrize(
    "count, size",
    [(1, 2**7 - 1), (1, 2**7), (5, 51), (4, 32), (7, 4681), (8, 4096),
     (7, (2**63 - 1) // 7), (8, 2**60), (3, 2**200 // 3)],
    ids=["2^7-1", "2^7", "2^8-1", "4x2^5", "2^15-1", "2^15", "2^63-1", "2^63", "2^200-1"],
)
def test_substitute_at_the_width_bound(count, size):
    # every |c_k| equal and each sign matched to (-1)^k against the ratio -1,
    # so all count terms land on one coefficient and it equals the width
    # bound B = count * size exactly: B sits at 2^(8m-1) - 1, 2^(8m-1) and
    # between, the edges of a whole number of bytes with a sign bit
    bound = count * size
    for sign in (1, -1):
        coeffs = [sign * size * (-1) ** k for k in range(count)]
        assert substitute(coeffs, (1, 0), (-1,), 0) == [sign * bound]
        # the second pass at its own bound: L^3 = x^3 keeps B in place, and
        # L = y moves it to the last coefficient
        assert substitute(coeffs, (1, 0), (-1,), 3) == [sign * bound, 0, 0, 0]
        assert substitute(coeffs, (0, -1), (-1,), 3) == [0, 0, 0, -sign * bound]


@given(
    st.integers(0, 10),
    st.integers(1, 2**80),
    st.sampled_from([2, 3, -3, 7, -9]),
    st.integers(0, 3),
)
def test_substitute_with_aligned_signs(n, size, rho, shift):
    # r = rho t^shift and c_k = size sign(rho)^k make every c_k r^k
    # positive, so the largest output is at least half the width bound
    coeffs = [size * (1 if rho > 0 else -1) ** k for k in range(n + 1)]
    ratio = [0] * shift + [rho]
    degree = n * shift
    out = substitute(coeffs, (1, 0), ratio, degree)
    assert out == _expand(coeffs, (1, 0), ratio, degree)
    bound = sum(size * abs(rho) ** k for k in range(n + 1))
    assert 2 * max(out) >= bound


@st.composite
def repeated_values(draw):
    """Up to 12 values drawn from a pool of 2-3 ints or 2-3 Fractions, so most repeat."""
    numbers = st.integers(-9, 9) if draw(st.booleans()) else rationals
    pool = draw(st.lists(numbers, min_size=2, max_size=3))
    return draw(st.lists(st.sampled_from(pool), max_size=12))


@given(repeated_values())
def test_elem_sym_prefix_of_repeated_values_is_every_prefix_of_the_product(values):
    # the most frequent value enters in closed form, the others one by one
    poly = [Fraction(1)]
    for v in values:
        poly = [
            (poly[k] if k < len(poly) else 0) + (v * poly[k - 1] if k else 0)
            for k in range(len(poly) + 1)
        ]
    integral = all(type(v) is int for v in values)
    for k_max in range(len(values) + 1):
        e = elem_sym_prefix(values, k_max)
        assert e == poly[: k_max + 1]
        if integral:
            assert all(type(v) is int for v in e)


@given(st.lists(st.integers(-50, 50), max_size=10))
def test_elem_sym_prefix_keeps_integers(values):
    e = elem_sym_prefix(values, len(values))
    assert all(type(v) is int for v in e)
    assert e == elem_sym_prefix([Fraction(v) for v in values], len(values))


_FLOAT_CALLS = {"sqrt", "log", "exp"}


def _float_uses(tree):
    """Each float literal, float/complex name, sqrt/log/exp call and numeric `/` in `tree`."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and type(node.value) in (float, complex):
            yield node, f"literal {node.value!r}"
        elif isinstance(node, ast.Name) and node.id in ("float", "complex"):
            yield node, node.id
        elif isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in _FLOAT_CALLS:
                yield node, f"call of {name}"
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            operands = (node.left, node.right) if isinstance(node, ast.BinOp) else (node.value,)
            # a path join always has a string-literal operand
            if not any(
                isinstance(o, ast.Constant) and isinstance(o.value, str) for o in operands
            ):
                yield node, "true division"


def test_package_source_uses_no_float():
    # results are exact rationals: every division goes through Fraction or //
    package = Path(kuniform.__file__).parent
    found = [
        f"{path.name}:{node.lineno}: {what}"
        for path in sorted(package.glob("*.py"))
        for node, what in _float_uses(ast.parse(path.read_text(), str(path)))
    ]
    assert found == []
