"""Exact arithmetic primitives shared by every other module.

All quantities in this package are rational and are kept as
`fractions.Fraction` values end to end; no float ever enters a computation.
Amplitudes of explicit states use `GaussianRational`, an exact complex
number with rational real and imaginary parts.

Binomials are arbitrary-precision integers (`math.comb` underneath) with
the combinatorial conventions C(0,0) = 1 and C(n,k) = 0 outside
0 <= k <= n.  `falling_binom` extends the upper index to negative
integers, which is the power-series coefficient convention needed by the
hypergeometric sums in `bounds`.

`homogeneous_horner` is the one substitution kernel: it expands
A(X, Y) = sum_j a_j X^(N-j) Y^j for integer coefficients and integer
binary forms X, Y of one degree in O(N^2) integer operations.  Every
change of variables in `enumerators` and the heterogeneous shadow in
`hetero` is a call to it, with denominators cleared before and divided
out once per coefficient after.  `elem_sym_prefix` is generic in its
values: integers in give integers out, Fractions give Fractions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

RatLike = Union[Fraction, int, str]


def binom(n: int, k: int) -> int:
    """Binomial coefficient C(n, k); zero whenever k < 0 or k > n."""
    if n < 0:
        raise ValueError(f"binom requires n >= 0, got n={n}")
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def falling_binom(a: int, k: int) -> int:
    """Generalized binomial C(a, k) = a (a-1) ... (a-k+1) / k! for integer a.

    Agrees with binom on a >= 0 and extends it to negative upper index;
    zero for k < 0.  The product of k consecutive integers is divisible by
    k!, so the division below is exact.
    """
    if k < 0:
        return 0
    num = 1
    for t in range(k):
        num *= a - t
    return num // math.factorial(k)


def elem_sym_prefix(
    values: Sequence[Union[Fraction, int]], k_max: int
) -> list[Union[Fraction, int]]:
    """All elementary symmetric polynomials e_0 .. e_k_max of `values`.

    O(len(values) * k_max) dynamic programming over the product expansion
    of prod(1 + v_i x); subset enumeration is never materialised.  The
    sums start from the integers 0 and 1, so integer values give exact
    integers and Fraction values give Fractions.
    """
    if not 0 <= k_max <= len(values):
        raise ValueError(
            f"k_max={k_max} out of range for {len(values)} values"
        )
    e = [0] * (k_max + 1)
    e[0] = 1
    for m, v in enumerate(values, start=1):
        for j in range(min(m, k_max), 0, -1):
            e[j] += v * e[j - 1]
    return e


def elem_sym(values: Sequence[Union[Fraction, int]], k: int) -> Union[Fraction, int]:
    """Sum over all k-subsets of `values` of the product of chosen entries."""
    return elem_sym_prefix(values, k)[k]


def _times_form(poly: list[int], form: Sequence[int]) -> list[int]:
    """Product of two homogeneous polynomials given in the y-power index."""
    size = len(poly)
    out = [form[0] * c for c in poly] + [0] * (len(form) - 1)
    for shift, f in enumerate(form[1:], start=1):
        if f:
            out[shift : shift + size] = [
                a + f * c for a, c in zip(out[shift : shift + size], poly)
            ]
    return out


def homogeneous_horner(
    coeffs: Sequence[int], x_form: Sequence[int], y_form: Sequence[int]
) -> list[int]:
    """Coefficients of sum_j coeffs[j] X^(n-j) Y^j, with n = len(coeffs) - 1.

    X and Y are integer binary forms of one degree g, each given as its
    coefficients f_0 .. f_g of x^(g-i) y^i; the result, of degree g*n, is
    given the same way.  The homogeneous Horner step
    Q_k = Q_(k-1) X + coeffs[k] Y^k, with Y^k carried from one step to the
    next, reaches Q_n in O((g n)^2) exact integer operations.
    """
    if len(x_form) != len(y_form):
        raise ValueError("the two forms must have the same degree")
    q = [coeffs[0]]
    y_pow = [1]
    for a in coeffs[1:]:
        q = _times_form(q, x_form)
        y_pow = _times_form(y_pow, y_form)
        if a:
            q = [qi + a * yi for qi, yi in zip(q, y_pow)]
    return q


def rat_from_str(text: str) -> Fraction:
    """Parse a decimal-free "p/q" (or bare integer "p") rational string.

    Raises ValueError on anything else, a zero denominator included.
    """
    text = text.strip()
    if "." in text or "e" in text.lower():
        raise ValueError(f"rational strings must be decimal-free, got {text!r}")
    try:
        return Fraction(text)
    except ZeroDivisionError as exc:
        raise ValueError(f"rational string has a zero denominator: {text!r}") from exc


def rat_to_str(value: Fraction) -> str:
    """Render a rational as "p/q", or "p" when the denominator is 1."""
    return str(Fraction(value))


@dataclass(frozen=True)
class GaussianRational:
    """Exact complex number with rational real and imaginary parts."""

    re: Fraction = Fraction(0)
    im: Fraction = Fraction(0)

    @classmethod
    def of(cls, re: RatLike, im: RatLike = 0) -> "GaussianRational":
        return cls(Fraction(re), Fraction(im))

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0
