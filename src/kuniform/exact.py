"""Exact arithmetic primitives shared by every other module.

All quantities in this package are rational and are kept as
`fractions.Fraction` values end to end; no float ever enters a computation.
Amplitudes of explicit states use `GaussianRational`, an exact complex
number with rational real and imaginary parts.

Binomials are arbitrary-precision integers (`math.comb` underneath) with
the combinatorial conventions C(0,0) = 1 and C(n,k) = 0 outside
0 <= k <= n.  `falling_binom` extends the upper index to negative
integers.  Only the uncalled `enumerators.basis_matrix_entry` calls
`binom`; the tests and the benchmark's call counts keep both.

`substitute` is the one substitution kernel: it expands
L^N p(r(y/L)) for a linear form L, an integer polynomial p and a
polynomial r with small integer coefficients.  Each of its two passes is
Horner's rule on one packed integer, a few shift-adds per step with no
product of two long integers, and the digits are read back once.  Every
change of variables in `enumerators` and the heterogeneous shadow in
`hetero` is a call to it, with denominators cleared before
(`clear_denominators`, which the oracle's integer sums share) and
divided out once per coefficient after.  `elem_sym_prefix` is generic
in its values: integers in give integers out, Fractions give Fractions.
No module of the package calls it since `hetero_shadow` expands only
the half of the product it reads; the tests keep it as the reference
for that expansion, and the benchmark's spans name it.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

RatLike = Union[Fraction, int, str]

# a rational as `rat_to_str` writes it
_RAT_TEXT = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


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

    The coefficients of prod(1 + v_i x) up to x^k_max; subset enumeration
    is never materialised.  The most frequent value v, with multiplicity
    n, enters in closed form, (1 + v x)^n = sum_j C(n, j) v^j x^j, walked
    by term ratio (C(n, j) = C(n, j-1) (n-j+1)/j, exact in integers);
    every other value takes one step of dynamic programming.  That is
    O((len(values) - n) * k_max) steps, O(len(values)) when one class
    holds all but a few values.  The sums start from the integers 0 and
    1, so integer values give exact integers and Fraction values give
    Fractions.
    """
    if not 0 <= k_max <= len(values):
        raise ValueError(
            f"k_max={k_max} out of range for {len(values)} values"
        )
    e = [0] * (k_max + 1)
    e[0] = 1
    counts = Counter(values)
    if not counts:
        return e
    common, n = counts.most_common(1)[0]
    power = choose = 1
    for j in range(1, min(n, k_max) + 1):
        power *= common
        choose = choose * (n - j + 1) // j
        e[j] = choose * power
    del counts[common]
    m = n
    for v, count in counts.items():
        for _ in range(count):
            m += 1
            for j in range(min(m, k_max), 0, -1):
                e[j] += v * e[j - 1]
    return e


def _compose(coeffs: Sequence[int], ratio: Sequence[int]) -> list[int]:
    """Coefficients e_j of p(r(t)) = sum_k coeffs[k] r(t)^k, r(t) = sum_i ratio[i] t^i.

    Horner's rule runs on one integer, the value at t = 2^w: a step is
    acc r(2^w) + c, a shift and at most one small multiple per nonzero
    ratio[i].  Width: the coefficients of r^k sum to at most s^k in
    absolute value, s = sum_i |ratio[i]|, so |e_j| <= B = sum_k
    |coeffs[k]| s^k; w = 8 (B.bit_length() // 8 + 1) gives B < 2^(w-1),
    so each e_j + 2^(w-1) is one base-2^w digit in [0, 2^w), and after
    that bias `to_bytes` reads every e_j off exactly.
    """
    s = sum(map(abs, ratio))
    bound = 0
    for c in reversed(coeffs):
        bound = bound * s + abs(c)
    nbytes = bound.bit_length() // 8 + 1
    w = 8 * nbytes
    steps = []  # ratio[i] = odd 2^zeros: the power of two joins the shift
    for i, r in enumerate(ratio):
        if r:
            zeros = (r & -r).bit_length() - 1
            steps.append((w * i + zeros, r >> zeros))
    acc = 0
    for c in reversed(coeffs):
        new = c
        for shift, odd in steps:
            if odd == -1:
                new -= acc << shift
            else:
                new += acc << shift if odd == 1 else odd * (acc << shift)
        acc = new
    size = (len(coeffs) - 1) * (len(ratio) - 1) + 1
    bias = int.from_bytes((bytes(nbytes - 1) + b"\x80") * size, "little")
    raw, half = (acc + bias).to_bytes(nbytes * size, "little"), 1 << (w - 1)
    return [
        int.from_bytes(raw[i : i + nbytes], "little") - half
        for i in range(0, len(raw), nbytes)
    ]


def clear_denominators(coeffs: Sequence[Fraction]) -> tuple[list[int], int]:
    """Integers m * c for each coefficient c, and m, the lcm of the denominators."""
    den = math.lcm(*(c.denominator for c in coeffs))
    return [c.numerator * (den // c.denominator) for c in coeffs], den


def substitute(
    coeffs: Sequence[int], line: tuple[int, int], ratio: Sequence[int], degree: int
) -> list[int]:
    """Coefficients of x^(degree-j) y^j in L^degree p(r(y/L)), L = line[0] x + line[1] y.

    p(z) = sum_k coeffs[k] z^k and r are integer polynomials (r as in
    `_compose`), with degree >= deg(p) deg(r).  Two passes of `_compose`:
    p(r(t)) = sum_j e_j t^j, then sum_j e_j L^(degree-j) y^j =
    y^degree q(line[1] + line[0] x/y) with q(u) = sum_m e_(degree-m) u^m.
    """
    if (len(coeffs) - 1) * (len(ratio) - 1) > degree:
        raise ValueError(f"degree {degree} is below deg(p) deg(r)")
    inner = _compose(coeffs, ratio)
    inner += [0] * (degree + 1 - len(inner))
    return _compose(inner[::-1], line[::-1])[::-1]


def rat_from_str(text: str) -> Fraction:
    """Parse "p/q" or "p" in ASCII digits with an optional "-" on p.

    That is what `rat_to_str` writes.  Anything else, such as "1_0",
    "+3", " 3 ", "0.5" or a non-ASCII digit, which `Fraction()` would
    read, raises ValueError, and so does a zero denominator.
    """
    match = _RAT_TEXT.fullmatch(text)
    if match is None:
        raise ValueError(f"rational strings must be p/q in ASCII digits, got {text!r}")
    num, den = int(match[1]), int(match[2] or 1)
    if den == 0:
        raise ValueError(f"rational string has a zero denominator: {text!r}")
    return Fraction(num, den)


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
