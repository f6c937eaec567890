"""Weight-enumerator algebra over exact rationals.

A homogeneous degree-N polynomial A(x, y) = sum_j a_j x^(N-j) y^j is stored
as its coefficient vector (a_0 .. a_N).  Three changes of representation
are implemented here, all exactly, never by evaluation or interpolation:

  * the duality substitution x -> (x + (d^2-1) y) / d, y -> (x - y) / d,
    under which enumerators of pure states are invariant;
  * the shadow substitution x -> ((d-1) x + (d+1) y) / d, y -> (y - x) / d;
  * the invariant basis (x + (d-1) y)^(N-2i) (y (x - y))^i, whose
    coordinates c_0 .. c_(floor(N/2)) determine A completely.

The two substitutions and the expansion c -> a each clear the
denominators once, write the change of variables as L^N p(r(y/L)) for
one linear form L and a small-integer polynomial r, expand it with the
kernel `exact.substitute` (two Horner passes on one packed integer),
and divide once per coefficient at the end.

Each of the pairs c <-> a and c <-> b (the compressed shadow,
b_j = s_(2j+t) with t = N mod 2) goes forward by the kernel, back by a
closed form that shares nothing with it, so that a round trip compares
two independent routes:

  * c -> a is the kernel expansion above; a -> c is a Lagrange inversion,
    the c_i peeled off a power series one at a time;
  * c -> b expands c -> a, substitutes the shadow forms and compresses;
    b -> c is Rains' lemma, an integer sum per c_i.

Each closed form runs on cleared numerators in O(N^2) integer operations
and divides once per c_i at the end.  `basis_matrix_entry` gives the
entries of the unitriangular matrix of the c -> a map directly, as a
reference for tests.

The four coefficient records (`WeightEnumerator`, `ShadowEnumerator`,
`InvariantBasisCoeffs`, `ShadowCompressed`) share one validation: N is an
exact int >= 1 and d an exact int >= 2 (the compressed shadow holds
N mod 2 in its place), both by the input rule `errors.exact_int`, and
the coefficients are ints or Fractions only, floats and bools refused,
N+1 of them or floor(N/2)+1.

`validate_state_constraints` evaluates every coefficient inequality and
identity a pure-state enumerator must satisfy, returning a report rather
than raising on violations.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from fractions import Fraction
from itertools import accumulate
from operator import mul
from typing import Optional, Sequence

from .errors import exact_int
from .exact import binom, clear_denominators, rat_to_str, substitute


def _exact_coeff(value) -> Fraction:
    """`value` as a Fraction when it is an int or a Fraction; float and bool raise."""
    if type(value) is int or isinstance(value, Fraction):
        return Fraction(value)
    raise ValueError(f"coefficients must be int or Fraction, got {value!r}")


class _Record:
    """The module docstring's record rule; `half` means floor(N/2)+1 coefficients."""

    half = False

    def __post_init__(self) -> None:
        n = exact_int(self.n_parties, "n_parties", 1)
        self._check_second(n)
        coeffs = tuple(map(_exact_coeff, self.coeffs))
        size = n // 2 + 1 if self.half else n + 1
        if len(coeffs) != size:
            raise ValueError(f"need {size} coefficients, got {len(coeffs)}")
        object.__setattr__(self, "coeffs", coeffs)

    def _check_second(self, n: int) -> None:
        exact_int(self.local_dim, "local_dim", 2)


@dataclass(frozen=True)
class _Enumerator(_Record):
    """Fields and JSON output of the full-length enumerators; subclasses add no field."""

    n_parties: int
    local_dim: int
    coeffs: tuple[Fraction, ...]

    def to_json_dict(self) -> dict:
        return {
            "n": self.n_parties,
            "d": self.local_dim,
            "coeffs": [rat_to_str(c) for c in self.coeffs],
        }


class WeightEnumerator(_Enumerator):
    """Coefficients a_0 .. a_N of A(x, y) for an N-party, dimension-d system."""


class ShadowEnumerator(_Enumerator):
    """Coefficients s_0 .. s_N of the shadow polynomial S(x, y)."""


@dataclass(frozen=True)
class InvariantBasisCoeffs(_Record):
    """Coordinates c_0 .. c_(floor(N/2)) in the duality-invariant basis."""

    n_parties: int
    local_dim: int
    coeffs: tuple[Fraction, ...]
    half = True


@dataclass(frozen=True)
class ShadowCompressed(_Record):
    """Nonvanishing shadow coefficients b_j = s_(2j+t), t = N mod 2."""

    n_parties: int
    parity: int
    coeffs: tuple[Fraction, ...]
    half = True

    def _check_second(self, n: int) -> None:
        if exact_int(self.parity, "parity", 0) != n % 2:
            raise ValueError("parity must equal n_parties mod 2")


# ---------------------------------------------------------------------------
# exact substitution of linear forms
# ---------------------------------------------------------------------------


def _substitute(
    coeffs: Sequence[Fraction],
    line: tuple[int, int],
    ratio: tuple[int, int],
    scale: int,
) -> tuple[Fraction, ...]:
    """Coefficients of A(L r(y/L) / scale, L / scale), L = line[0] x + line[1] y.

    sum_j a_j (L r)^(N-j) L^j = L^N p(r(y/L)) for p(z) = sum_k a_(N-k) z^k.
    """
    n = len(coeffs) - 1
    ints, den = clear_denominators(coeffs[::-1])
    out = substitute(ints, line, ratio, n)
    den *= scale**n
    return tuple(Fraction(v, den) for v in out)


def macwilliams_transform(enum: WeightEnumerator) -> WeightEnumerator:
    """A((x + (d^2-1) y) / d, (x - y) / d), expanded exactly.

    Pivot L = x - y, so x + (d^2-1) y = L (1 + d^2 y/L): a ratio without
    sign change, whose kernel width stays near the true size when the
    weight sits at high j, as for pure states.
    """
    d = enum.local_dim
    coeffs = _substitute(enum.coeffs, (1, -1), (1, d * d), d)
    return WeightEnumerator(enum.n_parties, d, coeffs)


def shadow_transform(enum: WeightEnumerator) -> ShadowEnumerator:
    """S(x, y) = A(((d-1) x + (d+1) y) / d, (y - x) / d), expanded exactly.

    Pivot L = y - x, so (d-1) x + (d+1) y = L (-(d-1) + 2d y/L).
    """
    d = enum.local_dim
    coeffs = _substitute(enum.coeffs, (-1, 1), (1 - d, 2 * d), d)
    return ShadowEnumerator(enum.n_parties, d, coeffs)


# ---------------------------------------------------------------------------
# invariant-basis conversions
# ---------------------------------------------------------------------------


def basis_matrix_entry(n_parties: int, local_dim: int, row: int, col: int) -> int:
    """Coefficient of c_col in a_row when A is expanded in the invariant basis.

    Valid for 0 <= col <= row <= floor(N/2); the matrix is unitriangular.
    """
    n, d, j, i = n_parties, local_dim, row, col
    total = 0
    for ell in range(j - i + 1):
        total += (
            binom(n - 2 * i, ell)
            * (d - 1) ** ell
            * binom(i, j - i - ell)
            * (-1) ** (j - i - ell)
        )
    return total


def a_to_c(enum: WeightEnumerator) -> InvariantBasisCoeffs:
    """Invariant-basis coordinates from a_0 .. a_(floor(N/2)), by series inversion.

    With e = d - 1, A(1, y) / (1 + e y)^N = sum_i c_i z^i for
    z = y (1 - y) / (1 + e y)^2, and z = y + O(y^2), so c_0 .. c_h
    (h = floor(N/2)) are the coefficients of that series expanded in powers
    of z, read off mod y^(h+1).  Each step takes c_i = F(0) and replaces F
    by (F - c_i) / z: drop the constant term and shift (divide by y), then
    multiply by (1 + e y)^2 / (1 - y) = d^2 / (1 - y) - (d^2 - 1) - e^2 y,
    that is d^2 times the prefix sums minus a two-term correction.  Every
    multiplier is an integer series, so the whole solve runs on the cleared
    numerators of a_0 .. a_h in O(N^2) integer operations and divides by
    their lcm once per c_i.
    """
    n, d = enum.n_parties, enum.local_dim
    half = n // 2
    e = d - 1
    ints, den = clear_denominators(enum.coeffs[: half + 1])
    # (1 + e y)^(-N) = sum_k C(N+k-1, k) (-e)^k y^k by term ratio, stored
    # highest power first so that a slice lines up with ints in a product.
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
    return InvariantBasisCoeffs(n, d, tuple(Fraction(v, den) for v in c))


def c_to_a(inv: InvariantBasisCoeffs) -> WeightEnumerator:
    """Expand sum_i c_i (x + (d-1) y)^(N-2i) (y (x - y))^i into a_0 .. a_N.

    With u = x + (d-1) y and t = y/u, v = y (x - y) = u^2 (t - d t^2), so
    the sum is u^N p(t - d t^2) for p(z) = sum_i c_i z^i: one call of the
    kernel, whose degree N also covers the odd-N factor u.
    """
    n, d = inv.n_parties, inv.local_dim
    ints, den = clear_denominators(inv.coeffs)
    out = substitute(ints, (1, d - 1), (0, 1, -d), n)
    return WeightEnumerator(n, d, tuple(Fraction(v, den) for v in out))


def c_to_b(inv: InvariantBasisCoeffs) -> ShadowCompressed:
    """Compressed shadow coefficients b_j from the invariant coordinates.

    Forward by the kernel, back by a closed form: this direction expands
    c -> a, substitutes the shadow forms and keeps s_(2j+t); `b_to_c` is
    the closed-form way back.
    """
    return shadow_compress(shadow_transform(c_to_a(inv)))


def b_to_c(compressed: ShadowCompressed, local_dim: int) -> InvariantBasisCoeffs:
    """Invariant coordinates from the compressed shadow, by Rains' lemma.

    Forward by the kernel, back by a closed form: `c_to_b` is the kernel
    direction and this is the closed form.  With h = floor(N/2),
    c_i = (-4d)^i / 2^N * sum_(j <= h-i) C(h-j, i) b_j,
    so b >= 0 fixes the sign of every c_i.  The sums are the coefficients
    of sum_j b_j (1 + x)^(h-j), built by Horner's rule in (1 + x) on the
    cleared numerators of b, and one Fraction is made per c_i.
    """
    d = exact_int(local_dim, "local_dim", 2)
    n = compressed.n_parties
    ints, den = clear_denominators(compressed.coeffs)
    sums: list[int] = []
    for v in ints:
        sums = [a + b for a, b in zip(sums + [0], [0] + sums)]
        sums[0] += v
    den <<= n
    c = [Fraction(v * (-4 * d) ** i, den) for i, v in enumerate(sums)]
    return InvariantBasisCoeffs(n, d, tuple(c))


def shadow_compress(shadow: ShadowEnumerator) -> ShadowCompressed:
    """Extract b_j = s_(2j+t); the remaining entries vanish for valid shadows."""
    n = shadow.n_parties
    t = n % 2
    return ShadowCompressed(
        n, t, tuple(shadow.coeffs[2 * j + t] for j in range(n // 2 + 1))
    )


# ---------------------------------------------------------------------------
# pure-state constraint validation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StateConstraintReport:
    """Pass/fail record for each pure-state enumerator constraint."""

    a0_is_one: bool
    coeffs_nonnegative: bool
    duality_invariant: bool
    shadow_nonnegative: bool
    shadow_odd_tail_zero: bool
    uniform_prefix_zero: Optional[bool]  # None when no k was supplied

    def failed_checks(self) -> tuple[str, ...]:
        # uniform_prefix_zero is None, not a failure, when no k was supplied
        return tuple(f.name for f in fields(self) if getattr(self, f.name) is False)

    @property
    def ok(self) -> bool:
        return not self.failed_checks()


def validate_state_constraints(
    enum: WeightEnumerator, k: Optional[int] = None
) -> StateConstraintReport:
    """Check every constraint a pure-state enumerator must satisfy.

    With k supplied, additionally checks the k-uniformity prefix
    a_1 = ... = a_k = 0.  Violations are report entries, never exceptions.
    """
    n = enum.n_parties
    shadow = shadow_transform(enum)
    uniform: Optional[bool] = None
    if k is not None:
        uniform = all(enum.coeffs[j] == 0 for j in range(1, k + 1))
    return StateConstraintReport(
        a0_is_one=enum.coeffs[0] == 1,
        coeffs_nonnegative=all(c >= 0 for c in enum.coeffs),
        duality_invariant=macwilliams_transform(enum).coeffs == enum.coeffs,
        shadow_nonnegative=all(s >= 0 for s in shadow.coeffs),
        shadow_odd_tail_zero=all(
            shadow.coeffs[n - j] == 0 for j in range(1, n + 1, 2)
        ),
        uniform_prefix_zero=uniform,
    )
