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
denominators once, substitute integer binary forms with the Horner
kernel `exact.homogeneous_horner` (O(N^2) integer operations), and
divide once per coefficient at the end.  The a -> c direction is a
Lagrange inversion, independent of the kernel: A(1, y) / (1 + (d-1) y)^N
is a power series in z = y (1 - y) / (1 + (d-1) y)^2 with coefficients
c_i, peeled off one at a time mod y^(floor(N/2)+1) with integer series
operations (O(N^2) integer operations).  It clears the denominators of
a_0 .. a_(floor(N/2)) once and divides once per c_i at the end.
`basis_matrix_entry` gives the entries of the unitriangular matrix of
the c -> a map directly, as a reference for tests.  c <-> b (the compressed
shadow, with b_j = s_(2j+t) and t = N mod 2) is a pair of mutually
inverse closed-form linear maps.

The four coefficient records (`WeightEnumerator`, `ShadowEnumerator`,
`InvariantBasisCoeffs`, `ShadowCompressed`) share one validation: N is an
exact int >= 1 and d an exact int >= 2 (the compressed shadow holds
N mod 2 in its place), and the coefficients are ints or Fractions only,
floats and bools refused, N+1 of them or floor(N/2)+1.

`validate_state_constraints` evaluates every coefficient inequality and
identity a pure-state enumerator must satisfy, returning a report rather
than raising on violations.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from fractions import Fraction
from itertools import accumulate
from math import lcm
from operator import mul
from typing import Optional, Sequence

from .exact import binom, homogeneous_horner, rat_from_str, rat_to_str


def _exact_int(value, what: str, least: int) -> int:
    """`value` itself when it is an exact int >= `least`, else ValueError."""
    # an exact type test, since bool is a subclass of int
    if type(value) is not int:
        raise ValueError(f"{what} must be an integer, got {value!r}")
    if value < least:
        raise ValueError(f"{what} must be >= {least}")
    return value


def _exact_coeff(value) -> Fraction:
    """`value` as a Fraction when it is an int or a Fraction; float and bool raise."""
    if type(value) is int or isinstance(value, Fraction):
        return Fraction(value)
    raise ValueError(f"coefficients must be int or Fraction, got {value!r}")


class _Record:
    """The module docstring's record rule; `half` means floor(N/2)+1 coefficients."""

    half = False

    def __post_init__(self) -> None:
        n = _exact_int(self.n_parties, "n_parties", 1)
        self._check_second(n)
        coeffs = tuple(map(_exact_coeff, self.coeffs))
        size = n // 2 + 1 if self.half else n + 1
        if len(coeffs) != size:
            raise ValueError(f"need {size} coefficients, got {len(coeffs)}")
        object.__setattr__(self, "coeffs", coeffs)

    def _check_second(self, n: int) -> None:
        _exact_int(self.local_dim, "local_dim", 2)


@dataclass(frozen=True)
class _Enumerator(_Record):
    """Fields and JSON form of the full-length enumerators; subclasses add no field."""

    n_parties: int
    local_dim: int
    coeffs: tuple[Fraction, ...]

    def to_json_dict(self) -> dict:
        return {
            "n": self.n_parties,
            "d": self.local_dim,
            "coeffs": [rat_to_str(c) for c in self.coeffs],
        }

    @classmethod
    def from_json_dict(cls, doc: dict):
        """Read `n` and `d` as JSON integers only; floats and bools raise."""
        coeffs = tuple(rat_from_str(str(c)) for c in doc["coeffs"])
        return cls(doc["n"], doc["d"], coeffs)


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
        if _exact_int(self.parity, "parity", 0) != n % 2:
            raise ValueError("parity must equal n_parties mod 2")


# ---------------------------------------------------------------------------
# exact substitution of linear forms
# ---------------------------------------------------------------------------


def _clear_denominators(coeffs: Sequence[Fraction]) -> tuple[list[int], int]:
    """Integers m * c for each coefficient c, and m, the lcm of the denominators."""
    den = lcm(*(c.denominator for c in coeffs))
    return [c.numerator * (den // c.denominator) for c in coeffs], den


def _substitute(
    coeffs: Sequence[Fraction],
    sub_x: tuple[int, int],
    sub_y: tuple[int, int],
    scale: int,
) -> tuple[Fraction, ...]:
    """Coefficients of A(sub_x / scale, sub_y / scale) for homogeneous A.

    `sub_x` and `sub_y` are integer linear forms (coefficients of x, y).
    """
    n = len(coeffs) - 1
    ints, den = _clear_denominators(coeffs)
    out = homogeneous_horner(ints, sub_x, sub_y)
    den *= scale**n
    return tuple(Fraction(v, den) for v in out)


def macwilliams_transform(enum: WeightEnumerator) -> WeightEnumerator:
    """A((x + (d^2-1) y) / d, (x - y) / d), expanded exactly."""
    d = enum.local_dim
    coeffs = _substitute(enum.coeffs, (1, d * d - 1), (1, -1), d)
    return WeightEnumerator(enum.n_parties, d, coeffs)


def shadow_transform(enum: WeightEnumerator) -> ShadowEnumerator:
    """S(x, y) = A(((d-1) x + (d+1) y) / d, (y - x) / d), expanded exactly."""
    d = enum.local_dim
    coeffs = _substitute(enum.coeffs, (d - 1, d + 1), (-1, 1), d)
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
    ints, den = _clear_denominators(enum.coeffs[: half + 1])
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

    With u = x + (d-1) y, v = y (x - y), h = floor(N/2) and t = N mod 2 the
    sum is u^t sum_i c_i (u^2)^(h-i) v^i: one Horner pass over the
    quadratic forms u^2 and v, then one multiplication by u for odd N.
    """
    n, d = inv.n_parties, inv.local_dim
    ints, den = _clear_denominators(inv.coeffs)
    out = homogeneous_horner(ints, (1, 2 * (d - 1), (d - 1) ** 2), (0, 1, -1))
    if n % 2:
        out = [a + (d - 1) * b for a, b in zip(out + [0], [0] + out)]
    return WeightEnumerator(n, d, tuple(Fraction(v, den) for v in out))


def c_to_b(inv: InvariantBasisCoeffs) -> ShadowCompressed:
    """Compressed shadow coefficients b_j from the invariant coordinates."""
    n, d = inv.n_parties, inv.local_dim
    half, t = n // 2, n % 2
    b: list[Fraction] = []
    for j in range(half + 1):
        acc = Fraction(0)
        for m in range(j + 1):
            acc += (
                Fraction(2 ** (2 * m + t))
                * Fraction(1, d ** (half - m))
                * binom(half - m, half - j)
                * (-1) ** (half - j)
                * inv.coeffs[half - m]
            )
        b.append(acc)
    return ShadowCompressed(n, t, tuple(b))


def b_to_c(compressed: ShadowCompressed, local_dim: int) -> InvariantBasisCoeffs:
    """Exact inverse of c_to_b."""
    n = compressed.n_parties
    half = n // 2
    c: list[Fraction] = []
    for i in range(half + 1):
        acc = Fraction(0)
        for j in range(half - i + 1):
            acc += binom(half - j, i) * compressed.coeffs[j]
        c.append((-1) ** i * Fraction(2 ** (2 * i), 2 ** n) * local_dim ** i * acc)
    return InvariantBasisCoeffs(n, local_dim, tuple(c))


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
