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

Each closed form runs on cleared numerators and divides once per c_i at
the end: a -> c multiplies them by one binomial row and inverts in
O(N^2) additions, b -> c sums them in O(N^2) additions.  The integer
part of a -> c, `_c_numerators`, is also what `bounds.cross_validate_alpha`
compares with the alpha recurrence, with no Fraction built.
`basis_matrix_entry` gives the entries of the unitriangular matrix of the
c -> a map directly, as a reference for tests.

The four coefficient records (`WeightEnumerator`, `ShadowEnumerator`,
`InvariantBasisCoeffs`, `ShadowCompressed`) are `exact.FrozenRecord`s
with fields (n_parties, local_dim or parity, coeffs), and their
constructors share one validation: N is an exact int >= 1 and d an
exact int >= 2 (the compressed shadow holds N mod 2 in its place), both
by the input rule `errors.exact_int`, and the coefficients are ints or
Fractions only, floats and bools refused, N+1 of them or floor(N/2)+1.

`validate_state_constraints` evaluates every coefficient inequality and
identity a pure-state enumerator must satisfy, returning a report rather
than raising on violations.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from itertools import accumulate
from operator import mul

from .errors import exact_int
from .exact import FrozenRecord, binom, clear_denominators, rat_to_str, substitute


def _exact_coeff(value) -> Fraction:
    """`value` as a Fraction when it is an int or a Fraction; float and bool raise.

    A Fraction itself is returned as it is; an int or a Fraction subclass
    is converted.
    """
    if type(value) is Fraction:
        return value
    if type(value) is int or isinstance(value, Fraction):
        return Fraction(value)
    raise ValueError(f"coefficients must be int or Fraction, got {value!r}")


class _Record(FrozenRecord):
    """The module docstring's record rule; `half` means floor(N/2)+1 coefficients."""

    half = False

    def __init__(self, n_parties: int, local_dim: int, coeffs: Sequence[Fraction]) -> None:
        n = exact_int(n_parties, "n_parties", 1)
        exact_int(local_dim, "local_dim", 2)
        self._store(n, local_dim, coeffs)

    def _store(self, n: int, second: int, coeffs: Sequence[Fraction]) -> None:
        coeffs = tuple(map(_exact_coeff, coeffs))
        size = n // 2 + 1 if self.half else n + 1
        if len(coeffs) != size:
            raise ValueError(f"need {size} coefficients, got {len(coeffs)}")
        self.__dict__.update(zip(self._fields, (n, second, coeffs)))


class _Enumerator(_Record):
    """JSON output of the full-length enumerators; subclasses add no field."""

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


class InvariantBasisCoeffs(_Record):
    """Coordinates c_0 .. c_(floor(N/2)) in the duality-invariant basis."""

    half = True


class ShadowCompressed(_Record):
    """Nonvanishing shadow coefficients b_j = s_(2j+t), t = N mod 2."""

    half = True

    def __init__(self, n_parties: int, parity: int, coeffs: Sequence[Fraction]) -> None:
        n = exact_int(n_parties, "n_parties", 1)
        if exact_int(parity, "parity", 0) != n % 2:
            raise ValueError("parity must equal n_parties mod 2")
        self._store(n, parity, coeffs)


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

    Clears the denominators of a_0 .. a_h (h = floor(N/2)), solves on the
    numerators by `_c_numerators` and divides by their lcm once per c_i.
    """
    n, d = enum.n_parties, enum.local_dim
    ints, den = clear_denominators(enum.coeffs[: n // 2 + 1])
    c = _c_numerators(ints, n, d)
    return InvariantBasisCoeffs(n, d, tuple(Fraction(v, den) for v in c))


def _c_numerators(ints: Sequence[int], n: int, d: int) -> list[int]:
    """c_0 .. c_h times D, from the numerators a_0 D, a_1 D, ... (h = floor(N/2)).

    Numerators past the end of `ints` read as 0.  In the chart x = 1 - e t,
    y = t (e = d - 1) the basis forms are x + e y = 1 and
    y (x - y) = t (1 - d t) = z, so A(1 - e t, t) = sum_i c_i z^i exactly.
    It equals F(t / (1 - e t)) for F(y) = A(1, y) (1 + e y)^(-N), read
    mod y^(h+1).  Horner's rule in y = t / (1 - e t), run on
    W_k = f_k e^(h-k), makes each division by 1 - e t a prefix sum; the
    t-coefficients f_k are integers, so W_k // e^(h-k) is exact.  Peeling
    c_i (drop the constant term, divide by z) is one prefix sum on
    s_k = f_k d^(h-k), whose head is then c_i d^(h-i), an exact division.
    The solve thus costs O(N^2) additions; the map is linear, so the c_i
    come out scaled by the same D as the a_j.
    """
    half = n // 2
    e = d - 1
    # (1 + e y)^(-N) = sum_k C(N+k-1, k) (-e)^k y^k by term ratio, stored
    # highest power first so that a slice lines up with ints in a product.
    inverse, e_pow, d_pow = [1], [1], [1]
    for k in range(1, half + 1):
        inverse.append(inverse[-1] * (n + k - 1) * -e // k)
        e_pow.append(e_pow[-1] * e)
        d_pow.append(d_pow[-1] * d)
    inverse.reverse()
    w = [sum(map(mul, ints, inverse))]
    for j in range(1, half + 1):
        w = [e_pow[j] * sum(map(mul, ints, inverse[j:])), *accumulate(w)]
    e_pow.reverse()
    d_pow.reverse()
    s = [v // p * q for v, p, q in zip(w, e_pow, d_pow)]
    c = [s.pop(0) // d_pow[0]]
    for p in d_pow[1:]:
        s = list(accumulate(s))
        c.append(s.pop(0) // p)
    return c


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


class StateConstraintReport(FrozenRecord):
    """Pass/fail record for each pure-state enumerator constraint."""

    def __init__(self, a0_is_one: bool, coeffs_nonnegative: bool, duality_invariant: bool,
                 shadow_nonnegative: bool, shadow_odd_tail_zero: bool,
                 uniform_prefix_zero: bool | None) -> None:  # None when no k was supplied
        self.__dict__.update(zip(self._fields, (
            a0_is_one, coeffs_nonnegative, duality_invariant,
            shadow_nonnegative, shadow_odd_tail_zero, uniform_prefix_zero)))

    def failed_checks(self) -> tuple[str, ...]:
        # uniform_prefix_zero is None, not a failure, when no k was supplied
        return tuple(name for name in self._fields if getattr(self, name) is False)

    @property
    def ok(self) -> bool:
        return not self.failed_checks()


def validate_state_constraints(
    enum: WeightEnumerator, k: int | None = None
) -> StateConstraintReport:
    """Check every constraint a pure-state enumerator must satisfy.

    With k supplied, additionally checks the k-uniformity prefix
    a_1 = ... = a_k = 0.  Violations are report entries, never exceptions;
    a k that is no exact int in 0..N raises ValueError before any
    substitution.
    """
    n = enum.n_parties
    if k is not None and exact_int(k, "k", 0) > n:
        raise ValueError(f"k must be in 0..{n}, got {k}")
    shadow = shadow_transform(enum)
    uniform: bool | None = None
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
