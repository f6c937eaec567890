"""Upper bounds on the uniformity parameter k in homogeneous systems.

The engine rests on one sign test: write the weight enumerator of a
hypothetical k-uniform state in the duality-invariant basis and force the
prefix a_0 = 1, a_1 = ... = a_i = 0.  The i-th invariant coordinate then
collapses to a pure number alpha_i(N) depending only on (N, d, i), while
nonnegativity of the compressed shadow forces its sign: c_i <= 0 for odd i
and c_i >= 0 for even i.  Whenever (-1)^i alpha_i(N) < 0 the hypothesis is
contradicted and k <= i - 1.

alpha_i(N) = -N (d-1) S_i / i for an integer hypergeometric sum S_i, and
two independent computations of it live here:

- the recurrence: `_alpha_sums` yields S_1, S_2, ... by a certified
  three-term integer recurrence in i, O(1) big-integer steps per index.
  It is the one source of the paper's closed form in this package:
  `alpha_closed_form` reads one index of it, `alpha_vector` all of them,
  and `k_upper_bound` scans the signs on integers, stops at the first
  firing index and builds one `Fraction`, the witness, so one bound costs
  O(N) steps and caches nothing.  A range of N (`_walk_hits`, behind
  `tables.compute_bound_records`) scans its first N and then walks the
  sign boundary: a certified first-order relation in N (`_step_n`)
  moves the two sums around the first firing index to N + 1, and the
  same i-recurrence, run forwards or backwards, re-locates it, so each
  further N costs O(1) steps;
- the oracle: `alpha_oracle` recomputes the same number from one basis
  change `enumerators.a_to_c` of the unit-prefix enumerator, a Lagrange
  inversion in O(N^2) integer operations, done once per (N, d) and cached
  (`alpha_oracle_vector`).  It shares no code with the recurrence, so
  `cross_validate_alpha` (the `verify --suite alpha` command) checks the
  engine that `bound` and `table` run against an independent route.  It
  compares integers: the sums S_i with the inversion's numerators
  (`enumerators._c_numerators`, over denominator 1 for the unit prefix),
  so it builds no Fraction and fills neither cache.

`k_upper_bound` combines the sign test with the trivial Schmidt bound,
the classical even/odd party-count threshold (provenance "scott"), a
static table of known AME non-existence results, and, for qubits only,
the classical piecewise formula `rains_bound`.  The alpha test matches
that formula at almost every N but lands one above it for N = 5 (mod 6)
from N = 17 on, so the formula stays in the candidate set to keep the
qubit verdicts sharp.

For d = 3 a piecewise range formula (`range_formula_d3`) bounds k at
every N, though above the computed bound for large N.  No formula is kept for
d = 4 or 5: there the computed bound is the only answer, and the pinned
Tables II and III check it.  The three-term recurrences that certify the
d = 3 sign facts ship as static data in factored form (one spec per
offset of N mod 14), expanded when `recurrence_specs` loads them;
`verify_recurrence` re-derives each sum directly to confirm the identity
and proves the polynomials positive, and `cross_validate_recurrences`
runs it over every spec.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import islice
from math import comb
from pathlib import Path
from typing import Iterable, Iterator, Optional, Sequence

from .enumerators import WeightEnumerator, _c_numerators, a_to_c
from .errors import NotApplicableError, exact_int
from .exact import rat_to_str

_DATA_DIR = Path(__file__).parent / "data"

PROVENANCE_TRIVIAL = "trivial-Schmidt"
PROVENANCE_SCOTT = "scott"
PROVENANCE_AME_TABLE = "ame-nonexistence-table"
# Emitted for qubits where the piecewise formula is strictly sharper than
# every other test (N = 5 mod 6 from N = 17 on, where the alpha test lands
# one above it).
PROVENANCE_RAINS = "rains"


def provenance_alpha(index: int) -> str:
    return f"alpha-sign({index})"


# ---------------------------------------------------------------------------
# alpha coefficients
# ---------------------------------------------------------------------------


def _check_alpha_args(n_parties: int, local_dim: int, index: int) -> None:
    exact_int(n_parties, "n_parties", 1)
    exact_int(local_dim, "local_dim", 2)
    if exact_int(index, "index", 0) > n_parties // 2:
        raise ValueError(
            f"index {index} out of range 0..{n_parties // 2} for N={n_parties}"
        )


def alpha_oracle(n_parties: int, local_dim: int, index: int) -> Fraction:
    """Same coordinate via a_to_c; independent of the recurrence."""
    _check_alpha_args(n_parties, local_dim, index)
    return alpha_oracle_vector(n_parties, local_dim)[index]


@lru_cache(maxsize=None)
def alpha_oracle_vector(n_parties: int, local_dim: int) -> tuple[Fraction, ...]:
    """All alpha_i(N) for 0 <= i <= floor(N/2), from one a_to_c basis change."""
    unit_prefix = (Fraction(1),) + (Fraction(0),) * n_parties
    return a_to_c(WeightEnumerator(n_parties, local_dim, unit_prefix)).coeffs


def _recurrence(n: int, d: int) -> tuple[int, int, int]:
    """(f, c, g) of the i-recurrence of `_alpha_sums`: L = f i + c, and g is
    the constant factor of S_i's coefficient g (N-2i)(N-2i-1)."""
    dd = (d - 1) ** 2
    return 8 - (d - 3) ** 2, dd * n + 3 - (d - 2) ** 2, d * dd


def _alpha_sums(n_parties: int, local_dim: int) -> Iterator[int]:
    """Yield S_1, ..., S_(N//2), where alpha_i(N) = -N (d-1) S_i / i.

    S_i = sum_j t(i, j) with t(i, j) = (1-d)^j C(N-2i+j, j) C(2i-2-j, i-1),
    the closed form's sum.  Starting from S_1 = 1 and
    S_2 = 2 + (1-d)(N-3), each further value comes from

        i (i+1) S_(i+2) = i L S_(i+1) + d (d-1)^2 (N-2i)(N-2i-1) S_i,
        L = (8 - (d-3)^2) i + (d-1)^2 N + 3 - (d-2)^2,

    so the division is exact.  Proof, by creative telescoping (Petkovsek,
    Wilf and Zeilberger, *A = B*, ch. 6): for i >= 3 and N - 2i >= 4 (so
    whenever S_(i+2) exists) the recurrence applied to t(., j) equals
    G(j+1) - G(j) for 0 <= j <= i+1, where
    G(j) = t(i+2, j) j P(j) / ((2i+2-j)(2i+1-j)(2i-j)) and P has degree 4
    in j with coefficients rational in (i, N, d) over (N-2i-2)(N-2i-3);
    no denominator vanishes there.  Summing over that range gives the
    recurrence: G(0) = 0 by the factor j, G(i+2) = 0 because t(i+2, i+2)
    holds C(i, i+1) = 0, and the terms t(i, i), t(i, i+1) and t(i+1, i+1)
    that the range adds to S_i and S_(i+1) are 0.  The steps i = 1, 2 and
    both seeds are identities of polynomials in (N, d).  The test suite
    ships P, checks the telescoping identity exactly on a grid larger than
    its degree in each variable, and checks the small steps directly.
    """
    n, d = n_parties, local_dim
    half = n // 2
    s_prev, s = 1, 2 + (1 - d) * (n - 3)
    yield from (s_prev, s)[:half]
    f, c, g = _recurrence(n, d)
    for i in range(1, half - 1):
        m = n - 2 * i
        s_prev, s = s, (i * (f * i + c) * s + g * m * (m - 1) * s_prev) // (i * (i + 1))
        yield s


def _step_up(n: int, d: int, i: int, s0: int, s1: int) -> int:
    """S_(i+2) from S_i and S_(i+1), one forward step of the i-recurrence."""
    f, c, g = _recurrence(n, d)
    m = n - 2 * i
    return (i * (f * i + c) * s1 + g * m * (m - 1) * s0) // (i * (i + 1))


def _step_down(n: int, d: int, i: int, s1: int, s2: int) -> int:
    """S_i from S_(i+1) and S_(i+2), the same recurrence run backwards.

    Its divisor g (N-2i)(N-2i-1) is nonzero for i <= N//2 - 1, and S_i is
    an integer, so the division is exact.
    """
    f, c, g = _recurrence(n, d)
    m = n - 2 * i
    return (i * (i + 1) * s2 - i * (f * i + c) * s1) // (g * m * (m - 1))


def _step_n(n: int, d: int, i: int, s0: int, s1: int) -> int:
    """S_i(N+1) from S_i(N) and S_(i+1)(N), for 1 <= i <= N//2 - 1, by

        d (d+1) (N-2i+1) S_i(N+1) = ((d^2+1) N - (d-1)^2 i) S_i(N) - i S_(i+1)(N),

    so the division is exact.  Proof, by creative telescoping (Petkovsek,
    Wilf and Zeilberger, *A = B*, ch. 6): write M = N - 2i and
    t(i, j; N) for the summands of `_alpha_sums`.  For i >= 2 and M >= 2
    the relation applied to t(i, j; N+1), t(i, j; N) and t(i+1, j; N)
    equals G(j+1) - G(j) for 0 <= j <= i, where

        G(j) = i j Q(j) t(i+1, j; N) / (M (M-1) (2i-j)),
        Q(j) = -(d+1) j^2 + ((3d+7) i - (d+3) N + d + 1) j
               - N^2 + (d+7) N i + N - (2d+10) i^2 - (d+3) i,

    the rational function t(i, j; N) j (j-2i+1) Q(j) / ((j-i)(M+j)(M+j-1))
    written over t(i+1, j; N), which is nonzero on that range (t(i, i; N)
    is 0 there).  No denominator vanishes on it.  Summing gives the
    relation: G(0) = 0 by the factor j, G(i+1) = 0 because t(i+1, i+1; N)
    holds C(i-1, i) = 0 while 2i - j = i - 1 >= 1, and the range adds only
    the zero terms t(i, i; N) and t(i, i; N+1) to S_i.  At i = 1 the
    relation is an identity of polynomials in (N, d), since S_1 = 1 and
    S_2 = 2 + (1-d)(N-3).  The test suite ships Q, checks the telescoping
    identity exactly on a grid larger than its degree in each variable, and
    checks i = 1 directly.
    """
    return (((d * d + 1) * n - (d - 1) ** 2 * i) * s0 - i * s1) // (d * (d + 1) * (n - 2 * i + 1))


def _alpha_from_sum(n_parties: int, local_dim: int, index: int, total: int) -> Fraction:
    return Fraction(-n_parties * (local_dim - 1) * total, index)


def alpha_closed_form(n_parties: int, local_dim: int, index: int) -> Fraction:
    """Invariant coordinate of the unit-prefix enumerator, by the paper's closed form

    alpha_i(N) = -(N (d-1) / i) sum_(j<i) (1-d)^j C(N-2i+j, N-2i) C(2i-2-j, i-1),

    whose sum is the i-th value of the recurrence `_alpha_sums` (i - 2
    big-integer steps; nothing is cached).
    """
    _check_alpha_args(n_parties, local_dim, index)
    if index == 0:
        return Fraction(1)
    total = next(islice(_alpha_sums(n_parties, local_dim), index - 1, None))
    return _alpha_from_sum(n_parties, local_dim, index, total)


@lru_cache(maxsize=None)
def alpha_vector(n_parties: int, local_dim: int) -> tuple[Fraction, ...]:
    """All alpha_i(N) for 0 <= i <= floor(N/2), via the recurrence."""
    exact_int(n_parties, "n_parties", 1)
    exact_int(local_dim, "local_dim", 2)
    return (Fraction(1),) + tuple(
        _alpha_from_sum(n_parties, local_dim, i, s)
        for i, s in enumerate(_alpha_sums(n_parties, local_dim), 1)
    )


def cross_validate_alpha(
    n_values: Iterable[int] = range(2, 61), local_dims: Sequence[int] = (2, 3, 4, 5)
) -> tuple[int, list[str]]:
    """Compare the recurrence with the a_to_c route at every index, on integers.

    For each (N, d), the series inversion of the unit-prefix enumerator
    (`enumerators._c_numerators`, the integer part of `a_to_c`) gives
    alpha_0 .. alpha_(N//2) as integers c_i, and the check is c_0 = 1 and
    i c_i = -N (d-1) S_i against the sums S_i of `_alpha_sums`, so neither
    route builds a Fraction.  Returns the number of values compared and
    one message per mismatch; a route giving too few or too many values
    raises ValueError.  The default range, N = 2..60 and d = 2..5, gives
    3836 checks.
    """
    checks = 0
    failures: list[str] = []
    for n in n_values:
        for d in local_dims:
            c = _c_numerators([1] + [0] * (n // 2), n, d)
            sums = zip(_alpha_sums(n, d), c[1:], strict=True)
            agree = [c[0] == 1]
            agree += [i * c_i == -n * (d - 1) * s for i, (s, c_i) in enumerate(sums, 1)]
            checks += len(agree)
            for i, ok in enumerate(agree):
                if not ok:
                    failures.append(f"alpha mismatch at N={n} d={d} i={i}")
    return checks, failures


# ---------------------------------------------------------------------------
# classical bounds and static non-existence data
# ---------------------------------------------------------------------------


def rains_bound(n_parties: int) -> int:
    """Piecewise qubit bound: N = 6m + l gives 2m + 1, or 2m + 2 when l = 5."""
    exact_int(n_parties, "n_parties", 2)
    m, ell = divmod(n_parties, 6)
    return 2 * m + 2 if ell == 5 else 2 * m + 1


def scott_gap_condition(n_parties: int, local_dim: int) -> bool:
    """Party-count threshold beyond which no AME state exists (k <= N//2 - 1)."""
    if n_parties % 2 == 0:
        return n_parties > 2 * (local_dim**2 - 1)
    return n_parties > 2 * local_dim * (local_dim + 1) - 1


@lru_cache(maxsize=None)
def _ame_nonexistence_data() -> dict[int, frozenset[int]]:
    doc = json.loads((_DATA_DIR / "ame_nonexistence.json").read_text())
    return {int(rec["local_dim"]): frozenset(rec["n_parties"]) for rec in doc["entries"]}


def known_ame_nonexistence(n_parties: int, local_dim: int) -> bool:
    """True when (d, N) is a recorded AME non-existence fact.

    For qubits the membership is the computed predicate "the piecewise
    formula already forces k <= N//2 - 1"; for d = 3, 4, 5 it is the
    checked-in static list.
    """
    if local_dim == 2:
        return rains_bound(n_parties) <= n_parties // 2 - 1
    return n_parties in _ame_nonexistence_data().get(local_dim, frozenset())


# ---------------------------------------------------------------------------
# verdict combination
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BoundVerdict:
    """An upper bound on k with the test that produced it.

    provenance is one of "trivial-Schmidt", "alpha-sign(i)", "scott",
    "rains", "ame-nonexistence-table"; witness carries the offending alpha
    value exactly when an alpha-sign test decided the bound.
    """

    n_parties: int
    local_dim: int
    k_max: int
    provenance: str
    witness: Optional[Fraction] = None

    def to_json_dict(self) -> dict:
        doc: dict = {
            "n": self.n_parties,
            "d": self.local_dim,
            "k_max": self.k_max,
            "provenance": self.provenance,
        }
        if self.witness is not None:
            doc["witness"] = rat_to_str(self.witness)
        return doc


def _scan(n_parties: int, local_dim: int) -> tuple[int, int, int]:
    """(i, S_(i-1), S_i) at the first firing index i, or at i = N//2 if none fires.

    Reads the sums of `_alpha_sums` in order and stops at the first i with
    (-1)^i S_i > 0, the test of `_hit` read off the sign of S_i and the
    parity of i; S_0 is taken as 0.
    """
    s_prev = s = 0
    for i, s_next in enumerate(_alpha_sums(n_parties, local_dim), 1):
        s_prev, s = s, s_next
        if s < 0 if i & 1 else s > 0:
            break
    return i, s_prev, s


def _hit(i: int, s: int) -> Optional[tuple[int, int]]:
    """(i, S_i) when index i fires, else None.

    Index i fires when (-1)^i alpha_i < 0, that is when (-1)^i S_i > 0.
    """
    return (i, s) if (s < 0 if i & 1 else s > 0) else None


def _verdict(n_parties: int, local_dim: int, hit: Optional[tuple[int, int]]) -> BoundVerdict:
    """Combine the first firing alpha index `hit` = (i, S_i), or None, with the other tests.

    Ties report the first test in the fixed order: alpha-sign, rains,
    non-existence table, scott, trivial.  Only the alpha witness becomes a
    `Fraction`.
    """
    half = n_parties // 2
    # (k, provenance, witness) in tie-break order; min keeps the first of equals
    candidates: list[tuple[int, str, Optional[Fraction]]] = []
    if hit is not None:
        i, s = hit
        candidates.append((i - 1, provenance_alpha(i), _alpha_from_sum(n_parties, local_dim, i, s)))
    if local_dim == 2:
        candidates.append((rains_bound(n_parties), PROVENANCE_RAINS, None))
    if known_ame_nonexistence(n_parties, local_dim):
        candidates.append((half - 1, PROVENANCE_AME_TABLE, None))
    if scott_gap_condition(n_parties, local_dim):
        candidates.append((half - 1, PROVENANCE_SCOTT, None))
    candidates.append((half, PROVENANCE_TRIVIAL, None))
    k_max, provenance, witness = min(candidates, key=lambda c: c[0])
    return BoundVerdict(n_parties, local_dim, k_max, provenance, witness)


def k_upper_bound(n_parties: int, local_dim: int) -> BoundVerdict:
    """Best available upper bound on k for N parties of dimension d.

    Takes the minimum over the trivial Schmidt bound, every firing
    alpha-sign test, the qubit piecewise formula (d = 2 only), the
    classical party-count threshold, and the known AME non-existence
    facts.  Ties report the first test in the fixed order: alpha-sign
    (smallest index), rains, non-existence table, scott, trivial.  The
    alpha signs are read off the integer sums of `_alpha_sums`, which stop
    at the first firing index; only its witness becomes a `Fraction`.
    """
    exact_int(n_parties, "n_parties", 2)
    exact_int(local_dim, "local_dim", 2)
    i, _, s = _scan(n_parties, local_dim)
    return _verdict(n_parties, local_dim, _hit(i, s))


# the first N of a walk's steps: from N = 6 on the top pair (h-1, h) has an
# index h - 2 >= 1 below it, so every step stays inside the recurrences' range
_WALK_FROM = 6


def _walk_hits(local_dim: int, n_min: int, n_max: int) -> Iterator[Optional[tuple[int, int]]]:
    """The first firing alpha index (i, S_i), or None, for N = n_min .. n_max in turn.

    N = n_min, and every N below `_WALK_FROM`, is answered by `_scan`.  From
    there the walk carries the pair (S_(i-1), S_i) at the answer's index i
    (or the top index h = N//2 when nothing fires) from N to N+1: if i = h
    it first takes S_(h-2) by one backward step and carries (h-2, h-1);
    one forward step gives S_(i+1)(N), and `_step_n` moves the pair to
    N+1, using only indices up to N//2 - 1.  It then re-locates the first
    firing index at N+1 by forward steps (up to h) or backward steps, each
    stopping on the sign test below, so each N costs O(1) big-integer
    steps on average instead of `_scan`'s O(N).

    The sign test rests on one fact.  Let P(i) be S_(i-1) S_i > 0 for
    2 <= i <= h, and let P(1) be false.  Then P is monotone in i, the first firing
    index i* is the first i with P(i), so P(i*) and not P(i*-1) certify
    it, and nothing fires when P(h) is false.

    Proof.  Wherever S_(i+2) exists (i >= 1, N - 2i >= 4), both
    coefficients of the i-recurrence in `_alpha_sums` are positive:
    g (N-2i)(N-2i-1) is, and so is L.  For d <= 5, f = 8 - (d-3)^2 >= 0 and
    L >= c >= 2 (d-1)^2 + 3 - (d-2)^2 = d^2 + 1, as N >= 2; for d >= 6,
    f < 0 and 2i <= N - 4 give L >= f (N-4)/2 + c = N (d+1)^2/2 + d^2 - 8d + 1,
    which is positive for N >= 6.  So S_(i+1) is a positive combination of
    S_i and S_(i-1) for 2 <= i <= h - 1.  Hence P(i) implies P(i+1); and a
    zero S_j forces S_(j+1) to take the sign of S_(j-1), which is nonzero,
    since two consecutive zeros would, run backwards through the nonzero
    divisor of `_step_down`, make S_1 = 1 zero.  Now let no index below i
    fire.  S_1 = 1 does not fire, and every S_j with j < i is 0 or has the
    sign (-1)^(j+1).  If S_(i-1) is nonzero, it has the sign (-1)^i, so
    P(i) holds exactly when S_i has that sign, that is when i fires.  If
    S_(i-1) = 0, then P(i) fails, and S_i has the sign (-1)^(i-1) of
    S_(i-2), so i does not fire either.
    """
    exact_int(local_dim, "local_dim", 2)
    d = local_dim
    if n_min > n_max:
        return
    exact_int(n_min, "n_parties", 2)
    exact_int(n_max, "n_parties", 2)
    base = max(n_min, _WALK_FROM)
    for n in range(n_min, min(base, n_max) + 1):
        i, u, v = _scan(n, d)
        yield _hit(i, v)
    for n in range(base + 1, n_max + 1):
        m = n - 1  # (u, v) = (S_(i-1), S_i) at N = m
        if i == m // 2:  # the top pair: carry (h-2, h-1), so _step_n reads i <= h - 1
            i, u, v = i - 1, _step_down(m, d, i - 2, u, v), u
        w = _step_up(m, d, i - 1, u, v)
        u, v = _step_n(m, d, i - 1, u, v), _step_n(m, d, i, v, w)
        if u * v > 0:  # P(i): step down while P(i - 1)
            while i > 2:
                w = _step_down(n, d, i - 2, u, v)
                if w * u <= 0:
                    break
                i, u, v = i - 1, w, u
        else:  # step up to the first P, or to the top
            while i < n // 2:
                i, u, v = i + 1, v, _step_up(n, d, i - 1, u, v)
                if u * v > 0:
                    break
        yield _hit(i, v)


# ---------------------------------------------------------------------------
# the piecewise d = 3 range formula
# ---------------------------------------------------------------------------

_D3_EXCEPTIONS = frozenset({23, 37, 51})


def range_formula_d3(n_parties: int) -> int:
    """Closed-form d = 3 bound: 6m-1 / 6m+1 / 6m+3 over bands of N mod 14.

    With m = (N+4) // 14, the offset N - 14m lies in -4..9, and the bound
    is 6m - 1 + 2b for its band index b (`recurrence_block`).  Defined for
    N >= 10 except N in {23, 37, 51}, where the sign test the formula
    encodes does not fire.

    The formula's slope, 3/7 ~ 0.42857, lies above lambda*(3) ~ 0.42599,
    the slope of the first firing alpha index i*/N as N grows (where the
    two saddle points of the alpha sums' generating function cross).  So
    it is a valid bound, but it drifts above the computed bound by about
    (3/7 - lambda*(3)) N.  Against `k_upper_bound` for N = 10..4096 it is
    equal up to N = 111, apart from N = 14 and 19, where the AME
    non-existence table gives one less; 0 or 2 above on 112..895, equal
    for the last time at N = 821; and the gap keeps growing: it is first 4
    at N = 896, 6 at 1666, 8 at 2436, 10 at 3220 and 12 at 3990.
    """
    if n_parties < 10:
        raise NotApplicableError(f"range formula needs N >= 10, got {n_parties}")
    if n_parties in _D3_EXCEPTIONS:
        raise NotApplicableError(f"N={n_parties} is an exception of the d=3 formula")
    m = (n_parties + 4) // 14
    return 6 * m - 1 + 2 * recurrence_block(n_parties - 14 * m)


# ---------------------------------------------------------------------------
# recurrence verification for the d = 3 sign facts
# ---------------------------------------------------------------------------


# every shipped identity holds from n = 1
RECURRENCE_BASE_N = 1


@dataclass(frozen=True)
class RecurrenceSpec:
    """Three-term recurrence lead(n) p_(n+2) = mid(n) p_(n+1) + low(n) p_n.

    The polynomials are integer coefficient lists in ascending powers of n.
    `offset` identifies the summand family (N = 14m + offset at even
    n = 2m); `initial_terms` are externally stated values of p_n to pin the
    transcription; the identity is claimed for n >= `RECURRENCE_BASE_N` and
    all three polynomials are positive for n >= positive_from.
    """

    offset: int
    lead: tuple[int, ...]
    mid: tuple[int, ...]
    low: tuple[int, ...]
    initial_terms: tuple[tuple[int, int], ...]
    positive_from: int


def poly_eval(coeffs: Sequence[int], n: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = acc * n + c
    return acc


def taylor_shift(coeffs: Sequence[int], shift: int) -> tuple[int, ...]:
    """Coefficients of p(shift + t) in ascending powers of t, for p = coeffs."""
    out = list(coeffs)
    # one synthetic division by (n - shift) per pass fixes one coefficient
    for k in range(len(out) - 1):
        for j in range(len(out) - 2, k - 1, -1):
            out[j] += shift * out[j + 1]
    return tuple(out)


def recurrence_block(offset: int) -> int:
    """Band index 0, 1, 2 for offsets -4..-1, 0..4, 5..9 of N mod 14."""
    if not -4 <= offset <= 9:
        raise ValueError(f"offset must be in -4..9, got {offset}")
    if offset <= -1:
        return 0
    if offset <= 4:
        return 1
    return 2


def recurrence_sum(offset: int, n: int) -> int:
    """Direct summation of the hypergeometric sum p_n for this offset.

    At even n = 2m the value ties back to the alpha test via
    alpha_(6m + 2b)(14m + offset) = -(N / (3m + b)) p_(2m) with b the band
    index; this identity is exercised in the test suite.

    The sum is p_n = sum_(i=0..u) t_i with u = 3n - 1 + 2b, x = n + offset - 4b
    and t_i = (-2)^i C(x+i, i) C(2u-i, u), the first binomial generalized to
    a negative upper index.  It is walked by the term ratio

        t_0 = C(2u, u),  t_(i+1) = -2 t_i (x+i+1)(u-i) / ((i+1)(2u-i)),

    so each p_n costs O(u) small-integer steps.  Every t_(i+1) is an
    integer, so each division is exact, and once x+i+1 = 0 makes a term
    zero every later term stays zero, as the generalized binomial does.
    This is still a direct sum, sharing nothing with the recurrence it
    checks.
    """
    b = recurrence_block(offset)
    u = 3 * n - 1 + 2 * b
    x = n + offset - 4 * b
    term = total = comb(2 * u, u)
    for i in range(u):
        term = -2 * term * (x + i + 1) * (u - i) // ((i + 1) * (2 * u - i))
        total += term
    return total


def verify_recurrence(spec: RecurrenceSpec, n_max: int) -> tuple[int, list[str]]:
    """Recompute p_n by direct summation and check the recurrence exactly.

    Also checks the stated initial terms, and proves each of lead, mid and
    low positive for every n >= `positive_from`: the Taylor shift
    p(positive_from + t) has no negative coefficient and a positive
    constant term.  Returns the number of recurrence identities checked
    and one message per failure, naming the offending n or polynomial; a
    failure signals a transcription error in the static data.
    """
    p = {n: recurrence_sum(spec.offset, n) for n in range(1, n_max + 3)}
    failures: list[str] = []
    for n0, expected in spec.initial_terms:
        if p[n0] != expected:
            failures.append(f"initial term p_{n0}={p[n0]} != {expected}")
    checked = 0
    for n in range(RECURRENCE_BASE_N, n_max + 1):
        lhs = poly_eval(spec.lead, n) * p[n + 2]
        rhs = poly_eval(spec.mid, n) * p[n + 1] + poly_eval(spec.low, n) * p[n]
        checked += 1
        if lhs != rhs:
            failures.append(f"recurrence violated at n={n}")
    for name in ("lead", "mid", "low"):
        shifted = taylor_shift(getattr(spec, name), spec.positive_from)
        if shifted[0] <= 0 or min(shifted) < 0:
            failures.append(f"{name} not proven positive from n={spec.positive_from}")
    return checked, failures


def cross_validate_recurrences(n_max: int = 30) -> tuple[int, list[str]]:
    """Re-derive every shipped recurrence by direct summation, up to `n_max`.

    Returns the number of recurrence identities checked and one message
    per failure, prefixed with its offset.  The default n_max = 30 gives
    420 checks.
    """
    checks = 0
    failures: list[str] = []
    for spec in recurrence_specs():
        checked, spec_failures = verify_recurrence(spec, n_max=n_max)
        checks += checked
        failures.extend(f"offset {spec.offset}: {msg}" for msg in spec_failures)
    return checks, failures


def _expand(constant: int, factors: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """Ascending coefficients of constant * prod(factors)."""
    coeffs = [constant]
    for factor in factors:
        out = [0] * (len(coeffs) + len(factor) - 1)
        for i, a in enumerate(coeffs):
            for j, b in enumerate(factor):
                out[i + j] += a * b
        coeffs = out
    return tuple(coeffs)


@lru_cache(maxsize=None)
def recurrence_specs() -> tuple[RecurrenceSpec, ...]:
    """Load the static recurrence table, one spec per offset in -4..9.

    The file stores each polynomial factored, as a constant and a list of
    integer polynomial factors; this expands them.
    """
    doc = json.loads((_DATA_DIR / "range_recurrences.json").read_text())
    return tuple(
        RecurrenceSpec(
            offset=rec["offset"],
            lead=_expand(*rec["lead"]),
            mid=_expand(*rec["mid"]),
            low=_expand(*rec["low"]),
            initial_terms=tuple((n, v) for n, v in rec["initial_terms"]),
            positive_from=rec["positive_from"],
        )
        for rec in doc["specs"]
    )
