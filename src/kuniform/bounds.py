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
  O(N) steps and caches nothing;
- the oracle: `alpha_oracle` recomputes the same number from one basis
  change `enumerators.a_to_c` of the unit-prefix enumerator, a Lagrange
  inversion in O(N^2) integer operations, done once per (N, d) and cached
  (`alpha_oracle_vector`).  It shares no code with the recurrence, so
  `cross_validate_alpha` (the `verify --suite alpha` command) checks the
  engine that `bound` and `table` run against an independent route.

`k_upper_bound` combines the sign test with the trivial Schmidt bound,
the classical even/odd party-count threshold (provenance "scott"), a
static table of known AME non-existence results, and, for qubits only,
the classical piecewise formula `rains_bound`.  The alpha test matches
that formula at almost every N but lands one above it for N = 5 (mod 6)
from N = 17 on, so the formula stays in the candidate set to keep the
qubit verdicts sharp.

For d = 3 the sign pattern of alpha is periodic enough to admit a
piecewise range formula (`range_formula_d3`).  No formula is kept for
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

from .enumerators import WeightEnumerator, a_to_c
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
    dd = (d - 1) ** 2
    # L = f i + c, and g is the constant factor of S_i's coefficient
    f, c, g = 8 - (d - 3) ** 2, dd * n + 3 - (d - 2) ** 2, d * dd
    for i in range(1, half - 1):
        m = n - 2 * i
        s_prev, s = s, (i * (f * i + c) * s + g * m * (m - 1) * s_prev) // (i * (i + 1))
        yield s


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
    """Compare the recurrence (`alpha_vector`) with the a_to_c route at every index.

    Returns the number of values compared and one message per mismatch.
    The default range, N = 2..60 and d = 2..5, gives 3836 checks.
    """
    checks = 0
    failures: list[str] = []
    for n in n_values:
        for d in local_dims:
            pairs = zip(alpha_vector(n, d), alpha_oracle_vector(n, d), strict=True)
            for i, (engine, oracle) in enumerate(pairs):
                checks += 1
                if engine != oracle:
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
    half = n_parties // 2
    # (k, provenance, witness) in tie-break order; min keeps the first of equals
    candidates: list[tuple[int, str, Optional[Fraction]]] = []
    for i, s in enumerate(_alpha_sums(n_parties, local_dim), 1):
        if (-1) ** i * s > 0:  # (-1)^i alpha_i < 0 exactly when (-1)^i S_i > 0
            witness = _alpha_from_sum(n_parties, local_dim, i, s)
            candidates.append((i - 1, provenance_alpha(i), witness))
            break
    if local_dim == 2:
        candidates.append((rains_bound(n_parties), PROVENANCE_RAINS, None))
    if known_ame_nonexistence(n_parties, local_dim):
        candidates.append((half - 1, PROVENANCE_AME_TABLE, None))
    if scott_gap_condition(n_parties, local_dim):
        candidates.append((half - 1, PROVENANCE_SCOTT, None))
    candidates.append((half, PROVENANCE_TRIVIAL, None))
    k_max, provenance, witness = min(candidates, key=lambda c: c[0])
    return BoundVerdict(n_parties, local_dim, k_max, provenance, witness)


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
