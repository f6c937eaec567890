"""Upper bounds on the uniformity parameter k in homogeneous systems.

The engine rests on one sign test: write the weight enumerator of a
hypothetical k-uniform state in the duality-invariant basis and force the
prefix a_0 = 1, a_1 = ... = a_i = 0.  The i-th invariant coordinate then
collapses to a pure number alpha_i(N) depending only on (N, d, i), while
nonnegativity of the compressed shadow forces its sign: c_i <= 0 for odd i
and c_i >= 0 for even i.  Whenever (-1)^i alpha_i(N) < 0 the hypothesis is
contradicted and k <= i - 1.

`alpha_closed_form` evaluates the closed-form hypergeometric sum for
alpha_i(N) by walking its term ratio: each term is the previous one times
a rational function of the summation index, so a sum of i terms costs one
binomial and i - 1 exact integer multiply-divide steps.  `alpha_oracle`
recomputes the same number from one basis change `enumerators.a_to_c` of
the unit-prefix enumerator, a Lagrange inversion in O(N^2) integer
operations, done once per (N, d) and cached (`alpha_oracle_vector`).  The
two routes share no code, so `cross_validate_alpha` comparing them is an
independent check.

`k_upper_bound` combines the sign test with the trivial Schmidt bound,
the classical even/odd party-count threshold (provenance "scott"), a
static table of known AME non-existence results, and, for qubits only,
the classical piecewise formula `rains_bound`.  The alpha test matches
that formula at almost every N but lands one above it for N = 5 (mod 6)
from N = 17 on, so the formula stays in the candidate set to keep the
qubit verdicts sharp.

For d = 3 the sign pattern of alpha is periodic enough to admit piecewise
range formulas (`range_formula_d3`); for d = 4, 5 the analogous formulas
are conjectural and `conjecture_scan` only tabulates agreement, never
asserts it.  The three-term recurrences that certify the d = 3 sign facts
ship as static data (one spec per offset of N mod 14) and
`verify_recurrence` re-derives each sum directly to confirm them;
`cross_validate_recurrences` runs it over every spec.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from pathlib import Path
from typing import Iterable, Optional, Sequence

from .enumerators import WeightEnumerator, a_to_c
from .errors import NotApplicableError
from .exact import binom, falling_binom, rat_from_str, rat_to_str

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
    if n_parties < 1:
        raise ValueError("n_parties must be >= 1")
    if local_dim < 2:
        raise ValueError("local_dim must be >= 2")
    if not 0 <= index <= n_parties // 2:
        raise ValueError(
            f"index {index} out of range 0..{n_parties // 2} for N={n_parties}"
        )


def alpha_closed_form(n_parties: int, local_dim: int, index: int) -> Fraction:
    """Invariant coordinate of the unit-prefix enumerator, in closed form.

    alpha_i(N) = -(N (d-1) / i) sum_(j<i) (1-d)^j C(N-2i+j, N-2i) C(2i-2-j, i-1),
    summed by the term ratio
    t_j / t_(j-1) = (1-d) (N-2i+j) (i-j) / (j (2i-1-j)).
    """
    _check_alpha_args(n_parties, local_dim, index)
    if index == 0:
        return Fraction(1)
    n, d, i = n_parties, local_dim, index
    m = n - 2 * i
    term = binom(2 * i - 2, i - 1)
    total = term
    for j in range(1, i):
        # t_j is an integer (a product of binomials and a power of 1-d), so
        # multiplying first leaves a numerator that j (2i-1-j) divides exactly.
        term = term * ((1 - d) * (m + j) * (i - j)) // (j * (2 * i - 1 - j))
        total += term
    return Fraction(-n * (d - 1) * total, i)


def alpha_oracle(n_parties: int, local_dim: int, index: int) -> Fraction:
    """Same coordinate via a_to_c; independent of the closed form."""
    _check_alpha_args(n_parties, local_dim, index)
    return alpha_oracle_vector(n_parties, local_dim)[index]


@lru_cache(maxsize=None)
def alpha_oracle_vector(n_parties: int, local_dim: int) -> tuple[Fraction, ...]:
    """All alpha_i(N) for 0 <= i <= floor(N/2), from one a_to_c basis change."""
    unit_prefix = (Fraction(1),) + (Fraction(0),) * n_parties
    return a_to_c(WeightEnumerator(n_parties, local_dim, unit_prefix)).coeffs


@lru_cache(maxsize=None)
def alpha_vector(n_parties: int, local_dim: int) -> tuple[Fraction, ...]:
    """All alpha_i(N) for 0 <= i <= floor(N/2), via the closed form."""
    return tuple(
        alpha_closed_form(n_parties, local_dim, i)
        for i in range(n_parties // 2 + 1)
    )


def cross_validate_alpha(
    n_values: Iterable[int] = range(2, 61), local_dims: Sequence[int] = (2, 3, 4, 5)
) -> tuple[int, list[str]]:
    """Compare the closed form with the a_to_c route at every index.

    Returns the number of values compared and one message per mismatch.
    The default range, N = 2..60 and d = 2..5, gives 3836 checks.
    """
    checks = 0
    failures: list[str] = []
    for n in n_values:
        for d in local_dims:
            for i in range(n // 2 + 1):
                checks += 1
                if alpha_closed_form(n, d, i) != alpha_oracle(n, d, i):
                    failures.append(f"alpha mismatch at N={n} d={d} i={i}")
    return checks, failures


# ---------------------------------------------------------------------------
# classical bounds and static non-existence data
# ---------------------------------------------------------------------------


def rains_bound(n_parties: int) -> int:
    """Piecewise qubit bound: N = 6m + l gives 2m + 1, or 2m + 2 when l = 5."""
    if n_parties < 2:
        raise ValueError("n_parties must be >= 2")
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
    (smallest index), rains, non-existence table, scott, trivial.
    """
    if n_parties < 2:
        raise ValueError("n_parties must be >= 2")
    if local_dim < 2:
        raise ValueError("local_dim must be >= 2")
    half = n_parties // 2
    alphas = alpha_vector(n_parties, local_dim)
    # (k, provenance, witness) in tie-break order; min keeps the first of equals
    candidates: list[tuple[int, str, Optional[Fraction]]] = []
    first = next((i for i in range(1, half + 1) if (-1) ** i * alphas[i] < 0), None)
    if first is not None:
        candidates.append((first - 1, provenance_alpha(first), alphas[first]))
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
# piecewise range formulas (d = 3 proven, d = 4, 5 conjectural)
# ---------------------------------------------------------------------------

_D3_EXCEPTIONS = frozenset({23, 37, 51})
_D4_EXCEPTIONS = frozenset({38})


def range_formula_d3(n_parties: int) -> int:
    """Closed-form d = 3 bound: 6m-1 / 6m+1 / 6m+3 over bands of N mod 14.

    Defined for N >= 10 except N in {23, 37, 51}, where the sign test the
    formula encodes does not fire.
    """
    if n_parties < 10:
        raise NotApplicableError(f"range formula needs N >= 10, got {n_parties}")
    if n_parties in _D3_EXCEPTIONS:
        raise NotApplicableError(f"N={n_parties} is an exception of the d=3 formula")
    m = (n_parties + 4) // 14
    offset = n_parties - 14 * m
    if offset <= -1:
        return 6 * m - 1
    if offset <= 4:
        return 6 * m + 1
    return 6 * m + 3


def conjectured_range_formula(local_dim: int, n_parties: int) -> int:
    """Conjectured piecewise bounds for d = 4 (N >= 22) and d = 5 (N >= 180)."""
    if local_dim == 4:
        if n_parties in _D4_EXCEPTIONS:
            raise NotApplicableError(f"N={n_parties} is an exception of the d=4 formula")
        m = (n_parties + 12) // 17
        if m < 2:
            raise NotApplicableError(f"d=4 formula needs N >= 22, got {n_parties}")
        offset = n_parties - 17 * m
        if offset <= -9:
            return 8 * m - 5
        if offset <= -5:
            return 8 * m - 3
        if offset <= -1:
            return 8 * m - 1
        return 8 * m + 1
    if local_dim == 5:
        m = n_parties // 4
        if m < 45:
            raise NotApplicableError(f"d=5 formula needs N >= 180, got {n_parties}")
        return 2 * m - 1
    raise ValueError("conjectured formulas exist only for local_dim 4 and 5")


@dataclass(frozen=True)
class ConjectureScanRow:
    """Tabulated evidence for one N: formula value vs computed bound."""

    n_parties: int
    formula_bound: Optional[int]  # None on a formula exception
    computed_bound: int
    agree: Optional[bool]  # None on a formula exception

    def to_json_dict(self) -> dict:
        return {
            "n": self.n_parties,
            "formula": self.formula_bound,
            "computed": self.computed_bound,
            "agree": self.agree,
        }


def conjecture_scan(
    local_dim: int, n_range: Sequence[int]
) -> list[ConjectureScanRow]:
    """Compare the conjectured formula with the computed bound; never asserts."""
    if local_dim not in (4, 5):
        raise ValueError("conjecture scan is defined for local_dim 4 and 5")
    rows = []
    for n in n_range:
        computed = k_upper_bound(n, local_dim).k_max
        try:
            formula = conjectured_range_formula(local_dim, n)
        except NotApplicableError:
            rows.append(ConjectureScanRow(n, None, computed, None))
            continue
        rows.append(ConjectureScanRow(n, formula, computed, formula == computed))
    return rows


# ---------------------------------------------------------------------------
# recurrence verification for the d = 3 sign facts
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RecurrenceSpec:
    """Three-term recurrence lead(n) p_(n+2) = mid(n) p_(n+1) + low(n) p_n.

    The polynomials are integer coefficient lists in ascending powers of n.
    `offset` identifies the summand family (N = 14m + offset at even
    n = 2m); `initial_terms` are externally stated values of p_n to pin the
    transcription; the identity is claimed for n >= base_n and all three
    polynomials are positive for n >= positive_from.
    """

    offset: int
    lead: tuple[int, ...]
    mid: tuple[int, ...]
    low: tuple[int, ...]
    initial_terms: tuple[tuple[int, int], ...]
    base_n: int
    positive_from: int


def poly_eval(coeffs: Sequence[int], n: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = acc * n + c
    return acc


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
    """
    b = recurrence_block(offset)
    upper = 3 * n - 1 + 2 * b
    c0 = offset - 4 * b
    total = 0
    for i in range(upper + 1):
        total += (
            (-2) ** i
            * falling_binom(i + n + c0, i)
            * binom(2 * upper - i, upper)
        )
    return total


@dataclass(frozen=True)
class RecurrenceReport:
    offset: int
    n_max: int
    checked_identities: int
    failures: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.failures


def verify_recurrence(spec: RecurrenceSpec, n_max: int) -> RecurrenceReport:
    """Recompute p_n by direct summation and check the recurrence exactly.

    Also checks the stated initial terms and positivity of the recurrence
    polynomials from `positive_from` on.  Any failure names the offending
    n; a failure signals a transcription error in the static data.
    """
    p = {n: recurrence_sum(spec.offset, n) for n in range(1, n_max + 3)}
    failures: list[str] = []
    for n0, expected in spec.initial_terms:
        if p[n0] != expected:
            failures.append(f"initial term p_{n0}={p[n0]} != {expected}")
    checked = 0
    for n in range(spec.base_n, n_max + 1):
        lhs = poly_eval(spec.lead, n) * p[n + 2]
        rhs = poly_eval(spec.mid, n) * p[n + 1] + poly_eval(spec.low, n) * p[n]
        checked += 1
        if lhs != rhs:
            failures.append(f"recurrence violated at n={n}")
    for n in range(spec.positive_from, n_max + 1):
        values = (
            poly_eval(spec.lead, n),
            poly_eval(spec.mid, n),
            poly_eval(spec.low, n),
        )
        if any(v <= 0 for v in values):
            failures.append(f"polynomial not positive at n={n}")
    return RecurrenceReport(spec.offset, n_max, checked, tuple(failures))


def cross_validate_recurrences(n_max: int = 30) -> tuple[int, list[str]]:
    """Re-derive every shipped recurrence by direct summation, up to `n_max`.

    Returns the number of recurrence identities checked and one message
    per failure, prefixed with its offset.  The default n_max = 30 gives
    420 checks.
    """
    checks = 0
    failures: list[str] = []
    for spec in recurrence_specs():
        report = verify_recurrence(spec, n_max=n_max)
        checks += report.checked_identities
        failures.extend(f"offset {spec.offset}: {msg}" for msg in report.failures)
    return checks, failures


@lru_cache(maxsize=None)
def recurrence_specs() -> tuple[RecurrenceSpec, ...]:
    """Load the static recurrence table, one spec per offset in -4..9."""
    doc = json.loads((_DATA_DIR / "range_recurrences.json").read_text())
    specs = []
    for rec in doc["specs"]:
        specs.append(
            RecurrenceSpec(
                offset=int(rec["offset"]),
                lead=tuple(int(c) for c in rec["lead"]),
                mid=tuple(int(c) for c in rec["mid"]),
                low=tuple(int(c) for c in rec["low"]),
                initial_terms=tuple(
                    (int(n), int(rat_from_str(str(v))))
                    for n, v in rec["initial_terms"]
                ),
                base_n=int(rec["base_n"]),
                positive_from=int(rec["positive_from"]),
            )
        )
    return tuple(specs)
