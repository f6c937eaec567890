"""Brute-force ground truth on explicit small states.

States are stored as sparse maps from computational-basis labels to exact
Gaussian-rational amplitudes, deliberately unnormalized: every derived
quantity divides by the right power of the squared norm, so states like
the two-qubit maximally entangled pair live at amplitudes (1, 1) and no
irrational number ever appears.

From the subset purities everything else follows exactly:

  * `purity` reduces to a subset and returns Tr(rho_S^2) of the
    normalized state;
  * `direct_enumerator` recovers the weight distribution a_j by Mobius
    inversion over the subset lattice, a'_T = sum_{U <= T} (-1)^(|T|-|U|)
    (prod_{i in U} d) Tr(rho_U^2), summed over |T| = j by subset size;
  * `direct_shadow` evaluates the definitional double subset sum
    s_j = sum_{|T|=j} sum_S (-1)^(|S cap T^c|) Tr(rho_S^2).

`direct_distributions` computes both from one sweep of the purities.
Every purity is an integer numerator over one common denominator norm2^2
(norm2 the squared norm of the state with its amplitudes scaled to
Gaussian integers), so the inversion and the subset sum add and multiply
ints only, and each output coefficient is one division at the end.

The inner sum of the shadow depends on S only through its size m:
sum_{|T|=j} (-1)^(|S cap T^c|) = K_(N-j)(m; N), the binary Krawtchouk
polynomial, the coefficient of z^(N-j) in (1-z)^m (1+z)^(N-m)
(MacWilliams and Sloane, *The Theory of Error-Correcting Codes*, ch. 5).
So s_j = sum_m W_m K_(N-j)(m), with W_m the weights summed over the
subsets of size m: `_krawtchouk_shadow` builds each Krawtchouk row from
the one before and adds it in, so no table of rows is kept.

The `state` subcommand runs this brute force, so its size is capped:
the Hilbert dimension of a state at a fixed `DIM_CAP` = 4096, checked
once where every brute force starts (`_scaled_integer_amplitudes`).
Every local dimension is at least 2, so a state under the cap has at
most 12 parties.  Next, `purity`, the table sweep and `is_k_uniform` are
capped by the ket pairs their purities multiply, at most `WORK_CAP` =
2^22 (`_check_work`, about 1 us a pair), before any purity: a dense
8-qubit state passes and a dense 9-qubit state is refused.  Those bounds
read the number of subsets of each size and dimension, `_subset_classes`.
Nothing is kept between calls.

A state's `dims` and kets pass the input rule `errors.exact_ints` once,
in the constructors, and a ket listed twice is refused there; state files
go through `read_json` and `required`.

`ame_shadow_oracle` applies the same double subset sum to the purity
profile of a hypothetical AME state, Tr(rho_S^2) = 1 / min(D_S, D / D_S),
an independent route to `hetero.hetero_shadow`, which
`cross_validate_ame_shadow` compares it with.  The three shadow routes
share the contraction and differ only in how W_m is grouped: a state's
purities, or a given table, by popcount over the 2^N bitmasks, as
`direct_enumerator` groups them; an AME profile's integer weights
max(D_S, D / D_S) over D by `_subset_classes`, never listing the 2^N
subsets.  The AME route refuses by size what `hetero_shadow` refuses
(`hetero.check_shadow_size`) and caps the table's steps by `WORK_CAP`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import comb, prod
from typing import Iterable, Mapping, Sequence, Union

from .enumerators import ShadowEnumerator, WeightEnumerator
from .errors import (
    CapacityError,
    NotApplicableError,
    exact_int,
    exact_ints,
    party_subset,
    read_json,
    required,
)
from .exact import GaussianRational, clear_denominators, rat_from_str, rat_to_str
from .hetero import DimensionProfile, check_shadow_size, hetero_shadow

DIM_CAP = 4096
WORK_CAP = 1 << 22

AmplitudeMap = Mapping[tuple[int, ...], GaussianRational]


@dataclass(frozen=True)
class PureState:
    """Sparse, unnormalized amplitude map over a computational basis."""

    profile: DimensionProfile
    amplitudes: tuple[tuple[tuple[int, ...], GaussianRational], ...]

    def __post_init__(self) -> None:
        n = self.profile.n_parties
        entries = []
        seen = set()
        for ket, amp in self.amplitudes:
            ket = exact_ints(ket, "ket", 0)
            if len(ket) != n:
                raise ValueError(f"ket {ket} has wrong arity for {n} parties")
            if any(x >= d for x, d in zip(ket, self.profile.dims)):
                raise ValueError(f"ket {ket} out of range for dims {self.profile.dims}")
            # the purity sums take the entries as distinct basis vectors
            if ket in seen:
                raise ValueError(f"ket {ket} appears more than once")
            seen.add(ket)
            if not amp.is_zero():
                entries.append((ket, amp))
        if not entries:
            raise ValueError("a state needs at least one nonzero amplitude")
        entries.sort(key=lambda e: e[0])
        object.__setattr__(self, "amplitudes", tuple(entries))

    @classmethod
    def from_amplitudes(
        cls,
        dims: Union[DimensionProfile, Sequence[int]],
        amps: Union[AmplitudeMap, Iterable[tuple[Sequence[int], GaussianRational]]],
    ) -> "PureState":
        profile = dims if isinstance(dims, DimensionProfile) else DimensionProfile(dims)
        items = amps.items() if isinstance(amps, Mapping) else amps
        return cls(profile, tuple(items))

    def to_json_dict(self) -> dict:
        return {
            "dims": list(self.profile.dims),
            "amps": [
                {"ket": list(ket), "re": rat_to_str(a.re), "im": rat_to_str(a.im)}
                for ket, a in self.amplitudes
            ],
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "PureState":
        """Read a JSON object with `dims` and an array `amps` of objects.

        Each `amps` record holds a `ket` and optional rational strings `re`
        and `im`.  Any other shape, or a missing `dims`, `amps` or `ket`,
        raises ValueError; `dims` and every `ket` are then checked once, by
        the constructors, as arrays of integers.
        """
        dims = required(doc, "dims", "state")
        records = required(doc, "amps", "state")
        if not isinstance(records, (list, tuple)):
            raise ValueError(f"amps must be an array of objects, got {records!r}")
        amps = []
        for index, rec in enumerate(records):
            ket = required(rec, "ket", f"amps[{index}]")
            re, im = (rat_from_str(str(rec.get(key, "0"))) for key in ("re", "im"))
            amps.append((ket, GaussianRational(re, im)))
        return cls.from_amplitudes(dims, amps)

    @classmethod
    def load(cls, path) -> "PureState":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json_dict(read_json(fh.read(), "state JSON"))


# ---------------------------------------------------------------------------
# reference states
# ---------------------------------------------------------------------------


def ghz_state(n_parties: int, local_dim: int) -> PureState:
    """Equal superposition of the d diagonal basis strings of length N."""
    dims = (local_dim,) * n_parties
    amps = {(x,) * n_parties: GaussianRational.of(1) for x in range(local_dim)}
    return PureState.from_amplitudes(dims, amps)


def product_zero_state(n_parties: int, local_dim: int = 2) -> PureState:
    return PureState.from_amplitudes(
        (local_dim,) * n_parties, {(0,) * n_parties: GaussianRational.of(1)}
    )


# ---------------------------------------------------------------------------
# purities
# ---------------------------------------------------------------------------


def _scaled_integer_amplitudes(
    state: PureState,
) -> tuple[list[tuple[tuple[int, ...], int, int]], int]:
    """Amplitudes rescaled to Gaussian integers, plus the integer squared norm.

    Purities of the normalized state are scale-invariant, so the common
    denominator is simply cleared.  Every brute force starts here, so a
    state above the dimension cap is refused here, before any purity.
    """
    # the size in bits, since a total dimension may have too many digits to print
    total = state.profile.total_dim
    if total > DIM_CAP:
        raise CapacityError(
            f"Hilbert dimension of {total.bit_length()} bits exceeds cap {DIM_CAP}"
        )
    parts, _ = clear_denominators([x for _, a in state.amplitudes for x in (a.re, a.im)])
    entries = list(zip([ket for ket, _ in state.amplitudes], parts[::2], parts[1::2]))
    norm2 = sum(re * re + im * im for _, re, im in entries)
    return entries, norm2


def _subset_classes(profile: DimensionProfile) -> dict[tuple[int, int], int]:
    """{(|S|, D_S): number of subsets S of the parties} for `profile`.

    Built by folding in one class (d, n_c) of `DimensionProfile.classes`
    at a time: a subset takes a of the class's parties in C(n_c, a) ways,
    adding a to |S| and a factor d^a to D_S.  Each entry and count a costs
    one multiply-add, at most len(classes) prod_c (n_c + 1) in all, and
    count vectors with the same size and dimension share one entry.
    """
    table = {(0, 1): 1}
    for d, parties in profile.classes:
        n_c = len(parties)
        steps = [(a, comb(n_c, a), d**a) for a in range(n_c + 1)]
        folded: dict[tuple[int, int], int] = {}
        for (m, d_s), ways in table.items():
            for a, choose, power in steps:
                key = (m + a, d_s * power)
                folded[key] = folded.get(key, 0) + ways * choose
        table = folded
    return table


def _check_work(kets: int, subsets: Mapping[tuple[int, int], int]) -> None:
    """Refuse purities that multiply more than WORK_CAP ket pairs in all.

    `subsets` maps (|S|, D_S) to the number of subsets S to be read, as
    `_subset_classes` does.  The purity of S groups the `kets` nonzero kets
    by their labels off S, a group of at most min(kets, D_S), so it
    multiplies at most kets min(kets, D_S) pairs, that many when dense.
    """
    pairs = kets * sum(ways * min(kets, d_s) for (_, d_s), ways in subsets.items())
    if pairs > WORK_CAP:
        raise CapacityError(f"brute force of {pairs} ket pairs exceeds cap {WORK_CAP}")


def _purity_numerator(
    entries: Sequence[tuple[tuple[int, ...], int, int]], n_parties: int, mask: int
) -> int:
    """Tr(rho_S^2) of the integer-amplitude state, scaled by norm2^2."""
    keep = [t for t in range(n_parties) if mask >> t & 1]
    drop = [t for t in range(n_parties) if not mask >> t & 1]
    groups: dict[tuple[int, ...], list[tuple[tuple[int, ...], int, int]]] = {}
    for ket, re, im in entries:
        comp = tuple(ket[t] for t in drop)
        groups.setdefault(comp, []).append((tuple(ket[t] for t in keep), re, im))
    rho: dict[tuple[tuple[int, ...], tuple[int, ...]], list[int]] = {}
    for members in groups.values():
        for ket_a, re_a, im_a in members:
            for ket_b, re_b, im_b in members:
                # a * conj(b)
                cell = rho.setdefault((ket_a, ket_b), [0, 0])
                cell[0] += re_a * re_b + im_a * im_b
                cell[1] += im_a * re_b - re_a * im_b
    return sum(re * re + im * im for re, im in rho.values())


def purity(state: PureState, subset: Iterable[int]) -> Fraction:
    """Exact Tr(rho_S^2) of the normalized state's reduction to `subset`.

    The indices pass the input rule `errors.party_subset` (distinct exact
    ints in 0..N-1); any other subset raises ValueError.
    """
    n = state.profile.n_parties
    members = party_subset(subset, n)
    mask = sum(1 << i for i in members)
    entries, norm2 = _scaled_integer_amplitudes(state)
    d_s = prod(state.profile.dims[i] for i in members)
    _check_work(len(entries), {(len(members), d_s): 1})
    return Fraction(_purity_numerator(entries, n, mask), norm2 * norm2)


def _purity_numerators(state: PureState) -> tuple[list[int], int]:
    """Integer purity numerators of every subset (bitmask indexed) over norm2^2."""
    n = state.profile.n_parties
    entries, norm2 = _scaled_integer_amplitudes(state)
    _check_work(len(entries), _subset_classes(state.profile))
    nums = [_purity_numerator(entries, n, mask) for mask in range(1 << n)]
    return nums, norm2 * norm2


def purity_table(state: PureState) -> list[Fraction]:
    """Purities of every subset, indexed by bitmask over party positions.

    Entries satisfy the pure-state endpoints (empty and full subsets have
    purity 1) and the complementary symmetry table[m] == table[full ^ m],
    both exercised by the test suite.
    """
    nums, denom = _purity_numerators(state)
    return [Fraction(v, denom) for v in nums]


def is_k_uniform(state: PureState, k: int) -> bool:
    """True iff every k-party reduction is maximally mixed.

    Uses the purity characterisation: the reduction to S is maximally
    mixed exactly when Tr(rho_S^2) = 1 / prod_{i in S} d_i.
    """
    n = state.profile.n_parties
    if exact_int(k, "k", 0) > n // 2:
        raise ValueError(f"k must be in 0..{n // 2}, got {k}")
    entries, norm2 = _scaled_integer_amplitudes(state)
    sized = _subset_classes(state.profile)
    _check_work(len(entries), {key: ways for key, ways in sized.items() if key[0] == k})
    denom = norm2 * norm2
    for subset in itertools.combinations(range(n), k):
        mask = sum(1 << t for t in subset)
        d_s = prod(state.profile.dims[t] for t in subset)
        if _purity_numerator(entries, n, mask) * d_s != denom:
            return False
    return True


# ---------------------------------------------------------------------------
# enumerators straight from amplitudes
# ---------------------------------------------------------------------------


def _local_dim(state: PureState) -> int:
    """The one local dimension of a homogeneous state, else NotApplicableError."""
    if len(state.profile.classes) != 1:
        raise NotApplicableError(
            "weight and shadow distributions are defined for homogeneous profiles"
        )
    return state.profile.dims[0]


def direct_distributions(state: PureState) -> tuple[WeightEnumerator, ShadowEnumerator]:
    """Weight and shadow distributions from one sweep of the purity table.

    With W_u the integer purity numerators summed over the subsets of
    size u: each U of size u lies in C(N-u, j-u) sets T of size j, so
    a_j = sum_u (-1)^(j-u) C(N-u, j-u) d^u W_u by inclusion-exclusion,
    and s_j is the definitional subset sum, contracted by
    `_krawtchouk_shadow`; each coefficient is divided by the common
    denominator once.  Homogeneous profiles only: the per-weight
    grouping of the distributions presumes a single local dimension.
    """
    n, d = state.profile.n_parties, _local_dim(state)
    nums, denom = _purity_numerators(state)
    w = _by_subset_size(nums)
    a = (
        sum((-1) ** (j - u) * comb(n - u, j - u) * d**u * w[u] for u in range(j + 1))
        for j in range(n + 1)
    )
    return (
        WeightEnumerator(n, d, tuple(Fraction(v, denom) for v in a)),
        ShadowEnumerator(n, d, tuple(Fraction(v, denom) for v in _krawtchouk_shadow(w))),
    )


def direct_enumerator(state: PureState) -> WeightEnumerator:
    """Weight distribution a_0 .. a_N, by `direct_distributions`."""
    return direct_distributions(state)[0]


def _by_subset_size(weights: Sequence[int]) -> list[int]:
    """W_m = sum of weights[mask] over the masks of popcount m, m = 0..N."""
    size = len(weights)
    if size < 1 or size & (size - 1):
        raise ValueError("purity table must have length 2^N")
    w = [0] * size.bit_length()
    for mask, v in enumerate(weights):
        w[mask.bit_count()] += v
    return w


def _krawtchouk_shadow(w: Sequence[int]) -> list[int]:
    """s_j = sum_m W_m K_(N-j)(m; N) for integer weights W_0 .. W_N by size.

    Equal to sum_{|T|=j} sum_S (-1)^(|S cap T^c|) w(S) for any subset
    weights w with size sums W_m, since the inner sum over T is
    K_(N-j)(|S|).  Row m holds the K_k(m), the coefficients of
    P_m = (1-z)^m (1+z)^(N-m): row 0 is C(N, k), and since
    (1+z) P_(m+1) = (1-z) P_m, K_k(m+1) = K_k(m) - K_(k-1)(m) - K_(k-1)(m+1).
    Each row is added into s as it is built and then dropped, O(N^2) steps.
    """
    n = len(w) - 1
    row = [comb(n, k) for k in range(n + 1)]
    s = [0] * (n + 1)
    for m, wm in enumerate(w):
        if m:
            prev, row = row, [1] + [0] * n
            for k in range(1, n + 1):
                row[k] = prev[k] - prev[k - 1] - row[k - 1]
        s = [acc + wm * kr for acc, kr in zip(s, reversed(row))]
    return s


def shadow_from_purities(purities: Sequence[Fraction]) -> tuple[Fraction, ...]:
    """Shadow coefficients from a full subset-purity table (bitmask indexed).

    Evaluates s_j = sum_{|T|=j} sum_S (-1)^(|S cap T^c|) pur(S): the
    purities are brought to integer weights over one denominator, the lcm
    of theirs, summed by subset size and contracted with the Krawtchouk
    rows (`_krawtchouk_shadow`); each s_j is one division at the end.  A
    table whose length is not 2^N raises ValueError.  Exactly equal to
    the nested double sum, which the test suite pins on small instances.
    """
    weights, den = clear_denominators(purities)
    return tuple(Fraction(v, den) for v in _krawtchouk_shadow(_by_subset_size(weights)))


def direct_shadow(state: PureState) -> ShadowEnumerator:
    """Shadow coefficients s_0 .. s_N, by `direct_distributions`."""
    return direct_distributions(state)[1]


# ---------------------------------------------------------------------------
# AME purity-profile shadow (heterogeneous cross-check)
# ---------------------------------------------------------------------------


def ame_shadow_oracle(profile: DimensionProfile) -> tuple[Fraction, ...]:
    """Shadow coefficients of a hypothetical AME state, via the subset sum.

    An AME state's reduction to S is maximally mixed on the smaller side
    of the S / complement split, so Tr(rho_S^2) = 1 / min(D_S, D_S^c).
    That profile is consistent only on Schmidt-feasible profiles; callers
    compare the result against `hetero.hetero_shadow` there.

    The weight max(D_S, D / D_S) of S depends only on |S| and D_S, so
    the size sums are W_m = sum over the (m, D_S) entries of
    `_subset_classes` of their subset counts times max(D_S, D / D_S),
    rather than over the 2^N subsets; `_krawtchouk_shadow` contracts them.
    Raises CapacityError before any work on what `hetero.check_shadow_size`
    refuses, or above `WORK_CAP` steps, the table's bound
    len(classes) prod_c (n_c + 1).
    """
    check_shadow_size(profile)
    steps = len(profile.classes) * prod(len(parties) + 1 for _, parties in profile.classes)
    if steps > WORK_CAP:
        raise CapacityError(f"shadow subset sum of {steps} steps exceeds cap {WORK_CAP}")
    n, total = profile.n_parties, profile.total_dim
    w = [0] * (n + 1)
    for (m, d_s), ways in _subset_classes(profile).items():
        # 1 / min(D_S, D / D_S) = max(D_S, D / D_S) / D, since D_S divides D
        w[m] += ways * max(d_s, total // d_s)
    return tuple(Fraction(v, total) for v in _krawtchouk_shadow(w))


def cross_validate_ame_shadow() -> tuple[int, list[str]]:
    """Compare `hetero.hetero_shadow` with `ame_shadow_oracle`, exactly.

    Covers every Schmidt-feasible profile with dimensions in {2, 3, 4} and
    odd N = 3..11 (89 profiles).  Returns the number of profiles compared
    and a message per mismatch.
    """
    checks = 0
    failures: list[str] = []
    for n in (3, 5, 7, 9, 11):
        for dims in itertools.combinations_with_replacement((2, 3, 4), n):
            profile = DimensionProfile(dims)
            if not profile.schmidt_feasible():
                continue
            checks += 1
            if ame_shadow_oracle(profile) != hetero_shadow(profile).s:
                failures.append(f"shadow mismatch on profile {dims}")
    return checks, failures
