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
    (prod_{i in U} d) Tr(rho_U^2), avoiding any explicit operator basis;
  * `direct_shadow` evaluates the definitional double subset sum
    s_j = sum_{|T|=j} sum_S (-1)^(|S cap T^c|) Tr(rho_S^2).

Both run on integers: every purity is an integer numerator over the one
common denominator norm2^2 (norm2 the squared norm of the state with its
amplitudes scaled to Gaussian integers), so the inversion and the
subset sum add and subtract ints only, and each output coefficient is
one division at the end.

These are test fixtures, not production paths: Hilbert dimension is
capped (default 4096) and the shadow sum at 12 parties, with hard errors
beyond.

`ame_shadow_oracle` applies the same double subset sum to the purity
profile of a hypothetical AME state on a dimension profile
(Tr(rho_S^2) = 1 / min(D_S, D_complement)), giving an independent route
to the heterogeneous shadow coefficients of `hetero.hetero_shadow`;
`cross_validate_ame_shadow` compares the two routes.  Every D_S divides
the total dimension D, so that profile is the integer weight
max(D_S, D / D_S) over the common denominator D.  The subset sum itself
is one integer parity butterfly, `_parity_shadow`, shared by the state
and AME routes and by `shadow_from_purities`.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from fractions import Fraction
from math import lcm, prod
from typing import Iterable, Mapping, Sequence, Union

from .enumerators import ShadowEnumerator, WeightEnumerator, _clear_denominators
from .errors import CapacityError, NotApplicableError
from .exact import GaussianRational, rat_from_str, rat_to_str
from .hetero import DimensionProfile, hetero_shadow

DEFAULT_DIM_CAP = 4096
DEFAULT_SHADOW_PARTY_CAP = 12

AmplitudeMap = Mapping[tuple[int, ...], GaussianRational]


def _int_tuple(values, what: str) -> tuple[int, ...]:
    """`values` as a tuple, refusing anything but exact ints (bool included)."""
    if not isinstance(values, (list, tuple)):
        raise ValueError(f"{what} must be an array of integers, got {values!r}")
    for x in values:
        # an exact type test, since bool is a subclass of int
        if type(x) is not int:
            raise ValueError(f"{what} must hold integers only, got {x!r}")
    return tuple(values)


def _required(doc: dict, key: str, what: str):
    """`doc[key]`, or a ValueError that names the key and where it is missing."""
    try:
        return doc[key]
    except KeyError:
        raise ValueError(f"{what} is missing key {key!r}") from None


@dataclass(frozen=True)
class PureState:
    """Sparse, unnormalized amplitude map over a computational basis."""

    profile: DimensionProfile
    amplitudes: tuple[tuple[tuple[int, ...], GaussianRational], ...]

    def __post_init__(self) -> None:
        n = self.profile.n_parties
        entries = []
        for ket, amp in self.amplitudes:
            ket = _int_tuple(ket, "ket")
            if len(ket) != n:
                raise ValueError(f"ket {ket} has wrong arity for {n} parties")
            for x, d in zip(ket, self.profile.dims):
                if not 0 <= x < d:
                    raise ValueError(f"ket {ket} out of range for dims {self.profile.dims}")
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
        profile = dims if isinstance(dims, DimensionProfile) else DimensionProfile(tuple(dims))
        items = amps.items() if isinstance(amps, Mapping) else amps
        return cls(profile, tuple((tuple(k), a) for k, a in items))

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
        """Read `dims` and each `ket` as JSON arrays of integers only.

        The document and every `amps` record must be JSON objects, and
        `amps` an array; any other shape, or a missing `dims`, `amps` or
        `ket`, raises ValueError.
        """
        if not isinstance(doc, dict):
            raise ValueError(f"a state must be a JSON object, got {doc!r}")
        dims = _int_tuple(_required(doc, "dims", "state"), "dims")
        records = _required(doc, "amps", "state")
        if not isinstance(records, (list, tuple)):
            raise ValueError(f"amps must be an array of objects, got {records!r}")
        amps = []
        for index, rec in enumerate(records):
            if not isinstance(rec, dict):
                raise ValueError(f"amps must hold objects only, got {rec!r}")
            amp = GaussianRational(
                rat_from_str(str(rec.get("re", "0"))),
                rat_from_str(str(rec.get("im", "0"))),
            )
            ket = _required(rec, "ket", f"amps[{index}]")
            amps.append((_int_tuple(ket, "ket"), amp))
        return cls.from_amplitudes(dims, amps)

    @classmethod
    def load(cls, path) -> "PureState":
        with open(path, "r", encoding="utf-8") as fh:
            try:
                doc = json.load(fh)
            except RecursionError as exc:
                raise ValueError("state JSON is nested too deeply") from exc
        return cls.from_json_dict(doc)


# ---------------------------------------------------------------------------
# bundled corpus
# ---------------------------------------------------------------------------


def ghz_state(n_parties: int, local_dim: int) -> PureState:
    """Equal superposition of the d diagonal basis strings of length N."""
    dims = (local_dim,) * n_parties
    amps = {(x,) * n_parties: GaussianRational.of(1) for x in range(local_dim)}
    return PureState.from_amplitudes(dims, amps)


def bell_state() -> PureState:
    return ghz_state(2, 2)


def product_zero_state(n_parties: int, local_dim: int = 2) -> PureState:
    return PureState.from_amplitudes(
        (local_dim,) * n_parties, {(0,) * n_parties: GaussianRational.of(1)}
    )


def w_state(n_parties: int = 3) -> PureState:
    """Single-excitation superposition; not 1-uniform, useful as a contrast."""
    amps = {}
    for i in range(n_parties):
        ket = [0] * n_parties
        ket[i] = 1
        amps[tuple(ket)] = GaussianRational.of(1)
    return PureState.from_amplitudes((2,) * n_parties, amps)


def ame43_state() -> PureState:
    """The 2-uniform four-qutrit state sum |i, j, i+j, i+2j>."""
    amps = {}
    for i in range(3):
        for j in range(3):
            amps[(i, j, (i + j) % 3, (i + 2 * j) % 3)] = GaussianRational.of(1)
    return PureState.from_amplitudes((3, 3, 3, 3), amps)


def bundled_corpus() -> tuple[tuple[str, PureState], ...]:
    """Named reference states exercised by the cross-validation suites."""
    states: list[tuple[str, PureState]] = []
    for d in (2, 3):
        for n in range(2, 7):
            states.append((f"ghz-n{n}-d{d}", ghz_state(n, d)))
    for n in (2, 3, 4):
        states.append((f"product-n{n}-d2", product_zero_state(n, 2)))
    states.append(("w3", w_state(3)))
    states.append(("ame43", ame43_state()))
    return tuple(states)


# ---------------------------------------------------------------------------
# purities
# ---------------------------------------------------------------------------


def _check_dim_cap(state: PureState, dim_cap: int) -> None:
    if state.profile.total_dim > dim_cap:
        raise CapacityError(
            f"Hilbert dimension {state.profile.total_dim} exceeds cap {dim_cap}"
        )


def _scaled_integer_amplitudes(
    state: PureState,
) -> tuple[list[tuple[tuple[int, ...], int, int]], int]:
    """Amplitudes rescaled to Gaussian integers, plus the integer squared norm.

    Purities of the normalized state are scale-invariant, so the common
    denominator is simply cleared.
    """
    scale = 1
    for _, a in state.amplitudes:
        scale = lcm(scale, a.re.denominator, a.im.denominator)
    entries = [
        (ket, int(a.re * scale), int(a.im * scale)) for ket, a in state.amplitudes
    ]
    norm2 = sum(re * re + im * im for _, re, im in entries)
    return entries, norm2


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


def purity(
    state: PureState, subset: Iterable[int], dim_cap: int = DEFAULT_DIM_CAP
) -> Fraction:
    """Exact Tr(rho_S^2) of the normalized state's reduction to `subset`."""
    _check_dim_cap(state, dim_cap)
    n = state.profile.n_parties
    mask = 0
    for i in subset:
        if not 0 <= i < n:
            raise ValueError(f"party index {i} out of range")
        mask |= 1 << i
    entries, norm2 = _scaled_integer_amplitudes(state)
    return Fraction(_purity_numerator(entries, n, mask), norm2 * norm2)


def _purity_numerators(state: PureState, dim_cap: int) -> tuple[list[int], int]:
    """Integer purity numerators of every subset (bitmask indexed) over norm2^2."""
    _check_dim_cap(state, dim_cap)
    n = state.profile.n_parties
    entries, norm2 = _scaled_integer_amplitudes(state)
    nums = [_purity_numerator(entries, n, mask) for mask in range(1 << n)]
    return nums, norm2 * norm2


def purity_table(
    state: PureState, dim_cap: int = DEFAULT_DIM_CAP
) -> list[Fraction]:
    """Purities of every subset, indexed by bitmask over party positions.

    Entries satisfy the pure-state endpoints (empty and full subsets have
    purity 1) and the complementary symmetry table[m] == table[full ^ m],
    both exercised by the test suite.
    """
    nums, denom = _purity_numerators(state, dim_cap)
    return [Fraction(v, denom) for v in nums]


def is_k_uniform(
    state: PureState, k: int, dim_cap: int = DEFAULT_DIM_CAP
) -> bool:
    """True iff every k-party reduction is maximally mixed.

    Uses the purity characterisation: the reduction to S is maximally
    mixed exactly when Tr(rho_S^2) = 1 / prod_{i in S} d_i.
    """
    n = state.profile.n_parties
    if not 0 <= k <= n // 2:
        raise ValueError(f"k must be in 0..{n // 2}, got {k}")
    _check_dim_cap(state, dim_cap)
    entries, norm2 = _scaled_integer_amplitudes(state)
    denom = norm2 * norm2
    for mask in _masks_of_weight(n, k):
        d_s = prod(d for t, d in enumerate(state.profile.dims) if mask >> t & 1)
        if _purity_numerator(entries, n, mask) * d_s != denom:
            return False
    return True


def _masks_of_weight(n: int, k: int):
    if k == 0:
        yield 0
        return
    mask = (1 << k) - 1
    top = 1 << n
    while mask < top:
        yield mask
        low = mask & -mask
        ripple = mask + low
        mask = ripple | ((mask ^ ripple) >> (low.bit_length() + 1))


# ---------------------------------------------------------------------------
# enumerators straight from amplitudes
# ---------------------------------------------------------------------------


def direct_enumerator(
    state: PureState, dim_cap: int = DEFAULT_DIM_CAP
) -> WeightEnumerator:
    """Weight distribution a_0 .. a_N by purity inclusion-exclusion.

    The inversion runs on the integer purity numerators and divides by
    their common denominator once per a_j.  Homogeneous profiles only: the
    per-weight grouping of the distribution presumes a single local
    dimension.
    """
    if not state.profile.is_homogeneous():
        raise NotApplicableError(
            "the weight distribution is defined for homogeneous profiles"
        )
    n = state.profile.n_parties
    d = state.profile.dims[0]
    nums, denom = _purity_numerators(state, dim_cap)
    a = [0] * (n + 1)
    for t_mask in range(1 << n):
        acc = 0
        weight_t = t_mask.bit_count()
        u_mask = t_mask
        while True:
            term = d ** u_mask.bit_count() * nums[u_mask]
            acc += -term if (weight_t - u_mask.bit_count()) % 2 else term
            if u_mask == 0:
                break
            u_mask = (u_mask - 1) & t_mask
        a[weight_t] += acc
    return WeightEnumerator(n, d, tuple(Fraction(v, denom) for v in a))


def _parity_shadow(weights: list[int]) -> list[int]:
    """s_j = sum_{|T|=j} sum_S (-1)^(|S cap T^c|) w(S) for integer weights w.

    The parity transform g(M) = sum_S (-1)^(|S cap M|) w(S) is computed by
    the standard in-place butterfly on a copy of `weights`; s_j then
    aggregates g over the complements of the weight-j masks.
    """
    size = len(weights)
    n = size.bit_length() - 1
    if size != 1 << n:
        raise ValueError("purity table must have length 2^N")
    g = list(weights)
    step = 1
    while step < size:
        for start in range(0, size, 2 * step):
            for idx in range(start, start + step):
                a, b = g[idx], g[idx + step]
                g[idx], g[idx + step] = a + b, a - b
        step *= 2
    s = [0] * (n + 1)
    for mask in range(size):
        # T is the complement of mask, of weight n - |mask|
        s[n - mask.bit_count()] += g[mask]
    return s


def shadow_from_purities(purities: Sequence[Fraction]) -> tuple[Fraction, ...]:
    """Shadow coefficients from a full subset-purity table (bitmask indexed).

    Evaluates s_j = sum_{|T|=j} sum_S (-1)^(|S cap T^c|) pur(S): the
    purities are brought to integer weights over one denominator, the lcm
    of theirs, the integer parity butterfly `_parity_shadow` sums them,
    and each s_j is one division at the end.  Exactly equal to the nested
    double sum, which the test suite pins on small instances.
    """
    weights, den = _clear_denominators(purities)
    return tuple(Fraction(v, den) for v in _parity_shadow(weights))


def direct_shadow(state: PureState, dim_cap: int = DEFAULT_DIM_CAP) -> ShadowEnumerator:
    """Shadow coefficients from the definitional subset sum over purities."""
    if not state.profile.is_homogeneous():
        raise NotApplicableError(
            "the shadow distribution is defined for homogeneous profiles"
        )
    n = state.profile.n_parties
    if n > DEFAULT_SHADOW_PARTY_CAP:
        raise CapacityError(
            f"shadow subset sum capped at {DEFAULT_SHADOW_PARTY_CAP} parties, got {n}"
        )
    nums, denom = _purity_numerators(state, dim_cap)
    s = tuple(Fraction(v, denom) for v in _parity_shadow(nums))
    return ShadowEnumerator(n, state.profile.dims[0], s)


# ---------------------------------------------------------------------------
# AME purity-profile shadow (heterogeneous cross-check)
# ---------------------------------------------------------------------------


def ame_shadow_oracle(profile: DimensionProfile) -> tuple[Fraction, ...]:
    """Shadow coefficients of a hypothetical AME state, via the subset sum.

    An AME state's reduction to S is maximally mixed on the smaller side
    of the S / complement split, so Tr(rho_S^2) = 1 / min(D_S, D_S^c).
    That profile is consistent only on Schmidt-feasible profiles; callers
    compare the result against `hetero.hetero_shadow` there.
    """
    n = profile.n_parties
    if n > DEFAULT_SHADOW_PARTY_CAP:
        raise CapacityError(
            f"subset sum capped at {DEFAULT_SHADOW_PARTY_CAP} parties, got {n}"
        )
    total = profile.total_dim
    d_sub = [1] * (1 << n)
    for mask in range(1, 1 << n):
        low = (mask & -mask).bit_length() - 1
        d_sub[mask] = d_sub[mask & (mask - 1)] * profile.dims[low]
    # 1 / min(D_S, D / D_S) = max(D_S, D / D_S) / D, since D_S divides D
    weights = [max(d_s, total // d_s) for d_s in d_sub]
    return tuple(Fraction(v, total) for v in _parity_shadow(weights))


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
