"""AME non-existence in systems with mixed local dimensions.

Two exact certificates are computed for a profile (d_1, ..., d_N):

  * the generalized subset inequality: a (floor(N/2)+2)-subset A with

        (prod_{i in A} d_i^2 / prod_i d_i) (1 - sum_{i in A} 1/d_i^2)
            + floor(N/2) + 1  <  0

    certifies that no AME state exists.  `scott_check` evaluates the left
    side exactly; `scott_search` decides whether a negative subset exists
    from the floor(N/2)+3 extreme draws alone (its docstring carries the
    proof).  It reads the profile's one class view,
    `DimensionProfile.classes` (the distinct dimensions, largest first,
    each with its parties in ascending order), and draws the
    largest-first subset first: the floor(N/2)+2 parties of largest
    dimension, lowest index first among equals.  For the two-dimension
    family d1 x d2^(2n), `scott_pair_threshold` gives the smallest n
    certified in closed form by that subset: there the search's first
    draw is its witness, which `ame_verdict` labels "corollary7".

  * the shadow inequality: at every N the hypothetical AME purity profile
    makes every shadow coefficient a finite combination of the elementary
    symmetric polynomials A'_k of the reciprocal dimensions,

        s_j = sum_k [ sum_a (-1)^a C(N-k, N-j-a) C(k, a) ] A'_k,

    with A'_k = A'_(N-k) above the midpoint; these are the coefficients
    of A'(x + y, y - x).  That symmetry makes s_j = 0 whenever N - j is
    odd, and the substitution expands only half of A', the middle term of
    an even N weighted once and every other term twice (the proof is in
    `_shadow_numerators`).  At even N only a homogeneous profile is
    Schmidt-feasible (the proof is in `hetero_shadow`), so there the test
    reaches dxN alone.  Any s_j < 0 certifies non-existence
    (`hetero_shadow`, up to `MAX_SHADOW_PARTIES` parties and a total
    dimension of `MAX_SHADOW_BITS` bits).  It returns the integer
    numerators of the s_j over the total dimension D: the sign test and
    the cross-check against the oracle read those integers, and a
    Fraction is built only for a certificate's s_j or on a read of
    `HeteroShadow.s`.  On the family d1 x d2^(2n) those numerators are
    affine in d1, base + d1 slope: `pair_family_shadow` gives the two
    vectors of one (d2, n), from two substitutions that serve every d1
    (Table IV's route; the proof is in its docstring).

`ame_verdict` runs the cheap tests first (Schmidt feasibility, the subset
search, then the shadow) and reports the first certificate found; it
never claims existence.  Each test runs once: the Corollary 7 label is
the pair threshold read off the search's witness, not a second
evaluation.  A profile above the shadow's caps still gets any verdict an
earlier test reaches; only one that needs the shadow test raises
CapacityError.

A profile is held by its classes.  The `DimensionProfile` constructor,
which every profile passes however it was written (`parse`, a state
file, a library call), checks the dimensions by `errors.exact_ints`,
builds the class view once and applies the size rules.  The total
dimension, the Schmidt test and the subset search take one power per
class, and the search walks class counts.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from math import comb, prod

from .errors import (
    MAX_DIM_BITS,
    CapacityError,
    NotApplicableError,
    check_party_count,
    exact_int,
    exact_ints,
    party_subset,
    read_int,
    read_json,
)
from .exact import FrozenRecord, rat_to_str, substitute

# The shadow's cost grows about as N^3 in big-integer work: 0.12-0.27 s
# at N = 1001, 0.99-1.6 s at N = 2001 and 12.5-15 s at N = 4095 on
# 3x1,2x(N-1) (2-core VM, Python 3.11), so it stops at a party count well
# above Table IV (N <= 37).
MAX_SHADOW_PARTIES = 1001
# It also grows with the bit length of the total dimension D: 0.12-0.27 s
# on 3x1,2x1000 (1002 bits), 0.37-0.87 s on 257x1,256x1000 (8009 bits) and
# 0.95-1.9 s on 1000000x1001 (19 952 bits).  Table IV and the benchmark
# profiles stay below 600 bits.
MAX_SHADOW_BITS = 8192


class DimensionProfile(FrozenRecord):
    """Ordered local dimensions d_1 .. d_N of a multipartite system.

    `dims` is a list or tuple of exact ints >= 2 (`errors.exact_ints`); a
    float, a bool or any other value raises ValueError instead of being
    truncated.  The constructor builds the class view `classes` once and
    raises CapacityError, before any product of dimensions, above
    `errors.MAX_PARTIES` parties or when the dimensions' bit lengths sum
    to more than `errors.MAX_DIM_BITS`.
    """

    def __init__(self, dims: tuple[int, ...]) -> None:
        dims = exact_ints(dims, "dims", 2)
        if len(dims) < 2:
            raise ValueError("a profile needs at least 2 parties")
        check_party_count(len(dims))
        by_dim: dict[int, list[int]] = {}
        for idx, d in enumerate(dims):
            by_dim.setdefault(d, []).append(idx)
        classes = tuple((d, tuple(by_dim[d])) for d in sorted(by_dim, reverse=True))
        bits = sum(d.bit_length() * len(idxs) for d, idxs in classes)
        if bits > MAX_DIM_BITS:
            raise CapacityError(
                f"the dimensions take {bits} bits, above the cap of {MAX_DIM_BITS} bits"
            )
        # `classes`, outside `_fields`: the distinct dimensions, largest first, each
        # with its party indices ascending; the one grouping of a profile by dimension
        self.__dict__.update(dims=dims, classes=classes)

    @property
    def n_parties(self) -> int:
        return len(self.dims)

    @property
    def total_dim(self) -> int:
        return prod(d ** len(idxs) for d, idxs in self.classes)

    def schmidt_feasible(self) -> bool:
        """Every floor(N/2)-subset must have product at most its complement's.

        Checked on the worst case, the floor(N/2) parties of largest
        dimension (taken class by class), which dominates all other subsets.
        """
        left, largest = self.n_parties // 2, 1
        for d, idxs in self.classes:
            take = min(left, len(idxs))
            largest *= d**take
            left -= take
        return largest * largest <= self.total_dim

    @classmethod
    def parse(cls, text: str) -> "DimensionProfile":
        """Parse "<dim>x<count>,..." (e.g. "3x1,2x10") or a JSON array "[3,2,2]".

        Each term is a dimension >= 2, "x" and a count >= 1, both read by
        `errors.read_int`, with whitespace only around the term; any other
        term ("1_0x1", "+3x1", "3 x 1", a non-ASCII digit) raises
        ValueError.

        A JSON array must hold JSON integers only; floats, booleans, null,
        strings and nested arrays raise ValueError from the constructor's
        rule, and the constructor applies the size rules.  A term list
        that sums to more than `errors.MAX_PARTIES` parties raises
        CapacityError before any list is built.
        """
        text = text.strip()
        if text.startswith("["):
            # text starting with "[" parses to an array or not at all
            return cls(read_json(text, "profile JSON"))
        terms: list[tuple[int, int]] = []
        for term in text.split(","):
            term = term.strip()
            dim_text, _, count_text = term.partition("x")
            try:
                terms.append(
                    (read_int(dim_text, "dimension", 2), read_int(count_text, "count", 1))
                )
            except ValueError as exc:
                raise ValueError(f"bad profile term {term!r}: {exc}") from None
        # sized before any list is built, so a huge multiplicity allocates nothing
        check_party_count(sum(count for _, count in terms))
        dims: list[int] = []
        for dim, count in terms:
            dims.extend([dim] * count)
        return cls(tuple(dims))


class ScottWitness(FrozenRecord):
    """A subset (0-based party indices) with negative inequality value."""

    def __init__(self, subset: tuple[int, ...], value: Fraction) -> None:
        self.__dict__.update(subset=subset, value=value)

    def to_json_dict(self) -> dict:
        return {"subset": list(self.subset), "value": rat_to_str(self.value)}


def scott_check(profile: DimensionProfile, subset: Iterable[int]) -> Fraction:
    """Exact left-hand side of the subset inequality for a candidate A.

    A negative value certifies AME non-existence; nonnegative values prove
    nothing (the test is only sufficient).  The indices pass the input
    rule `errors.party_subset` (distinct exact ints in 0..N-1) after the
    size check; anything else raises ValueError.
    """
    members = tuple(subset)
    half = profile.n_parties // 2
    if len(members) != half + 2:
        raise ValueError(
            f"subset must have floor(N/2)+2 = {half + 2} parties, got {len(members)}"
        )
    party_subset(members, profile.n_parties)
    dims_a = [profile.dims[i] for i in members]
    ratio = Fraction(prod(d * d for d in dims_a), profile.total_dim)
    deficit = Fraction(1) - sum(Fraction(1, d * d) for d in dims_a)
    return ratio * deficit + half + 1


def scott_search(profile: DimensionProfile) -> ScottWitness | None:
    """A witness subset with negative inequality value, if any subset has one.

    With m = floor(N/2)+2 and `order` the parties of
    `DimensionProfile.classes` concatenated (largest dimension first), the
    search evaluates the m+1 extreme draws order[:j] + order[N-m+j:] for
    j = m..0; each step moves one party.  A draw is held by its class
    counts, the number of its parties in each class, and a step that
    moves a party within one class leaves them, and the value, unchanged.
    The first negative draw is the witness, read from its counts as the
    lowest-numbered parties of each class, so the j = m draw, the
    largest-first subset, is the Corollary 7 witness.  `scott_check` runs
    once, on the witness.

    Why the extreme draws decide: a subset A is negative exactly when
    f(A) = P(A) (S(A) - 1) > (floor(N/2)+1) D, with P the product of the
    d_i^2 and S the sum of the 1/d_i^2 over A.  A draw is extreme exactly
    when its unused parties are contiguous in `order`.  If A is not, some
    member p lies between the first and the last unused party u and w.
    Fix every party of A but p and call that rest R; then
    f(A) = P_R (x (S_R - 1) + 1) is affine in x = d_p^2, and `order`
    sorts dimensions downwards, so d_u^2 >= x >= d_w^2 and moving p to u
    or to w never lowers f (when S_R = 1, every x gives the same f).
    Either move narrows the span of `order` from the first to the last
    unused party, so repeating it ends at an extreme draw.  Hence some
    extreme draw maximises f, and a negative subset exists iff a
    negative extreme draw does.

    The sign test runs on integers: Q(A) = P(A) S(A), the sum of the
    P(A)/d_i^2 over A, is an integer, and f(A) = Q(A) - P(A).  The first draw
    takes one power per class; a step that moves a party of dimension o
    out and one of dimension i in sets P' = (P/o^2) i^2 and
    Q' = (Q - P/o^2) i^2/o^2 + P/o^2, each division exact.
    """
    n, half = profile.n_parties, profile.n_parties // 2
    size = half + 2
    if size > n:
        return None
    classes = profile.classes
    squares = [d * d for d, _ in classes]
    # the j = m draw takes the classes largest first
    counts, left = [], size
    for _, idxs in classes:
        counts.append(min(left, len(idxs)))
        left -= counts[-1]
    # the position in `order` of each class's first party
    starts = list(accumulate((len(idxs) for _, idxs in classes[:-1]), initial=0))
    prod_sq = prod(sq**a for sq, a in zip(squares, counts))
    scaled = sum(a * (prod_sq // sq) for sq, a in zip(squares, counts) if a)
    bound = (half + 1) * profile.total_dim
    # the classes of the parties order[j] and order[N-m+j] the step moves
    out = into = len(classes) - 1
    for j in range(size, -1, -1):
        if j < size:
            while starts[out] > j:
                out -= 1
            while starts[into] > n - size + j:
                into -= 1
            if out == into:
                continue
            counts[out] -= 1
            counts[into] += 1
            part = prod_sq // squares[out]
            scaled = (scaled - part) // squares[out] * squares[into] + part
            prod_sq = part * squares[into]
        if scaled - prod_sq > bound:
            subset = tuple(sorted(i for (_, idxs), a in zip(classes, counts) for i in idxs[:a]))
            return ScottWitness(subset, scott_check(profile, subset))
    return None


def scott_pair_threshold(d1: int, d2: int) -> int:
    """Smallest n at which the inequality certifies d1 x d2^(2n) in closed form.

    The witness is the largest-first subset, the search's first draw,
    read from the class view `DimensionProfile.classes`: n + 2 of the d2
    parties when d1 < d2, and the d1 party with n + 1 of the d2 parties
    otherwise.  Requires d1 <= d2^2; larger d1 makes the profile
    Schmidt-infeasible outright.
    """
    exact_int(d1, "d1", 2)
    exact_int(d2, "d2", 2)
    if d1 > d2 * d2:
        raise NotApplicableError(
            f"profile {d1} x {d2}^(2n) is Schmidt-infeasible (d1 > d2^2)"
        )
    if d1 < d2:
        bound = Fraction(d2**4 - d1, d2**2 - d1) - 2
    else:
        bound = Fraction(d2**2 * (d1 + 1), d1) - 1
    return bound.__floor__() + 1


# ---------------------------------------------------------------------------
# heterogeneous shadow coefficients
# ---------------------------------------------------------------------------


class HeteroShadow(FrozenRecord):
    """Shadow coefficients s_j = numerators[j] / total of a hypothetical AME state.

    `total` is the profile's total dimension D > 0, so each s_j has the
    sign of its integer numerator; `s` is built, as Fractions, on first use.
    """

    def __init__(self, numerators: tuple[int, ...], total: int) -> None:
        self.__dict__.update(numerators=numerators, total=total)

    @cached_property
    def s(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(v, self.total) for v in self.numerators)

    def first_negative(self) -> int | None:
        for j, v in enumerate(self.numerators):
            if v < 0:
                return j
        return None


def _check_shadow_parties(n_parties: int) -> None:
    if n_parties > MAX_SHADOW_PARTIES:
        raise CapacityError(
            f"the shadow test takes at most {MAX_SHADOW_PARTIES} parties, got {n_parties}"
        )


def check_shadow_size(profile: DimensionProfile) -> None:
    """Raise CapacityError above `MAX_SHADOW_PARTIES` parties or `MAX_SHADOW_BITS` bits of D.

    Both shadow routes apply this input rule first, so they refuse the same profiles.
    """
    _check_shadow_parties(profile.n_parties)
    total = profile.total_dim
    if total.bit_length() > MAX_SHADOW_BITS:
        raise CapacityError(
            f"the shadow test takes a total dimension of at most {MAX_SHADOW_BITS}"
            f" bits, got {total.bit_length()}"
        )


def check_pair_shadow_size(d1: int, d2: int, n: int) -> None:
    """`check_shadow_size` of d1 x d2^(2n), n >= 1, the party count first.

    The profile is built only once its 2n + 1 parties pass, so a huge n
    allocates nothing; its constructor then applies the profile size rules.
    """
    _check_shadow_parties(2 * n + 1)
    check_shadow_size(DimensionProfile((d1,) + (d2,) * (2 * n)))


def _binomial_head(v: int, c: int, m: int) -> list[int]:
    """Coefficients of x^0 .. x^(m-1) in (x + v)^c = sum_k C(c, k) v^(c-k) x^k."""
    top = min(c, m - 1)
    head = [0] * m
    power, choose = v ** (c - top), comb(c, top)
    for k in range(top, -1, -1):
        head[k] = choose * power
        power *= v
        choose = choose * k // (c - k + 1)  # C(c, k-1) = C(c, k) k / (c-k+1)
    return head


def _product_head(classes, m: int) -> list[int]:
    """Coefficients of x^0 .. x^(m-1) in prod_i (x + d_i), from a profile's classes.

    The most frequent dimension v, with multiplicity c, enters in closed
    form (`_binomial_head`); every other party takes one step of
    multiplying by x + d_i, truncated at x^(m-1) and at the degree
    reached so far.
    """
    common, parties = max(classes, key=lambda cls: len(cls[1]))
    count = len(parties)
    head = _binomial_head(common, count, m)
    degree = count
    for d, idxs in classes:
        if d == common:
            continue
        for _ in idxs:
            degree += 1
            for k in range(min(degree, m - 1), 0, -1):
                head[k] = d * head[k] + head[k - 1]
            head[0] *= d
    return head


def _shadow_numerators(head: Sequence[int], n: int) -> tuple[int, ...]:
    """The numerators D s_j of an N-party shadow from a_k = D A'_k, k <= m = floor(N/2).

    The shadow is the polynomial A'(x + y, y - x), and one call of the
    kernel `exact.substitute` expands the substitution, pivoting on
    L = x + y (y - x = L (-1 + 2 y/L)).

    It runs on half the coefficients, at either parity of N.  Write
    W(x, y) = sum_k a_k x^(N-k) y^k, with a_k = a_(N-k), and
    H(x, y) = sum_(k<=m) w_k a_k x^(N-k) y^k, where w_k counts the members
    of the mirror pair {k, N - k} that a_k stands for: w_k = 2 when
    k < N - k, and w_m = 1 for the middle term k = N/2 of an even N.
    H(x, y) + H(y, x) = sum_(k<=m) w_k a_k (x^(N-k) y^k + x^k y^(N-k)).
    For k < N - k that term is twice W's terms at k and at N - k, since
    a_k = a_(N-k); at k = N/2 the two monomials coincide and w_m = 1
    gives 2 a_m x^m y^m.  So H(x, y) + H(y, x) = 2W.  With
    T(x, y) = H(x + y, y - x), H(y - x, x + y) = T(-x, y), so
    2S(x, y) = 2W(x + y, y - x) = T(x, y) + T(-x, y).  The coefficient of
    x^(N-j) y^j in T(-x, y) is (-1)^(N-j) t_j, so s_j = t_j when N - j is
    even and s_j = 0 when it is odd: one substitution of degree m in its
    first pass gives every s_j.  The map from the a_k to the numerators
    is linear.
    """
    weighted = [2 * a if 2 * k < n else a for k, a in enumerate(head)]
    half = substitute(weighted, (1, 1), (-1, 2), n)
    return tuple(t if (n - j) % 2 == 0 else 0 for j, t in enumerate(half))


def hetero_shadow(profile: DimensionProfile) -> HeteroShadow:
    """Exact shadow coefficients from the elementary symmetric averages.

    Defined at every N.  Any s_j < 0 certifies that no AME state exists
    on the profile.  At even N only a homogeneous profile reaches it from
    `ame_verdict`: put the d_i in descending order; the top N/2 are then
    pairwise >= the bottom N/2 (d_(i) >= d_(N/2+i)), so their product is
    at least the bottom product, and Schmidt feasibility (top product <=
    bottom product) forces equality in every pair.  So
    d_(1) = d_(N/2+1) and d_(N/2) = d_(N), and the order between them
    makes every d_i one dimension.

    Scaled by the total dimension D the coefficients are integers:
    D A'_k = e_(N-k)(d_1..d_N) for k <= floor(N/2), the coefficient of
    x^k in prod_i (x + d_i) (`_product_head`), and `_shadow_numerators`
    substitutes them.  The result holds those integers over D;
    `HeteroShadow.s` divides each once, on first use.  Raises
    CapacityError by `check_shadow_size`, before any work.
    """
    check_shadow_size(profile)
    n = profile.n_parties
    return HeteroShadow(
        _shadow_numerators(_product_head(profile.classes, n // 2 + 1), n), profile.total_dim
    )


def pair_family_shadow(d2: int, n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(base, slope) with `hetero_shadow` numerators base_j + d1 slope_j on d1 x d2^(2n).

    One pair of substitutions serves every d1 of the family.  Proof: the
    product behind the numerators is linear in d1,

        prod_i (x + d_i) = x (x + d2)^(2n) + d1 (x + d2)^(2n),

    so its head a_k, k <= n, is U_k + d1 V_k with the slope
    V_k = C(2n, k) d2^(2n-k) and the base U_k = V_(k-1), U_0 = 0.
    `exact.substitute` is linear in its coefficients and so are the
    weights and the parity step of `_shadow_numerators`, so the
    numerators are the images of U and V, combined with the same weights
    1 and d1.

    d2 >= 2 and n >= 1 are exact ints (`errors.exact_int`).  The caps of
    `check_shadow_size` apply, before any work, to the family's smallest
    member 2 x d2^(2n): a family none of whose profiles `hetero_shadow`
    takes is refused.  The trade-off: one d1 alone pays two substitutions
    per n instead of one, so only Table IV's sweep over many d1 of one d2
    (`tables.shadow_certified_set`) calls this.
    """
    exact_int(d2, "d2", 2)
    exact_int(n, "n", 1)
    check_pair_shadow_size(2, d2, n)
    slope = _binomial_head(d2, 2 * n, n + 1)
    base = [0] + slope[:-1]
    return _shadow_numerators(base, 2 * n + 1), _shadow_numerators(slope, 2 * n + 1)


# ---------------------------------------------------------------------------
# combined verdict
# ---------------------------------------------------------------------------


class Certificate(FrozenRecord):
    """Machine-checkable reason for a non-existence verdict."""

    def __init__(self, kind: str,  # "scott-witness" | "corollary7" | "shadow-negative(j)"
                 witness: ScottWitness | None = None, shadow_index: int | None = None,
                 shadow_value: Fraction | None = None, threshold: int | None = None) -> None:
        self.__dict__.update(kind=kind, witness=witness, shadow_index=shadow_index,
                             shadow_value=shadow_value, threshold=threshold)

    def to_json_dict(self) -> dict:
        doc: dict = {"kind": self.kind}
        if self.witness is not None:
            doc["witness"] = self.witness.to_json_dict()
        if self.shadow_index is not None:
            doc["j"] = self.shadow_index
            doc["s_j"] = rat_to_str(self.shadow_value)
        if self.threshold is not None:
            doc["threshold_n"] = self.threshold
        return doc


class AmeVerdict(FrozenRecord):
    """Outcome of the non-existence tests; never claims existence."""

    # status: "infeasible" | "nonexistent" | "unknown"
    def __init__(self, profile: DimensionProfile, status: str,
                 certificate: Certificate | None = None) -> None:
        self.__dict__.update(profile=profile, status=status, certificate=certificate)

    def to_json_dict(self) -> dict:
        doc: dict = {
            "profile": list(self.profile.dims),
            "status": self.status,
        }
        if self.certificate is not None:
            doc["certificate"] = self.certificate.to_json_dict()
        return doc


def _corollary7_threshold(profile: DimensionProfile) -> int | None:
    """`scott_pair_threshold` of a d1 x d2^(2n) profile with n at or above it, else None.

    The d1 x d2^(2n) shape needs odd N; homogeneous odd counts as d1 = d2.
    There the largest-first subset, which the search evaluates first, is
    negative exactly when n >= the threshold, so it is the search's witness.
    """
    if profile.n_parties % 2 == 0:
        return None
    classes, n = profile.classes, profile.n_parties // 2
    if len(classes) == 1:
        d1 = d2 = classes[0][0]
    elif len(classes) == 2 and 1 in (len(classes[0][1]), len(classes[1][1])):
        # the class of one party is the odd party d1
        (d1, _), (d2, _) = classes if len(classes[0][1]) == 1 else classes[::-1]
    else:
        return None
    threshold = scott_pair_threshold(d1, d2)
    return threshold if n >= threshold else None


def ame_verdict(profile: DimensionProfile) -> AmeVerdict:
    """Combined AME non-existence verdict, cheapest test first.

    Order: Schmidt feasibility precheck, subset search, shadow
    coefficients.  The certificate reflects the first test that fires; a
    subset witness on a pair family at or above its closed-form threshold
    is reported as "corollary7" with that threshold, any other as
    "scott-witness", so both stay independently checkable.
    """
    if not profile.schmidt_feasible():
        return AmeVerdict(profile, "infeasible")

    witness = scott_search(profile)
    if witness is not None:
        threshold = _corollary7_threshold(profile)
        kind = "scott-witness" if threshold is None else "corollary7"
        return AmeVerdict(
            profile, "nonexistent", Certificate(kind, witness=witness, threshold=threshold)
        )

    shadow = hetero_shadow(profile)
    j = shadow.first_negative()
    if j is not None:
        return AmeVerdict(
            profile,
            "nonexistent",
            Certificate(
                f"shadow-negative({j})",
                shadow_index=j,
                shadow_value=Fraction(shadow.numerators[j], shadow.total),
            ),
        )

    return AmeVerdict(profile, "unknown")
