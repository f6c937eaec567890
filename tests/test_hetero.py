import itertools
import json
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from kuniform import hetero, tables
from kuniform.bounds import scott_gap_condition
from kuniform.errors import MAX_DIM_BITS, MAX_PARTIES, CapacityError, NotApplicableError
from kuniform.exact import GaussianRational, binom, elem_sym_prefix, substitute
from kuniform.hetero import (
    MAX_SHADOW_BITS,
    MAX_SHADOW_PARTIES,
    DimensionProfile,
    ame_verdict,
    hetero_shadow,
    scott_check,
    scott_pair_threshold,
    scott_search,
)
from kuniform.oracle import PureState, ame_shadow_oracle, purity


def pair_profile(d1, d2, n):
    return DimensionProfile((d1,) + (d2,) * (2 * n))


def spec_string(profile):
    """The "<dim>x<count>,..." form of a profile, consecutive equal dimensions grouped."""
    groups = []
    for d in profile.dims:
        if groups and groups[-1][0] == d:
            groups[-1][1] += 1
        else:
            groups.append([d, 1])
    return ",".join(f"{d}x{c}" for d, c in groups)


def test_profile_parsing():
    prof = DimensionProfile.parse("3x1,2x10")
    assert prof.dims == (3,) + (2,) * 10
    assert spec_string(prof) == "3x1,2x10"
    mixed = DimensionProfile((2, 3, 3, 2, 5))
    assert DimensionProfile.parse(spec_string(mixed)) == mixed
    assert DimensionProfile.parse("2x4").dims == (2, 2, 2, 2)
    with pytest.raises(ValueError):
        DimensionProfile.parse("3,2")
    with pytest.raises(ValueError):
        DimensionProfile.parse("3x0")
    assert DimensionProfile.parse(" 3x1 , 2x2 ").dims == (3, 2, 2)
    for text in ("1_0x1,2x2", "+3x1,2x2", "3 x 1,2x2", "\u0663x1,2x2", "3x1,"):
        with pytest.raises(ValueError, match="^bad profile term"):
            DimensionProfile.parse(text)
    with pytest.raises(ValueError):
        DimensionProfile((2,))
    with pytest.raises(ValueError):
        DimensionProfile((2, 1))


@pytest.mark.parametrize(
    "dims",
    [(2.9, 3, 3), (2, 3.0, 3), (True, 2, 2), (2, "3", 3), (2, None), (2, Fraction(3))],
    ids=["float", "integral-float", "bool", "string", "none", "fraction"],
)
def test_profile_dims_are_exact_ints(dims):
    # a non-integer dimension is refused, never truncated to an int
    with pytest.raises(ValueError, match="must be an integer"):
        DimensionProfile(dims)


def test_profile_parsing_party_cap():
    assert DimensionProfile.parse("2x4000,3x96").n_parties == MAX_PARTIES
    assert DimensionProfile.parse(str([2] * MAX_PARTIES)).n_parties == MAX_PARTIES
    with pytest.raises(CapacityError):
        DimensionProfile.parse("2x4000,3x97")
    with pytest.raises(CapacityError):
        DimensionProfile.parse(str([2] * (MAX_PARTIES + 1)))


@pytest.mark.parametrize(
    "text",
    ["[2.9,3,3]", "[1e1,3,3]", "[[2],3,3]", "[null,2,2]", "[true,2,2]",
     '["2",2,2]', "[{},2,2]", "[" * 100000],
    ids=["float", "exponent", "array", "null", "bool", "string", "object", "deep"],
)
def test_profile_json_holds_integers_only(text):
    with pytest.raises(ValueError):
        DimensionProfile.parse(text)


profile_texts = st.one_of(
    st.text(max_size=16),
    st.text(alphabet="0123456789x,[] -+.e", max_size=16),
    st.lists(
        st.one_of(
            st.integers(-3, 12),
            st.floats(allow_nan=False, allow_infinity=False),
            st.booleans(),
            st.none(),
            st.text(max_size=3),
            st.lists(st.integers(0, 5), max_size=2),
        ),
        max_size=9,
    ).map(json.dumps),
)


@given(profile_texts)
def test_profile_parsing_fuzz(text):
    # every text gives a profile of JSON or decimal integers, or a stated error
    try:
        profile = DimensionProfile.parse(text)
    except (ValueError, CapacityError):
        return
    assert all(type(d) is int and d >= 2 for d in profile.dims)
    assert 2 <= profile.n_parties <= MAX_PARTIES


def test_schmidt_feasibility():
    assert DimensionProfile((3, 2, 2)).schmidt_feasible()
    assert not DimensionProfile((5,) + (2,) * 8).schmidt_feasible()
    assert DimensionProfile((4, 2, 2)).schmidt_feasible()
    # unequal dimensions force an odd party count
    assert not DimensionProfile((3, 2, 2, 2)).schmidt_feasible()


def test_scott_check_worked_values():
    assert scott_check(DimensionProfile((2,) * 8), range(6)) == -3
    assert scott_check(DimensionProfile((2,) * 4), range(4)) == 3
    with pytest.raises(ValueError):
        scott_check(DimensionProfile((2,) * 8), range(5))
    with pytest.raises(ValueError):
        scott_check(DimensionProfile((2,) * 8), [0, 0, 1, 2, 3, 4])


@pytest.mark.parametrize(
    "subset, message",
    [
        ((0, 1, 2, 3, 4, -9), "party index must be >= 0, got -9"),
        ((0, 1, 2, 3, 4, 99), "party index 99 out of range"),
        ((0, 1, 2, 3, 4, 9), "party index 9 out of range"),
        ((0, True, 2, 3, 4, 5), "party index must be an integer, got True"),
        ((0, 1, 2, 3, 4, 5.0), "party index must be an integer, got 5.0"),
        ((0, 1, 2, 3, 4, -1), "party index must be >= 0, got -1"),
        ((0, 1, 2, 3, 4, 4), "subset indices must be distinct"),
        ((0, 0, 2, 3, 4, 9), "party index 9 out of range"),
    ],
    ids=["negative", "far", "just-past", "bool", "float", "minus-one", "repeated", "range-first"],
)
def test_scott_check_refuses_party_indices_outside_the_profile(subset, message):
    # -9 once wrapped round to party 0 and counted the 3 twice, a false
    # negative value on a profile with no negative 6-subset
    profile = DimensionProfile.parse("3x1,2x8")
    assert scott_search(profile) is None
    with pytest.raises(ValueError, match=f"^{message}$"):
        scott_check(profile, subset)
    # `oracle.purity` reads its subset by the same rule, `errors.party_subset`
    state = PureState.from_amplitudes(profile, {(0,) * 9: GaussianRational.of(1)})
    with pytest.raises(ValueError, match=f"^{message}$"):
        purity(state, subset)


def test_pair_threshold_takes_exact_ints():
    # scott_pair_threshold(3, 2.5) once raised TypeError from Fraction
    with pytest.raises(ValueError, match="^d2 must be an integer"):
        scott_pair_threshold(3, 2.5)
    with pytest.raises(ValueError, match="^d1 must be >= 2"):
        scott_pair_threshold(1, 3)


@st.composite
def profile_and_subset(draw):
    n = draw(st.integers(4, 9))
    dims = tuple(draw(st.sampled_from([2, 2, 3, 3, 4, 5])) for _ in range(n))
    size = n // 2 + 2
    subset = draw(st.permutations(range(n)))[:size]
    return DimensionProfile(dims), tuple(subset)


@given(profile_and_subset(), st.randoms(use_true_random=False))
def test_scott_check_permutation_invariance(case, rng):
    profile, subset = case
    value = scott_check(profile, subset)
    # relabel parties within equal-dimension groups; the value must not move
    mapping = {}
    by_dim = {}
    for i, d in enumerate(profile.dims):
        by_dim.setdefault(d, []).append(i)
    for idxs in by_dim.values():
        shuffled = idxs[:]
        rng.shuffle(shuffled)
        mapping.update(zip(idxs, shuffled))
    relabeled = tuple(mapping[i] for i in subset)
    assert scott_check(profile, relabeled) == value


def test_scott_search_examples():
    assert scott_search(DimensionProfile((2, 2))) is None
    witness = scott_search(DimensionProfile.parse("3x1,2x10"))
    assert witness is not None and witness.value < 0
    assert scott_check(DimensionProfile.parse("3x1,2x10"), witness.subset) == witness.value
    homog43 = scott_search(DimensionProfile((3,) * 43))
    assert homog43 is not None and homog43.value < 0


def _multiset_candidates(classes, size):
    """Every draw of `size` parties from `classes`, one per dimension multiset.

    The enumeration the sweep replaced: each class gives its lowest-numbered
    parties, the larger classes drawn in full first, so the first draw is
    the largest-first subset.
    """
    if not classes:
        yield ()
        return
    (_, idxs), rest = classes[0], classes[1:]
    room = sum(len(tail_idxs) for _, tail_idxs in rest)
    for c in range(min(len(idxs), size), max(0, size - room) - 1, -1):
        for tail in _multiset_candidates(rest, size - c):
            yield idxs[:c] + tail


def _reference_search(profile):
    """First negative dimension multiset in the enumeration's order, or None."""
    size = profile.n_parties // 2 + 2
    if size > profile.n_parties:
        return None
    for parties in _multiset_candidates(profile.classes, size):
        subset = tuple(sorted(parties))
        value = scott_check(profile, subset)
        if value < 0:
            return hetero.ScottWitness(subset, value)
    return None


def _assert_search_matches_the_reference(profile):
    # the sweep and the enumeration agree on existence everywhere; on a
    # Schmidt-feasible profile, the only kind `ame_verdict` searches, they
    # also report the same witness
    expected, got = _reference_search(profile), scott_search(profile)
    assert (got is None) == (expected is None), profile.dims
    if profile.schmidt_feasible():
        assert got == expected, profile.dims
    return got


def test_search_matches_the_reference_on_every_small_feasible_profile():
    rng = random.Random(2024)
    feasible = witnesses = 0
    for n in range(2, 13):
        for dims in itertools.combinations_with_replacement((2, 3, 4, 5, 7, 9), n):
            profile = DimensionProfile(rng.sample(dims, n))
            if profile.schmidt_feasible():
                feasible += 1
                witnesses += _assert_search_matches_the_reference(profile) is not None
    assert (feasible, witnesses) == (923, 5)


def test_search_matches_the_reference_on_table_iv_families():
    for d1_lo, d1_hi, d2, threshold, _ in tables.HETERO_TABLE:
        for d1 in range(d1_lo, d1_hi + 1):
            for n in range(1, threshold + 6):
                for pos in (0, n, 2 * n):
                    profile = DimensionProfile((d2,) * pos + (d1,) + (d2,) * (2 * n - pos))
                    _assert_search_matches_the_reference(profile)


@st.composite
def few_class_profiles(draw):
    dims = draw(st.lists(st.integers(2, 12), min_size=2, max_size=4, unique=True))
    counts = draw(st.lists(st.integers(1, 9), min_size=len(dims), max_size=len(dims)))
    parties = [d for d, c in zip(dims, counts) for _ in range(c)]
    return DimensionProfile(draw(st.permutations(parties)))


@given(few_class_profiles())
def test_search_matches_the_reference_on_few_class_profiles(profile):
    _assert_search_matches_the_reference(profile)


@pytest.mark.parametrize(
    "spec",
    ["105x13,104x13,103x13,102x13,101x13,100x12", "[" + ",".join(map(str, range(100, 141))) + "]"],
    ids=["six-classes", "100..140"],
)
def test_ame_verdict_answers_at_once_with_many_classes(spec):
    # 275 548 and 244 662 670 200 dimension multisets of floor(N/2)+2 parties
    start = time.monotonic()
    assert ame_verdict(DimensionProfile.parse(spec)).status == "unknown"
    assert time.monotonic() - start < 1.0


def test_search_checks_only_its_witness(monkeypatch):
    calls = []

    def counting_check(profile, subset):
        calls.append(subset)
        return scott_check(profile, subset)

    monkeypatch.setattr(hetero, "scott_check", counting_check)
    # no negative subset: no exact evaluation at all
    assert scott_search(DimensionProfile.parse("3x1,2x8")) is None
    assert calls == []
    # the first draw is worth 1/2 here, so the witness is a later draw,
    # evaluated once
    witness = scott_search(DimensionProfile.parse("3x3,2x5"))
    assert witness == hetero.ScottWitness((0, 1, 3, 4, 5, 6), Fraction(-1, 3))
    assert calls == [witness.subset]


def test_scott_search_matches_classical_condition_on_homogeneous():
    for d in range(2, 7):
        for n in range(3, 31):
            witness = scott_search(DimensionProfile((d,) * n))
            assert (witness is not None) == scott_gap_condition(n, d), (d, n)


def test_pair_thresholds_table_values():
    expected = {
        (3, 2): 5, (4, 2): 5,
        (2, 3): 10, (4, 3): 11, (5, 3): 10, (8, 3): 10, (9, 3): 10,
        (2, 4): 17, (3, 4): 18, (5, 4): 19, (6, 4): 18, (8, 4): 18,
        (9, 4): 17, (16, 4): 17,
    }
    for (d1, d2), n_min in expected.items():
        assert scott_pair_threshold(d1, d2) == n_min, (d1, d2)


def test_pair_threshold_infeasible_error():
    with pytest.raises(NotApplicableError):
        scott_pair_threshold(5, 2)


def test_pair_threshold_is_sharp():
    # at the threshold the structured subset certifies; just below it must not
    for d1, d2 in ((3, 2), (2, 3), (4, 3), (2, 4), (9, 4)):
        t = scott_pair_threshold(d1, d2)
        assert scott_search(pair_profile(d1, d2, t)) is not None
        assert scott_search(pair_profile(d1, d2, t - 1)) is None


def test_hetero_shadow_worked_values():
    assert hetero_shadow(pair_profile(3, 2, 4)).s[1] == Fraction(-23, 12)
    assert hetero_shadow(pair_profile(4, 2, 4)).s[1] == Fraction(-7, 4)
    assert hetero_shadow(pair_profile(3, 2, 5)).s[3] == Fraction(-65, 4)
    assert hetero_shadow(pair_profile(4, 2, 5)).s[3] == Fraction(-225, 16)


def _hetero_shadow_reference(profile):
    """The O(N^3) Krawtchouk triple loop the substitution kernel replaced."""
    n = profile.n_parties
    half = (n - 1) // 2
    # A'_k: the coefficients of prod(1 + x/d_i), expanded party by party
    a_prime = [Fraction(1)]
    for d in profile.dims:
        a_prime = [
            (a_prime[k] if k < len(a_prime) else 0) + (a_prime[k - 1] / d if k else 0)
            for k in range(len(a_prime) + 1)
        ]
    a_full = [a_prime[k] if k <= half else a_prime[n - k] for k in range(n + 1)]
    total = profile.total_dim
    a_int = [int(v * total) for v in a_full]
    s = []
    for j in range(n + 1):
        acc = 0
        for k in range(n + 1):
            kernel = 0
            for a in range(max(0, k - j), min(k, n - j) + 1):
                kernel += (-1) ** a * binom(n - k, n - j - a) * binom(k, a)
            acc += kernel * a_int[k]
        s.append(Fraction(acc, total))
    return tuple(s)


def test_hetero_shadow_equals_the_reference_loop():
    rng = random.Random(61121)
    profiles = [
        pair_profile(3, 2, 30),
        # one class of all but one party, and two classes of about equal size
        DimensionProfile.parse("3x1,2x60"),
        DimensionProfile.parse("2x30,3x31"),
        DimensionProfile(tuple(rng.choice((2, 3, 5, 7)) for _ in range(61))),
        pair_profile(9, 4, 60),
        DimensionProfile(tuple(rng.randint(2, 9) for _ in range(121))),
    ]
    for profile in profiles:
        assert hetero_shadow(profile).s == _hetero_shadow_reference(profile), (
            spec_string(profile)
        )


def _elem_sym_numerators(profile):
    """The shadow numerators by the full e_0..e_N of `exact.elem_sym_prefix`."""
    n = profile.n_parties
    e = elem_sym_prefix(profile.dims, n)
    half = substitute([e[n - k] for k in range((n + 1) // 2)], (1, 1), (-1, 2), n)
    return tuple(2 * t if (n - j) % 2 == 0 else 0 for j, t in enumerate(half))


@st.composite
def odd_class_profiles(draw):
    """1 to 5 classes of 1 to 25 parties each, dimensions 2..40, N odd, in any order."""
    dims = draw(st.lists(st.integers(2, 40), min_size=1, max_size=5, unique=True))
    counts = [draw(st.integers(1, 25)) for _ in dims]
    parties = [d for d, c in zip(dims, counts) for _ in range(c)]
    if len(parties) % 2 == 0:
        parties.append(dims[0])
    if len(parties) < 3:
        parties += [dims[-1]] * 2
    return DimensionProfile(tuple(draw(st.permutations(parties))))


@given(odd_class_profiles())
def test_hetero_shadow_numerators_equal_the_elementary_symmetric_route(profile):
    # the product is expanded only up to x^((N-1)/2), the largest class in
    # closed form; the numerators must be those of the full expansion
    assert hetero_shadow(profile).numerators == _elem_sym_numerators(profile)


def test_profile_constructor_party_cap():
    assert DimensionProfile((2,) * MAX_PARTIES).n_parties == MAX_PARTIES
    with pytest.raises(CapacityError, match=f"party count {MAX_PARTIES + 1} exceeds"):
        DimensionProfile((2,) * (MAX_PARTIES + 1))


def test_profile_bit_cap_refuses_before_any_product(monkeypatch):
    # (10^1000+1)x1,(10^1000)x1000 once spent 17.9 s in products before the
    # shadow's bit cap refused it
    wide = 1 << 15  # 16 bits
    at_cap = (wide,) * (MAX_DIM_BITS // 16)
    calls = []
    monkeypatch.setattr(hetero, "prod", lambda *args: calls.append(args) or 1)
    assert DimensionProfile(at_cap).n_parties == MAX_PARTIES
    for dims in ((2 * wide,) + at_cap[1:], (10**1000 + 1,) + (10**1000,) * 1000):
        with pytest.raises(CapacityError, match=f"above the cap of {MAX_DIM_BITS} bits"):
            DimensionProfile(dims)
    assert calls == []


@pytest.mark.parametrize(
    "dims",
    [
        (2**16 - 1,) * 2047 + (2**16 - 2,) * 2048,
        tuple(2**16 - 1 - i % 64 for i in range(4095)),
        tuple(2**32 - 1 - i for i in range(2001)),
    ],
    ids=["two-classes", "64-classes", "2001-classes"],
)
def test_widest_searches_under_the_bit_cap_are_quick(dims):
    # every step of the sweep moves a party between classes at about the cap
    profile = DimensionProfile(dims)
    assert profile.schmidt_feasible()
    start = time.monotonic()
    assert scott_search(profile) is None
    assert time.monotonic() - start < 1.0


def test_hetero_shadow_refuses_above_its_cap_before_any_work(monkeypatch):
    calls = []
    for name in ("_product_head", "substitute"):
        monkeypatch.setattr(hetero, name, lambda *args, name=name: calls.append(name))
    with pytest.raises(CapacityError, match=f"at most {MAX_SHADOW_PARTIES} parties"):
        hetero_shadow(pair_profile(3, 2, MAX_SHADOW_PARTIES // 2 + 1))
    assert calls == []


def test_hetero_shadow_refuses_wide_dimensions_before_any_work(monkeypatch):
    calls = []
    for name in ("_product_head", "substitute"):
        monkeypatch.setattr(hetero, name, lambda *args, name=name: calls.append(name))
    profile = DimensionProfile.parse("1000000x1001")
    assert profile.total_dim.bit_length() > MAX_SHADOW_BITS
    start = time.monotonic()
    with pytest.raises(CapacityError, match=f"at most {MAX_SHADOW_BITS} bits, got 19952"):
        hetero_shadow(profile)
    assert time.monotonic() - start < 1.0
    assert calls == []


def test_shadow_bit_cap_is_far_above_table_iv():
    # every profile the table's shadow test runs on, n below the threshold
    widest = max(
        pair_profile(d1, d2, n).total_dim.bit_length()
        for d1_lo, d1_hi, d2, threshold, _ in tables.HETERO_TABLE
        for d1 in range(d1_lo, d1_hi + 1)
        for n in range(1, threshold)
    )
    assert widest < MAX_SHADOW_BITS // 8


def test_hetero_shadow_at_its_cap():
    # the cap is inclusive; S(1, 1) = A'(2, 0) = 2^N since A'_0 = 1
    shadow = hetero_shadow(pair_profile(3, 2, MAX_SHADOW_PARTIES // 2))
    assert len(shadow.s) == MAX_SHADOW_PARTIES + 1
    assert sum(shadow.s) == 2**MAX_SHADOW_PARTIES


def test_ame_verdict_above_the_shadow_cap():
    # a test before the shadow still decides a profile above its cap
    verdict = ame_verdict(DimensionProfile.parse("3x1,2x4094"))
    assert verdict.status == "nonexistent"
    assert verdict.certificate.kind == "corollary7"
    # one that only the shadow test could decide is refused
    with pytest.raises(CapacityError):
        ame_verdict(DimensionProfile.parse(f"33x{MAX_SHADOW_PARTIES + 2}"))


def test_hetero_shadow_requires_odd_party_count():
    with pytest.raises(NotApplicableError):
        hetero_shadow(DimensionProfile((2, 2, 2, 2)))


@st.composite
def odd_near_homogeneous_dims(draw):
    """N = 3..31 parties: up to three from {2, 3, 4}, the rest of one dimension.

    Uniform draws from {2, 3, 4} are almost never Schmidt-feasible above
    N = 13, so most parties share a dimension.
    """
    n = 2 * draw(st.integers(1, 15)) + 1
    few = draw(st.lists(st.sampled_from([2, 3, 4]), max_size=3))
    base = draw(st.sampled_from([2, 3, 4]))
    return draw(st.permutations(few + [base] * (n - len(few))))


@given(odd_near_homogeneous_dims())
def test_hetero_shadow_matches_subset_sum_oracle(dims):
    prof = DimensionProfile(tuple(dims))
    if not prof.schmidt_feasible():
        return
    assert hetero_shadow(prof).s == ame_shadow_oracle(prof)


@st.composite
def odd_profiles(draw):
    """N = 3..25 parties of dimensions 2..9, in any order."""
    n = 2 * draw(st.integers(1, 12)) + 1
    return DimensionProfile(tuple(draw(st.lists(st.integers(2, 9), min_size=n, max_size=n))))


@given(odd_profiles())
def test_hetero_shadow_fractions_are_its_numerators_over_d(profile):
    # the sign test reads the integers; `s` must be the same values as Fractions
    shadow = hetero_shadow(profile)
    assert shadow.total == profile.total_dim
    assert shadow.s == tuple(Fraction(v, profile.total_dim) for v in shadow.numerators)
    negative = [j for j, v in enumerate(shadow.s) if v < 0]
    assert shadow.first_negative() == (negative[0] if negative else None)


def test_ame_verdict_examples():
    v = ame_verdict(DimensionProfile.parse("3x1,2x8"))
    assert v.status == "nonexistent"
    assert v.certificate.kind == "shadow-negative(1)"
    assert v.certificate.shadow_value == Fraction(-23, 12)

    v = ame_verdict(DimensionProfile.parse("2x1,4x34"))
    assert v.status == "nonexistent"
    assert v.certificate.kind == "corollary7"
    assert v.certificate.witness is not None and v.certificate.witness.value < 0
    # the shadow route proves nothing on this profile
    assert hetero_shadow(DimensionProfile.parse("2x1,4x34")).first_negative() is None

    assert ame_verdict(DimensionProfile.parse("2x4")).status == "unknown"
    assert ame_verdict(DimensionProfile.parse("5x1,2x8")).status == "infeasible"


def test_corollary7_verdict_evaluates_one_subset(monkeypatch):
    calls = []

    def counting_check(profile, subset):
        calls.append(subset)
        return scott_check(profile, subset)

    monkeypatch.setattr(hetero, "scott_check", counting_check)
    cert = ame_verdict(DimensionProfile.parse("2x1,4x34")).certificate
    assert cert.kind == "corollary7" and cert.threshold == 17
    assert calls == [cert.witness.subset]


def _casework_subset(profile, d1, d2):
    """The d1 < d2 / d1 = d2 / d1 > d2 witness casework the verdict once used."""
    n = profile.n_parties // 2
    odd_ones = [i for i, d in enumerate(profile.dims) if d == d1]
    small = [i for i, d in enumerate(profile.dims) if d == d2]
    if d1 < d2:
        return tuple(sorted(small[: n + 2]))
    if d1 == d2:
        return tuple(range(n + 2))
    return tuple(sorted(odd_ones[:1] + small[: n + 1]))


def _corollary7_cases():
    for d1_lo, d1_hi, d2, _, _ in tables.HETERO_TABLE:
        for d1 in range(d1_lo, d1_hi + 1):
            threshold = scott_pair_threshold(d1, d2)
            for n in range(threshold, threshold + 3):
                yield d1, d2, n
    for d in (2, 3, 4):
        for n in range(d * (d + 1), d * (d + 1) + 3):
            yield d, d, n


def test_corollary7_witness_is_the_casework_subset():
    # the largest-first subset equals the casework's, wherever the odd party sits
    for d1, d2, n in _corollary7_cases():
        for pos in (0, n, 2 * n):
            profile = DimensionProfile((d2,) * pos + (d1,) + (d2,) * (2 * n - pos))
            cert = ame_verdict(profile).certificate
            case = (d1, d2, n, pos)
            assert cert.kind == "corollary7", case
            assert cert.threshold == scott_pair_threshold(d1, d2), case
            assert cert.witness.subset == _casework_subset(profile, d1, d2), case
            # and it is the first subset the search evaluates
            assert scott_search(profile) == cert.witness, case


@given(st.lists(st.integers(2, 9), min_size=2, max_size=40))
def test_class_view_partitions_the_parties(dims):
    classes = DimensionProfile(dims).classes
    assert sorted(i for _, idxs in classes for i in idxs) == list(range(len(dims)))
    assert all(a > b for (a, _), (b, _) in zip(classes, classes[1:]))
    for d, idxs in classes:
        assert all(i < j for i, j in zip(idxs, idxs[1:]))
        assert all(dims[i] == d for i in idxs)


def test_ame_verdict_never_claims_existence():
    random_profiles = [
        (2, 2, 2), (3, 3, 3), (2, 3, 3), (4, 4, 2, 2, 4), (3, 2, 2, 2, 2),
    ]
    for dims in random_profiles:
        assert ame_verdict(DimensionProfile(dims)).status in (
            "infeasible",
            "nonexistent",
            "unknown",
        )


def test_ame_verdict_certificate_serialization():
    doc = ame_verdict(DimensionProfile.parse("3x1,2x8")).to_json_dict()
    assert doc["status"] == "nonexistent"
    assert doc["certificate"]["kind"] == "shadow-negative(1)"
    assert doc["certificate"]["s_j"] == "-23/12"
    doc = ame_verdict(DimensionProfile.parse("2x1,4x34")).to_json_dict()
    assert doc["certificate"]["kind"] == "corollary7"
    assert doc["certificate"]["witness"]["value"].startswith("-")
