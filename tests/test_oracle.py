import itertools
import random
import tracemalloc
from collections import Counter
from fractions import Fraction
from math import comb, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kuniform import oracle, tables
from kuniform.enumerators import shadow_transform, validate_state_constraints
from kuniform.errors import CapacityError, NotApplicableError
from kuniform.exact import GaussianRational
from kuniform.hetero import MAX_SHADOW_BITS, MAX_SHADOW_PARTIES, DimensionProfile, hetero_shadow
from kuniform.oracle import (
    WORK_CAP,
    PureState,
    _krawtchouk_shadow,
    ame_shadow_oracle,
    direct_enumerator,
    direct_shadow,
    ghz_state,
    is_k_uniform,
    product_zero_state,
    purity,
    purity_table,
    shadow_from_purities,
)


def bell_state():
    return ghz_state(2, 2)


def test_purity_worked_values():
    assert purity(bell_state(), [0]) == Fraction(1, 2)
    assert purity(product_zero_state(2), [0]) == 1
    assert purity(ghz_state(3, 2), [0, 1]) == Fraction(1, 2)
    assert purity(bell_state(), []) == 1
    assert purity(bell_state(), [0, 1]) == 1
    with pytest.raises(ValueError, match="^party index must be an integer"):
        purity(bell_state(), [0.0])
    # a repeated index once gave the purity of the set, 1/2 here
    with pytest.raises(ValueError, match="^subset indices must be distinct$"):
        purity(ghz_state(3, 2), [0, 0])


def test_purity_handles_unnormalized_and_complex_amplitudes():
    # (3 |00> + 4i |11>) / 5 reduces like an unbalanced pair
    state = PureState.from_amplitudes(
        (2, 2),
        {
            (0, 0): GaussianRational.of(3),
            (1, 1): GaussianRational.of(0, 4),
        },
    )
    expected = Fraction(3**4 + 4**4, 25**2)
    assert purity(state, [0]) == expected
    # scaling amplitudes must not change any purity
    scaled = PureState.from_amplitudes(
        (2, 2),
        {
            (0, 0): GaussianRational.of(Fraction(3, 7)),
            (1, 1): GaussianRational.of(0, Fraction(4, 7)),
        },
    )
    assert purity(scaled, [0]) == expected


def test_is_k_uniform_examples(corpus):
    states = dict(corpus)
    assert is_k_uniform(bell_state(), 1)
    assert is_k_uniform(ghz_state(3, 2), 1)
    assert not is_k_uniform(product_zero_state(2), 1)
    assert not is_k_uniform(states["w3"], 1)
    assert is_k_uniform(states["ame43"], 2)
    with pytest.raises(ValueError):
        is_k_uniform(bell_state(), 2)
    with pytest.raises(ValueError, match="^k must be an integer"):
        is_k_uniform(bell_state(), 1.0)


def test_tetracode_state_is_two_uniform(tetracode):
    # its Hilbert dimension, 3^8, was once refused outright, though its
    # sweep takes about 1.4M steps
    assert len(tetracode.amplitudes) == 81
    assert is_k_uniform(tetracode, 2) and not is_k_uniform(tetracode, 3)
    a = direct_enumerator(tetracode)
    assert a.coeffs[:3] == (1, 0, 0) and a.coeffs[3] != 0
    assert shadow_transform(a).coeffs == direct_shadow(tetracode).coeffs


def test_direct_enumerator_worked_values():
    assert direct_enumerator(bell_state()).coeffs == (1, 0, 3)
    assert direct_enumerator(ghz_state(3, 2)).coeffs == (1, 0, 3, 4)
    assert direct_enumerator(product_zero_state(2)).coeffs == (1, 2, 1)


def test_direct_shadow_worked_values():
    assert direct_shadow(bell_state()).coeffs == (1, 0, 3)
    assert direct_shadow(ghz_state(3, 2)).coeffs == (0, 3, 0, 5)


def test_direct_enumerator_rejects_heterogeneous():
    state = PureState.from_amplitudes(
        (3, 2, 2), {(0, 0, 0): GaussianRational.of(1)}
    )
    with pytest.raises(NotApplicableError):
        direct_enumerator(state)
    with pytest.raises(NotApplicableError):
        direct_shadow(state)


def test_capacity_errors():
    # one rule, K (N + min(K, D_S)) steps per subset read with K nonzero
    # kets: the 2048 kets of a dense 11-qubit state take 2048 * 2059 steps
    # for the purity of all 11 parties alone, above the cap of 2^22
    big = _dense_state((2,) * 11)
    for brute_force in (
        lambda: purity(big, range(11)),
        lambda: purity_table(big),
        lambda: is_k_uniform(big, 5),
        lambda: direct_enumerator(big),
        lambda: direct_shadow(big),
    ):
        with pytest.raises(
            CapacityError, match=r"^brute force of about 2\^[0-9.]+ steps exceeds cap 4194304$"
        ):
            brute_force()
    # a product state sweeps 2^N subsets at N + 1 steps each: 18 qubits
    # are refused, and 17 qubits pass, as does a 16-qubit GHZ state
    for sweep in (purity_table, direct_enumerator, direct_shadow):
        with pytest.raises(CapacityError, match=r"^brute force of about 2\^22.25 steps"):
            sweep(product_zero_state(18))
    table = purity_table(ghz_state(16, 2))
    assert table[0] == table[-1] == 1 and set(table[1:-1]) == {Fraction(1, 2)}
    # the subset table checks its own steps on the state route too: 23
    # classes of one party take 23 * 2^23 fold steps, though the 23 subsets
    # of one party would take few
    wide = PureState.from_amplitudes(tuple(range(2, 25)), {(0,) * 23: GaussianRational.of(1)})
    with pytest.raises(CapacityError, match=r"^subset table of about 2\^27.52 steps exceeds cap"):
        is_k_uniform(wide, 1)


def test_state_subset_table_keeps_its_integers_short(monkeypatch):
    # the table once multiplied the dimensions D_S of all 2^600 subsets of
    # this state, up to 18600 bits each, for its one ket; the state route
    # reads only min(K, D_S), so the table clips every D_S at K = 1
    dims = (2**31 + 1,) * 300 + (2**31 - 1,) * 300
    state = PureState.from_amplitudes(dims, {(0,) * 600: GaussianRational.of(1)})
    seen, triples = set(), []
    real = oracle._subset_classes

    def recording(*args):
        for entry in real(*args):
            seen.add(entry[1])
            triples.append(entry)
            yield entry

    monkeypatch.setattr(oracle, "_subset_classes", recording)
    assert not is_k_uniform(state, 1)
    # the subsets of one party, one triple per class, not the 301^2 = 90601
    # triples of the full table
    assert triples == [(1, 1, 300), (1, 1, 300)]
    assert is_k_uniform(state, 0)
    assert seen == {1}


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.sampled_from((2, 3, 4, 5, 8, 9)), min_size=2, max_size=10),
    st.integers(1, 40),
    st.data(),
)
def test_subset_classes_of_one_size_equal_the_full_table(dims, cap, data):
    # `is_k_uniform` folds no subset larger than k; what it reads, the
    # triples of size k, is the full table's, in the same order
    profile = DimensionProfile(tuple(dims))
    k = data.draw(st.integers(0, profile.n_parties))
    for clip in (cap, profile.total_dim):
        full = [e for e in oracle._subset_classes(profile, clip) if e[0] == k]
        assert list(oracle._subset_classes(profile, clip, k)) == full


def _steps_taken(state, subsets):
    """Steps the purities of `subsets` take: K N to regroup, then the squared group sizes."""
    kets, n = len(state.amplitudes), state.profile.n_parties
    steps = 0
    for subset in subsets:
        groups = Counter(
            tuple(x for t, x in enumerate(ket) if t not in subset)
            for ket, _ in state.amplitudes
        )
        steps += kets * n + sum(g * g for g in groups.values())
    return steps


def _dense_state(dims):
    kets = itertools.product(*(range(d) for d in dims))
    return PureState.from_amplitudes(dims, {ket: GaussianRational.of(1) for ket in kets})


def test_work_cap_bounds_the_pairs_and_meets_them_on_dense_states(monkeypatch, corpus):
    # the bound is at least the steps the sweep takes, regrouping and ket
    # pairs, so a cap one below them refuses every state; on a dense state
    # it is the step count itself, so a cap equal to it admits the state
    states = [(state, False) for _, state in corpus]
    states += [(_dense_state(dims), True) for dims in ((2,) * 5, (3, 3, 3), (3, 2, 2))]
    for state, dense in states:
        n = state.profile.n_parties
        sweeps = [(lambda: purity_table(state), range(n + 1))]
        sweeps += [(lambda: purity(state, range(n)), (n,))]
        sweeps += [(lambda k=k: is_k_uniform(state, k), (k,)) for k in range(1, n // 2 + 1)]
        for sweep, sizes in sweeps:
            subsets = [set(c) for m in sizes for c in itertools.combinations(range(n), m)]
            steps = _steps_taken(state, subsets)
            monkeypatch.setattr(oracle, "WORK_CAP", steps - 1)
            with pytest.raises(CapacityError, match=r"^brute force of about 2\^"):
                sweep()
            if dense:
                monkeypatch.setattr(oracle, "WORK_CAP", steps)
                sweep()


def _shadow_from_purities_naive(purities):
    """Literal nested double subset sum; reference for shadow_from_purities."""
    size = len(purities)
    n = size.bit_length() - 1
    s = [Fraction(0)] * (n + 1)
    for t_mask in range(size):
        comp = (size - 1) ^ t_mask
        acc = Fraction(0)
        for s_mask in range(size):
            sign = -1 if (s_mask & comp).bit_count() % 2 else 1
            acc += sign * purities[s_mask]
        s[t_mask.bit_count()] += acc
    return tuple(s)


# numerators over denominators 1..60, so one table mixes many denominators
rationals = st.builds(Fraction, st.integers(-400, 400), st.integers(1, 60))


@settings(max_examples=20, deadline=None)  # the naive sum is O(4^N)
@given(st.integers(1, 8), st.data())
def test_shadow_transform_matches_butterfly(n, data):
    table = data.draw(
        st.lists(rationals, min_size=1 << n, max_size=1 << n)
    )
    got = shadow_from_purities(table)
    # the fast reference first, so that shrinking a failure stays quick
    assert got == _fraction_butterfly(table)
    assert got == _shadow_from_purities_naive(table)


@st.composite
def small_states(draw):
    n = draw(st.integers(2, 4))
    d = draw(st.sampled_from([2, 3]))
    n_amps = draw(st.integers(1, 4))
    amps = {}
    for _ in range(n_amps):
        ket = tuple(draw(st.integers(0, d - 1)) for _ in range(n))
        re = draw(st.integers(-3, 3))
        im = draw(st.integers(-3, 3))
        if re or im:
            amps[ket] = GaussianRational.of(re, im)
    if not amps:
        amps[(0,) * n] = GaussianRational.of(1)
    return PureState.from_amplitudes((d,) * n, amps)


@given(small_states())
def test_random_states_satisfy_all_constraints(state):
    enum = direct_enumerator(state)
    n, d = state.profile.n_parties, state.profile.dims[0]
    assert validate_state_constraints(enum).ok
    assert sum(enum.coeffs) == d**n
    assert shadow_transform(enum).coeffs == direct_shadow(state).coeffs


@given(small_states())
def test_complementary_purity_symmetry(state):
    n = state.profile.n_parties
    table = purity_table(state)
    full = (1 << n) - 1
    for mask in range(1 << n):
        assert table[mask] == table[full ^ mask]


def test_bundled_corpus_shape(corpus):
    assert len(corpus) >= 12
    names = [name for name, _ in corpus]
    assert len(set(names)) == len(names)
    assert any(name == "ghz-n2-d2" for name in names)


def test_corpus_uniformity_iff_prefix_zero(corpus):
    for name, state in corpus:
        enum = direct_enumerator(state)
        for k in range(state.profile.n_parties // 2 + 1):
            prefix_zero = all(enum.coeffs[j] == 0 for j in range(1, k + 1))
            assert is_k_uniform(state, k) == prefix_zero, (name, k)


def test_state_json_round_trip(corpus):
    for _, state in corpus[:4]:
        doc = state.to_json_dict()
        assert PureState.from_json_dict(doc).amplitudes == state.amplitudes
    doc = bell_state().to_json_dict()
    assert doc["dims"] == [2, 2]
    assert doc["amps"][0] == {"ket": [0, 0], "re": "1", "im": "0"}


def test_state_validation():
    with pytest.raises(ValueError):
        PureState.from_amplitudes((2, 2), {(0, 2): GaussianRational.of(1)})
    with pytest.raises(ValueError):
        PureState.from_amplitudes((2, 2), {(0, 0): GaussianRational.of(0)})
    with pytest.raises(ValueError):
        PureState.from_amplitudes((2, 2), {(0, 0, 0): GaussianRational.of(1)})


def test_state_refuses_a_repeated_ket():
    # [0, 0] twice was once read as a state with a_0 = 4 and purities 4
    one, zero = GaussianRational.of(1), GaussianRational.of(0)
    for amps in (
        [((0, 0), one), ((0, 0), one)],
        [([1, 0], one), ((1, 0), zero)],
        [((0, 1), zero), ((1, 1), one), ((0, 1), zero)],
    ):
        ket = tuple(amps[0][0])
        with pytest.raises(ValueError, match=rf"ket \({ket[0]}, {ket[1]}\) appears more than once"):
            PureState.from_amplitudes((2, 2), amps)


def test_ame_shadow_oracle_equals_formula_route():
    for dims in ((3, 2, 2), (2, 3, 3), (4, 2, 2, 2, 2), (3, 3, 3, 3, 3)):
        prof = DimensionProfile(dims)
        assert ame_shadow_oracle(prof) == hetero_shadow(prof).s


@pytest.mark.parametrize(
    "doc",
    [
        {"dims": [2.9, 2], "amps": [{"ket": [1, 1], "re": "1"}]},
        {"dims": [2, 2], "amps": [{"ket": [1.7, 1], "re": "1"}]},
        {"dims": [2, 2], "amps": [{"ket": [1.0, 1], "re": "1"}]},
        {"dims": [True, 2], "amps": [{"ket": [0, 0], "re": "1"}]},
        {"dims": [2, 2], "amps": [{"ket": [False, 0], "re": "1"}]},
        {"dims": ["2", 2], "amps": [{"ket": [0, 0], "re": "1"}]},
        {"dims": 4, "amps": [{"ket": [0, 0], "re": "1"}]},
        {"dims": [2, 2], "amps": [{"ket": "00", "re": "1"}]},
    ],
    ids=["float-dim", "float-ket", "integral-float-ket", "bool-dim", "bool-ket",
         "string-dim", "scalar-dims", "string-ket"],
)
def test_state_json_holds_integers_only(doc):
    # dims 2.9 and ket 1.7 were once truncated to a 2 x 2 state
    with pytest.raises(ValueError, match="integer"):
        PureState.from_json_dict(doc)


def test_state_kets_are_exact_ints():
    for ket in ((1.0, 0), (True, 0), ("1", 0)):
        with pytest.raises(ValueError, match="must be an integer"):
            PureState.from_amplitudes((2, 2), [(ket, GaussianRational.of(1))])


# ---------------------------------------------------------------------------
# references: the Fraction routes the integer butterfly and inversion replaced
# ---------------------------------------------------------------------------


def _fraction_butterfly(purities):
    """The parity butterfly and weight-class sum, on Fractions."""
    size = len(purities)
    n = size.bit_length() - 1
    g = list(purities)
    step = 1
    while step < size:
        for start in range(0, size, 2 * step):
            for idx in range(start, start + step):
                a, b = g[idx], g[idx + step]
                g[idx], g[idx + step] = a + b, a - b
        step *= 2
    full = size - 1
    s = [Fraction(0)] * (n + 1)
    for t_mask in range(size):
        s[t_mask.bit_count()] += g[full ^ t_mask]
    return tuple(s)


def _ame_oracle_reference(dims):
    total = 1
    for d in dims:
        total *= d
    purities = []
    for mask in range(1 << len(dims)):
        d_s = 1
        for t, d in enumerate(dims):
            if mask >> t & 1:
                d_s *= d
        purities.append(Fraction(1, min(d_s, total // d_s)))
    return _fraction_butterfly(purities)


def _inversion_reference(n, d, pur):
    """The Mobius inversion of direct_enumerator, on Fraction purities."""
    a = [Fraction(0)] * (n + 1)
    for t_mask in range(1 << n):
        acc = Fraction(0)
        weight_t = t_mask.bit_count()
        u_mask = t_mask
        while True:
            sign = -1 if (weight_t - u_mask.bit_count()) % 2 else 1
            acc += sign * d ** u_mask.bit_count() * pur[u_mask]
            if u_mask == 0:
                break
            u_mask = (u_mask - 1) & t_mask
        a[weight_t] += acc
    return tuple(a)


def test_ame_shadow_oracle_equals_the_fraction_route():
    # every Schmidt-feasible profile with dims in {2, 3, 4}, N = 2..9, each
    # in sorted and in reversed party order
    checked = 0
    for n in range(2, 10):
        for dims in itertools.combinations_with_replacement((2, 3, 4), n):
            if not DimensionProfile(dims).schmidt_feasible():
                continue
            for order in (dims, dims[::-1]):
                assert ame_shadow_oracle(DimensionProfile(order)) == (
                    _ame_oracle_reference(order)
                ), order
            checked += 1
    assert checked == 80


@settings(max_examples=40)
@given(small_states())
def test_weight_classes_equal_the_inversion(state):
    # direct_enumerator sums the purities by subset size; the reference
    # walks every submask
    n, d = state.profile.n_parties, state.profile.dims[0]
    pur = purity_table(state)
    assert direct_enumerator(state).coeffs == _inversion_reference(n, d, pur)


def test_direct_routes_equal_the_fraction_route(corpus):
    for name, state in corpus:
        n, d = state.profile.n_parties, state.profile.dims[0]
        pur = purity_table(state)
        assert direct_enumerator(state).coeffs == _inversion_reference(n, d, pur), name
        assert direct_shadow(state).coeffs == _fraction_butterfly(pur), name


def _profile_at(classes, n, skewed):
    """N parties over `classes`: one of each but the first, or spread evenly."""
    if skewed:
        return (classes[0],) * (n - len(classes) + 1) + classes[1:]
    return tuple(sorted(classes[i % len(classes)] for i in range(n)))


def test_grouped_ame_oracle_equals_the_fraction_route_at_the_cap():
    # class count vectors against the 2^N-subset Fraction butterfly, with
    # three and four classes, at N = 10..12 and in both party orders
    class_sets = [c for k in (3, 4) for c in itertools.combinations((2, 3, 4, 5), k)]
    for classes in class_sets:
        for n in (10, 11, 12):
            dims = _profile_at(classes, n, skewed=n == 11)
            assert len(DimensionProfile(dims).classes) == len(classes)
            for order in (dims, dims[::-1]):
                assert ame_shadow_oracle(DimensionProfile(order)) == (
                    _ame_oracle_reference(order)
                ), order


def test_direct_shadow_equals_the_fraction_route_at_the_cap():
    state = ghz_state(12, 2)
    assert direct_shadow(state).coeffs == _fraction_butterfly(purity_table(state))


def test_shadow_from_purities_refuses_a_table_not_of_length_two_to_the_n():
    for size in (0, 3, 6, 12):
        with pytest.raises(ValueError, match="length 2\\^N"):
            shadow_from_purities([Fraction(1)] * size)


def test_krawtchouk_shadow_equals_its_defining_sum():
    # the unit weight on size m gives s_j = K_(N-j)(m), with
    # K_k(m) = sum_l (-1)^l C(m, l) C(N-m, k-l), coefficient of z^k in
    # (1-z)^m (1+z)^(N-m)
    for n in range(13):
        for m in range(n + 1):
            unit = [0] * (n + 1)
            unit[m] = 1
            assert _krawtchouk_shadow(unit) == [
                sum((-1) ** l * comb(m, l) * comb(n - m, n - j - l) for l in range(n - j + 1))
                for j in range(n + 1)
            ], (n, m)


def test_ame_shadow_oracle_checks_table_iv():
    # every Table IV profile d1 x d2^(2n) with n below the threshold: the
    # oracle equals hetero_shadow, and its negative n are the pinned set
    checked = 0
    for d1_lo, d1_hi, d2, threshold, shadow_ns in tables.HETERO_TABLE:
        for d1 in range(d1_lo, d1_hi + 1):
            negative = []
            for n in range(1, threshold):
                profile = DimensionProfile((d1,) + (d2,) * (2 * n))
                s = ame_shadow_oracle(profile)
                assert s == hetero_shadow(profile).s, (d1, d2, n)
                if any(v < 0 for v in s):
                    negative.append(n)
                checked += 1
            assert tuple(negative) == shadow_ns, (d1, d2)
    assert checked == 302


def _seeded_class_profiles(count, seed):
    """`count` Schmidt-feasible profiles of odd N = 3..201 with 2 or 3 classes of 2..9."""
    rng = random.Random(seed)
    found = []
    while len(found) < count:
        n = rng.randrange(3, 202, 2)
        dims = rng.sample(range(2, 10), rng.choice((2, 3)))
        cuts = sorted(rng.sample(range(1, n), len(dims) - 1))
        sizes = [hi - lo for lo, hi in zip([0] + cuts, cuts + [n])]
        profile = DimensionProfile(tuple(d for d, c in zip(dims, sizes) for _ in range(c)))
        if profile.schmidt_feasible():
            found.append(profile)
    return found


def test_ame_shadow_oracle_numerators_equal_the_shadow_up_to_201_parties():
    # the same integers over the same D, and the odd N - j coefficients vanish
    for profile in _seeded_class_profiles(16, 2501):
        numerators = hetero_shadow(profile).numerators
        assert numerators == tuple(oracle._ame_shadow_numerators(profile)), profile.classes
        n = profile.n_parties
        assert all(v == 0 for j, v in enumerate(numerators) if (n - j) % 2), profile.classes


def test_shadow_cross_validation_names_one_perturbed_profile(monkeypatch):
    # the suite compares the two routes' integer numerators over D: one
    # numerator off by one is one mismatch, on its profile
    real = oracle._ame_shadow_numerators

    def perturbed(profile):
        s = real(profile)
        s[2] += profile.dims == (2, 3, 3, 3, 4)
        return s

    monkeypatch.setattr(oracle, "_ame_shadow_numerators", perturbed)
    assert oracle.cross_validate_ame_shadow() == (
        89, ["shadow mismatch on profile (2, 3, 3, 3, 4)"]
    )


def _record_subset_classes(monkeypatch):
    """Replace `_subset_classes` by a stub that records its profiles and returns no subsets."""
    calls = []
    monkeypatch.setattr(
        oracle, "_subset_classes", lambda profile, cap: calls.append(profile) or []
    )
    return calls


@pytest.mark.parametrize(
    "spec",
    [f"3x1,2x{MAX_SHADOW_PARTIES + 1}", "1000000x1001"],
    ids=["parties", "bits"],
)
def test_ame_shadow_oracle_refuses_what_hetero_shadow_refuses(monkeypatch, spec):
    calls = _record_subset_classes(monkeypatch)
    profile = DimensionProfile.parse(spec)
    assert (
        profile.n_parties > MAX_SHADOW_PARTIES
        or profile.total_dim.bit_length() > MAX_SHADOW_BITS
    )
    with pytest.raises(CapacityError) as shadow_error:
        hetero_shadow(profile)
    with pytest.raises(CapacityError) as oracle_error:
        ame_shadow_oracle(profile)
    assert str(oracle_error.value) == str(shadow_error.value)
    assert calls == []


def test_ame_shadow_oracle_work_bound(monkeypatch):
    # 23 classes of one party: 23 * 2^23 steps
    many = DimensionProfile(tuple(range(2, 25)))
    with pytest.raises(CapacityError, match=r"^subset table of about 2\^27.52 steps exceeds cap"):
        ame_shadow_oracle(many)
    # 4 classes of 31 parties: 4 * 32^4 steps, exactly the cap, pass the
    # table's own check; one party more is refused
    at_cap = DimensionProfile.parse("2x31,3x31,4x31,5x31")
    assert 4 * 32**4 == WORK_CAP
    calls = []
    real = oracle._subset_classes
    monkeypatch.setattr(
        oracle, "_subset_classes",
        lambda *args: calls.append(args) or itertools.islice(real(*args), 1),
    )
    ame_shadow_oracle(at_cap)  # the first triple only, past every check
    assert calls == [(at_cap, at_cap.total_dim)]
    monkeypatch.undo()
    with pytest.raises(CapacityError, match=r"^subset table of about 2\^22.04 steps"):
        ame_shadow_oracle(DimensionProfile.parse("2x31,3x31,4x31,5x32"))


@pytest.mark.parametrize("spec", ["2x2,4x2,8x2", "3x2,9x2,27x1,2x3", "5x2,25x2,125x1"])
def test_subset_classes_count_every_subset(spec):
    # two count vectors share a size and a dimension only across three
    # classes of powers of one base: (1, 0, 1) and (0, 2, 0) on 2, 4, 8
    # a cap below D, such as the state route's K, clips D_S to min(cap, D_S)
    profile = DimensionProfile.parse(spec)
    n = profile.n_parties
    for cap in (1, 5, 30, profile.total_dim):
        direct = Counter(
            (m, min(cap, prod(profile.dims[i] for i in subset)))
            for m in range(n + 1)
            for subset in itertools.combinations(range(n), m)
        )
        table = Counter()
        for m, d_s, ways in oracle._subset_classes(profile, cap):
            table[m, d_s] += ways
        assert table == direct
    assert len(table) < prod(len(parties) + 1 for _, parties in profile.classes)


def test_subset_classes_streams_the_last_class():
    # the whole (|S|, D_S) table of four classes once stayed in memory:
    # 12^4 entries here, 3.2 MB at peak, and 224 MB at the work cap
    profile = DimensionProfile.parse("2x11,3x11,4x11,5x11")
    tracemalloc.start()
    try:
        assert sum(ame_shadow_oracle(profile)) == 2**profile.n_parties
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_ame_shadow_oracle_keeps_no_memory():
    # a table of Krawtchouk rows cached per N would keep megabytes here
    profiles = [DimensionProfile.parse(f"3x1,2x{n}") for n in (300, 400)]
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for profile in profiles:
            assert sum(ame_shadow_oracle(profile)) == 2**profile.n_parties
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained < 1 << 20
