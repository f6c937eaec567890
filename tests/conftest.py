import pytest
from hypothesis import HealthCheck, settings

from kuniform.exact import GaussianRational
from kuniform.oracle import PureState, ghz_state, product_zero_state

settings.register_profile(
    "exact",
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("exact")


def _w_state(n_parties):
    """Single-excitation superposition; not 1-uniform, useful as a contrast."""
    amps = {}
    for i in range(n_parties):
        ket = [0] * n_parties
        ket[i] = 1
        amps[tuple(ket)] = GaussianRational.of(1)
    return PureState.from_amplitudes((2,) * n_parties, amps)


def _ame43_state():
    """The 2-uniform four-qutrit state sum |i, j, i+j, i+2j>."""
    amps = {}
    for i in range(3):
        for j in range(3):
            amps[(i, j, (i + j) % 3, (i + 2 * j) % 3)] = GaussianRational.of(1)
    return PureState.from_amplitudes((3, 3, 3, 3), amps)


@pytest.fixture
def tetracode():
    """The 2-uniform eight-qutrit state sum |a, b> over a, b in the ternary tetracode.

    The tetracode is the [4, 2, 3]_3 code spanned by (1, 0, 1, 1) and
    (0, 1, 1, 2); its nine words form an orthogonal array of strength 2
    (Goyeneche and Zyczkowski, *Genuinely multipartite entangled states
    and orthogonal arrays*, 2014), so the 81-ket state is 2-uniform.
    """
    code = [
        tuple((i * g + j * h) % 3 for g, h in zip((1, 0, 1, 1), (0, 1, 1, 2)))
        for i in range(3)
        for j in range(3)
    ]
    amps = {a + b: GaussianRational.of(1) for a in code for b in code}
    return PureState.from_amplitudes((3,) * 8, amps)


@pytest.fixture
def corpus():
    """Named reference states: GHZ and product states, the W state and the AME(4, 3) state."""
    states = []
    for d in (2, 3):
        for n in range(2, 7):
            states.append((f"ghz-n{n}-d{d}", ghz_state(n, d)))
    for n in (2, 3, 4):
        states.append((f"product-n{n}-d2", product_zero_state(n, 2)))
    states.append(("w3", _w_state(3)))
    states.append(("ame43", _ame43_state()))
    return tuple(states)
