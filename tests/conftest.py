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
