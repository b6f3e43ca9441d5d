import numpy as np
import pytest
from hypothesis import settings

from ctcsim.distinguisher import StateSet, validate_state_set
from ctcsim.qlinalg import PureState

# Every property test draws the same examples on every run. conftest is
# imported before the test modules, so their @settings inherit this profile.
settings.register_profile("reproducible", derandomize=True)
settings.load_profile("reproducible")


def haar_state(rng: np.random.Generator, dim: int) -> PureState:
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return PureState.normalized(v)


def haar_state_set(rng: np.random.Generator, dim: int) -> StateSet:
    """Draw `dim` Haar-random states, retrying until they are pairwise distinct."""
    for _ in range(50):
        try:
            return validate_state_set([haar_state(rng, dim) for _ in range(dim)])
        except ValueError:
            continue
    raise RuntimeError("could not draw a distinct state set")


def random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_density(rng: np.random.Generator, dim: int) -> np.ndarray:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = g @ g.conj().T
    return m / np.trace(m).real


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260809)
