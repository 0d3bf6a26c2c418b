"""Shared fixtures: seeded RNG and random-instance factories.

Random states are kept away from the spectrum floor so that tolerance
checks probe the algebra, not the clamping policy.
"""

import numpy as np
import pytest
from hypothesis import settings

settings.register_profile("suite", deadline=None, max_examples=50)
settings.load_profile("suite")


@pytest.fixture(autouse=True)
def cold_levels():
    """Start every test with an empty level memo (`gibbsfit.levels._memo`),
    so that a level a test builds is built cold, whatever ran before it."""
    from gibbsfit.levels import _memo
    _memo.cache_clear()


@pytest.fixture(autouse=True)
def cold_load():
    """Start every test with no kept dataset (`gibbsfit.dataio._last`), so
    that a command's first load parses its files, as in a fresh process."""
    import gibbsfit.dataio
    gibbsfit.dataio._last = (None, None)


@pytest.fixture
def rng():
    return np.random.default_rng(20260815)


def random_density(rng, dim: int, kind: str = "quantum", floor: float = 1e-3):
    """Full-rank density matrix with eigenvalues bounded below by floor."""
    p = rng.dirichlet(np.ones(dim))
    p = (1.0 - dim * floor) * p + floor
    if kind == "classical":
        from gibbsfit.state_space import DensityOperator
        return DensityOperator.classical(p)
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, _ = np.linalg.qr(a)
    from gibbsfit.state_space import DensityOperator
    return DensityOperator.quantum((q * p) @ q.conj().T)


def random_hermitian(rng, dim: int, scale: float = 1.0):
    from gibbsfit.state_space import HermitianOperator
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return HermitianOperator.from_matrix(scale * (a + a.conj().T) / 2)


def random_diagonal(rng, dim: int, scale: float = 1.0):
    from gibbsfit.state_space import HermitianOperator
    return HermitianOperator.from_diagonal(scale * rng.normal(size=dim))


def full_quantum_level(sigma):
    """The complete observable algebra at sigma: dim(level) = d^2, built
    from the d diagonal units and the real and imaginary off-diagonal
    pairs."""
    from gibbsfit.levels import make_level
    from gibbsfit.state_space import HermitianOperator
    dim = sigma.dim
    eye = np.eye(dim)
    gens = [HermitianOperator.from_diagonal(eye[k]) for k in range(dim)]
    for i in range(dim):
        for j in range(i + 1, dim):
            m = np.zeros((dim, dim), dtype=complex)
            m[i, j] = m[j, i] = 1.0
            gens.append(HermitianOperator.from_matrix(m))
            m = np.zeros((dim, dim), dtype=complex)
            m[i, j] = -1j
            m[j, i] = 1j
            gens.append(HermitianOperator.from_matrix(m))
    return make_level(gens, sigma, label="A")
