"""The eigenframe moment kernel against the scalar Kubo-Mori loop, and the
posterior covariance of unmeasured directions that it serves."""

import ast
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from gibbsfit.gibbs import pauli_level, project, project_state
from gibbsfit.inference import EntropicPrior, ExperimentData, posterior_estimate
from gibbsfit.levels import make_level
from gibbsfit.state_space import (
    KMB_DEGENERATE_TOL,
    DensityOperator,
    HermitianOperator,
    _kmb_moments,
    expectation,
    pauli_z,
    uniform_state,
)
from conftest import full_quantum_level, random_density, random_diagonal, random_hermitian
from oracles import kmb_inner

DIMS = [2, 3, 4, 6]
TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "gibbsfit"
# every module a file in tests/ can be imported as: tests/ is on sys.path
TEST_MODULES = {"tests", *(p.stem for p in TESTS.glob("*.py"))}


def loop_moments(state, ops):
    """Reference: g_a = tr(state B_a) and C_ab = kmb_inner of the centered
    pair, one scalar call per entry of the upper triangle."""
    g = np.array([expectation(state, op) for op in ops])
    centered = [HermitianOperator.from_matrix(op.matrix - ga * np.eye(op.dim), atol=1e-9)
                for op, ga in zip(ops, g)]
    k = len(ops)
    c = np.zeros((k, k))
    for i in range(k):
        for j in range(i, k):
            c[i, j] = c[j, i] = kmb_inner(state, centered[i], centered[j])
    return g, c


def assert_kernel_matches_loop(state, ops):
    d = state.dim
    stack = np.array([op.matrix for op in ops], dtype=complex).reshape(len(ops), d, d)
    g, c = _kmb_moments(state.eigenvalues, state.eigenvectors, stack)
    g_ref, c_ref = loop_moments(state, ops)
    assert g.shape == g_ref.shape and c.shape == c_ref.shape
    tol = 1e-12 * np.linalg.norm(c_ref)
    assert np.max(np.abs(g - g_ref), initial=0.0) <= tol
    assert np.max(np.abs(c - c_ref), initial=0.0) <= tol


def _generators(rng, dim, k, kind):
    if kind == "dense":
        return [random_hermitian(rng, dim) for _ in range(k)]
    if kind == "diagonal":
        return [random_diagonal(rng, dim) for _ in range(k)]
    return [random_hermitian(rng, dim) if i % 2 else random_diagonal(rng, dim)
            for i in range(k)]


class TestKernelOracle:
    @given(dim=st.sampled_from(DIMS), k=st.integers(0, 10),
           state_kind=st.sampled_from(["quantum", "classical"]),
           gen_kind=st.sampled_from(["dense", "diagonal", "mixed"]),
           seed=st.integers(0, 2**32 - 1))
    def test_random_full_rank_states(self, dim, k, state_kind, gen_kind, seed):
        rng = np.random.default_rng(seed)
        state = random_density(rng, dim, kind=state_kind)
        assert_kernel_matches_loop(state, _generators(rng, dim, k, gen_kind))

    @given(dim=st.sampled_from(DIMS), gap=st.floats(0.0, 0.5 * KMB_DEGENERATE_TOL),
           gen_kind=st.sampled_from(["dense", "diagonal", "mixed"]),
           seed=st.integers(0, 2**32 - 1))
    def test_near_degenerate_spectrum(self, dim, gap, gen_kind, seed):
        rng = np.random.default_rng(seed)
        p = 0.9 * rng.dirichlet(np.ones(dim)) + 0.1 / dim
        p[1] = p[0] * np.exp(gap)
        p /= p.sum()
        # the pair sits in the averaged-limit branch of the weights
        assert abs(np.log(p[0]) - np.log(p[1])) < KMB_DEGENERATE_TOL
        q, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
        state = DensityOperator._from_spectrum(p, q)
        assert_kernel_matches_loop(state, _generators(rng, dim, 4, gen_kind))

    @pytest.mark.parametrize("k", [0, 1])
    @pytest.mark.parametrize("dim", DIMS)
    def test_empty_and_single_basis(self, rng, dim, k):
        state = random_density(rng, dim)
        assert_kernel_matches_loop(state, _generators(rng, dim, k, "dense"))


class TestBasisStack:
    def test_stack_is_the_basis_read_only_and_cached(self, rng):
        sigma = random_density(rng, 3)
        lvl = make_level([random_hermitian(rng, 3) for _ in range(3)], sigma)
        stack = lvl.basis_stack
        assert stack.shape == (3, 3, 3)
        assert all(np.array_equal(s, b.matrix) for s, b in zip(stack, lvl.basis))
        assert not stack.flags.writeable
        assert lvl.basis_stack is stack
        assert make_level([], sigma).basis_stack.shape == (0, 3, 3)

    def test_classical_path_never_builds_the_stack(self, rng):
        sigma = random_density(rng, 5, kind="classical")
        lvl = make_level([random_diagonal(rng, 5) for _ in range(2)], sigma)
        project_state(lvl, random_density(rng, 5, kind="classical"))
        assert "basis_stack" not in vars(lvl)


def _qubit_z_posterior(alpha):
    """Data measure Z only; the prior level is the whole spin level, so X
    and Y form the unmeasured complement."""
    sigma = uniform_state(2)
    data = ExperimentData(level=make_level([pauli_z()], sigma),
                          means=np.array([0.3]), n=400.0)
    prior = EntropicPrior(level=pauli_level(), alpha=alpha)
    return posterior_estimate(data, prior)


class TestUnmeasuredCovariance:
    def test_value_is_complement_gram_over_alpha(self):
        post = _qubit_z_posterior(alpha=50.0)
        assert post.unmeasured.n_params == 2
        _, gram = loop_moments(post.state, post.unmeasured.basis)
        err = np.max(np.abs(post.cov_unmeasured - gram / 50.0))
        assert err <= 1e-12 * np.linalg.norm(gram)
        # the tilted state narrows X and Y below their width at the reference
        assert np.all(np.linalg.eigvalsh(post.cov_unmeasured) < 1.0 / 50.0)

    def test_quantum_paths_make_no_scalar_kmb_calls(self, rng):
        # the scalar product exists only as the oracle in tests/oracles.py,
        # so no quantum path can call it: no package module binds it or
        # imports anything from tests/
        sigma = random_density(rng, 3)
        lvl = full_quantum_level(sigma)
        rho = random_density(rng, 3)
        project(lvl, [expectation(rho, op) for op in lvl.basis])
        post = _qubit_z_posterior(alpha=50.0)
        assert post.cov_unmeasured is not None
        loaded = [n for n in sys.modules if n.split(".")[0] == "gibbsfit"]
        assert {"gibbsfit.gibbs", "gibbsfit.inference"} <= set(loaded)
        assert [n for n in loaded if hasattr(sys.modules[n], "kmb_inner")] == []
        imports = {p.name: _test_imports(p.read_text()) for p in PACKAGE.glob("*.py")}
        assert {name: mods for name, mods in imports.items() if mods} == {}


def _test_imports(source: str) -> set[str]:
    """The modules of tests/ that the absolute imports of source name."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names & TEST_MODULES


def test_import_scan_names_test_modules_only():
    src = "import numpy\nfrom .levels import make_level\nfrom oracles import kmb_inner\n"
    assert _test_imports(src) == {"oracles"}
    src = "import tests.oracles\nfrom conftest import rng\n"
    assert _test_imports(src) == {"tests", "conftest"}
