"""The eigenframe moment kernel against the scalar Kubo-Mori loop, and the
posterior covariance of unmeasured directions that it serves."""

import ast
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from gibbsfit.gibbs import pauli_level, project, project_state
from gibbsfit.inference import EntropicPrior, ExperimentData, posterior_estimate
from gibbsfit.levels import full_classical_level, intersection, make_level
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

    @given(dim=st.sampled_from(DIMS), k=st.integers(0, 8),
           seed=st.integers(0, 2**32 - 1))
    # near-commuting draw: C is 4.7e-5 while g is about 0.6 and one ulp off
    @example(dim=2, k=1, seed=634)
    def test_diagonal_stack_at_quantum_states(self, dim, k, seed):
        # a (k, d) stack of diagonals gives the moments of its (k, d, d)
        # matrices without building them
        rng = np.random.default_rng(seed)
        state = random_density(rng, dim)
        ops = _generators(rng, dim, k, "diagonal")
        diagonals = np.array([op.diagonal for op in ops]).reshape(k, dim)
        g, c = _kmb_moments(state.eigenvalues, state.eigenvectors, diagonals)
        matrices = np.array([op.matrix for op in ops]).reshape(k, dim, dim)
        g_dense, c_dense = _kmb_moments(state.eigenvalues, state.eigenvectors, matrices)
        g_ref, c_ref = loop_moments(state, ops)
        # g is a mean of the generators, so its rounding scales with their
        # entries; C is a covariance, and its rounding with its own size
        g_tol = 1e-12 * max(1.0, float(np.max(np.abs(diagonals), initial=0.0)))
        c_tol = 1e-12 * np.linalg.norm(c_ref)
        for got, want, tol in ((g, g_dense, g_tol), (c, c_dense, c_tol),
                               (g, g_ref, g_tol), (c, c_ref, c_tol)):
            assert got.shape == want.shape
            assert np.max(np.abs(got - want), initial=0.0) <= tol

    @pytest.mark.parametrize("k", [0, 1])
    @pytest.mark.parametrize("dim", DIMS)
    def test_empty_and_single_basis(self, rng, dim, k):
        state = random_density(rng, dim)
        assert_kernel_matches_loop(state, _generators(rng, dim, k, "dense"))


class TestBasisStack:
    # a level holds its basis once, as one read-only stack; the basis
    # operators are views of its rows
    def test_stack_is_the_basis_read_only_and_cached(self, rng):
        cases = (("quantum", random_hermitian, (3, 3, 3)),
                 ("quantum", random_diagonal, (2, 3)),
                 ("classical", random_diagonal, (2, 3)))
        for reference, draw, shape in cases:
            sigma = random_density(rng, 3, kind=reference)
            lvl = make_level([draw(rng, 3) for _ in range(shape[0])], sigma)
            stack = lvl.stack
            assert stack.shape == shape and not stack.flags.writeable
            assert lvl.stack is stack
            for row, op in zip(stack, lvl.basis):
                view = op.diagonal if stack.ndim == 2 else op.matrix
                assert np.array_equal(row, view) and not view.flags.writeable
            assert make_level([], sigma).stack.shape == (0, 3)

    def test_classical_paths_build_no_matrix(self, rng):
        sigma = random_density(rng, 5, kind="classical")
        full = full_classical_level(sigma)
        lvl = make_level([random_diagonal(rng, 5) for _ in range(2)], sigma)
        project_state(lvl, random_density(rng, 5, kind="classical"))
        shared = intersection(full, lvl)
        assert shared.n_params == 2
        for level in (full, lvl, shared):
            assert level.stack.ndim == 2
            assert not any("matrix" in vars(op) for op in level.basis)


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
