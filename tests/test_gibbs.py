from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

import gibbsfit.gibbs
from gibbsfit.dataio import load, resolve_level
from gibbsfit.errors import InfeasibleTargetError, ValidationError
from gibbsfit.gibbs import (
    BlochVector,
    _basis_targets,
    _closed_form,
    _log_norm,
    _metric_form,
    _moments,
    _newton_step,
    bloch_metric,
    gibbs_state,
    model_to_bloch,
    pauli_level,
    project,
    project_state,
    thermodynamic_entropy,
    volume_weight,
)
from gibbsfit.levels import _views, make_level
from gibbsfit.state_space import (
    EIG_FLOOR,
    DensityOperator,
    HermitianOperator,
    expectation,
    pauli_z,
    relative_entropy,
    uniform_state,
    von_neumann_entropy,
)
from perfbench.workloads import quantum_full
from conftest import random_density, random_diagonal, random_hermitian
from oracles import (
    bloch_from_lambdas,
    bloch_log_norm,
    bloch_relative_entropy,
    bloch_state,
    bloch_to_model,
    bloch_volume_weight,
    lambdas_from_bloch,
    manifold_relative_entropy,
)


def _random_level(rng, sigma, k):
    if sigma.is_classical:
        ops = [random_diagonal(rng, sigma.dim) for _ in range(k)]
    else:
        ops = [random_hermitian(rng, sigma.dim) for _ in range(k)]
    return make_level(ops, sigma)


def _complete_level(rng, kind, reference, dim):
    """A level spanning every operator its manifold can vary: d - 1 random
    diagonals at a classical reference, else d^2 - 1 random Hermitian
    generators; the reference uniform, random (complex eigenvectors when
    quantum) or, for a quantum level, a random classical one."""
    if reference == "uniform":
        sigma = (DensityOperator.classical(np.full(dim, 1.0 / dim))
                 if kind == "classical" else uniform_state(dim))
    else:
        sigma = random_density(rng, dim, "classical" if reference == "diagonal" else kind)
    if kind == "classical":
        level = make_level([random_diagonal(rng, dim) for _ in range(dim - 1)], sigma)
        assert level.n_params == dim - 1
    else:
        level = make_level([random_hermitian(rng, dim) for _ in range(dim * dim - 1)], sigma)
        assert level.n_params == dim * dim - 1
    return level


def _solve_from_reference(level, t):
    """project with the closed-form start switched off: Newton from lam = 0."""
    with mock.patch.object(gibbsfit.gibbs, "_closed_form", return_value=None):
        return project(level, t)


class TestGibbsState:
    def test_zero_multipliers_reproduce_reference(self, rng):
        for kind in ("classical", "quantum"):
            sigma = random_density(rng, 4, kind=kind)
            lvl = _random_level(rng, sigma, 2)
            model = gibbs_state(lvl, np.zeros(2))
            assert np.allclose(model.state.matrix, sigma.matrix, atol=1e-12)
            assert model.ln_z == pytest.approx(von_neumann_entropy(sigma), abs=1e-12)

    def test_expectations_match_gradient(self, rng):
        sigma = random_density(rng, 3)
        lvl = _random_level(rng, sigma, 2)
        model = gibbs_state(lvl, [0.4, -0.7])
        for gk, op in zip(model.g, lvl.basis):
            assert expectation(model.state, op) == pytest.approx(gk, abs=1e-10)

    def test_gradient_of_log_norm_finite_difference(self, rng):
        sigma = random_density(rng, 3)
        lvl = _random_level(rng, sigma, 2)
        lam = np.array([0.3, -0.2])
        model = gibbs_state(lvl, lam)
        eps = 1e-6
        for b in range(2):
            dlam = np.zeros(2)
            dlam[b] = eps
            plus = gibbs_state(lvl, lam + dlam).ln_z
            minus = gibbs_state(lvl, lam - dlam).ln_z
            fd = (plus - minus) / (2 * eps)
            assert -fd == pytest.approx(model.g[b], rel=1e-6, abs=1e-8)

    def test_hessian_of_log_norm_finite_difference(self, rng):
        sigma = random_density(rng, 3, kind="classical")
        lvl = _random_level(rng, sigma, 2)
        lam = np.array([0.2, 0.5])
        model = gibbs_state(lvl, lam)
        eps = 1e-5
        for b in range(2):
            dlam = np.zeros(2)
            dlam[b] = eps
            gp = gibbs_state(lvl, lam + dlam).g
            gm = gibbs_state(lvl, lam - dlam).g
            fd = -(gp - gm) / (2 * eps)
            assert np.allclose(fd, model.corr[:, b], rtol=1e-4, atol=1e-7)

    def test_generator_expectations_and_multipliers_consistent(self, rng):
        sigma = random_density(rng, 4, kind="classical")
        lvl = _random_level(rng, sigma, 2)
        model = gibbs_state(lvl, [0.3, 0.1])
        gen_means = model.generator_expectations()
        ops = _views(lvl.generators)
        for a, idx in enumerate(lvl.retained):
            direct = expectation(model.state, ops[idx])
            assert gen_means[a] == pytest.approx(direct, abs=1e-10)
        mu = model.generator_multipliers()
        assert np.allclose(lvl.gen_coeffs.T @ mu, model.lam, atol=1e-12)


class TestProjection:
    def test_projection_matches_targets(self, rng):
        sigma = random_density(rng, 4)
        lvl = _random_level(rng, sigma, 3)
        rho = random_density(rng, 4)
        model = project_state(lvl, rho)
        for op, gk in zip(lvl.basis, model.g):
            assert expectation(rho, op) == pytest.approx(gk, abs=1e-9)

    def test_projection_idempotent(self, rng):
        sigma = random_density(rng, 3)
        lvl = _random_level(rng, sigma, 2)
        rho = random_density(rng, 3)
        once = project_state(lvl, rho)
        twice = project_state(lvl, once.state)
        assert np.allclose(once.lam, twice.lam, atol=1e-9)

    def test_projection_composition(self, rng):
        # projecting through a finer level equals projecting directly
        sigma = random_density(rng, 4, kind="classical")
        ops = [random_diagonal(rng, 4) for _ in range(3)]
        fine = make_level(ops, sigma)
        coarse = make_level(ops[:1], sigma)
        rho = random_density(rng, 4, kind="classical")
        via = project_state(coarse, project_state(fine, rho).state)
        direct = project_state(coarse, rho)
        assert np.allclose(via.lam, direct.lam, atol=1e-9)

    def test_pythagoras(self, rng):
        sigma = random_density(rng, 3)
        lvl = _random_level(rng, sigma, 2)
        rho = random_density(rng, 3)
        pi = project_state(lvl, rho)
        lhs = relative_entropy(rho, sigma)
        rhs = relative_entropy(rho, pi.state) + relative_entropy(pi.state, sigma)
        assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_infeasible_target_raises(self, rng):
        sigma = uniform_state(2)
        lvl = pauli_level(sigma)
        with pytest.raises(InfeasibleTargetError):
            project(lvl, [0.0, 0.0, 1.5])

    def test_generator_vs_basis_coordinates(self, rng):
        sigma = random_density(rng, 4, kind="classical")
        lvl = _random_level(rng, sigma, 2)
        rho = random_density(rng, 4, kind="classical")
        ops = _views(lvl.generators)
        gen_targets = np.array([expectation(rho, ops[i]) for i in lvl.retained])
        basis_targets = np.array([expectation(rho, op) for op in lvl.basis])
        m1 = project(lvl, _basis_targets(lvl, gen_targets))
        m2 = project(lvl, basis_targets)
        assert np.allclose(m1.lam, m2.lam, atol=1e-10)

    def test_project_rejects_wrong_target_count(self, rng):
        sigma = random_density(rng, 3, kind="classical")
        lvl = _random_level(rng, sigma, 1)
        with pytest.raises(ValidationError):
            project(lvl, [0.1, 0.2])


class TestReferenceStart:
    # project starts Newton at lam = 0 with g = 0, C = I and ln Z = S(sigma)
    # taken as known: the level's basis is centered and orthonormal at its
    # reference, and pi(0) is the reference itself
    @given(dim=st.integers(2, 5), kind=st.sampled_from(["classical", "quantum"]),
           reference=st.sampled_from(["uniform", "random", "floored"]),
           diagonal=st.booleans(), data=st.data())
    def test_basis_is_centered_and_orthonormal_at_reference(
            self, dim, kind, reference, diagonal, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        if reference == "uniform":
            p = np.full(dim, 1.0 / dim)
        else:
            p = rng.dirichlet(np.ones(dim)) * 0.98 + 0.02 / dim
        # a floored reference keeps at least two weights above the floor
        kept = dim
        if reference == "floored" and dim > 2:
            kept = data.draw(st.integers(2, dim - 1), label="kept")
            p[kept:] = EIG_FLOOR * 1e-2 * rng.random(dim - kept)
            p /= p.sum()
        if kind == "classical":
            sigma = DensityOperator.classical(p)
        else:
            q, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
            sigma = DensityOperator.quantum((q * p) @ q.conj().T)
        diagonal = diagonal and sigma.is_classical
        # directions that only weights below the floor resolve carry rounding
        # amplified by up to 1/sqrt(EIG_FLOOR); the generators stay within
        # the directions the weights above it resolve
        resolved = kept - 1 if diagonal else dim * dim - (dim - kept) ** 2 - 1
        k = data.draw(st.integers(1, min(resolved, 4)), label="k")
        draw = random_diagonal if diagonal else random_hermitian
        gens = [draw(rng, dim) for _ in range(k)]
        # dependent: a repeat, and a combination with the identity
        dep = HermitianOperator.from_matrix(
            2.0 * gens[0].matrix - gens[-1].matrix + 0.5 * np.eye(dim))
        level = make_level([*gens, gens[0], dep], sigma)
        assert level.n_params == k
        # rounding in the centering and in Gram-Schmidt grows as a generator
        # nears the identity or the span of the earlier ones: by its size
        # over the norm it keeps, the diagonal of gen_coeffs (1 or so for
        # most draws, up to 1e6 for a few)
        size = np.max(np.abs(level.generators[list(level.retained)]))
        tol = 1e-12 * max(1.0, size / np.min(np.abs(np.diag(level.gen_coeffs))))
        g, corr = _moments(sigma, level)
        assert np.max(np.abs(g)) <= tol
        assert np.max(np.abs(corr - np.eye(k))) <= tol
        ln_z = _log_norm(level)(np.zeros(k))[0]
        assert abs(ln_z - von_neumann_entropy(sigma)) <= 1e-12
        # targets at the reference: nothing to solve, and pi(0) is sigma
        assert project(level, np.zeros(k)).state is sigma

    @pytest.mark.parametrize("kind", ["classical", "quantum"])
    def test_complete_level_at_reference(self, rng, monkeypatch, kind):
        # targets met at the reference: the closed form is not computed
        level = _complete_level(rng, kind, "random", 3)

        def refuse(*args):
            raise AssertionError("closed form computed at the reference")

        monkeypatch.setattr(gibbsfit.gibbs, "_closed_form", refuse)
        assert project(level, np.zeros(level.n_params)).state is level.sigma

    def test_moments_once_per_accepted_step(self, monkeypatch):
        # g and C are computed at each accepted point and nowhere else: not at
        # lam = 0, where the basis fixes them, and not at a trial point the
        # line search rejects, whose Armijo test reads ln Z alone
        # one fixed real rotation of a diagonal sigma and generator keeps
        # them off the outcome basis, so the solve takes the eigh path
        rot, _ = np.linalg.qr(np.array([[1.0, 2.0, 0.0], [0.0, 1.0, 3.0], [2.0, 0.0, 1.0]]))
        sigma = DensityOperator.quantum(rot @ np.diag([0.98, 0.01, 0.01]) @ rot.T)
        level = make_level([HermitianOperator.from_matrix(
            rot @ np.diag([0.0, 0.0, 1.0]) @ rot.T)], sigma)
        counts = Counter()
        at = []

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        def moments(p, v, stack):
            at.append(np.array(p))
            return kmb_moments(p, v, stack)

        kmb_moments = gibbsfit.gibbs._kmb_moments
        monkeypatch.setattr(gibbsfit.gibbs, "_kmb_moments", counting("moments", moments))
        monkeypatch.setattr(gibbsfit.gibbs, "_newton_step",
                            counting("steps", gibbsfit.gibbs._newton_step))
        monkeypatch.setattr(np.linalg, "eigh", counting("spectra", np.linalg.eigh))
        # the rare outcome's basis value is about 10: the first full step
        # to this far target overshoots, and the line search halves it
        model = project(level, [3.0])
        assert model.g == pytest.approx([3.0], abs=1e-9)
        assert counts["spectra"] > counts["steps"]
        assert counts["moments"] == counts["steps"]
        assert not any(np.allclose(p, sigma.eigenvalues) for p in at)
        assert np.array_equal(at[-1], model.state.eigenvalues)


class TestClosedFormStart:
    # on a complete level project starts Newton at the closed-form
    # multipliers, which the residual test accepts
    @given(kind=st.sampled_from(["classical", "quantum"]),
           reference=st.sampled_from(["uniform", "random", "diagonal"]), data=st.data())
    def test_matches_newton_from_reference(self, kind, reference, data):
        dim = data.draw(st.integers(2, 6 if kind == "classical" else 5), label="dim")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        level = _complete_level(rng, kind, reference, dim)
        t, _ = _moments(random_density(rng, dim, kind), level)
        assert _closed_form(level, t) is not None
        got, want = project(level, t), _solve_from_reference(level, t)
        # Newton from the reference stops once |g - t| <= 1e-10 (1 + |t|),
        # an error that C^-1 magnifies in lam; one more step leaves rounding
        want = gibbs_state(level, want.lam + _newton_step(want.corr, t - want.g))
        for a, b in ((got.lam, want.lam), (got.g, want.g)):
            assert np.max(np.abs(a - b)) <= 1e-8 * max(1.0, float(np.max(np.abs(b))))

    @pytest.mark.parametrize("kind, reference, dim", [
        ("classical", "random", 6), ("quantum", "random", 4), ("quantum", "diagonal", 3)])
    def test_no_newton_step(self, rng, monkeypatch, kind, reference, dim):
        level = _complete_level(rng, kind, reference, dim)
        t, _ = _moments(random_density(rng, dim, kind), level)
        steps = []

        def counting(*args):
            steps.append(args)
            return newton_step(*args)

        newton_step = gibbsfit.gibbs._newton_step
        monkeypatch.setattr(gibbsfit.gibbs, "_newton_step", counting)
        project(level, t)
        assert steps == []

    @pytest.mark.parametrize("kind", ["classical", "quantum"])
    def test_target_without_positive_state_takes_newton_path(self, rng, kind):
        # a target state with an eigenvalue <= 0 has no closed form: the
        # solve from the reference runs as it would without one
        dim = 3
        level = _complete_level(rng, kind, "random", dim)
        p = np.array([0.7, 0.4, -0.1])
        if kind == "classical":
            t = level.stack @ p
        else:
            q, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
            t = np.real(np.einsum("bij,ji->b", level.stack, (q * p) @ q.conj().T))
        assert _closed_form(level, t) is None
        errors = []
        for solve in (project, _solve_from_reference):
            with pytest.raises(InfeasibleTargetError) as exc:
                solve(level, t)
            errors.append(str(exc.value))
        assert errors[0] == errors[1]

    def test_level_not_complete(self, rng):
        sigma = random_density(rng, 3)
        level = make_level([random_hermitian(rng, 3) for _ in range(7)], sigma)
        t, _ = _moments(random_density(rng, 3), level)
        assert _closed_form(level, t) is None


class TestGeometry:
    def test_manifold_relative_entropy_matches_direct(self, rng):
        sigma = random_density(rng, 3)
        lvl = _random_level(rng, sigma, 2)
        a = gibbs_state(lvl, [0.2, -0.1])
        b = gibbs_state(lvl, [-0.3, 0.4])
        want = relative_entropy(a.state, b.state)
        assert manifold_relative_entropy(a, b) == pytest.approx(want, abs=1e-10)

    def test_metric_form_is_metric_square(self, rng):
        sigma = random_density(rng, 3, kind="classical")
        lvl = _random_level(rng, sigma, 2)
        model = gibbs_state(lvl, [0.1, 0.2])
        delta = np.array([0.03, -0.04])
        want = float(delta @ np.linalg.solve(model.corr, delta))
        assert _metric_form(model.corr, delta) == pytest.approx(want, rel=1e-12)

    def test_thermodynamic_entropy_equals_von_neumann_at_uniform(self, rng):
        sigma = uniform_state(3)
        lvl = _random_level(rng, sigma, 2)
        model = gibbs_state(lvl, [0.4, 0.3])
        assert thermodynamic_entropy(model) == pytest.approx(
            von_neumann_entropy(model.state), abs=1e-10)

    def test_thermodynamic_entropy_general_reference(self, rng):
        # ln Z + lam.g = S(sigma) - S(pi||sigma) for any reference
        sigma = random_density(rng, 3)
        lvl = _random_level(rng, sigma, 2)
        model = gibbs_state(lvl, [0.4, 0.3])
        want = von_neumann_entropy(sigma) - relative_entropy(model.state, sigma)
        assert thermodynamic_entropy(model) == pytest.approx(want, abs=1e-10)

    def test_projection_unitary_covariance(self, rng):
        sigma = random_density(rng, 3)
        ops = [random_hermitian(rng, 3) for _ in range(2)]
        rho = random_density(rng, 3)
        a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        u, _ = np.linalg.qr(a)
        lvl = make_level(ops, sigma)
        plain = project_state(lvl, rho).state.matrix
        sig_u = DensityOperator.quantum(u @ sigma.matrix @ u.conj().T)
        rho_u = DensityOperator.quantum(u @ rho.matrix @ u.conj().T)
        lvl_u = make_level([u @ op.matrix @ u.conj().T for op in ops], sig_u)
        rotated = project_state(lvl_u, rho_u).state.matrix
        assert np.max(np.abs(rotated - u @ plain @ u.conj().T)) < 1e-9

    def test_entropy_differential(self, rng):
        # dS = sum_b lambda_b dg_b along a multiplier perturbation
        sigma = random_density(rng, 3, kind="classical")
        lvl = _random_level(rng, sigma, 2)
        lam = np.array([0.3, -0.2])
        eps = 1e-6
        direction = np.array([1.0, 0.7])
        plus = gibbs_state(lvl, lam + eps * direction)
        minus = gibbs_state(lvl, lam - eps * direction)
        ds = thermodynamic_entropy(plus) - thermodynamic_entropy(minus)
        mid = gibbs_state(lvl, lam)
        want = float(mid.lam @ (plus.g - minus.g))
        assert ds == pytest.approx(want, rel=1e-5)

    def test_volume_weight_is_sqrt_det(self, rng):
        sigma = random_density(rng, 3, kind="classical")
        lvl = _random_level(rng, sigma, 2)
        model = gibbs_state(lvl, [0.2, 0.1])
        assert volume_weight(model) == pytest.approx(
            np.sqrt(np.linalg.det(model.corr)), rel=1e-10)


class TestCholeskySolves:
    @given(k=st.integers(1, 64), log_cond=st.floats(0.0, 10.0),
           seed=st.integers(0, 2**32 - 1))
    def test_match_dense_solve(self, k, log_cond, seed):
        rng = np.random.default_rng(seed)
        q, _ = np.linalg.qr(rng.normal(size=(k, k)))
        corr = (q * np.logspace(0.0, -log_cond, k)) @ q.T
        corr = 0.5 * (corr + corr.T)
        grad = rng.normal(size=k)
        # any two backward-stable solves differ by up to about cond * eps
        # (2e-6 at cond 1e10), so 1e-10 binds only up to cond ~ 1e5
        rel = 1e-10 + np.finfo(float).eps * np.linalg.cond(corr)
        step = _newton_step(corr, grad)
        want = np.linalg.solve(corr, -grad)
        assert np.max(np.abs(step - want)) <= rel * np.max(np.abs(want))
        assert _metric_form(corr, grad) == pytest.approx(
            float(grad @ np.linalg.solve(corr, grad)), rel=rel, abs=0.0)
        # the residual is small whatever the conditioning
        resid = np.linalg.norm(corr @ step + grad)
        assert resid <= 1e-12 * np.linalg.norm(corr, 2) * np.linalg.norm(step)

    def test_indefinite_matrix_raises(self):
        corr = np.array([[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(np.linalg.LinAlgError):
            _metric_form(corr, np.array([1.0, 0.0]))
        with pytest.raises(np.linalg.LinAlgError):
            _newton_step(corr, np.array([1.0, 0.0]))


class TestClassicalQuantumAgreement:
    def test_diagonal_problem_same_answers(self, rng):
        p = rng.dirichlet(np.ones(4)) * 0.9 + 0.025
        vals = [rng.normal(size=4) for _ in range(2)]
        sc = DensityOperator.classical(p)
        sq = DensityOperator.quantum(np.diag(p).astype(complex))
        lam = np.array([0.35, -0.15])
        mc = gibbs_state(make_level([np.asarray(v) for v in vals], sc), lam)
        mq = gibbs_state(make_level([np.diag(v).astype(complex) for v in vals], sq), lam)
        assert abs(mc.ln_z - mq.ln_z) <= 1e-12
        assert np.max(np.abs(mc.g - mq.g)) <= 1e-12
        assert np.max(np.abs(mc.corr - mq.corr)) <= 1e-12


def _eigh_path(monkeypatch):
    """Send every quantum state off the vector path: the eigh solve the
    vector path replaces."""
    vector_probs = gibbsfit.gibbs._vector_probs
    monkeypatch.setattr(gibbsfit.gibbs, "_vector_probs", lambda state, stack: (
        vector_probs(state, stack) if state.is_classical else None))


class TestDiagonalQuantumReference:
    # a diagonal level at a quantum reference diagonal in the outcome basis
    # fits on vectors, as at the classical reference with the same weights,
    # and returns a quantum state
    @given(dim=st.integers(2, 6), data=st.data())
    def test_matches_classical_and_eigh_fits(self, dim, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        perm = np.array(data.draw(st.permutations(range(dim)), label="perm"))
        # distinct, unsorted weights: sigma's eigenvectors permute the
        # outcomes by neither the identity nor its reverse (d > 2)
        assume(dim == 2 or not (np.array_equal(perm, np.arange(dim))
                                or np.array_equal(perm, np.arange(dim)[::-1])))
        w = np.sort(rng.dirichlet(np.ones(dim)) * 0.9 + 0.1 / dim)[::-1]
        assume(np.all(np.diff(w) < -1e-3))
        p = np.empty(dim)
        p[perm] = w
        sigma = DensityOperator.quantum(np.diag(p))
        assert np.array_equal(sigma.permutation, perm)
        k = data.draw(st.integers(1, dim - 1), label="k")
        gens = [random_diagonal(rng, dim) for _ in range(k)]
        level = make_level(gens, sigma)
        classical = make_level(gens, DensityOperator.classical(p))
        t = level.stack @ random_density(rng, dim, "classical").probs
        got, want = project(level, t), project(classical, t)
        for a, b in ((got.lam, want.lam), (got.g, want.g), (got.ln_z, want.ln_z)):
            assert np.max(np.abs(a - b)) <= 1e-10 * max(1.0, float(np.max(np.abs(b))))
        assert not got.state.is_classical
        assert np.all(np.diff(got.state.eigenvalues) <= 0)
        assert got.state.permutation is not None
        assert np.allclose(np.diag(got.state.matrix), want.state.probs, rtol=1e-10, atol=0)
        with pytest.MonkeyPatch.context() as mp:
            _eigh_path(mp)
            eigh = project(level, t)
        # Newton from the reference stops once |g - t| <= 1e-10 (1 + |t|),
        # an error that C^-1 magnifies in lam; one more step leaves rounding
        eigh = gibbs_state(level, eigh.lam + _newton_step(eigh.corr, t - eigh.g))
        for a, b in ((got.lam, eigh.lam), (got.g, eigh.g), (got.ln_z, eigh.ln_z)):
            assert np.max(np.abs(a - b)) <= 1e-8 * max(1.0, float(np.max(np.abs(b))))

    @pytest.mark.parametrize("case", ["quantum-full-diag", "qubit-ising"])
    def test_complete_level_runs_no_newton_step_and_no_eigh(
            self, tmp_path, monkeypatch, case):
        if case == "quantum-full-diag":
            ds = quantum_full(tmp_path, seed=1, index=0, dim=6)
            loaded, _ = load(ds.paths["data"])
            level = resolve_level(loaded, "diag")
            t = loaded.data.means_for(level)
        else:
            level = make_level([pauli_z()], uniform_state(2))
            t = np.array([0.7289995603708389])
        counts = Counter()

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(gibbsfit.gibbs, "_newton_step",
                            counting("steps", gibbsfit.gibbs._newton_step))
        monkeypatch.setattr(np.linalg, "eigh", counting("eigh", np.linalg.eigh))
        model = project(level, t)
        assert counts == Counter()
        assert np.max(np.abs(model.g - t)) <= 1e-10
        assert not model.state.is_classical


class TestBloch:
    @pytest.mark.parametrize("r", [0.1, 0.5, 0.9])
    @pytest.mark.parametrize("theta", [0.0, np.pi / 4, np.pi / 2])
    def test_closed_forms_match_generic_solver(self, r, theta):
        phi = 0.6
        vec = BlochVector(r, theta, phi)
        sigma = uniform_state(2)
        lvl = pauli_level(sigma)
        rho = bloch_state(r, theta, phi)
        generic = project_state(lvl, rho)
        closed = bloch_to_model(vec)
        assert np.allclose(generic.lam, closed.lam, atol=1e-8)
        assert closed.ln_z == pytest.approx(generic.ln_z, abs=1e-8)
        assert bloch_log_norm(vec) == pytest.approx(generic.ln_z, abs=1e-8)

    def test_lambda_bloch_roundtrip(self):
        vec = BlochVector(0.73, 0.3, 1.2)
        lam = lambdas_from_bloch(vec)
        back = bloch_from_lambdas(lam)
        assert back.r == pytest.approx(vec.r, abs=1e-12)
        assert back.theta == pytest.approx(vec.theta, abs=1e-12)
        assert back.phi == pytest.approx(vec.phi, abs=1e-12)

    def test_model_to_bloch_inverse_of_bloch_to_model(self):
        vec = BlochVector(0.4, 1.0, 2.0)
        back = model_to_bloch(bloch_to_model(vec))
        assert back.r == pytest.approx(vec.r, abs=1e-10)

    def test_relative_entropy_closed_form(self):
        a = BlochVector(0.5, 0.2, 0.1)
        b = BlochVector(0.7, 0.9, -0.4)
        want = relative_entropy(bloch_state(a.r, a.theta, a.phi), bloch_state(b.r, b.theta, b.phi))
        assert bloch_relative_entropy(a, b) == pytest.approx(want, abs=1e-10)

    def test_metric_matches_quadratic_form_locally(self):
        # small displacement in theta: metric quadratic vs 2 S(a||b)
        r, theta, phi = 0.73, 0.8, 0.0
        eps = 1e-4
        a = BlochVector(r, theta, phi)
        b = BlochVector(r, theta + eps, phi)
        quad = float(bloch_metric(a)[1, 1]) * eps * eps
        assert 2.0 * bloch_relative_entropy(b, a) == pytest.approx(quad, rel=1e-3)

    def test_volume_weight_closed_form(self):
        vec = BlochVector(0.6, 0.7, 0.3)
        sigma = uniform_state(2)
        lvl = pauli_level(sigma)
        model = project_state(lvl, bloch_state(vec.r, vec.theta, vec.phi))
        # generic weight is in lambda coordinates; convert by the Jacobian
        # of (r,theta,phi) -> lambda, evaluated as det(metric)^(1/2) ratio
        want = bloch_volume_weight(vec)
        got = np.sqrt(np.linalg.det(bloch_metric(vec)))
        assert want == pytest.approx(got, rel=1e-10)
