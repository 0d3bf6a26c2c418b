import numpy as np
import pytest

from gibbsfit.errors import InfeasibleTargetError, ValidationError
from gibbsfit.gibbs import (
    BlochVector,
    _basis_targets,
    _metric_form,
    bloch_metric,
    gibbs_state,
    model_to_bloch,
    pauli_level,
    project,
    project_state,
    thermodynamic_entropy,
    volume_weight,
)
from gibbsfit.levels import make_level
from gibbsfit.state_space import (
    DensityOperator,
    expectation,
    relative_entropy,
    uniform_state,
    von_neumann_entropy,
)
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
        for a, idx in enumerate(lvl.retained):
            direct = expectation(model.state, lvl.generators[idx])
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
        gen_targets = np.array([expectation(rho, lvl.generators[i]) for i in lvl.retained])
        basis_targets = np.array([expectation(rho, op) for op in lvl.basis])
        m1 = project(lvl, _basis_targets(lvl, gen_targets))
        m2 = project(lvl, basis_targets)
        assert np.allclose(m1.lam, m2.lam, atol=1e-10)

    def test_project_rejects_wrong_target_count(self, rng):
        sigma = random_density(rng, 3, kind="classical")
        lvl = _random_level(rng, sigma, 1)
        with pytest.raises(ValidationError):
            project(lvl, [0.1, 0.2])


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
