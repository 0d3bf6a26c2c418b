import math

import numpy as np
import pytest

import gibbsfit.gibbs
import gibbsfit.inference
from hypothesis import given, strategies as st
from scipy import stats

from gibbsfit.errors import EvidenceNotApplicableError, ValidationError
from gibbsfit.gibbs import _metric_form, gibbs_state, project, project_state
from gibbsfit.inference import (
    DETAIL_MIN_DOF,
    EntropicPrior,
    ExperimentData,
    _gammainc_series,
    _log_gammaincc_cf,
    chi2_log_tail,
    chi2_logpdf,
    compare_levels,
    estimate_alpha,
    interpolate_states,
    level_significance,
    posterior_estimate,
    significance,
    verdict_from_rate,
)
from gibbsfit.levels import full_classical_level, make_level, trivial_level
from gibbsfit.state_space import (
    DensityOperator,
    HermitianOperator,
    _fix_phases,
    expectation,
    pauli_x,
    pauli_y,
    pauli_z,
    relative_entropy,
    uniform_state,
)
from conftest import random_density, random_diagonal, random_hermitian
from oracles import pythagoras_residual


def log_linear_mix(rho, sigma, t):
    """Oracle for interpolate_states: normalized exp[(1-t) ln rho + t ln sigma]
    for arbitrary states; for commuting diagonal states it reduces to the
    renormalized weighted geometric mean."""
    if rho.is_classical and sigma.is_classical:
        a = (1.0 - t) * np.log(rho.probs) + t * np.log(sigma.probs)
        a -= a.max()
        p = np.exp(a)
        return DensityOperator.classical(p / p.sum())
    ln_rho = (rho.eigenvectors * np.log(rho.eigenvalues)) @ rho.eigenvectors.conj().T
    ln_sig = (sigma.eigenvectors * np.log(sigma.eigenvalues)) @ sigma.eigenvectors.conj().T
    w, v = np.linalg.eigh((1.0 - t) * ln_rho + t * ln_sig)
    p = np.exp(w - w.max())
    p /= p.sum()
    return DensityOperator._from_spectrum(p[::-1].copy(), _fix_phases(v[:, ::-1]))


class TestChiSquare:
    @pytest.mark.parametrize("k", [1, 2, 5, 24])
    @pytest.mark.parametrize("x", [0.5, 3.0, 27.0, 96.0])
    def test_pdf_matches_scipy(self, x, k):
        assert np.exp(chi2_logpdf(x, k)) == pytest.approx(stats.chi2.pdf(x, k), rel=1e-12)
        assert chi2_logpdf(x, k) == pytest.approx(stats.chi2.logpdf(x, k), rel=1e-12)

    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_pdf_at_zero_is_the_limit(self, k):
        assert np.exp(chi2_logpdf(0.0, k)) == stats.chi2.pdf(0.0, k)
        assert significance(0.0, k, 100.0).pdf == stats.chi2.pdf(0.0, k)

    @pytest.mark.parametrize("k", [1, 2, 5, 24])
    @pytest.mark.parametrize("x", [0.5, 3.0, 27.0, 96.0])
    def test_tail_matches_scipy(self, x, k):
        assert np.exp(chi2_log_tail(x, k)) == pytest.approx(stats.chi2.sf(x, k), rel=1e-12)

    @pytest.mark.parametrize("x", [0.0, 1.0, 10.0, 100.0])
    def test_tail_k2_is_exponential(self, x):
        assert chi2_log_tail(x, 2) == pytest.approx(-x / 2, abs=1e-13)

    def test_log_tail_reaches_past_float_underflow(self):
        # scipy's logsf underflows to -inf near x ~ 1500; the log form keeps
        # going.  Oracle: asymptotic series of the upper incomplete gamma,
        # Q(a, z) ~ 2 pdf(x, k) [1 + (a-1)/z + (a-1)(a-2)/z^2 + ...]
        x, k = 4000.0, 5
        assert stats.chi2.logsf(x, k) == -np.inf
        a, z = k / 2.0, x / 2.0
        series = 1.0 + (a - 1) / z + (a - 1) * (a - 2) / z**2 \
            + (a - 1) * (a - 2) * (a - 3) / z**3
        want = np.log(2.0) + chi2_logpdf(x, k) + np.log(series)
        lt = chi2_log_tail(x, k)
        assert np.isfinite(lt)
        assert lt == pytest.approx(want, rel=1e-9)

    def test_log_tail_agrees_where_tail_representable(self):
        # the last case sits on the series/fraction switch at a million dof
        for x, k in [(30.0, 5), (200.0, 10), (500.0, 3), (1000002.0, 1000000)]:
            assert chi2_log_tail(x, k) == pytest.approx(stats.chi2.logsf(x, k), rel=1e-10)

    @given(k=st.integers(1, 2000), data=st.data())
    def test_tail_matches_scipy_everywhere(self, k, data):
        x = data.draw(st.one_of(st.floats(0.0, 1e4),
                                st.floats(0.0, 3.0).map(lambda r: r * k)), label="x")
        lt = chi2_log_tail(x, k)
        sf = stats.chi2.sf(x, k)
        if sf >= 1e-300:
            # scipy's own sf sums a ln z - z - ln Gamma(a) directly away from
            # z = a, and carries that sum's rounding: 1.8e-12 at k = 1843,
            # x = 2610 against a 50-digit reference, where this one is 3e-14
            a, z = 0.5 * k, 0.5 * x
            oracle = np.finfo(float).eps * (a * abs(math.log(z or 1.0)) + z
                                            + abs(math.lgamma(a)))
            assert math.exp(lt) == pytest.approx(sf, rel=1e-12 + oracle, abs=0.0)
        logsf = stats.chi2.logsf(x, k)
        if np.isfinite(logsf):
            # scipy's logsf reads 0 once P underflows (P = 1.5e-311 at k = 515,
            # x = 12.2); the value here keeps it
            assert lt == pytest.approx(logsf, rel=1e-10, abs=1e-300)

    @given(k=st.integers(1, 2000))
    def test_series_and_fraction_agree_at_the_switch(self, k):
        a = 0.5 * k
        below = math.log1p(-_gammainc_series(a, a + 1.0))
        assert below == pytest.approx(_log_gammaincc_cf(a, a + 1.0), rel=1e-13, abs=0.0)

    def test_far_tail_at_many_dof(self):
        # 50-digit reference; scipy's sf is 1.8e-12 relative off here
        assert chi2_log_tail(3317.0, 1843) == pytest.approx(
            -199.5773560233180819066, rel=1e-15, abs=0.0)

    def test_validation(self):
        with pytest.raises(ValidationError):
            chi2_logpdf(1.0, 0)
        with pytest.raises(ValidationError):
            chi2_logpdf(-1.0, 2)
        with pytest.raises(ValidationError):
            chi2_log_tail(5.0, -1)
        assert chi2_log_tail(-1.0, 3) == 0.0


class TestSignificanceOp:
    def test_flags_and_scales(self):
        rep = significance(271.0, 5, 20000)
        assert rep.significant
        assert rep.entropy_scale == pytest.approx(271.0 / 40000)
        assert 10.0 ** rep.log10_pdf == pytest.approx(rep.pdf, rel=1e-10)

    def test_insignificant_small_statistic(self):
        rep = significance(3.0, 5, 1000)
        assert not rep.significant
        assert rep.pvalue == pytest.approx(stats.chi2.sf(3.0, 5), rel=1e-10)

    def test_validation(self):
        with pytest.raises(ValidationError):
            significance(1.0, 2, 0)
        with pytest.raises(ValidationError):
            significance(1.0, 2, 100, sig_level=1.5)


def _classical_setup(rng, dim=6, k=2):
    sigma = random_density(rng, dim, kind="classical")
    full = make_level([np.eye(dim)[i] for i in range(dim)], sigma, label="full")
    sub = make_level([random_diagonal(rng, dim) for _ in range(k)], sigma)
    return sigma, full, sub


class TestExperimentData:
    def test_from_counts_means(self, rng):
        sigma, full, _ = _classical_setup(rng)
        counts = rng.integers(50, 500, size=6).astype(float)
        data = ExperimentData.from_counts(counts, full)
        freq = counts / counts.sum()
        emp = data.empirical
        assert np.allclose(emp.probs, freq)
        assert data.n == counts.sum()

    def test_means_for_counts_vs_linear_carry(self, rng):
        # with counts dropped, the sub-level means must come out identical
        # through the linear decomposition of the measured frame
        sigma, full, sub = _classical_setup(rng)
        counts = rng.integers(50, 500, size=6).astype(float)
        data = ExperimentData.from_counts(counts, full)
        linear_only = ExperimentData(level=full, means=data.means, n=data.n)
        assert np.allclose(data.means_for(sub), linear_only.means_for(sub), atol=1e-10)

    def test_means_length_validated(self, rng):
        sigma, full, _ = _classical_setup(rng)
        with pytest.raises(ValidationError):
            ExperimentData(level=full, means=np.zeros(2), n=100)

    def test_negative_n_rejected(self, rng):
        sigma, full, _ = _classical_setup(rng)
        with pytest.raises(ValidationError):
            ExperimentData(level=full, means=np.zeros(5), n=-1)

    @pytest.mark.parametrize("n", [float("nan"), float("inf")])
    def test_non_finite_n_rejected(self, rng, n):
        sigma, full, _ = _classical_setup(rng)
        with pytest.raises(ValidationError, match="finite"):
            ExperimentData(level=full, means=np.zeros(5), n=n)

    def test_non_finite_means_rejected(self, rng):
        sigma, full, _ = _classical_setup(rng)
        with pytest.raises(ValidationError, match="finite"):
            ExperimentData(level=full, means=[0.1, float("nan"), 0.0, 0.0, 0.0], n=10)

    def test_counts_mismatch_rejected(self, rng):
        sigma, full, _ = _classical_setup(rng)
        with pytest.raises(ValidationError):
            ExperimentData(level=full, means=np.zeros(5), n=10,
                           counts=np.array([5.0, 5.0]))

    @pytest.mark.parametrize("kind", ["diagonal", "dense"])
    def test_count_means_match_expectations(self, rng, kind):
        # the means of counts come as one product over the generators'
        # diagonals; each is the expectation at the frequency state
        sigma = random_density(rng, 5, kind="classical")
        draw = random_diagonal if kind == "diagonal" else random_hermitian
        measured = make_level([draw(rng, 5) for _ in range(4)], sigma)
        sub = make_level(measured.generators[:2], sigma)
        data = ExperimentData.from_counts(rng.integers(5, 50, size=5).astype(float), measured)
        want = [expectation(data.empirical, measured.generators[i]) for i in measured.retained]
        assert np.allclose(data.means, want, rtol=0, atol=1e-14)
        want = [expectation(data.empirical, op) for op in sub.basis]
        assert np.allclose(data.means_for(sub), want, rtol=0, atol=1e-13)

    @given(dim=st.integers(2, 4), reference=st.sampled_from(["classical", "quantum", "uniform"]),
           data=st.data())
    def test_means_for_carries_exact_expectations(self, dim, reference, data):
        # mean-only data holding the exact expectations of the measured
        # generators at a full-rank state give, for a level nested inside the
        # measured one, the expectations of its basis at that state
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        kind = "classical" if reference == "classical" else "quantum"
        sigma = uniform_state(dim) if reference == "uniform" else random_density(rng, dim, kind)
        draw = random_diagonal if kind == "classical" else random_hermitian
        max_params = dim - 1 if kind == "classical" else dim * dim - 1
        k = data.draw(st.integers(1, min(5, max_params)), label="k")
        measured = make_level([draw(rng, dim) for _ in range(k)], sigma)
        rho = random_density(rng, dim, kind)
        means = [expectation(rho, measured.generators[i]) for i in measured.retained]
        bare = ExperimentData(level=measured, means=means, n=100.0)
        # some of the measured generators, each rescaled and shifted by the
        # identity: a basis row keeps roundoff of its centring of about
        # 1e-16 * |generator| / |centred generator|, which the carry drops
        j = data.draw(st.integers(1, k), label="j")
        gens = [HermitianOperator.from_matrix(
            rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0) * measured.generators[i].matrix
            + rng.normal() * np.eye(dim)) for i in rng.permutation(k)[:j]]
        sub = make_level(gens, sigma)
        want = [expectation(rho, op) for op in sub.basis]
        # generator means reach basis coordinates through the measured
        # level's R factor, which costs its condition number in digits
        tol = 1e-12 * max(1.0, np.linalg.cond(measured.gen_coeffs))
        assert np.allclose(bare.means_for(sub), want, rtol=0, atol=tol)

    def test_means_for_refuses_another_reference(self, rng):
        # a level's basis is centred at its own reference, so one built
        # elsewhere has no coordinates in the measured frame
        spin = make_level([pauli_x(), pauli_y(), pauli_z()], uniform_state(2))
        bare = ExperimentData(level=spin, means=[0.1, -0.2, 0.3], n=100.0)
        tilted = DensityOperator.quantum(np.array([[0.7, 0.1], [0.1, 0.3]]))
        with pytest.raises(ValidationError, match="different reference"):
            bare.means_for(make_level([pauli_x()], tilted))
        sigma, full, _ = _classical_setup(rng)
        data = ExperimentData.from_counts(rng.integers(50, 500, size=6).astype(float), full)
        other = random_density(rng, 6, kind="classical")
        with pytest.raises(ValidationError, match="different reference"):
            data.means_for(make_level([random_diagonal(rng, 6)], other))

    def test_means_for_refuses_a_level_outside(self, rng):
        sigma, full, _ = _classical_setup(rng)
        measured = make_level([random_diagonal(rng, 6) for _ in range(2)], sigma)
        bare = ExperimentData(level=measured, means=[0.1, -0.2], n=100.0)
        with pytest.raises(ValidationError, match="not contained"):
            bare.means_for(make_level([random_diagonal(rng, 6)], sigma))


class TestEvidence:
    def test_noise_split_identity(self, rng):
        # synthetic data at a known quadratic distance: t = dof/chi2 exactly
        sigma, full, _ = _classical_setup(rng)
        base = gibbs_state(full, np.zeros(full.n_params))
        direction = rng.normal(size=full.n_params)
        direction /= np.sqrt(direction @ np.linalg.solve(base.corr, direction))
        n, chi2_target = 12000.0, 96.0
        delta = np.sqrt(chi2_target / n) * direction
        means_basis = base.g + delta
        # convert basis means back to generator means for the constructor
        gen_means = full.gen_offsets + full.gen_coeffs @ means_basis
        data = ExperimentData(level=full, means=gen_means, n=n)
        est = estimate_alpha(data)
        assert est.chi2 == pytest.approx(chi2_target, rel=1e-10)
        assert est.t == pytest.approx(est.dof / chi2_target, rel=1e-12)
        assert est.alpha == pytest.approx(n * est.t / (1 - est.t), rel=1e-12)
        assert est.alpha / (est.alpha + n) == pytest.approx(est.t, rel=1e-12)

    @pytest.mark.parametrize("kind", ["classical", "quantum"])
    def test_chi2_in_reference_metric(self, rng, kind):
        # chi2 is N (tau - g)^t C^{-1} (tau - g) at the reference, where the
        # basis gives g = 0 and C = I
        sigma = random_density(rng, 4, kind=kind)
        draw = random_diagonal if kind == "classical" else random_hermitian
        level = make_level([draw(rng, 4) for _ in range(3)], sigma)
        rho = random_density(rng, 4, kind=kind)
        means = [expectation(rho, level.generators[i]) for i in level.retained]
        data = ExperimentData(level=level, means=means, n=300.0)
        g, corr = gibbsfit.gibbs._moments(sigma, level)
        want = data.n * _metric_form(corr, data.basis_means() - g)
        assert estimate_alpha(data).chi2 == pytest.approx(want, rel=1e-12)

    def test_below_noise_floor_returns_none(self, rng):
        sigma, full, _ = _classical_setup(rng)
        base = gibbs_state(full, np.zeros(full.n_params))
        gen_means = full.gen_offsets + full.gen_coeffs @ base.g
        data = ExperimentData(level=full, means=gen_means, n=5000.0)
        est = estimate_alpha(data)
        assert est.alpha is None
        assert not est.deviation_ok

    def test_detail_flag(self, rng):
        sigma, full, _ = _classical_setup(rng)
        counts = rng.integers(50, 500, size=6).astype(float)
        data = ExperimentData.from_counts(counts, full)
        assert not estimate_alpha(data).detail_ok
        # a level with DETAIL_MIN_DOF directions is detailed enough
        d = DETAIL_MIN_DOF + 1
        wide_sigma = DensityOperator.classical(np.full(d, 1.0 / d))
        wide = full_classical_level(wide_sigma)
        assert wide.n_params == DETAIL_MIN_DOF
        counts = rng.integers(50, 500, size=d).astype(float)
        est = estimate_alpha(ExperimentData.from_counts(counts, wide))
        assert est.deviation_ok and est.detail_ok

    def test_no_data_raises(self, rng):
        sigma, full, _ = _classical_setup(rng)
        data = ExperimentData(level=full, means=full.gen_offsets.copy(), n=0.0)
        with pytest.raises(EvidenceNotApplicableError):
            estimate_alpha(data)


class TestEntropicPrior:
    def test_alpha_must_be_positive(self, rng):
        sigma, _, sub = _classical_setup(rng)
        with pytest.raises(ValidationError):
            EntropicPrior(level=sub, alpha=-1.0)

    @pytest.mark.parametrize("alpha", [float("nan"), float("inf")])
    def test_alpha_must_be_finite(self, rng, alpha):
        sigma, _, sub = _classical_setup(rng)
        with pytest.raises(ValidationError, match="finite"):
            EntropicPrior(level=sub, alpha=alpha)


class TestInterpolation:
    def test_multiplier_linearity(self, rng):
        sigma, _, sub = _classical_setup(rng)
        mu = gibbs_state(sub, rng.normal(size=sub.n_params))
        for t in (0.0, 0.25, 0.5, 0.9, 1.0):
            mixed = interpolate_states(mu, t)
            assert np.allclose(mixed.lam, (1 - t) * mu.lam, atol=1e-9)

    def test_matches_log_linear_mix(self, rng):
        sigma, _, sub = _classical_setup(rng)
        mu = gibbs_state(sub, rng.normal(size=sub.n_params))
        t = 0.3
        a = interpolate_states(mu, t).state
        b = log_linear_mix(mu.state, sigma, t)
        assert np.max(np.abs(a.matrix - b.matrix)) < 1e-12

    def test_matches_log_linear_mix_quantum(self, rng):
        sigma = random_density(rng, 3)
        lvl = make_level([random_hermitian(rng, 3) for _ in range(2)], sigma)
        mu = gibbs_state(lvl, rng.normal(size=lvl.n_params))
        t = 0.3
        a = interpolate_states(mu, t).state
        b = log_linear_mix(mu.state, sigma, t)
        assert np.max(np.abs(a.matrix - b.matrix)) < 1e-12

    def test_weight_range_validated(self, rng):
        sigma, _, sub = _classical_setup(rng)
        mu = gibbs_state(sub, np.zeros(sub.n_params))
        with pytest.raises(ValidationError):
            interpolate_states(mu, 1.5)

    def test_posterior_approaches_projection_monotonically(self, rng):
        sigma, _, sub = _classical_setup(rng)
        mu = gibbs_state(sub, rng.normal(size=sub.n_params))
        gaps = []
        for t in (0.5, 0.1, 0.01, 0.001):
            mixed = interpolate_states(mu, t)
            gaps.append(float(np.linalg.norm(mixed.state.matrix - mu.state.matrix)))
        assert all(a > b for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] < 1e-2


class TestPosterior:
    def test_fixed_alpha_shrinks_toward_reference(self, rng):
        sigma, full, sub = _classical_setup(rng)
        counts = rng.integers(100, 900, size=6).astype(float)
        data = ExperimentData.from_counts(counts, full)
        prior = EntropicPrior(level=sub, alpha=data.n)
        post = posterior_estimate(data, prior)
        assert post.t == pytest.approx(0.5)
        assert post.alpha_source == "user"
        assert np.allclose(post.rho_hat.lam, 0.5 * post.data_model.lam, atol=1e-12)

    def test_gibbs_form_preserved(self, rng):
        # the estimate stays on any manifold containing the fitted one
        sigma, full, sub = _classical_setup(rng)
        counts = rng.integers(100, 900, size=6).astype(float)
        data = ExperimentData.from_counts(counts, full)
        prior = EntropicPrior(level=sub, alpha=100.0)
        post = posterior_estimate(data, prior)
        wider = make_level(list(sub.basis) + [random_diagonal(rng, 6)], sigma)
        back = project_state(wider, post.state)
        assert relative_entropy(post.state, back.state) < 1e-9

    def test_evidence_inapplicable_unless_alpha_pinned(self, rng):
        sigma, full, _ = _classical_setup(rng)
        base = gibbs_state(full, np.zeros(full.n_params))
        gen_means = full.gen_offsets + full.gen_coeffs @ base.g
        data = ExperimentData(level=full, means=gen_means, n=500.0)
        with pytest.raises(EvidenceNotApplicableError):
            posterior_estimate(data, EntropicPrior(level=full))
        post = posterior_estimate(data, EntropicPrior(level=full, alpha=50.0))
        assert post.alpha_source == "user" and post.evidence is None
        assert post.alpha_used == 50.0 and post.warnings == ()

    def test_evidence_sets_alpha(self, rng):
        sigma, full, sub = _classical_setup(rng)
        counts = rng.integers(100, 900, size=6).astype(float)
        data = ExperimentData.from_counts(counts, full)
        post = posterior_estimate(data, EntropicPrior(level=sub))
        est = estimate_alpha(data)
        assert post.alpha_source == "evidence"
        assert post.evidence == est and post.alpha_used == est.alpha
        assert post.warnings == (f"evidence ran with only {est.dof} fitted directions",)

    def test_evidence_needs_data(self, rng):
        sigma, full, _ = _classical_setup(rng)
        data = ExperimentData(level=full, means=full.gen_offsets.copy(), n=0.0)
        with pytest.raises(EvidenceNotApplicableError):
            posterior_estimate(data, EntropicPrior(level=full))
        post = posterior_estimate(data, EntropicPrior(level=full, alpha=10.0))
        assert post.t == 1.0

    def test_unmeasured_block_present_when_prior_wider(self, rng):
        sigma, full, sub = _classical_setup(rng, k=1)
        counts = rng.integers(100, 900, size=6).astype(float)
        data_sub = ExperimentData(
            level=sub,
            means=np.array([expectation(DensityOperator_cl(counts), sub.generators[i])
                            for i in sub.retained]),
            n=float(counts.sum()))
        prior = EntropicPrior(level=full, alpha=200.0)
        post = posterior_estimate(data_sub, prior)
        assert post.unmeasured is not None
        assert post.unmeasured.n_params == full.n_params - sub.n_params
        assert post.cov_unmeasured.shape == (post.unmeasured.n_params,) * 2
        # unmeasured fluctuations are set by the prior alone: C/alpha
        assert np.all(np.linalg.eigvalsh(post.cov_unmeasured) > 0)

    def test_covariance_scale(self, rng):
        sigma, full, sub = _classical_setup(rng)
        counts = rng.integers(100, 900, size=6).astype(float)
        data = ExperimentData.from_counts(counts, full)
        prior = EntropicPrior(level=sub, alpha=300.0)
        post = posterior_estimate(data, prior)
        want = post.rho_hat.corr / (300.0 + data.n)
        assert np.allclose(post.cov_measured, want, atol=1e-14)


def DensityOperator_cl(counts):
    from gibbsfit.state_space import DensityOperator
    return DensityOperator.classical(np.asarray(counts, float) / np.sum(counts))


class TestLevelSignificance:
    def test_entropy_and_quadratic_agree_for_small_deviation(self, rng):
        sigma, full, sub = _classical_setup(rng)
        base = gibbs_state(full, np.zeros(full.n_params))
        direction = rng.normal(size=full.n_params)
        direction /= np.linalg.norm(direction)
        means_basis = base.g + 0.002 * direction
        # build counts that realize these basis means exactly
        fit = project(full, means_basis)
        counts = 40000.0 * fit.state.probs
        data = ExperimentData.from_counts(counts, full)
        # the same means without the histogram select the quadratic form
        bare = ExperimentData(level=full, means=data.means, n=data.n)
        ent = level_significance(data, trivial_level(sigma))
        quad = level_significance(bare, trivial_level(sigma))
        assert (ent.kind, quad.kind) == ("entropy", "quadratic")
        assert ent.statistic == pytest.approx(quad.statistic, rel=2e-2)

    def test_requires_strictly_finer_data(self, rng):
        sigma, full, _ = _classical_setup(rng)
        counts = rng.integers(100, 900, size=6).astype(float)
        data = ExperimentData.from_counts(counts, full)
        with pytest.raises(ValidationError):
            level_significance(data, full)

    def test_rejects_level_at_another_reference(self, rng):
        sigma, full, _ = _classical_setup(rng)
        data = ExperimentData.from_counts(rng.integers(100, 900, size=6).astype(float), full)
        other = random_density(rng, 6, kind="classical")
        foreign = make_level([random_diagonal(rng, 6)], other)
        with pytest.raises(ValidationError, match="reference"):
            level_significance(data, foreign)


@pytest.fixture
def project_calls(monkeypatch):
    """Every gibbs.project call, whether made directly or by project_state."""
    calls = []

    def counting(level, targets):
        calls.append(level)
        return project(level, targets)

    monkeypatch.setattr(gibbsfit.gibbs, "project", counting)
    monkeypatch.setattr(gibbsfit.inference, "project", counting)
    return calls


class TestNoSelfProjection:
    # a state already on a manifold is its own projection there: its
    # moments give the metric, with no Newton solve
    def test_quadratic_significance_projects_once(self, rng, project_calls):
        sigma, full, sub = _classical_setup(rng)
        counts = rng.integers(1000, 5000, size=6).astype(float)
        data = ExperimentData.from_counts(counts, full)
        bare = ExperimentData(level=full, means=data.means, n=data.n)
        rep = level_significance(bare, sub)
        assert rep.kind == "quadratic" and len(project_calls) == 1
        fit = project(sub, bare.means_for(sub))
        frame_fit = project_state(full, fit.state)
        want = bare.n * _metric_form(frame_fit.corr, bare.basis_means() - frame_fit.g)
        assert rep.statistic == pytest.approx(want, rel=1e-8)

    def test_compare_levels_projects_twice(self, rng, project_calls):
        sigma, full, sub = _classical_setup(rng)
        counts = rng.integers(1000, 5000, size=6).astype(float)
        data = ExperimentData.from_counts(counts, full)
        rep = compare_levels(sub, full, data, alpha=None)
        assert len(project_calls) == 2
        on_fine = project_state(full, rep.coarse_model.state)
        want = data.n * _metric_form(on_fine.corr, rep.fine_model.g - on_fine.g)
        assert rep.chi2_gain == pytest.approx(want, rel=1e-8)


class TestVerdicts:
    def test_band_edges(self):
        n = 20000.0
        ln_n = np.log(n)
        assert verdict_from_rate(0.5 * ln_n, n) == "KeepCoarse"
        assert verdict_from_rate(ln_n, n) == "Inconclusive"
        assert verdict_from_rate(2.0 * ln_n, n) == "Refine"

    @given(st.floats(min_value=0.0, max_value=100.0),
           st.floats(min_value=0.0, max_value=100.0))
    def test_monotone_in_rate(self, a, b):
        order = {"KeepCoarse": 0, "Inconclusive": 1, "Refine": 2}
        lo, hi = sorted((a, b))
        assert order[verdict_from_rate(lo, 5000.0)] <= order[verdict_from_rate(hi, 5000.0)]


class TestCompareLevels:
    def _wolf_like(self, rng):
        sigma, full, _ = _classical_setup(rng)
        counts = rng.integers(1000, 5000, size=6).astype(float)
        data = ExperimentData.from_counts(counts, full)
        coarse = trivial_level(sigma)
        mid = make_level([random_diagonal(rng, 6) for _ in range(2)], sigma)
        return sigma, data, coarse, mid, full

    def test_log_ratio_recomputed_from_scratch(self, rng):
        sigma, data, coarse, mid, full = self._wolf_like(rng)
        rep = compare_levels(coarse, mid, data, alpha=250.0, prior_odds=2.0)
        # independent path: refit both levels, evaluate entropies directly
        fine_fit = project(mid, data.means_for(mid))
        coarse_fit = project_state(coarse, fine_fit.state)
        s_gain = relative_entropy(fine_fit.state, coarse_fit.state)
        want = (0.5 * rep.s * np.log(data.n / 250.0)
                - (data.n - 250.0) * s_gain + np.log(2.0))
        assert rep.log_ratio == pytest.approx(want, rel=1e-8)

    def test_alpha_none_skips_odds(self, rng):
        sigma, data, coarse, mid, full = self._wolf_like(rng)
        rep = compare_levels(coarse, mid, data, alpha=None)
        assert rep.log_ratio is None
        assert rep.verdict in ("Refine", "KeepCoarse", "Inconclusive")

    def test_requires_nesting(self, rng):
        sigma, data, coarse, mid, full = self._wolf_like(rng)
        other = make_level([random_diagonal(rng, 6)], sigma)
        with pytest.raises(ValidationError):
            compare_levels(mid, other, data)

    @pytest.mark.parametrize("option", [dict(alpha=float("nan")), dict(alpha=float("inf")),
                                        dict(prior_odds=float("nan")),
                                        dict(prior_odds=float("inf"))],
                             ids=["alpha-nan", "alpha-inf", "prior-odds-nan",
                                  "prior-odds-inf"])
    def test_non_finite_weights_rejected(self, rng, option):
        sigma, data, coarse, mid, full = self._wolf_like(rng)
        with pytest.raises(ValidationError, match="finite"):
            compare_levels(coarse, mid, data, **option)

    def test_chi2_routes_close(self, rng):
        sigma, data, coarse, mid, full = self._wolf_like(rng)
        rep = compare_levels(coarse, mid, data, alpha=None)
        assert rep.chi2_gain == pytest.approx(rep.chi2_exact, rel=0.1)
        assert rep.rel_entropy * 2 * data.n == pytest.approx(rep.chi2_exact, rel=1e-12)


class TestPythagorasResidual:
    def test_small_on_random_instances(self, rng):
        for _ in range(5):
            sigma = random_density(rng, 3)
            lvl = make_level([random_hermitian(rng, 3) for _ in range(2)], sigma)
            rho = random_density(rng, 3)
            assert pythagoras_residual(rho, lvl) < 1e-9
