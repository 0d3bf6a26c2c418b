"""Release gate.  Every check prints one ``[acceptance] name: PASS|FAIL``
line on the real stdout (bypassing capture) and then asserts, so a plain
pytest run yields a scannable scorecard.

The strong-coupling tilt check is left failing on purpose: the computed
rate tops out near 9.08 while the decision threshold ln N is 9.90, so the
claimed early Refine verdict is not reachable.  README carries the numbers.
"""

import time

import numpy as np
from scipy.optimize import brentq

from gibbsfit import (
    BlochVector,
    EntropicPrior,
    ExperimentData,
    bloch_metric,
    chi2_logpdf,
    compare_levels,
    estimate_alpha,
    expectation,
    gibbs_state,
    interpolate_states,
    make_level,
    model_to_bloch,
    pauli_level,
    pauli_x,
    pauli_y,
    pauli_z,
    posterior_estimate,
    project,
    project_state,
    relative_entropy,
    significance,
    thermodynamic_entropy,
    uniform_state,
)
from gibbsfit.dataio import load_classical, resolve_level
from gibbsfit.gibbs import _basis_targets
from gibbsfit.demos import run_qubit, run_thermal, run_wolf, thermal_setup
from gibbsfit.state_space import DensityOperator
from conftest import random_density, random_diagonal, random_hermitian
from oracles import bloch_log_norm, bloch_state, kmb_inner, pythagoras_residual
from test_state_space import _kmb_quadrature

WOLF_COUNTS = "data/wolf_counts.csv"
WOLF_OBS = "data/wolf_observables.csv"


def _gate(capfd, name: str, problems: list):
    with capfd.disabled():
        print(f"[acceptance] {name}: {'FAIL' if problems else 'PASS'}")
    assert not problems, "; ".join(problems)


def _expect(problems: list, ok: bool, msg: str) -> None:
    if not ok:
        problems.append(msg)


def _mixed_level(rng, sigma, k):
    if sigma.is_classical:
        ops = [random_diagonal(rng, sigma.dim) for _ in range(k)]
    else:
        ops = [random_hermitian(rng, sigma.dim) for _ in range(k)]
    return make_level(ops, sigma)


def test_uniform_deviation_significance(capfd):
    problems = []
    ds = load_classical(WOLF_COUNTS)
    stat = 2.0 * ds.n * relative_entropy(ds.data.empirical, ds.reference)
    _expect(problems, 269.0 <= stat <= 273.0,
            f"deviation statistic {stat:.4f} outside [269, 273]")
    rep = significance(stat, 5, ds.n)
    _expect(problems, rep.significant, "deviation not flagged as significant")
    val = np.exp(chi2_logpdf(271.0, 5))
    _expect(problems, 1e-57 <= val <= 1e-55,
            f"density {val:.3e} not within one decade of 1e-56")
    _gate(capfd, "uniform-deviation-significance", problems)


def test_two_observable_selection(capfd):
    problems = []
    ds = load_classical(WOLF_COUNTS, WOLF_OBS)
    sigma = ds.reference
    lvl_o = resolve_level(ds, "O")
    lvl_g = resolve_level(ds, "G1,G2")
    lvl_f = resolve_level(ds, "full")

    cog = compare_levels(lvl_o, lvl_g, ds.data, alpha="evidence")
    cgf = compare_levels(lvl_g, lvl_f, ds.data, alpha="evidence")
    cof = compare_levels(lvl_o, lvl_f, ds.data, alpha="evidence")

    fit_means = cog.fine_model.generator_expectations()
    for got, want, tag in zip(fit_means, (0.0983, 0.1393), ("spot", "parity")):
        _expect(problems, abs(got - want) <= 1e-4,
                f"fitted {tag} mean {got:.6f} != {want}")

    for cmp_, lo, hi, tag in ((cog, 259.0, 265.0, "trivial->pair"),
                              (cgf, 8.0, 10.0, "pair->full"),
                              (cof, 269.0, 273.0, "trivial->full")):
        for stat, route in ((cmp_.chi2_gain, "quadratic"),
                            (cmp_.chi2_exact, "exact")):
            _expect(problems, lo <= stat <= hi,
                    f"{tag} {route} chi2 {stat:.3f} outside [{lo}, {hi}]")

    ln_n = np.log(ds.n)
    _expect(problems, cog.chi2_gain / cog.s > ln_n,
            f"trivial->pair rate {cog.chi2_gain / cog.s:.2f} <= ln N {ln_n:.2f}")
    _expect(problems, cog.verdict == "Refine",
            f"trivial->pair verdict {cog.verdict!r}")
    _expect(problems, cgf.verdict == "KeepCoarse",
            f"pair->full verdict {cgf.verdict!r}")
    _gate(capfd, "two-observable-selection", problems)


def _tilt_comparison(r: float, tilt_deg: float, n: float = 20000.0):
    """Z-only level against the full spin level for an exactly tilted state."""
    tau = np.deg2rad(tilt_deg)
    sigma = uniform_state(2)
    fine = pauli_level(sigma)
    coarse = make_level([pauli_z()], sigma, label="z-only")
    means = np.array([r * np.sin(tau), 0.0, r * np.cos(tau)])
    data = ExperimentData(level=fine, means=means, n=n)
    cmp_ = compare_levels(coarse, fine, data, alpha=None)
    rate_metric = n * r * np.arctanh(r) * tau * tau / cmp_.s
    rate_exact = cmp_.chi2_exact / cmp_.s
    return rate_metric, rate_exact, cmp_


def test_tilt_angle_selection(capfd):
    problems = []
    n = 20000.0
    cases = ((1.0, 2.1, "KeepCoarse"), (2.0, 8.3, "Inconclusive"),
             (3.0, 18.6, "Refine"))
    for tilt, target, verdict in cases:
        rate_m, rate_e, cmp_ = _tilt_comparison(0.73, tilt, n)
        for rate, route in ((rate_m, "metric"), (rate_e, "exact")):
            _expect(problems, abs(rate - target) <= 0.05 * target,
                    f"{tilt} deg {route} rate {rate:.4f} not {target}+-5%")
        _expect(problems, abs(rate_m - rate_e) <= 0.02 * rate_e,
                f"{tilt} deg routes differ {rate_m:.4f} vs {rate_e:.4f}")
        _expect(problems, cmp_.verdict == verdict,
                f"{tilt} deg verdict {cmp_.verdict!r} != {verdict!r}")

    _, _, cmp1 = _tilt_comparison(0.73, 1.0, n)
    m_tt = float(bloch_metric(model_to_bloch(cmp1.fine_model))[1, 1])
    closed = 0.73 * np.arctanh(0.73)
    for val, tag in ((m_tt, "fitted"), (closed, "closed-form")):
        _expect(problems, abs(val - 0.678) <= 1e-3,
                f"{tag} theta-theta stiffness {val:.6f} != 0.678+-0.001")
    _gate(capfd, "tilt-angle-selection", problems)


def test_tilt_strong_coupling(capfd):
    # at r = 0.995 both rate routes top out near 9.08, short of
    # ln N = 9.90, so the one-degree tilt cannot reach Refine; the check
    # states the claimed behaviour and is expected to fail
    problems = []
    n = 20000.0
    ln_n = np.log(n)
    rate_m, rate_e, cmp_ = _tilt_comparison(0.995, 1.0, n)
    for rate, route in ((rate_m, "metric"), (rate_e, "exact")):
        _expect(problems, rate > ln_n,
                f"{route} rate {rate:.4f} <= ln N {ln_n:.4f}")
    _expect(problems, cmp_.verdict == "Refine",
            f"verdict {cmp_.verdict!r} != 'Refine'")
    _gate(capfd, "tilt-strong-coupling", problems)


def test_tilt_crossing_angle(capfd):
    # the angle where the per-parameter rate meets ln N at r = 0.995
    problems = []
    ln_n = np.log(20000.0)
    for idx, route in ((0, "metric"), (1, "exact")):
        cross = brentq(lambda deg: _tilt_comparison(0.995, deg)[idx] - ln_n,
                       0.8, 1.4, xtol=1e-9)
        _expect(problems, 0.95 < cross < 1.15,
                f"{route} crossing angle {cross:.4f} deg outside (0.95, 1.15)")
    _gate(capfd, "tilt-crossing-angle", problems)


def test_thermal_evidence_weight(capfd):
    problems = []
    sigma, level_e, level_f, data, spacing, beta0, beta1 = thermal_setup()
    _expect(problems, data.n == 12000.0, f"shot count {data.n}")

    est = estimate_alpha(data)
    _expect(problems, abs(est.chi2 - 96.0) <= 1e-6,
            f"chi2 {est.chi2!r} != 96")
    _expect(problems, est.dof == 24, f"dof {est.dof} != 24")
    _expect(problems, abs(est.t - 0.25) <= 1e-9,
            f"mixing weight {est.t!r} != 0.25")

    post = posterior_estimate(data, EntropicPrior(level=level_e))
    fit = project_state(level_e, post.state)
    beta_hat = beta0 + float(fit.generator_multipliers()[0])
    _expect(problems, 1.0 / 110.0 < beta_hat < 1.0 / 100.0,
            f"inverse temperature {beta_hat:.6f} outside (1/110, 1/100)")
    t_hat = 1.0 / beta_hat
    _expect(problems, abs(t_hat - 107.3) <= 0.05,
            f"temperature {t_hat:.4f} K != 107.3 +- 0.05")
    _gate(capfd, "thermal-evidence-weight", problems)


def test_pythagoras_additivity(capfd, rng):
    problems = []
    worst = 0.0
    for i in range(100):
        dim = (2, 3, 4)[i % 3]
        kind = "classical" if i % 4 == 0 else "quantum"
        sigma = random_density(rng, dim, kind=kind)
        rho = random_density(rng, dim, kind=kind)
        lvl = _mixed_level(rng, sigma, 1 + i % 2)
        worst = max(worst, pythagoras_residual(rho, lvl))
    _expect(problems, worst < 1e-9,
            f"worst additivity residual {worst:.3e} >= 1e-9")
    _gate(capfd, "pythagoras-additivity", problems)


def test_kmb_quadrature_agreement(capfd, rng):
    problems = []
    worst = 0.0
    for i in range(50):
        dim = (2, 3, 4)[i % 3]
        sigma = random_density(rng, dim)
        x = random_hermitian(rng, dim)
        y = random_hermitian(rng, dim)
        got = kmb_inner(sigma, x, y)
        want = _kmb_quadrature(sigma, x, y, points=64)
        scale = np.sqrt(kmb_inner(sigma, x, x) * kmb_inner(sigma, y, y))
        worst = max(worst, abs(got - want) / scale)
    _expect(problems, worst < 1e-8,
            f"worst quadrature mismatch {worst:.3e} >= 1e-8")
    _gate(capfd, "kmb-quadrature-agreement", problems)


def test_projection_idempotence_composition(capfd, rng):
    problems = []
    worst_idem, worst_comp = 0.0, 0.0
    for i in range(20):
        dim = (3, 4)[i % 2]
        kind = "classical" if i % 3 == 0 else "quantum"
        sigma = random_density(rng, dim, kind=kind)
        rho = random_density(rng, dim, kind=kind)
        if kind == "classical":
            ops = [random_diagonal(rng, dim) for _ in range(2)]
        else:
            ops = [random_hermitian(rng, dim) for _ in range(2)]
        wide = make_level(ops, sigma)
        narrow = make_level(ops[:1], sigma)

        pi_w = project_state(wide, rho)
        again = project_state(wide, pi_w.state)
        worst_idem = max(worst_idem, float(np.max(np.abs(
            again.state.matrix - pi_w.state.matrix))))

        direct = project_state(narrow, rho)
        via = project_state(narrow, pi_w.state)
        worst_comp = max(worst_comp, float(np.max(np.abs(
            via.state.matrix - direct.state.matrix))))
    _expect(problems, worst_idem < 1e-9, f"idempotence drift {worst_idem:.3e}")
    _expect(problems, worst_comp < 1e-9, f"composition drift {worst_comp:.3e}")
    _gate(capfd, "projection-idempotence-composition", problems)


def test_free_energy_derivatives(capfd, rng):
    problems = []
    worst_grad, worst_hess = 0.0, 0.0
    for i in range(10):
        kind = "classical" if i % 2 else "quantum"
        sigma = random_density(rng, 3, kind=kind)
        lvl = _mixed_level(rng, sigma, 2)
        lam = rng.uniform(-0.5, 0.5, size=2)
        model = gibbs_state(lvl, lam)
        for b in range(2):
            dlam = np.zeros(2)
            dlam[b] = 1e-6
            fd = (gibbs_state(lvl, lam + dlam).ln_z
                  - gibbs_state(lvl, lam - dlam).ln_z) / 2e-6
            worst_grad = max(worst_grad,
                             abs(-fd - model.g[b]) / (abs(model.g[b]) + 1e-6))
            dlam[b] = 1e-5
            fd_h = -(gibbs_state(lvl, lam + dlam).g
                     - gibbs_state(lvl, lam - dlam).g) / 2e-5
            denom = np.abs(model.corr[:, b]) + 1e-6
            worst_hess = max(worst_hess,
                             float(np.max(np.abs(fd_h - model.corr[:, b]) / denom)))
    _expect(problems, worst_grad < 1e-4, f"gradient FD error {worst_grad:.3e}")
    _expect(problems, worst_hess < 1e-4, f"curvature FD error {worst_hess:.3e}")
    _gate(capfd, "free-energy-derivatives", problems)


def test_bloch_closed_forms(capfd):
    problems = []
    sigma = uniform_state(2)
    lvl = pauli_level(sigma)
    worst_state, worst_lnz = 0.0, 0.0
    for r in (0.1, 0.5, 0.9):
        for theta in (0.0, np.pi / 4, np.pi / 2):
            b = BlochVector(r, theta, 0.6)
            target = bloch_state(r, theta, 0.6)
            means = [expectation(target, op)
                     for op in (pauli_x(), pauli_y(), pauli_z())]
            model = project(lvl, _basis_targets(lvl, np.array(means)))
            worst_state = max(worst_state, float(np.max(np.abs(
                model.state.matrix - target.matrix))))
            worst_lnz = max(worst_lnz, abs(bloch_log_norm(b) - model.ln_z))
    _expect(problems, worst_state < 1e-8, f"state mismatch {worst_state:.3e}")
    _expect(problems, worst_lnz < 1e-8, f"log-norm mismatch {worst_lnz:.3e}")
    _gate(capfd, "bloch-closed-forms", problems)


def test_interpolation_linearity(capfd, rng):
    problems = []
    worst = 0.0
    for i in range(10):
        kind = "classical" if i % 2 else "quantum"
        sigma = random_density(rng, 3, kind=kind)
        lvl = _mixed_level(rng, sigma, 2)
        lam = rng.uniform(-0.6, 0.6, size=2)
        model = gibbs_state(lvl, lam)
        for t in (0.0, 0.25, 0.5, 0.9, 1.0):
            mix = interpolate_states(model, t)
            worst = max(worst, float(np.max(np.abs(mix.lam - (1 - t) * lam))))
    _expect(problems, worst < 1e-9, f"multiplier nonlinearity {worst:.3e}")
    _gate(capfd, "interpolation-linearity", problems)


def test_entropy_differential(capfd, rng):
    problems = []
    worst = 0.0
    for i in range(10):
        kind = "classical" if i % 2 else "quantum"
        sigma = random_density(rng, 3, kind=kind)
        lvl = _mixed_level(rng, sigma, 2)
        lam = rng.uniform(0.2, 0.6, size=2) * rng.choice((-1.0, 1.0), size=2)
        direction = rng.uniform(0.5, 1.0, size=2)
        eps = 1e-6
        plus = gibbs_state(lvl, lam + eps * direction)
        minus = gibbs_state(lvl, lam - eps * direction)
        ds = thermodynamic_entropy(plus) - thermodynamic_entropy(minus)
        want = float(lam @ (plus.g - minus.g))
        worst = max(worst, abs(ds - want) / max(abs(want), 1e-9))
    _expect(problems, worst < 1e-5, f"entropy differential error {worst:.3e}")
    _gate(capfd, "entropy-differential", problems)


def test_classical_quantum_agreement(capfd, rng):
    problems = []
    worst = 0.0
    for _ in range(10):
        dim = int(rng.integers(2, 5))
        probs = rng.dirichlet(np.ones(dim)) * 0.9 + 0.1 / dim
        diags = [rng.normal(size=dim) for _ in range(2)]
        sig_c = DensityOperator.classical(probs)
        sig_q = DensityOperator.quantum(np.diag(probs.astype(complex)))
        lvl_c = make_level([d for d in diags], sig_c)
        lvl_q = make_level([np.diag(d.astype(complex)) for d in diags], sig_q)
        # a 2-outcome system keeps only one independent direction
        assert lvl_q.n_params == lvl_c.n_params
        lam = rng.uniform(-0.4, 0.4, size=lvl_c.n_params)
        mc = gibbs_state(lvl_c, lam)
        mq = gibbs_state(lvl_q, lam)
        worst = max(worst, abs(mc.ln_z - mq.ln_z),
                    float(np.max(np.abs(mc.g - mq.g))),
                    float(np.max(np.abs(mc.corr - mq.corr))))
    _expect(problems, worst <= 1e-12, f"representation gap {worst:.3e}")
    _gate(capfd, "classical-quantum-agreement", problems)


def test_demo_runtime(capfd):
    problems = []
    for fn, name in ((run_wolf, "wolf"), (run_qubit, "qubit"),
                     (run_thermal, "thermal")):
        start = time.perf_counter()
        fn()
        took = time.perf_counter() - start
        _expect(problems, took < 5.0, f"{name} demo took {took:.2f}s")
    _gate(capfd, "demo-runtime", problems)
