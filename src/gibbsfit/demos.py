"""Three end-to-end worked examples, each a deterministic small pipeline.

* wolf: 20000 rolls of a worn die; significance of the deviation from a
  fair reference, evidence weighting, and model selection between the
  trivial, two-observable, and full levels.
* qubit: spin measurements on a tilted Bloch vector; does the tilt justify
  promoting a z-axis model to the full spin level?
* thermal: a 25-level ladder prepared near 110 K judged against a 100 K
  reference; evidence-weighted interpolation of the inverse temperature.

Each run_* function returns a JSON-ready result tree (see report.py).
"""

from __future__ import annotations

import math
from dataclasses import asdict

import numpy as np

from .errors import ValidationError
from .gibbs import (
    bloch_metric,
    model_to_bloch,
    pauli_level,
    project_state,
)
from .inference import (
    EntropicPrior,
    ExperimentData,
    compare_levels,
    estimate_alpha,
    level_significance,
    posterior_estimate,
)
from .levels import full_classical_level, make_level, trivial_level
from .report import comparison_summary, model_summary
from .state_space import DensityOperator, pauli_z, uniform_state

# Raw counts of 20000 rolls of one worn die (historical dataset).
WOLF_COUNTS = (3246, 3449, 2897, 2841, 3635, 3932)

# Thermal ladder: levels, reference and source temperatures (Kelvin, k_B = 1),
# shots, and the quadratic deviation the level spacing is calibrated to.
THERMAL_DIM = 25
THERMAL_T_REFERENCE = 100.0
THERMAL_T_SOURCE = 110.0
THERMAL_N = 12000.0
THERMAL_CHI2_TARGET = 96.0

__all__ = ["WOLF_COUNTS", "wolf_levels", "run_wolf", "run_qubit",
           "thermal_setup", "run_thermal"]


def wolf_levels():
    """Reference, levels and data for the worn-die analysis.

    The two-observable level tracks the mean face value (centered) and the
    contrast between flat faces (3, 4) and the rest, the physically
    suggestive directions for a die with worn corners.
    """
    d = 6
    sigma = DensityOperator.classical(np.full(d, 1.0 / d))
    face = np.arange(1, 7) - 3.5
    flat = np.array([1.0, 1.0, -2.0, -2.0, 1.0, 1.0])
    level_o = trivial_level(sigma)
    level_g = make_level([face, flat], sigma, label="G")
    level_f = full_classical_level(sigma)
    data = ExperimentData.from_counts(np.asarray(WOLF_COUNTS, float), level_f)
    return sigma, level_o, level_g, level_f, data


def run_wolf() -> dict:
    _, level_o, level_g, level_f, data = wolf_levels()
    sig = level_significance(data, level_o)
    est = estimate_alpha(data)
    cmp_og = compare_levels(level_o, level_g, data, alpha=est.alpha)
    cmp_gf = compare_levels(level_g, level_f, data, alpha=est.alpha)
    return {
        "data": {"counts": list(WOLF_COUNTS), "n": data.n,
                 "frequencies": (np.asarray(WOLF_COUNTS, float) / data.n).tolist()},
        "significance_vs_reference": asdict(sig),
        "evidence": asdict(est),
        "fit_two_observables": model_summary(cmp_og.fine_model),
        "compare_trivial_vs_two": comparison_summary(cmp_og),
        "compare_two_vs_full": comparison_summary(cmp_gf),
    }


def run_qubit(r: float = 0.73, tilt_deg: float = 3.0, n: float = 20000) -> dict:
    """Spin level selection for a Bloch vector tilted off the z axis.

    The coarse candidate keeps only the z component; the fine one the full
    spin level.  Sample means are the exact expectations of the tilted
    state, so the verdict reflects the systematic tilt alone.  The Bloch
    radius r must lie in [0, 1) and tilt_deg be finite; ExperimentData
    checks n.
    """
    if not 0.0 <= r < 1.0:
        raise ValidationError(f"Bloch radius r must lie in [0, 1), got {r!r}")
    if not math.isfinite(tilt_deg):
        raise ValidationError(f"tilt angle tilt_deg must be finite, got {tilt_deg!r}")
    tau = np.deg2rad(tilt_deg)
    sigma = uniform_state(2)
    heis = pauli_level(sigma).with_label("heisenberg")
    ising = make_level([pauli_z()], sigma, label="ising")
    means = np.array([r * np.sin(tau), 0.0, r * np.cos(tau)])
    data = ExperimentData(level=heis, means=means, n=float(n))

    est = estimate_alpha(data)
    cmp_ih = compare_levels(ising, heis, data, alpha=est.alpha)

    # closed-form route: the tilt is a pure theta displacement, so the
    # squared distance is the theta-theta metric times tilt^2
    m_tt = float(r * np.arctanh(r))
    chi2_metric = float(n) * m_tt * tau * tau
    fit_bloch = model_to_bloch(cmp_ih.fine_model)
    return {
        "config": {"r": r, "tilt_deg": tilt_deg, "n": float(n)},
        "fit": {"bloch_r": fit_bloch.r, "bloch_theta": fit_bloch.theta,
                "bloch_phi": fit_bloch.phi,
                "metric_theta_theta": float(bloch_metric(fit_bloch)[1, 1])},
        "evidence": asdict(est),
        "metric_route": {"metric_theta_theta_at_r": m_tt,
                         "chi2": chi2_metric,
                         "per_param": chi2_metric / cmp_ih.s},
        "exact_route": {"chi2": cmp_ih.chi2_exact,
                        "per_param": cmp_ih.chi2_exact / cmp_ih.s},
        "compare_ising_vs_heisenberg": comparison_summary(cmp_ih),
    }


def _bisect(f, lo: float, hi: float) -> float:
    """A root of f in [lo, hi], where f changes sign, by bisection until lo
    and hi are adjacent floats."""
    negative_lo = f(lo) < 0
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return mid
        if (f(mid) < 0) == negative_lo:
            lo = mid
        else:
            hi = mid


def thermal_setup():
    """Equally spaced energy ladder calibrated so the source sits at the
    stated statistical distance from the reference.

    The level spacing (in Kelvin, k_B = 1) is solved so that the quadratic
    deviation of the 110 K populations from the 100 K reference equals
    THERMAL_CHI2_TARGET; everything downstream is then pure pipeline.
    """
    beta0, beta1 = 1.0 / THERMAL_T_REFERENCE, 1.0 / THERMAL_T_SOURCE
    ladder = np.arange(THERMAL_DIM, dtype=float)
    n = THERMAL_N

    def populations(beta: float, spacing: float) -> np.ndarray:
        w = np.exp(-beta * spacing * ladder)
        return w / w.sum()

    def pearson_gap(spacing: float) -> float:
        p0 = populations(beta0, spacing)
        p1 = populations(beta1, spacing)
        return float(n * np.sum((p1 - p0) ** 2 / p0)) - THERMAL_CHI2_TARGET

    spacing = _bisect(pearson_gap, 5.0, 40.0)
    p0 = populations(beta0, spacing)
    p1 = populations(beta1, spacing)
    sigma = DensityOperator.classical(p0)
    level_f = full_classical_level(sigma)
    level_e = make_level([spacing * ladder], sigma, label="energy")
    # n is THERMAL_N itself, not the float sum of n * p1, which equals it
    # only as the root's rounding falls
    data = ExperimentData(level=level_f, means=None, n=n, counts=n * p1)
    return sigma, level_e, level_f, data, spacing, beta0, beta1


def run_thermal() -> dict:
    _, level_e, level_f, data, spacing, beta0, beta1 = thermal_setup()
    post = posterior_estimate(data, EntropicPrior(level=level_e))

    # express posterior and data projection on the energy level, whose raw
    # generator is conjugate to the inverse-temperature shift
    fit_hat = project_state(level_e, post.state)
    fit_data = project_state(level_e, post.data_model.state)
    beta_hat = beta0 + float(fit_hat.generator_multipliers()[0])
    beta_data = beta0 + float(fit_data.generator_multipliers()[0])
    # 1-sigma widths from the measured-direction covariance, mapped through
    # the basis-to-generator coefficient
    corr_e = float(fit_hat.corr[0, 0])
    coeff = float(level_e.gen_coeffs[0, 0])
    sd_beta = 1.0 / (coeff * np.sqrt(corr_e * (post.alpha_used + post.n)))
    t_hat = 1.0 / beta_hat
    return {
        "config": {"dim": THERMAL_DIM, "n": data.n,
                   "t_reference": THERMAL_T_REFERENCE,
                   "t_source": THERMAL_T_SOURCE, "level_spacing": spacing},
        "evidence": asdict(post.evidence),
        "posterior": {
            "t": post.t, "alpha": post.alpha_used,
            "alpha_source": post.alpha_source,
            "beta_data": beta_data, "beta_hat": beta_hat,
            "temperature_estimate": t_hat,
            "temperature_sd": sd_beta / beta_hat ** 2,
            "energy_mean": float(fit_hat.generator_expectations()[0]),
            "energy_sd": float(coeff * np.sqrt(corr_e / (post.alpha_used + post.n)))},
    }
