"""Statistical layer: significance, evidence weighting, posterior estimates
and model selection across nested levels of description.

Conventions used throughout:

* deviations between states are measured either exactly, as 2 N S(rho||pi),
  or quadratically, as N delta^t C^{-1} delta with the metric evaluated at
  the model state (second argument); the two agree to second order and both
  follow a chi-square law asymptotically,
* the prior over a manifold is entropic, density proportional to
  exp(-alpha S(omega||sigma)), with alpha set by the evidence unless pinned,
* posterior means shrink the data projection toward the reference with
  weight t = alpha / (alpha + N) on the reference.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import EvidenceNotApplicableError, ValidationError
from .gibbs import (
    GibbsModel,
    _basis_targets,
    _metric_form,
    _moments,
    gibbs_state,
    project,
)
from .levels import (
    LevelOfDescription,
    _coords,
    _require_same_context,
    complement,
    intersection,
)
from .state_space import DensityOperator, relative_entropy

logger = logging.getLogger("gibbsfit.inference")

# Decision band for the refinement verdict: per-parameter deviation rates
# inside [ln N / BAND_FACTOR, BAND_FACTOR * ln N] are inconclusive; outside,
# the data speak clearly in one direction.
BAND_FACTOR = float(np.sqrt(2.0))

# Below this many fitted directions the evidence estimate still runs but is
# flagged as coarse; the fluctuation argument behind it wants many of them.
DETAIL_MIN_DOF = 10

DEFAULT_SIG_LEVEL = 1e-3

VERDICT_REFINE = "Refine"
VERDICT_KEEP = "KeepCoarse"
VERDICT_INCONCLUSIVE = "Inconclusive"

__all__ = [
    "chi2_logpdf",
    "chi2_log_tail",
    "SignificanceReport",
    "significance",
    "level_significance",
    "fit_significance",
    "ExperimentData",
    "EntropicPrior",
    "AlphaEstimate",
    "estimate_alpha",
    "interpolate_states",
    "PosteriorEstimate",
    "posterior_estimate",
    "ComparisonReport",
    "compare_levels",
    "verdict_from_rate",
]


# -- chi-square distribution -------------------------------------------


def chi2_logpdf(x: float, k: int) -> float:
    """Natural log of the chi-square density with k degrees of freedom.
    At x = 0 it is the density's limit: +inf for k = 1, ln(1/2) for k = 2
    and -inf above."""
    if x < 0 or k <= 0:
        raise ValidationError("chi-square density needs x >= 0 and k > 0")
    if x == 0:
        return {1: float("inf"), 2: -float(np.log(2.0))}.get(k, float("-inf"))
    h = 0.5 * k
    return float((h - 1.0) * np.log(x) - 0.5 * x - h * np.log(2.0) - math.lgamma(h))


# Stirling series of ln Gamma(a) - [(a - 1/2) ln a - a + ln(2 pi)/2]: the
# coefficients B_2n / (2n (2n - 1)) of 1/a^(2n-1), n = 1..7.  The first
# term left out is below 3e-17 for a >= _STIRLING_MIN_A.
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360, 1 / 156)
_STIRLING_MIN_A = 10.0


def _log_gamma_prefactor(a: float, x: float) -> float:
    """ln(x^a e^{-x} / Gamma(a)), the factor both incomplete-gamma forms share.

    Summed directly, its rounding error is about eps (a ln x + x + ln Gamma(a)),
    2e-12 relative in Q at a = 919 in the tail.  For a >= _STIRLING_MIN_A and
    x >= a/2, ln Gamma(a) is instead written as Stirling's series and its large
    terms cancel against a ln x - x in closed form, which leaves
    a (ln(x/a) - t) + ln(a / 2 pi)/2 - series with t = (x - a)/a, and an error
    of about eps |x - a|.  Below a/2, P < e^{-a/5} only enters as 1 - P, where
    the direct sum is accurate enough.
    """
    if a < _STIRLING_MIN_A or x < 0.5 * a:
        return a * math.log(x) - x - math.lgamma(a)
    t = (x - a) / a
    # log1p keeps ln(1 + t) - t accurate near x = a; above 3a/2 ln(x/a) is
    # large and x/a carries no cancellation
    u = math.log1p(t) - t if t < 0.5 else math.log(x / a) - t
    inv_a2 = 1.0 / (a * a)
    series = 0.0
    for c in reversed(_STIRLING):
        series = series * inv_a2 + c
    return a * u + 0.5 * math.log(a / (2.0 * math.pi)) - series / a


def _gammainc_series(a: float, x: float) -> float:
    """The regularized lower incomplete gamma P(a, x) by its power series
    P = x^a e^{-x} / Gamma(a + 1) * sum_n x^n / ((a+1)...(a+n)).
    The terms fall once n > x - a, so the series is used for x < a + 1."""
    term = total = 1.0
    den = a
    while term > 1e-17 * total:
        den += 1.0
        term *= x / den
        total += term
    return math.exp(_log_gamma_prefactor(a, x)) / a * total


def _log_gammaincc_cf(a: float, x: float) -> float:
    """log Q(a, x) for x >= a + 1 via the continued fraction
    Gamma(a,x) = e^{-x} x^a / (x+1-a - 1(1-a)/(x+3-a - 2(2-a)/(x+5-a - ...)))
    evaluated with the modified Lentz scheme (Press et al., Numerical
    Recipes, 3rd ed., sec. 6.2).  The log form covers the far tail where
    Q itself underflows."""
    tiny = 1e-300
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b if b != 0 else 1.0 / tiny
    f = d
    # next to x = a + 1 the fraction needs more terms as a grows: 88 at
    # a = 1e3, 893 at a = 1e6
    for i in range(1, 400 + int(math.sqrt(a))):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        f *= delta
        if abs(delta - 1.0) < 1e-15:
            break
    return _log_gamma_prefactor(a, x) + math.log(f)


def chi2_log_tail(x: float, k: int) -> float:
    """Natural log of the chi-square survival probability Q(k/2, x/2).

    Below x/2 = k/2 + 1 it is log1p(-P) with P from the power series
    (there Q > 0.08, so 1 - P loses at most a few ulps); at or above, the Lentz
    continued fraction gives log Q directly, finite far past the point
    where Q underflows.  k = 2 is the exact exponential tail."""
    if k <= 0:
        raise ValidationError("chi-square tail needs k > 0")
    a, z = 0.5 * k, 0.5 * x
    if z <= 0:
        return 0.0  # also for an x whose half underflows to 0
    if k == 2:
        return -z  # exact: exponential with mean 2
    if z < a + 1.0:
        return math.log1p(-_gammainc_series(a, z))
    return _log_gammaincc_cf(a, z)


# -- significance of a deviation ---------------------------------------


@dataclass(frozen=True)
class SignificanceReport:
    """A deviation statistic referred to its asymptotic chi-square law.

    ``entropy_scale`` is the per-sample information the deviation carries,
    statistic / 2N; it concentrates like O(1/N) under the fitted model.
    """

    statistic: float
    dof: int
    n: float
    kind: str
    pdf: float
    log10_pdf: float
    pvalue: float
    log10_pvalue: float
    significant: bool
    sig_level: float
    entropy_scale: float


def _require_finite_statistic(value: float, what: str, n: float) -> None:
    # a finite but huge sample size can carry a statistic past the float range
    if not math.isfinite(value):
        raise ValidationError(
            f"{what} is {value!r} at sample size n = {n!r}; the sample size is "
            "too large for the statistic to be represented")


def significance(chi2: float, k: int, n: float, *,
                 sig_level: float = DEFAULT_SIG_LEVEL,
                 kind: str = "entropy") -> SignificanceReport:
    """Refer a chi-square statistic to its distribution.

    ``significant`` flags tail probabilities below sig_level: deviations
    that sampling noise alone would essentially never produce.  A
    non-finite chi2 raises ValidationError.
    """
    if n <= 0:
        raise ValidationError("significance needs a positive sample size")
    if not 0.0 < sig_level < 1.0:
        raise ValidationError("significance level must lie in (0, 1)")
    _require_finite_statistic(chi2, "the deviation statistic", n)
    ln10 = np.log(10.0)
    log_tail = chi2_log_tail(chi2, k)
    log_pdf = chi2_logpdf(max(chi2, 0.0), k)
    return SignificanceReport(
        statistic=float(chi2), dof=int(k), n=float(n), kind=kind,
        pdf=float(np.exp(log_pdf)), log10_pdf=float(log_pdf / ln10),
        pvalue=float(np.exp(log_tail)), log10_pvalue=float(log_tail / ln10),
        significant=bool(np.exp(log_tail) < sig_level), sig_level=float(sig_level),
        entropy_scale=float(chi2 / (2.0 * n)))


# -- measured data ------------------------------------------------------


def _classical_means(probs: np.ndarray, stack: np.ndarray) -> np.ndarray:
    """tr(rho X) at the classical state with probabilities probs for every
    stacked operator X ((k, d) diagonals or (k, d, d) matrices), as one
    product over their diagonals."""
    diagonals = stack if stack.ndim == 2 else np.diagonal(stack, axis1=1, axis2=2).real
    return diagonals @ probs


@dataclass(frozen=True, eq=False)
class ExperimentData:
    """Sample means of a level's retained generators over n shots.

    ``means`` follow the generator order of ``level``; ``counts`` optionally
    keeps the raw classical histogram behind them (then n must equal its
    total, and the means must match it, one product over the rows of the
    level's generator stack, or be None to take them from it).
    ``empirical`` is the frequency state of the counts, built once here.
    n = 0 encodes "no data yet", which the posterior maps to the bare prior.
    """

    level: LevelOfDescription
    means: np.ndarray | None
    n: float
    counts: np.ndarray | None = None
    empirical: DensityOperator | None = field(init=False, default=None, repr=False)

    def __post_init__(self):
        if self.counts is not None:
            c = np.asarray(self.counts, dtype=float)
            if c.ndim != 1 or np.any(c < 0):
                raise ValidationError("counts must be a nonnegative 1-d array")
            object.__setattr__(self, "counts", c)
            freq = DensityOperator.classical(c / c.sum())
            object.__setattr__(self, "empirical", freq)
            level = self.level
            if freq.dim != level.dim_hilbert:
                raise ValidationError(f"dimension mismatch: {freq.dim} vs {level.dim_hilbert}")
            recomputed = _classical_means(freq.probs, level.generators[list(level.retained)])
            if self.means is None:
                object.__setattr__(self, "means", recomputed)
        m = np.asarray(self.means, dtype=float).reshape(-1)
        object.__setattr__(self, "means", m)
        if m.size != len(self.level.retained):
            raise ValidationError(
                f"expected {len(self.level.retained)} sample means, got {m.size}")
        if not np.all(np.isfinite(m)):
            raise ValidationError("sample means must be finite")
        if not (math.isfinite(self.n) and self.n >= 0):
            raise ValidationError(
                f"sample size n must be finite and nonnegative, got {self.n!r}")
        if self.counts is not None:
            if abs(c.sum() - self.n) > 1e-6 * max(1.0, self.n):
                raise ValidationError(f"counts sum to {c.sum()!r} but n = {self.n!r}")
            if np.max(np.abs(recomputed - m)) > 1e-12 * max(1.0, float(np.max(np.abs(m)))):
                raise ValidationError("stored means do not match the raw counts")

    @classmethod
    def from_counts(cls, counts, level: LevelOfDescription) -> "ExperimentData":
        c = np.asarray(counts, dtype=float)
        n = float(c.sum())
        if n <= 0:
            raise ValidationError("counts must have a positive total")
        return cls(level=level, means=None, n=n, counts=c)

    def basis_means(self) -> np.ndarray:
        """Sample means in the level's orthonormal basis coordinates."""
        return _basis_targets(self.level, self.means)

    def means_for(self, sub: LevelOfDescription) -> np.ndarray:
        """Basis-coordinate sample means for a level inside this one, built
        at its reference.  With raw counts available the expectations are
        taken directly; otherwise the stored means are carried through
        linearly, along sub's basis coordinates in the measured frame, and
        the measured level itself reads `basis_means` as they are, since its
        own coordinates are the identity up to rounding.  ValidationError
        for a level built at another reference, and without counts for one
        the measured level does not contain.
        """
        emp = self.empirical
        if emp is None:
            if sub is self.level:
                return self.basis_means()
            return _coords(self.level, sub) @ self.basis_means()
        _require_same_context(self.level, sub)
        return _classical_means(emp.probs, sub.stack)


# -- entropic prior and evidence weighting --------------------------


def _require_positive(value: float, what: str) -> None:
    # every comparison with NaN is false, so "value <= 0" alone lets it through
    if not (math.isfinite(value) and value > 0):
        raise ValidationError(f"{what} must be finite and positive, got {value!r}")


@dataclass(frozen=True, eq=False)
class EntropicPrior:
    """Prior over the manifold of ``level`` at its reference sigma: density
    proportional to exp(-alpha S(omega||sigma)).

    ``alpha`` set pins the weight; None leaves it to the evidence
    (posterior_estimate runs estimate_alpha).  Every consumer that needs a
    number checks first.
    """

    level: LevelOfDescription
    alpha: float | None = None

    def __post_init__(self):
        if self.alpha is not None:
            _require_positive(self.alpha, "prior weight alpha")


@dataclass(frozen=True)
class AlphaEstimate:
    """Evidence-set weight for the entropic prior.

    t is the fraction of the observed squared deviation attributable to
    sampling noise alone; alpha = n t / (1 - t) is the prior weight that
    makes the posterior reproduce that split.  When the deviation does not
    exceed its noise floor (deviation_ok False), alpha is None and the
    caller must supply a weight.  detail_ok flags whether at least
    DETAIL_MIN_DOF directions were fitted, enough for the estimate to be
    sharp.
    """

    alpha: float | None
    t: float
    chi2: float
    dof: int
    n: float
    deviation_ok: bool
    detail_ok: bool


def estimate_alpha(data: ExperimentData) -> AlphaEstimate:
    """Weight the prior by the data's own deviation off the reference.

    chi2 is the squared distance of the measured expectations from the
    reference point of the data's own level, in the reference metric;
    its pure-noise mean is the number of fitted directions.  The level's
    basis is centered and orthonormal at the reference, where g = 0 and
    C = I, so chi2 = N |tau|^2 for the basis means tau.  The estimate
    depends only on the measured level, not on any model level.  Raises
    EvidenceNotApplicableError without data (n = 0); below the noise floor
    it returns alpha None, and below DETAIL_MIN_DOF directions it logs a
    coarseness warning.  ValidationError when chi2 overflows.
    """
    if data.n <= 0:
        raise EvidenceNotApplicableError("evidence weighting needs data (n > 0)")
    tau = data.basis_means()
    chi2 = float(data.n) * float(tau @ tau)
    _require_finite_statistic(chi2, "the evidence chi2", data.n)
    dof = data.level.n_params
    deviation_ok = chi2 > dof
    detail_ok = dof >= DETAIL_MIN_DOF
    t = dof / chi2 if chi2 > 0 else float("inf")
    if not deviation_ok:
        logger.warning("deviation chi2 = %.4g sits at or below its noise floor "
                       "(dof = %d); evidence weighting is not applicable", chi2, dof)
        return AlphaEstimate(alpha=None, t=t, chi2=chi2, dof=dof, n=float(data.n),
                             deviation_ok=False, detail_ok=detail_ok)
    if not detail_ok:
        logger.warning("evidence weighting with only %d fitted directions; "
                       "the noise-split estimate is coarse below %d", dof, DETAIL_MIN_DOF)
    alpha = float(data.n) * t / (1.0 - t)
    return AlphaEstimate(alpha=alpha, t=t, chi2=chi2, dof=dof, n=float(data.n),
                         deviation_ok=True, detail_ok=detail_ok)


# -- posterior estimate ----------------------------------------------


def interpolate_states(mu_proj: GibbsModel, t: float) -> GibbsModel:
    """Slide a manifold point toward its reference: exp[(1-t) ln mu' + t ln sigma]
    renormalized, which on the manifold is exactly multiplier scaling by (1-t).

    t = 0 returns the point itself, t = 1 the reference.
    """
    if not 0.0 <= t <= 1.0:
        raise ValidationError("interpolation weight must lie in [0, 1]")
    return gibbs_state(mu_proj.level, (1.0 - t) * mu_proj.lam)


@dataclass(frozen=True, eq=False)
class PosteriorEstimate:
    """Posterior summary after n shots.

    The mean state interpolates between the data projection (onto the part
    of the model level the experiment measures) and the reference, with
    weight t = alpha / (alpha + n) on the reference.  Covariances are
    quoted in expectation coordinates: measured directions tighten as
    C/(alpha + n); model directions the experiment never sees stay at the
    prior width C/alpha.  ``evidence`` is the estimate that set alpha, or
    None when the prior pinned it.
    """

    rho_hat: GibbsModel
    data_model: GibbsModel
    t: float
    alpha_used: float
    evidence: AlphaEstimate | None
    n: float
    measured: LevelOfDescription
    cov_measured: np.ndarray
    unmeasured: LevelOfDescription | None
    cov_unmeasured: np.ndarray | None
    warnings: tuple[str, ...] = field(default=())

    @property
    def state(self) -> DensityOperator:
        return self.rho_hat.state

    @property
    def alpha_source(self) -> str:
        return "user" if self.evidence is None else "evidence"


def posterior_estimate(data: ExperimentData, prior: EntropicPrior) -> PosteriorEstimate:
    """Bayes estimate of the state on the prior's level from measured means.

    The experiment's level and the model level need not coincide: the data
    constrain their intersection, and the estimate shrinks that projection
    toward the reference.  A prior with alpha set pins the weight; without
    one, estimate_alpha sets it from the data, and EvidenceNotApplicableError
    is raised when there are no data or their deviation does not exceed its
    noise floor.
    """
    warnings: list[str] = []
    evidence = None
    if prior.alpha is not None:
        alpha = prior.alpha
    else:
        evidence = estimate_alpha(data)
        if evidence.alpha is None:
            raise EvidenceNotApplicableError(
                "evidence weighting inapplicable: the deviation does not exceed "
                "its noise floor; pin alpha instead")
        if not evidence.detail_ok:
            warnings.append(
                f"evidence ran with only {evidence.dof} fitted directions")
        alpha = evidence.alpha

    inter = intersection(data.level, prior.level)
    if data.n > 0:
        targets = data.means_for(inter)
        data_model = project(inter, targets)
    else:
        data_model = gibbs_state(inter, np.zeros(inter.n_params))
    t = alpha / (alpha + data.n)
    rho_hat = interpolate_states(data_model, t)
    cov_measured = rho_hat.corr / (alpha + data.n)

    unmeasured = None
    cov_unmeasured = None
    if inter.n_params < prior.level.n_params:
        unmeasured = complement(inter, prior.level)
        cov_unmeasured = _moments(rho_hat.state, unmeasured)[1] / alpha
    return PosteriorEstimate(
        rho_hat=rho_hat, data_model=data_model, t=t, alpha_used=alpha,
        evidence=evidence, n=float(data.n), measured=inter,
        cov_measured=cov_measured, unmeasured=unmeasured,
        cov_unmeasured=cov_unmeasured, warnings=tuple(warnings))


# -- significance of a fitted level -----------------------------------


def _residual_dof(data: ExperimentData, level: LevelOfDescription) -> int:
    """Degrees of freedom the measured level has beyond ``level``; refuses
    data without shots, a level built at another reference and a measured
    level that is not strictly finer."""
    if data.n <= 0:
        raise ValidationError("significance needs data (n > 0)")
    _require_same_context(level, data.level)
    dof = data.level.n_params - level.n_params
    if dof <= 0:
        raise ValidationError(
            "the measured level must be strictly finer than the fitted one")
    return dof


def level_significance(data: ExperimentData, level: LevelOfDescription, *,
                       sig_level: float = DEFAULT_SIG_LEVEL) -> SignificanceReport:
    """How surprising is the measured deviation from the best fit at `level`?

    Fits the level to the data and hands the fit to fit_significance.  The
    level must be built at the measured level's reference.
    """
    _residual_dof(data, level)
    return fit_significance(data, project(level, data.means_for(level)),
                            sig_level=sig_level)


def fit_significance(data: ExperimentData, fit: GibbsModel, *,
                     sig_level: float = DEFAULT_SIG_LEVEL) -> SignificanceReport:
    """How surprising is the measured deviation from `fit`, the projection
    of the data onto its level?

    Measures what the fit leaves unexplained inside the measured level:
    exactly, 2 N S(f || fit), when the data carry raw counts (kind
    "entropy"), else quadratically in the measured level's metric at the
    fit (kind "quadratic").  Degrees of freedom: measured minus fitted
    parameters.
    """
    dof = _residual_dof(data, fit.level)
    emp = data.empirical
    if emp is not None:
        kind = "entropy"
        stat = 2.0 * data.n * relative_entropy(emp, fit.state)
    else:
        kind = "quadratic"
        # the fit lies on the measured level's manifold too, so its
        # moments there give the metric without another projection
        g_fit, corr = _moments(fit.state, data.level)
        stat = data.n * _metric_form(corr, data.basis_means() - g_fit)
    return significance(stat, dof, data.n, sig_level=sig_level, kind=kind)


# -- model selection across nested levels ------------------------------


def verdict_from_rate(rate: float, n: float) -> str:
    """Compare the per-parameter deviation rate against the ln N band."""
    if n <= 1:
        raise ValidationError("verdicts need n > 1")
    ln_n = float(np.log(n))
    if rate > BAND_FACTOR * ln_n:
        return VERDICT_REFINE
    if rate < ln_n / BAND_FACTOR:
        return VERDICT_KEEP
    return VERDICT_INCONCLUSIVE


@dataclass(frozen=True, eq=False)
class ComparisonReport:
    """Outcome of weighing a finer level against a coarser one.

    chi2_gain is the quadratic statistic with metric at the coarse fit;
    chi2_exact = 2 N S(fit_fine || fit_coarse) is its exact counterpart.
    log_ratio is the log posterior odds of coarse against fine (positive
    keeps the coarse description); None when no prior weight is available.
    """

    coarse: str
    fine: str
    n: float
    s: int
    rel_entropy: float
    chi2_gain: float
    chi2_exact: float
    per_param: float
    ln_n: float
    band: tuple[float, float]
    verdict: str
    alpha_used: float | None
    log_ratio: float | None
    prior_odds: float
    coarse_model: GibbsModel
    fine_model: GibbsModel


def compare_levels(coarse: LevelOfDescription, fine: LevelOfDescription,
                   data: ExperimentData, *,
                   alpha="evidence", prior_odds: float = 1.0) -> ComparisonReport:
    """Does the finer level earn its extra parameters on this data?

    Requires coarse within fine within the measured level, each nesting
    checked once by `_coords`; the first check gives coarse's coordinates in
    fine's frame.  The fine level is fitted to the data, the coarse one to
    the fine fit's means carried along those coordinates (both bases are
    centred at the shared reference).  The information the refinement
    captures is scaled to a chi-square statistic and referred, per extra
    parameter, to the ln N decision band.

    log posterior odds: (s/2) ln(N/alpha) - (N - alpha) S + ln(prior odds),
    the first term being the parameter-cost penalty the finer model pays.
    alpha="evidence" estimates the weight from the data on its own level,
    a number pins it, None skips the odds (the verdict is alpha-free).
    ValidationError when chi2_exact, chi2_gain or the odds overflow, naming
    alpha when N/alpha does.
    """
    if data.n <= 1:
        raise ValidationError("model comparison needs n > 1")
    coords = _coords(fine, coarse)
    # mean-only data check fine's containment in their own read; counts
    # give the means of any level at their reference
    targets = data.means_for(fine)
    if data.empirical is not None and fine is not data.level:
        _coords(data.level, fine)
    s = fine.dim - coarse.dim
    if s <= 0:
        raise ValidationError("fine level adds no parameters over the coarse one")
    _require_positive(prior_odds, "prior odds")

    fine_model = project(fine, targets)
    coarse_model = project(coarse, coords @ fine_model.g)
    s_gain = relative_entropy(fine_model.state, coarse_model.state)
    chi2_exact = 2.0 * data.n * s_gain
    _require_finite_statistic(chi2_exact, "chi2_exact", data.n)
    # metric at the coarse fit, deviation measured inside the fine level;
    # the coarse fit lies on the fine manifold, so no projection is needed
    g_coarse, corr = _moments(coarse_model.state, fine)
    chi2_gain = data.n * _metric_form(corr, fine_model.g - g_coarse)
    _require_finite_statistic(chi2_gain, "chi2_gain", data.n)
    per_param = chi2_gain / s
    ln_n = float(np.log(data.n))
    band = (ln_n / BAND_FACTOR, BAND_FACTOR * ln_n)

    alpha_used: float | None
    if alpha == "evidence":
        est = estimate_alpha(data)
        alpha_used = est.alpha
        if alpha_used is None:
            logger.info("evidence weighting inapplicable; posterior odds omitted")
    elif alpha is None:
        alpha_used = None
    else:
        alpha_used = float(alpha)
        _require_positive(alpha_used, "prior weight alpha")

    log_ratio = None
    if alpha_used is not None:
        if not math.isfinite(data.n / alpha_used):
            raise ValidationError(
                f"N/alpha overflows in the log posterior odds at sample size n = "
                f"{data.n!r}: the prior weight alpha = {alpha_used!r} is too small")
        log_ratio = float(0.5 * s * np.log(data.n / alpha_used)
                          - (data.n - alpha_used) * s_gain + np.log(prior_odds))
        _require_finite_statistic(log_ratio, "the log posterior odds", data.n)
    return ComparisonReport(
        coarse=coarse.label or "coarse", fine=fine.label or "fine",
        n=float(data.n), s=s, rel_entropy=s_gain, chi2_gain=chi2_gain,
        chi2_exact=chi2_exact, per_param=per_param, ln_n=ln_n, band=band,
        verdict=verdict_from_rate(per_param, data.n),
        alpha_used=alpha_used, log_ratio=log_ratio, prior_odds=float(prior_odds),
        coarse_model=coarse_model, fine_model=fine_model)
