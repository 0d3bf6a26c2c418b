"""Gibbs manifolds: exponential families anchored at a reference state.

A manifold is fixed by a level alone: the level carries its reference
sigma.  A point on the manifold of a level G at reference sigma is

    pi(lam) = exp[(ln sigma - <ln sigma>_sigma) - sum_b lam_b B_b] / Z(lam)

with {B_b} the level's orthonormal centered basis.  lam = 0 reproduces
sigma exactly.  ln Z is strictly convex with gradient -g(lam) and Hessian
equal to the canonical-correlation covariance of the basis at pi(lam), so
matching expectation values is an unconstrained convex solve.  Targets
and multipliers are in basis coordinates; `_basis_targets` converts means
of the retained generators.

An evaluation reads the level's stacked basis `LevelOfDescription.stack`.
At a classical reference a (k, d) diagonal stack stays on vectors;
otherwise lam.B is one GEMV over the stack's rows and the exponent is
diagonalized by eigh.  It comes in two parts: `_log_norm` gives ln Z and
the spectrum of pi(lam), all that a line search reads, and `_moments_at`
gives g and the covariance on that spectrum, through the eigenframe kernel
state_space._kmb_moments unless all is classical.  The reference itself
needs neither: the basis is centered and orthonormal at sigma, so there
g = 0, C = I and ln Z = S(sigma).  `project` starts Newton at that point,
and `inference.estimate_alpha` reads its chi2 off the basis means.

At the bottom: the spin level of a qubit and Bloch coordinates read off
its manifold points, which the qubit demo reports.  The closed forms of
that manifold (multipliers, ln Z, relative entropy and volume weight in
Bloch coordinates) check the generic machinery and live in tests/oracles.py.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleTargetError, NotConvergedError, ValidationError
from .levels import LevelOfDescription, make_level
from .state_space import (
    EIG_FLOOR,
    DensityOperator,
    _kmb_moments,
    pauli_x,
    pauli_y,
    pauli_z,
    uniform_state,
    von_neumann_entropy,
)

# Newton refuses to chase multipliers beyond this: expectation targets on
# the boundary of the achievable set push |lam| to infinity.
LAMBDA_CAP = 1e3

MAX_NEWTON_ITER = 200

# Armijo sufficient-decrease slope and smallest admissible step.
_ARMIJO = 1e-4
_MIN_STEP = 1e-16

__all__ = [
    "GibbsModel",
    "gibbs_state",
    "project",
    "project_state",
    "volume_weight",
    "thermodynamic_entropy",
    "BlochVector",
    "pauli_level",
    "model_to_bloch",
    "bloch_metric",
]


@dataclass(frozen=True, eq=False)
class GibbsModel:
    """One point pi(lam) on a Gibbs manifold, with its local geometry.

    ``g`` holds the basis-coordinate expectations <B_b>, ``corr`` the
    covariance matrix C_bc (symmetric positive definite), which is both
    the Hessian of ln Z and the metric the chi-square forms use.
    """

    level: LevelOfDescription
    lam: np.ndarray
    ln_z: float
    state: DensityOperator
    g: np.ndarray
    corr: np.ndarray

    @property
    def n_params(self) -> int:
        return self.level.n_params

    @property
    def dim(self) -> int:
        """Dimension of the level (identity included)."""
        return self.level.dim

    def generator_expectations(self) -> np.ndarray:
        """Expectations of the retained generators, in input order."""
        lvl = self.level
        return lvl.gen_offsets + lvl.gen_coeffs @ self.g

    def generator_multipliers(self) -> np.ndarray:
        """Multipliers re-expressed against the retained generators.

        Solves T^t mu = lam, so that sum_a mu_a dG_a = sum_b lam_b B_b.
        """
        if self.n_params == 0:
            return np.zeros(0)
        return np.linalg.solve(self.level.gen_coeffs.T, self.lam)

    def __repr__(self) -> str:
        return (f"GibbsModel(dim={self.dim}, ln_z={self.ln_z:.6g}, "
                f"lam={np.array2string(self.lam, precision=6)})")


def _moments_at(p: np.ndarray, v: np.ndarray | None,
                stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(g, corr) of a stacked basis at the state with probability vector p
    (v None; a (k, d) diagonal stack stays on vectors) or with eigenvalues
    p and eigenvector columns v; corr exactly symmetric."""
    if v is None:
        g = stack @ p
        centered = stack - g[:, None]
        corr = (centered * p) @ centered.T
    else:
        g, corr = _kmb_moments(p, v, stack)
    return g, 0.5 * (corr + corr.T)


def _moments(state: DensityOperator,
             level: LevelOfDescription) -> tuple[np.ndarray, np.ndarray]:
    """(g, corr) of the level's basis at a state; corr exactly symmetric.
    A classical state and a diagonal stack stay on vectors."""
    stack = level.stack
    if state.is_classical and stack.ndim == 2:
        return _moments_at(state.probs, None, stack)
    return _moments_at(state.eigenvalues, state.eigenvectors, stack)


def _log_norm(level: LevelOfDescription):
    """The function lam -> (ln_z, p, v) on the level's manifold: ln Z(lam)
    and the spectrum of pi(lam), its probability vector p with v None when
    all is classical, else its eigenvalues p, descending, and eigenvector
    columns v.  `_moments_at` and `_state` read that spectrum.

    The exponent ln sigma - lam.B is a vector when all is classical and
    otherwise a matrix diagonalized by eigh; it is shifted by its top
    eigenvalue before exponentiation.  lam.B is one GEMV over the stack's
    rows.  The centering constant <ln sigma>_sigma only moves ln Z and is
    added back in closed form (it equals minus the entropy of sigma).
    ln sigma and that entropy are computed once, here, for every lam.
    eigh's eigenvectors are kept as they come, since their phases reach no
    result.
    """
    sigma, stack, d = level.sigma, level.stack, level.dim_hilbert
    entropy = von_neumann_entropy(sigma)
    vector = sigma.is_classical and stack.ndim == 2
    log_sigma = np.log(sigma.probs) if vector else sigma.log_matrix
    rows = stack if stack.ndim == 2 else stack.reshape(len(stack), d * d)

    def log_norm(lam: np.ndarray) -> tuple[float, np.ndarray, np.ndarray | None]:
        shift = lam @ rows
        if vector:
            w, v = log_sigma - shift, None
        else:
            shift = np.diag(shift) if stack.ndim == 2 else shift.reshape(d, d)
            w, v = np.linalg.eigh(log_sigma - shift)
        m = float(w.max())
        raw = np.exp(w - m)
        total = float(raw.sum())
        p = np.maximum(raw / total, EIG_FLOOR)
        p /= p.sum()
        if v is not None:
            p, v = p[::-1].copy(), np.ascontiguousarray(v[:, ::-1])
        return m + np.log(total) + entropy, p, v

    return log_norm


def _state(p: np.ndarray, v: np.ndarray | None) -> DensityOperator:
    """The state of a `_log_norm` spectrum."""
    return (DensityOperator._diagonal(p) if v is None
            else DensityOperator._from_spectrum(p, v))


def gibbs_state(level: LevelOfDescription, lam) -> GibbsModel:
    """The manifold point at given multipliers (basis coordinates)."""
    lam = np.asarray(lam, dtype=float).reshape(-1)
    if lam.size != level.n_params:
        raise ValidationError(
            f"expected {level.n_params} multipliers, got {lam.size}")
    ln_z, p, v = _log_norm(level)(lam)
    g, corr = _moments_at(p, v, level.stack)
    return GibbsModel(level=level, lam=lam.copy(), ln_z=ln_z,
                      state=_state(p, v), g=g, corr=corr)


def _basis_targets(level: LevelOfDescription, targets: np.ndarray) -> np.ndarray:
    """Convert expectation targets for the retained generators into targets
    for the orthonormal basis: tau_a = c_a + sum_b T_ab t_b."""
    if targets.size != len(level.retained):
        raise ValidationError(
            f"expected {len(level.retained)} generator targets, got {targets.size}")
    if targets.size == 0:
        return np.zeros(0)
    return np.linalg.solve(level.gen_coeffs, targets - level.gen_offsets)


def _newton_step(corr: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """-corr^{-1} grad by two solves with the triangular Cholesky factor
    corr = L L^t; np.linalg.LinAlgError if corr is not positive definite."""
    low = np.linalg.cholesky(corr)
    return np.linalg.solve(low.T, np.linalg.solve(low, -grad))


def project(level: LevelOfDescription, targets) -> GibbsModel:
    """Damped-Newton solve for the manifold point matching expectation targets.

    ``targets`` are expectation values of the level's orthonormal basis
    (`_basis_targets` and `ExperimentData.basis_means` convert means of the
    retained generators).  The result is the projection of any state with
    those expectations onto the manifold of the level at its reference: the
    unique minimizer of relative entropy to the reference among states
    matching the targets.

    Newton minimizes Gamma(lam) = ln Z(lam) + lam.t with an Armijo
    backtracking line search (Boyd & Vandenberghe, Convex Optimization,
    sec. 9.5).  It starts at the reference with nothing evaluated: the
    basis is centered and orthonormal at sigma, so there g = 0, C = I and
    ln Z = S(sigma), and the first step is t itself.  A trial point costs
    one spectrum and its ln Z (`_log_norm`), which is all the Armijo test
    reads; g and C are computed once per accepted point, and one state is
    built, for the returned model (at lam = 0 that is sigma itself).

    Raises InfeasibleTargetError when the iteration caps out or multipliers
    blow past LAMBDA_CAP (targets on or outside the achievable set), and
    NotConvergedError if the line search stagnates without that signature.
    """
    t = np.asarray(targets, dtype=float).reshape(-1)
    k = level.n_params
    if t.size != k:
        raise ValidationError(f"expected {k} basis targets, got {t.size}")

    scale = float(np.max(np.abs(t))) if t.size else 0.0
    tol = 1e-10 * (1.0 + scale)
    log_norm = _log_norm(level)
    lam = np.zeros(k)
    ln_z = von_neumann_entropy(level.sigma)
    g, corr = np.zeros(k), np.eye(k)
    spectrum = None  # of the current point; None at the reference

    def objective(ln_z_val: float, lam_val: np.ndarray) -> float:
        return ln_z_val + float(lam_val @ t)

    gamma = objective(ln_z, lam)
    for _ in range(MAX_NEWTON_ITER):
        resid_inf = float(np.max(np.abs(g - t), initial=0.0))
        if resid_inf <= tol:
            state = level.sigma if spectrum is None else _state(*spectrum)
            return GibbsModel(level=level, lam=lam, ln_z=ln_z,
                              state=state, g=g, corr=corr)
        grad = t - g
        try:
            step = _newton_step(corr, grad)
        except np.linalg.LinAlgError as exc:  # pragma: no cover - corr is PD
            raise NotConvergedError(f"covariance factorization failed: {exc}")
        slope = float(grad @ step)  # = -step.C.step < 0
        s = 1.0
        # near the optimum the true decrease drops below eps*|Gamma|, so a
        # strict sufficient-decrease test rejects full Newton steps and the
        # iteration stalls; allow rounding-level slack
        noise = 1e-14 * (1.0 + abs(gamma))
        while True:
            cand = lam + s * step
            ln_z_c, *spectrum_c = log_norm(cand)
            if objective(ln_z_c, cand) <= gamma + _ARMIJO * s * slope + noise:
                break
            s *= 0.5
            if s < _MIN_STEP:
                raise NotConvergedError(
                    "line search stagnated before reaching the target tolerance")
        lam, ln_z, spectrum = cand, ln_z_c, spectrum_c
        g, corr = _moments_at(*spectrum, level.stack)
        gamma = objective(ln_z, lam)
        if float(np.max(np.abs(lam))) > LAMBDA_CAP:
            raise InfeasibleTargetError(
                "multipliers diverged; targets lie outside the achievable set")
    raise InfeasibleTargetError(
        f"no convergence within {MAX_NEWTON_ITER} Newton steps; targets are likely "
        "on the boundary of the achievable set")


def project_state(level: LevelOfDescription, rho: DensityOperator) -> GibbsModel:
    """Project a state onto the manifold: match all level expectations.

    The result is the generalized Gibbs state of rho at this level and
    reference.  Matching the orthonormal basis is equivalent to matching
    the generators and is better conditioned.
    """
    if rho.dim != level.dim_hilbert:
        raise ValidationError(
            f"state dimension {rho.dim} != level dimension {level.dim_hilbert}")
    t, _ = _moments(rho, level)
    return project(level, t)


def _metric_form(corr: np.ndarray, d: np.ndarray) -> float:
    """d^t corr^{-1} d as |L^{-1} d|^2, with corr = L L^t its Cholesky
    factor; 0 for an empty d.  A corr that is not positive definite raises
    np.linalg.LinAlgError."""
    if d.size == 0:
        return 0.0
    y = np.linalg.solve(np.linalg.cholesky(corr), d)
    return float(y @ y)


def volume_weight(model: GibbsModel) -> float:
    """sqrt(det C): the Riemannian volume density in multiplier coordinates."""
    if model.n_params == 0:
        return 1.0
    sign, logdet = np.linalg.slogdet(model.corr)
    if sign <= 0:  # pragma: no cover - corr is PD by construction
        raise ValidationError("covariance lost positive definiteness")
    return float(np.exp(0.5 * logdet))


def thermodynamic_entropy(model: GibbsModel) -> float:
    """Legendre dual of the log-normalizer: ln Z + lam . g.

    Coincides with the von Neumann entropy of the model state whenever the
    reference is maximally mixed.
    """
    return model.ln_z + float(model.lam @ model.g)


# -- the qubit spin manifold in Bloch coordinates ---------------------
#
# Reference: maximally mixed qubit; level: the three Pauli observables,
# which are already orthonormal in the canonical-correlation product at
# that reference.  Bloch coordinates (r, theta, phi) parametrize the
# expectation values g = r * n with n the unit direction.


@dataclass(frozen=True)
class BlochVector:
    r: float
    theta: float
    phi: float


def pauli_level(sigma: DensityOperator | None = None) -> LevelOfDescription:
    """Spin level of a single qubit: span{1, X, Y, Z}."""
    if sigma is None:
        sigma = uniform_state(2)
    return make_level([pauli_x(), pauli_y(), pauli_z()], sigma, label="spin")


def model_to_bloch(model: GibbsModel) -> BlochVector:
    """Read Bloch coordinates off a spin-manifold point (g = r n)."""
    if model.n_params != 3:
        raise ValidationError("not a spin-level model")
    g = model.g
    r = float(np.linalg.norm(g))
    if r == 0.0:
        return BlochVector(0.0, 0.0, 0.0)
    theta = float(np.arccos(np.clip(g[2] / r, -1.0, 1.0)))
    phi = float(np.arctan2(g[1], g[0]))
    return BlochVector(r, theta, phi)


def bloch_metric(b: BlochVector) -> np.ndarray:
    """Canonical-correlation metric in (r, theta, phi) coordinates.

    diag(1/(1-r^2), r atanh r, r atanh r sin^2 theta); the pullback of
    C^{-1} from expectation coordinates through the spherical map.
    """
    r = b.r
    f = r * np.arctanh(r)
    return np.diag([1.0 / (1.0 - r * r), f, f * np.sin(b.theta) ** 2])
