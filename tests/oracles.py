"""Reference implementations that the tests compare production code against.

None of these has a caller in the package; each is an independent route to
a number the package computes another way:

* kmb_inner, the scalar Kubo-Mori inner product of one pair of operators,
  checks the eigenframe kernel state_space._kmb_moments;
* the Bloch closed forms of the qubit spin manifold at the maximally mixed
  reference check the generic manifold machinery;
* manifold_relative_entropy and pythagoras_residual check relative
  entropies and projections against the log-normalizer identities;
* hermitian_operator, one matrix validated, symmetrized and tagged on its
  own, checks HermitianOperator.from_matrix and from_stack; with it,
  parse_observable, one JSON observable read on its own, checks the
  stacked observable reader of dataio.load_quantum.
"""

import numpy as np

from gibbsfit.errors import DataFormatError, ValidationError
from gibbsfit.gibbs import BlochVector, gibbs_state, pauli_level, project_state
from gibbsfit.state_space import (
    DensityOperator,
    HermitianOperator,
    _check_dims,
    _kmb_weights,
    pauli_x,
    pauli_y,
    pauli_z,
    relative_entropy,
)


def kmb_inner(sigma, x, y) -> float:
    """Kubo-Mori (canonical correlation) inner product at the state sigma.

    Evaluates int_0^1 tr(sigma^nu X sigma^(1-nu) Y) dnu in sigma's
    eigenbasis, where the nu integral reduces to the logarithmic mean of
    eigenvalue pairs.  Symmetric, bilinear and positive definite as long
    as sigma has full rank, which clamping guarantees.
    """
    _check_dims(sigma, x)
    _check_dims(sigma, y)
    if sigma.is_classical and x.diagonal is not None and y.diagonal is not None:
        return float(np.sum(sigma.probs * x.diagonal * y.diagonal))
    v = sigma.eigenvectors
    xp = v.conj().T @ x.matrix @ v
    yp = v.conj().T @ y.matrix @ v
    w = _kmb_weights(sigma.eigenvalues)
    return float(np.real(np.sum(w * xp * np.conj(yp))))


def _parse_part(rows, dim: int, what: str) -> np.ndarray:
    """One real dim x dim part of a JSON matrix: a list of rows of numbers."""
    if not (isinstance(rows, list) and len(rows) == dim
            and all(isinstance(r, list) and len(r) == dim
                    and all(isinstance(x, (int, float)) and not isinstance(x, bool)
                            for x in r)
                    for r in rows)):
        raise DataFormatError(f"{what} must be {dim}x{dim} numbers")
    part = np.array(rows, dtype=float)
    if not np.all(np.isfinite(part)):
        raise DataFormatError(f"{what} has a non-finite entry")
    return part


def hermitian_operator(m: np.ndarray, atol: float) -> HermitianOperator:
    """A finite square complex matrix as an operator: refused unless within
    atol * max(1, max|entry|) of its conjugate transpose, then symmetrized
    and kept as its real diagonal when no off-diagonal entry is left."""
    scale = max(1.0, float(np.max(np.abs(m))))
    if float(np.max(np.abs(m - m.conj().T))) > atol * scale:
        raise ValidationError("observable is not Hermitian within tolerance")
    m = 0.5 * (m + m.conj().T)
    if not np.any(m - np.diag(np.diag(m))):
        return HermitianOperator(diagonal=np.real(np.diag(m)).copy())
    return HermitianOperator(diagonal=None, dense=m)


def parse_observable(entry, dim: int) -> HermitianOperator:
    """One observable of a quantum JSON file, read entry by entry: its
    "re" and "im" rows (im zero when absent) combined as re + 1j * im and
    built by hermitian_operator at atol 1e-9."""
    what = f"observable {entry['name']!r}"
    re = _parse_part(entry["re"], dim, f"{what} 're'")
    im = (_parse_part(entry["im"], dim, f"{what} 'im'") if "im" in entry
          else np.zeros_like(re))
    return hermitian_operator(re + 1j * im, 1e-9)


def manifold_relative_entropy(a, b) -> float:
    """S(pi_a || pi_b) for two points of one manifold, in closed form:
    (lam_b - lam_a) . g_a + ln Z_b - ln Z_a."""
    return float((b.lam - a.lam) @ a.g) + b.ln_z - a.ln_z


def pythagoras_residual(rho, level) -> float:
    """|S(rho||sigma) - S(rho||pi) - S(pi||sigma)| with pi the projection of
    rho at the level and sigma its reference; identically zero in exact
    arithmetic."""
    sigma = level.sigma
    pi = project_state(level, rho)
    lhs = relative_entropy(rho, sigma)
    rhs = relative_entropy(rho, pi.state) + relative_entropy(pi.state, sigma)
    return abs(lhs - rhs)


# -- closed forms for the qubit spin manifold -------------------------
#
# Reference: maximally mixed qubit; level: the three Pauli observables.
# Bloch coordinates (r, theta, phi) parametrize the expectation values
# g = r * n with n the unit direction.


def bloch_unit(b: BlochVector) -> np.ndarray:
    """The unit direction n of a Bloch vector."""
    st = np.sin(b.theta)
    return np.array([st * np.cos(b.phi), st * np.sin(b.phi), np.cos(b.theta)])


def bloch_state(r: float, theta: float, phi: float) -> DensityOperator:
    """Qubit state with Bloch vector (r, theta, phi); pure states refused."""
    if not 0.0 <= r < 1.0 - 1e-9:
        raise ValidationError(f"Bloch radius {r} outside [0, 1 - 1e-9)")
    n = bloch_unit(BlochVector(r, theta, phi))
    sx, sy, sz = pauli_x().matrix, pauli_y().matrix, pauli_z().matrix
    m = 0.5 * (np.eye(2, dtype=complex) + r * (n[0] * sx + n[1] * sy + n[2] * sz))
    return DensityOperator.quantum(m)


def lambdas_from_bloch(b: BlochVector) -> np.ndarray:
    """Multipliers of the spin manifold point with Bloch vector b."""
    return -np.arctanh(b.r) * bloch_unit(b)


def bloch_from_lambdas(lam) -> BlochVector:
    lam = np.asarray(lam, dtype=float)
    size = float(np.linalg.norm(lam))
    r = float(np.tanh(size))
    if size == 0.0:
        return BlochVector(0.0, 0.0, 0.0)
    n = -lam / size
    theta = float(np.arccos(np.clip(n[2], -1.0, 1.0)))
    phi = float(np.arctan2(n[1], n[0]))
    return BlochVector(r, theta, phi)


def bloch_to_model(b: BlochVector, level=None):
    """Evaluate the generic machinery at the closed-form multipliers."""
    if level is None:
        level = pauli_level()
    return gibbs_state(level, lambdas_from_bloch(b))


def bloch_log_norm(b: BlochVector) -> float:
    """ln Z on the spin manifold: ln(2 cosh |lam|) with |lam| = atanh r."""
    return float(np.log(2.0 * np.cosh(np.arctanh(b.r))))


def bloch_volume_weight(b: BlochVector) -> float:
    """sqrt(det) of gibbs.bloch_metric: r atanh r sin(theta) / sqrt(1 - r^2)."""
    r = b.r
    return float(r * np.arctanh(r) * np.sin(b.theta) / np.sqrt(1.0 - r * r))


def bloch_relative_entropy(a: BlochVector, b: BlochVector) -> float:
    """S(rho_a || rho_b) between qubit states in Bloch form."""
    ra, rb = a.r, b.r
    cross = float(bloch_unit(a) @ bloch_unit(b))
    return (ra * np.arctanh(ra) - ra * np.arctanh(rb) * cross
            + 0.5 * np.log((1.0 - ra * ra) / (1.0 - rb * rb)))
