"""States and observables on a finite-dimensional Hilbert space.

Observables are Hermitian matrices, kept as their real diagonal when
they are diagonal.  A state is held as its spectrum: eigenvalues and
eigenvectors, plus the probability vector of a classical (diagonal)
state, so that small classical problems never pay matrix costs.  Its
matrix and its logarithm are built on first use.  Every operation below
has a vector fast path that evaluates the same formula as the general
matrix path.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ValidationError

logger = logging.getLogger("gibbsfit.state_space")

# Smallest eigenvalue kept in a density operator.  Anything below is
# clamped up and the state renormalized, so logarithms stay finite.
EIG_FLOOR = 1e-12

# Eigenvalue gaps below this (in log space) switch the canonical-correlation
# weight to its continuous limit.
KMB_DEGENERATE_TOL = 1e-9

# A state's largest tolerated Hermitian defect and trace (or probability
# sum) deviation from 1.
STATE_TOL = 1e-9

__all__ = [
    "EIG_FLOOR",
    "HermitianOperator",
    "DensityOperator",
    "expectation",
    "von_neumann_entropy",
    "relative_entropy",
    "pauli_x",
    "pauli_y",
    "pauli_z",
    "uniform_state",
]


def _freeze(a: np.ndarray) -> np.ndarray:
    out = np.array(a, copy=True)
    out.setflags(write=False)
    return out


def _content(a: np.ndarray | None) -> tuple | None:
    """An array's exact content: its dtype, shape and bytes (None for no
    array).  Equal contents give bit-identical results in every function
    that reads them."""
    return None if a is None else (a.dtype.str, a.shape, a.tobytes())


def _as_complex(a) -> np.ndarray:
    return np.asarray(a, dtype=complex)


def _require_finite(a: np.ndarray, what: str) -> None:
    # every comparison with NaN is false, so range checks alone let it through
    if not np.all(np.isfinite(a)):
        raise ValidationError(f"{what} has a non-finite entry")


@dataclass(frozen=True, eq=False)
class HermitianOperator:
    """A validated Hermitian matrix, optionally tagged as diagonal.

    ``diagonal`` holds the real diagonal vector whenever all off-diagonal
    entries are exactly zero; it is what the classical fast paths consume.
    A diagonal operator keeps only that vector: ``matrix`` is built from it
    on first use and cached, so code that stays on the diagonal never pays
    for the d x d array.
    """

    diagonal: np.ndarray | None
    dense: np.ndarray | None = field(default=None, repr=False)

    @classmethod
    def from_matrix(cls, matrix, *, atol: float = 1e-12) -> "HermitianOperator":
        m = _as_complex(matrix)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValidationError(f"observable must be a square matrix, got shape {m.shape}")
        return cls.from_stack(m[None], atol=atol)[0]

    @classmethod
    def from_stack(cls, stack, *, atol: float = 1e-12,
                   names=None) -> list["HermitianOperator"]:
        """from_matrix over an (m, d, d) stack in one pass.

        Each matrix must be finite and within atol * max(1, max|entry|) of
        its conjugate transpose; it is then symmetrized, and kept as its
        real diagonal when no off-diagonal entry is left.  A ValidationError
        names the first failing matrix by ``names[i]`` when names are given.
        """
        s = _as_complex(stack)
        if s.ndim != 3 or s.shape[1] != s.shape[2]:
            raise ValidationError(f"observables must be stacked square matrices, "
                                  f"got shape {s.shape}")
        mirror = s.conj().transpose(0, 2, 1)
        finite = np.all(np.isfinite(s), axis=(1, 2))
        scale = np.maximum(1.0, np.max(np.abs(s), axis=(1, 2)))
        with np.errstate(invalid="ignore"):  # inf - inf in a matrix refused as non-finite
            bad = ~finite | (np.max(np.abs(s - mirror), axis=(1, 2)) > atol * scale)
        if np.any(bad):
            i = int(np.argmax(bad))
            what = ("observable has a non-finite entry" if not finite[i]
                    else "observable is not Hermitian within tolerance")
            raise ValidationError(what if names is None else f"{names[i]}: {what}")
        s = 0.5 * (s + mirror)
        diagonals = np.diagonal(s, axis1=1, axis2=2)
        # no off-diagonal entry: every nonzero entry lies on the diagonal
        tagged = np.count_nonzero(s, axis=(1, 2)) == np.count_nonzero(diagonals, axis=1)
        return [cls(diagonal=_freeze(np.real(v))) if t else cls(diagonal=None, dense=_freeze(m))
                for t, v, m in zip(tagged, diagonals, s)]

    @classmethod
    def from_diagonal(cls, values) -> "HermitianOperator":
        v = np.asarray(values, dtype=float)
        if v.ndim != 1 or v.size == 0:
            raise ValidationError("diagonal observable needs a nonempty 1-d array")
        _require_finite(v, "diagonal observable")
        return cls(diagonal=_freeze(v))

    @cached_property
    def matrix(self) -> np.ndarray:
        """The d x d complex matrix (read-only); built on demand for a
        diagonal operator."""
        if self.dense is not None:
            return self.dense
        return _freeze(np.diag(self.diagonal).astype(complex))

    @property
    def dim(self) -> int:
        return (self.dense if self.diagonal is None else self.diagonal).shape[0]

    def __repr__(self) -> str:  # keep reprs short in error messages
        tag = "diag" if self.diagonal is not None else "dense"
        return f"HermitianOperator(dim={self.dim}, {tag})"


def _fix_phases(vecs: np.ndarray) -> np.ndarray:
    v = np.array(vecs, copy=True)
    for k in range(v.shape[1]):
        col = v[:, k]
        mags = np.abs(col)
        nz = np.flatnonzero(mags > 1e-12 * mags.max())
        lead = col[nz[0]] if nz.size else 1.0
        phase = lead / abs(lead) if abs(lead) > 0 else 1.0
        v[:, k] = col * np.conj(phase)
    return v


def _permutation(v: np.ndarray) -> np.ndarray | None:
    """The column-to-row map of v (read-only) when v is exactly a
    permutation matrix (every entry 0 or 1, one 1 per row and column), else
    None."""
    ones = v == 1
    if (np.all(ones | (v == 0)) and np.all(ones.sum(axis=0) == 1)
            and np.all(ones.sum(axis=1) == 1)):
        return _freeze(np.argmax(ones, axis=0))
    return None


@dataclass(frozen=True, eq=False)
class DensityOperator:
    """A state: unit-trace positive operator, held as its spectrum.

    ``eigenvalues`` run in descending order with ``eigenvectors`` as the
    matching columns.  A quantum state holds those columns as ``vectors``
    and has ``probs`` and ``order`` None.  A classical (diagonal) state
    holds its probability vector ``probs`` in outcome order and ``order``,
    the outcome of each eigenvalue, so that ``eigenvalues`` is
    ``probs[order]``; its ``vectors`` is None, and ``eigenvectors``, the
    unit vectors of ``order``, is built on first read.  All eigenvalues are
    clamped to at least ``EIG_FLOOR`` at construction and the state
    renormalized; ``clamped`` records whether that fired.  ``matrix`` and
    ``log_matrix`` are built from the spectrum on first use and kept.
    """

    probs: np.ndarray | None
    eigenvalues: np.ndarray
    order: np.ndarray | None = None
    vectors: np.ndarray | None = field(default=None, repr=False)
    clamped: bool = False

    # -- constructors -------------------------------------------------

    @classmethod
    def quantum(cls, matrix) -> "DensityOperator":
        m = _as_complex(matrix)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValidationError(f"density matrix must be square, got shape {m.shape}")
        _require_finite(m, "density matrix")
        if float(np.max(np.abs(m - m.conj().T))) > STATE_TOL:
            raise ValidationError("density matrix is not Hermitian within tolerance")
        m = 0.5 * (m + m.conj().T)
        tr = float(np.real(np.trace(m)))
        if abs(tr - 1.0) > STATE_TOL:
            raise ValidationError(f"density matrix trace {tr!r} is not 1")
        m = m / tr
        w, v = np.linalg.eigh(m)
        if w.min() < -1e-10:
            raise ValidationError(f"density matrix has negative eigenvalue {w.min():.3e}")
        w, clamped = _clamp_spectrum(w)
        return cls(probs=None, eigenvalues=_freeze(w[::-1]),
                   vectors=_freeze(_fix_phases(v[:, ::-1])), clamped=clamped)

    @classmethod
    def classical(cls, probs) -> "DensityOperator":
        p = np.asarray(probs, dtype=float)
        if p.ndim != 1 or p.size < 2:
            raise ValidationError("classical state needs at least two outcomes")
        _require_finite(p, "probability vector")
        if p.min() < -1e-10:
            raise ValidationError(f"negative probability {p.min():.3e}")
        total = float(p.sum())
        if abs(total - 1.0) > STATE_TOL:
            raise ValidationError(f"probabilities sum to {total!r}, not 1")
        return cls._diagonal(*_clamp_spectrum(p / total))

    @classmethod
    def _diagonal(cls, p: np.ndarray, clamped: bool = False) -> "DensityOperator":
        """Internal: the classical state of a normalized, floored vector."""
        order = np.argsort(p)[::-1]
        return cls(probs=_freeze(p), eigenvalues=_freeze(p[order]),
                   order=_freeze(order), clamped=clamped)

    @classmethod
    def _from_spectrum(cls, eigenvalues, eigenvectors) -> "DensityOperator":
        """Internal: a quantum state from a known clean eigensystem (already
        clamped)."""
        return cls(probs=None, eigenvalues=_freeze(np.asarray(eigenvalues, dtype=float)),
                   vectors=_freeze(_as_complex(eigenvectors)))

    @cached_property
    def eigenvectors(self) -> np.ndarray:
        """The eigenvector columns (read-only); for a classical state the
        unit vectors of ``order``, built on first read."""
        if self.vectors is not None:
            return self.vectors
        return _freeze(np.eye(self.dim, dtype=complex)[:, self.order])

    @cached_property
    def matrix(self) -> np.ndarray:
        """The d x d complex matrix (read-only)."""
        if self.is_classical:
            return _freeze(np.diag(self.probs).astype(complex))
        v = self.eigenvectors
        return _freeze((v * self.eigenvalues) @ v.conj().T)

    @cached_property
    def log_matrix(self) -> np.ndarray:
        """ln rho as a d x d complex matrix (read-only)."""
        v = self.eigenvectors
        return _freeze((v * np.log(self.eigenvalues)) @ v.conj().T)

    # -- basic queries ------------------------------------------------

    @property
    def dim(self) -> int:
        return self.eigenvalues.shape[0]

    @property
    def is_classical(self) -> bool:
        return self.probs is not None

    @cached_property
    def permutation(self) -> np.ndarray | None:
        """The column-to-row map of ``eigenvectors`` when they form an exact
        permutation, else None (read-only, computed on first use and kept).
        A classical state's is its ``order``, so its eigenvectors are not
        built."""
        return self.order if self.is_classical else _permutation(self.eigenvectors)

    @cached_property
    def kmb_roots(self) -> np.ndarray:
        """Square roots of the logarithmic-mean weights (`_kmb_weights`) of
        the spectrum, d x d and read-only, computed on first use and kept:
        the level operations at one reference all share them."""
        return _freeze(np.sqrt(_kmb_weights(self.eigenvalues)))

    @cached_property
    def content(self) -> tuple:
        """The exact content (`_content`) of ``probs``, ``eigenvalues``,
        ``order`` and ``vectors``, computed on first use and kept: a
        classical state's eigenvectors follow from ``order``, so its content
        holds no d x d array.  Unlike `same_state`, it tells apart equal
        matrices held with differently phased eigenvectors, which embed
        differently."""
        return tuple(_content(a) for a in (self.probs, self.eigenvalues,
                                           self.order, self.vectors))

    def same_state(self, other: "DensityOperator") -> bool:
        return self is other or (self.dim == other.dim
                                 and np.array_equal(self.matrix, other.matrix))

    def __repr__(self) -> str:
        kind = "classical" if self.is_classical else "quantum"
        return f"DensityOperator(dim={self.dim}, {kind})"


def _clamp_spectrum(w: np.ndarray) -> tuple[np.ndarray, bool]:
    clipped = np.maximum(w, EIG_FLOOR)
    clamped = bool(np.any(w < EIG_FLOOR))
    if clamped:
        logger.warning("eigenvalues below %.0e clamped and state renormalized", EIG_FLOOR)
    return clipped / clipped.sum(), clamped


# -- scalar functionals ----------------------------------------------


def _check_dims(a, b) -> None:
    if a.dim != b.dim:
        raise ValidationError(f"dimension mismatch: {a.dim} vs {b.dim}")


def expectation(rho: DensityOperator, obs: HermitianOperator) -> float:
    """tr(rho X).  Real by construction; the residual imaginary part
    (roundoff, < 1e-10) is discarded."""
    _check_dims(rho, obs)
    if rho.is_classical and obs.diagonal is not None:
        return float(rho.probs @ obs.diagonal)
    return float(np.real(np.trace(rho.matrix @ obs.matrix)))


def von_neumann_entropy(rho: DensityOperator) -> float:
    """-tr(rho ln rho) with the 0 ln 0 = 0 convention."""
    p = rho.eigenvalues
    p = p[p > 0]
    return float(-(p @ np.log(p)))


def relative_entropy(rho: DensityOperator, sigma: DensityOperator) -> float:
    """S(rho || sigma) = tr(rho ln rho - rho ln sigma).

    Both states carry strictly positive spectra (construction-time
    clamping), so the result is always finite.
    """
    _check_dims(rho, sigma)
    if rho.is_classical and sigma.is_classical:
        p, q = rho.probs, sigma.probs
        return float(p @ (np.log(p) - np.log(q)))
    s_rho = -von_neumann_entropy(rho)
    cross = float(np.real(np.trace(rho.matrix @ sigma.log_matrix)))
    return s_rho - cross


def _kmb_weights(p: np.ndarray) -> np.ndarray:
    """Logarithmic-mean weight matrix for the canonical correlation kernel.

    w_ij = (p_i - p_j) / (ln p_i - ln p_j), with the symmetric limit
    (p_i + p_j)/2 once the log gap drops below KMB_DEGENERATE_TOL.  The
    averaged limit agrees with the log mean to second order and keeps the
    weight matrix exactly symmetric.
    """
    lp = np.log(p)
    dlog = lp[:, None] - lp[None, :]
    near = np.abs(dlog) < KMB_DEGENERATE_TOL
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = (p[:, None] - p[None, :]) / dlog
    return np.where(near, 0.5 * (p[:, None] + p[None, :]), ratio)


def _kmb_moments(p: np.ndarray, v: np.ndarray,
                 basis: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Means g and canonical-correlation covariance C of a stacked basis at
    the state with spectrum p and eigenvectors v (columns).  The basis is
    (k, d, d) matrices or (k, d) diagonals; V^dag diag(b) V is then
    (V^dag * b) V, so a diagonal basis never builds its matrices.

    The Kubo-Mori inner product int_0^1 tr(sigma^nu X sigma^(1-nu) Y) dnu of
    every centered pair at once (Daleckii-Krein form): with B' = V^dag B V
    and g taken off each diagonal, C_ab = Re sum_ij W_ij B'_a,ij conj(B'_b,ij)
    for W = _kmb_weights(p), one real GEMM over the (re, im) pairs.  The
    scalar one-pair form in tests/oracles.py is its reference.
    """
    k, d = basis.shape[0], p.size
    vh = v.conj().T
    rot = vh @ basis @ v if basis.ndim == 3 else (vh * basis[:, None, :]) @ v
    diag = np.arange(d)
    g = np.real(rot[:, diag, diag]) @ p
    rot[:, diag, diag] -= g[:, None]
    flat = rot.reshape(k, d * d).view(float)
    return g, (flat * np.repeat(_kmb_weights(p).ravel(), 2)) @ flat.T


# -- convenience constructors ----------------------------------------


def pauli_x() -> HermitianOperator:
    return HermitianOperator.from_matrix(np.array([[0, 1], [1, 0]], dtype=complex))


def pauli_y() -> HermitianOperator:
    return HermitianOperator.from_matrix(np.array([[0, -1j], [1j, 0]], dtype=complex))


def pauli_z() -> HermitianOperator:
    return HermitianOperator.from_diagonal([1.0, -1.0])


def uniform_state(dim: int) -> DensityOperator:
    """Maximally mixed quantum state 1/d."""
    return DensityOperator.quantum(np.eye(dim, dtype=complex) / dim)
