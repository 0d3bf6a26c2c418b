"""Levels of description: observable spans and their lattice operations.

A level is the real span of the identity together with a set of Hermitian
generators.  Internally we keep an orthonormalized, centered basis under a
tagged inner product: plain Hilbert-Schmidt, or the canonical-correlation
(Kubo-Mori) product at a reference state.  The tag and reference travel
with the level so results computed at one reference cannot silently be
reused at another.

All span arithmetic runs in a Euclidean embedding of operator space, which
keeps Gram-Schmidt, sublevel tests and principal-angle detection on
numerically solid ground.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ValidationError
from .state_space import (
    DensityOperator,
    HermitianOperator,
    _kmb_weights,
    expectation,
)

# Gram-Schmidt drops a generator when its residual falls below this times
# the centered input norm.
DROP_TOL = 1e-10

# Sublevel membership: largest tolerated projection residual.
SUBLEVEL_TOL = 1e-8

# Intersection keeps directions whose principal angle (in radians, via its
# sine) is below this.
ANGLE_TOL = 1e-8

__all__ = [
    "LevelOfDescription",
    "make_level",
    "is_sublevel",
    "complement",
    "union",
    "intersection",
    "tensor",
    "trivial_level",
    "full_quantum_level",
    "full_classical_level",
]


def _coerce_operator(obj) -> HermitianOperator:
    if isinstance(obj, HermitianOperator):
        return obj
    arr = np.asarray(obj)
    if arr.ndim == 1:
        return HermitianOperator.from_diagonal(arr)
    return HermitianOperator.from_matrix(arr)


def _embedding(inner: str, sigma: DensityOperator | None):
    """Map operators to complex vectors so the tagged inner product becomes
    Re <u, v> in the Euclidean sense."""
    if inner == "hs":
        return lambda op: op.matrix.ravel()
    v = sigma.eigenvectors
    sw = np.sqrt(_kmb_weights(sigma.eigenvalues))
    # exact for diagonal operators at classical references: v is then a
    # permutation and the transform introduces no roundoff
    return lambda op: (sw * (v.conj().T @ op.matrix @ v)).ravel()


def _center(op: HermitianOperator, inner: str, sigma: DensityOperator | None):
    """Split X = c*1 + dX with dX orthogonal to the identity."""
    if inner == "kmb":
        c = expectation(sigma, op)
    else:
        c = float(np.real(np.trace(op.matrix))) / op.dim
    if op.diagonal is not None:
        centered = HermitianOperator.from_diagonal(op.diagonal - c)
    else:
        centered = HermitianOperator.from_matrix(
            op.matrix - c * np.eye(op.dim), atol=1e-10)
    return c, centered


def _gram_schmidt(ops, embeds, drop_tol=DROP_TOL):
    """Orthonormalize (with one reorthogonalization pass); returns the kept
    input indices alongside the basis operators and their embeddings."""
    basis_ops: list[HermitianOperator] = []
    basis_z: list[np.ndarray] = []
    kept: list[int] = []
    for idx, (op, z) in enumerate(zip(ops, embeds)):
        orig = np.sqrt(max(np.real(np.vdot(z, z)), 0.0))
        if orig == 0.0:
            continue
        m = op.matrix.copy()
        zz = z.copy()
        for _ in range(2):
            for bop, bz in zip(basis_ops, basis_z):
                c = float(np.real(np.vdot(bz, zz)))
                zz -= c * bz
                m = m - c * bop.matrix
        norm = np.sqrt(max(np.real(np.vdot(zz, zz)), 0.0))
        if norm < drop_tol * orig:
            continue
        basis_ops.append(HermitianOperator.from_matrix(m / norm, atol=1e-9))
        basis_z.append(zz / norm)
        kept.append(idx)
    return basis_ops, basis_z, kept


@dataclass(frozen=True, eq=False)
class LevelOfDescription:
    """Span of {1, G_1, ..., G_m} with an orthonormal centered basis.

    ``generators`` keeps the operators as handed in; ``retained`` indexes
    the subset that survived dependency dropping, in input order.  Each
    retained generator decomposes exactly as

        G_a = gen_offsets[a] * 1 + sum_b gen_coeffs[a, b] * basis[b],

    which is how expectation targets in generator coordinates map onto the
    internal basis coordinates.
    """

    dim_hilbert: int
    inner: str
    sigma: DensityOperator | None
    generators: tuple[HermitianOperator, ...]
    basis: tuple[HermitianOperator, ...]
    retained: tuple[int, ...]
    gen_offsets: np.ndarray
    gen_coeffs: np.ndarray
    label: str = ""

    @property
    def dim(self) -> int:
        """Dimension of the span, identity included."""
        return 1 + len(self.basis)

    @property
    def n_params(self) -> int:
        return len(self.basis)

    @property
    def is_trivial(self) -> bool:
        return not self.basis

    @property
    def all_diagonal(self) -> bool:
        return all(b.diagonal is not None for b in self.basis)

    @cached_property
    def basis_stack(self) -> np.ndarray:
        """Read-only (k, d, d) stack of the basis matrices, built on first
        use; the classical vector path never builds it."""
        d = self.dim_hilbert
        stack = np.array([b.matrix for b in self.basis], dtype=complex)
        stack = stack.reshape(self.n_params, d, d)
        stack.setflags(write=False)
        return stack

    def same_context(self, other: "LevelOfDescription") -> bool:
        if self.dim_hilbert != other.dim_hilbert or self.inner != other.inner:
            return False
        if (self.sigma is None) != (other.sigma is None):
            return False
        return self.sigma is None or self.sigma.same_state(other.sigma)

    def with_label(self, label: str) -> "LevelOfDescription":
        return LevelOfDescription(self.dim_hilbert, self.inner, self.sigma,
                                  self.generators, self.basis, self.retained,
                                  self.gen_offsets, self.gen_coeffs, label)

    def __repr__(self) -> str:
        name = f" {self.label!r}" if self.label else ""
        return (f"LevelOfDescription(dim={self.dim}, d={self.dim_hilbert}, "
                f"inner={self.inner!r}{name})")


def make_level(generators, inner: str = "hs", sigma: DensityOperator | None = None,
               *, dim: int | None = None, label: str = "") -> LevelOfDescription:
    """Build a level from Hermitian generators.

    ``inner`` selects the orthonormalization geometry: "hs" or "kmb" (the
    latter requires the reference state ``sigma``).  Generators that are
    linear combinations of earlier ones, or proportional to the identity,
    are dropped.  An empty effective span yields the trivial level.
    """
    if inner not in ("hs", "kmb"):
        raise ValidationError(f"unknown inner-product tag {inner!r}")
    if inner == "kmb" and sigma is None:
        raise ValidationError("kmb inner product requires a reference state")
    ops = [_coerce_operator(g) for g in generators]
    if ops:
        d = ops[0].dim
    elif sigma is not None:
        d = sigma.dim
    elif dim is not None:
        d = dim
    else:
        raise ValidationError("cannot infer Hilbert-space dimension for an empty level")
    if any(op.dim != d for op in ops):
        raise ValidationError("generators live on different Hilbert spaces")
    if sigma is not None and sigma.dim != d:
        raise ValidationError("reference state dimension does not match generators")

    centered = [_center(op, inner, sigma) for op in ops]
    embed = _embedding(inner, sigma)
    basis_ops, basis_z, kept = _gram_schmidt(
        [c for _, c in centered], [embed(c) for _, c in centered])

    k = len(basis_ops)
    offsets = np.array([centered[i][0] for i in kept], dtype=float)
    coeffs = np.zeros((k, k))
    for a, i in enumerate(kept):
        zi = embed(centered[i][1])
        for b, bz in enumerate(basis_z):
            coeffs[a, b] = float(np.real(np.vdot(bz, zi)))
    offsets.setflags(write=False)
    coeffs.setflags(write=False)
    return LevelOfDescription(
        dim_hilbert=d, inner=inner, sigma=sigma, generators=tuple(ops),
        basis=tuple(basis_ops), retained=tuple(kept),
        gen_offsets=offsets, gen_coeffs=coeffs, label=label)


def trivial_level(dim: int, inner: str = "hs",
                  sigma: DensityOperator | None = None) -> LevelOfDescription:
    """The level spanned by the identity alone."""
    return make_level([], inner, sigma, dim=dim, label="O")


def full_quantum_level(dim: int, inner: str = "hs",
                       sigma: DensityOperator | None = None) -> LevelOfDescription:
    """The complete observable algebra: dim(level) = d^2."""
    gens = []
    eye = np.eye(dim)
    for k in range(dim):
        gens.append(HermitianOperator.from_diagonal(eye[k]))
    for i in range(dim):
        for j in range(i + 1, dim):
            m = np.zeros((dim, dim), dtype=complex)
            m[i, j] = m[j, i] = 1.0
            gens.append(HermitianOperator.from_matrix(m))
            m = np.zeros((dim, dim), dtype=complex)
            m[i, j] = -1j
            m[j, i] = 1j
            gens.append(HermitianOperator.from_matrix(m))
    return make_level(gens, inner, sigma, label="A")


def full_classical_level(dim: int, inner: str = "kmb",
                         sigma: DensityOperator | None = None) -> LevelOfDescription:
    """Outcome-indicator span of a classical sample space (dim(level) = d)."""
    eye = np.eye(dim)
    gens = [HermitianOperator.from_diagonal(eye[k]) for k in range(dim)]
    return make_level(gens, inner, sigma, label="full")


def _require_same_context(a: LevelOfDescription, b: LevelOfDescription) -> None:
    if not a.same_context(b):
        raise ValidationError("levels carry different inner-product contexts")


def is_sublevel(sub: LevelOfDescription, sup: LevelOfDescription) -> bool:
    """True when span(sub) is contained in span(sup), shared context required."""
    _require_same_context(sub, sup)
    if sub.is_trivial:
        return True
    embed = _embedding(sup.inner, sup.sigma)
    sup_z = [embed(b) for b in sup.basis]
    for b in sub.basis:
        z = embed(b)
        for bz in sup_z:
            z = z - float(np.real(np.vdot(bz, z))) * bz
        if np.sqrt(max(np.real(np.vdot(z, z)), 0.0)) > SUBLEVEL_TOL:
            return False
    return True


def _op_label(a: LevelOfDescription, b: LevelOfDescription, sep: str) -> str:
    return f"{a.label}{sep}{b.label}" if a.label and b.label else ""


def union(a: LevelOfDescription, b: LevelOfDescription) -> LevelOfDescription:
    """Smallest level containing both spans."""
    _require_same_context(a, b)
    return make_level(list(a.basis) + list(b.basis), a.inner, a.sigma,
                      dim=a.dim_hilbert, label=_op_label(a, b, "+"))


def intersection(a: LevelOfDescription, b: LevelOfDescription) -> LevelOfDescription:
    """Largest level contained in both spans, via principal angles.

    Working in the orthonormal coordinates of the union span, directions of
    b whose residual against span(a) has singular value below ANGLE_TOL
    (the sine of the principal angle) are declared shared.
    """
    _require_same_context(a, b)
    if a.is_trivial or b.is_trivial:
        return trivial_level(a.dim_hilbert, a.inner, a.sigma)
    embed = _embedding(a.inner, a.sigma)
    _, frame_z, _ = _gram_schmidt(list(a.basis) + list(b.basis),
                                  [embed(op) for op in list(a.basis) + list(b.basis)])
    frame = np.array(frame_z)

    def coords(ops):
        return np.array([[float(np.real(np.vdot(fz, embed(op)))) for fz in frame]
                         for op in ops])

    ca = coords(a.basis)
    cb = coords(b.basis)
    resid = cb - (cb @ ca.T) @ ca
    u, s, _ = np.linalg.svd(resid, full_matrices=True)
    shared = []
    for l in range(u.shape[1]):
        sine = s[l] if l < s.size else 0.0
        if sine < ANGLE_TOL:
            m = sum(u[j, l] * b.basis[j].matrix for j in range(len(b.basis)))
            shared.append(HermitianOperator.from_matrix(m, atol=1e-9))
    return make_level(shared, a.inner, a.sigma, dim=a.dim_hilbert,
                      label=_op_label(a, b, "&"))


def complement(sub: LevelOfDescription, ambient: LevelOfDescription,
               sigma: DensityOperator) -> LevelOfDescription:
    """Orthogonal complement of sub inside ambient, in the canonical
    correlation geometry at sigma.

    Both arguments are re-expressed at sigma first, so the operation is
    well defined regardless of how the inputs were orthonormalized.  The
    result carries the kmb tag at sigma.
    """
    sub_k = make_level(sub.basis, "kmb", sigma, dim=sub.dim_hilbert)
    amb_k = make_level(ambient.basis, "kmb", sigma, dim=ambient.dim_hilbert)
    if sub_k.dim_hilbert != amb_k.dim_hilbert:
        raise ValidationError("sublevel and ambient live on different spaces")
    if not is_sublevel(sub_k, amb_k):
        raise ValidationError("complement requires sub to be contained in ambient")
    embed = _embedding("kmb", sigma)
    ordered = list(sub_k.basis) + list(amb_k.basis)
    basis_ops, _, kept = _gram_schmidt(ordered, [embed(op) for op in ordered])
    comp = [op for op, idx in zip(basis_ops, kept) if idx >= len(sub_k.basis)]
    return make_level(comp, "kmb", sigma, dim=amb_k.dim_hilbert,
                      label=_op_label(ambient, sub, "-"))


def tensor(a: LevelOfDescription, b: LevelOfDescription) -> LevelOfDescription:
    """Composite level on the product space; dim multiplies.

    Generated by A x 1, 1 x B and all products A x B of the factor bases.
    For kmb-tagged factors the composite reference is the product state.
    """
    if a.inner != b.inner:
        raise ValidationError("cannot tensor levels with different inner-product tags")
    da, db = a.dim_hilbert, b.dim_hilbert
    sigma = None
    if a.inner == "kmb":
        sa, sb = a.sigma, b.sigma
        if sa.is_classical and sb.is_classical:
            sigma = DensityOperator.classical(np.kron(sa.probs, sb.probs))
        else:
            sigma = DensityOperator.quantum(np.kron(sa.matrix, sb.matrix))
    eye_a, eye_b = np.eye(da), np.eye(db)
    gens = []
    for ga in a.basis:
        gens.append(HermitianOperator.from_matrix(np.kron(ga.matrix, eye_b)))
    for gb in b.basis:
        gens.append(HermitianOperator.from_matrix(np.kron(eye_a, gb.matrix)))
    for ga in a.basis:
        for gb in b.basis:
            gens.append(HermitianOperator.from_matrix(np.kron(ga.matrix, gb.matrix)))
    return make_level(gens, a.inner, sigma, dim=da * db)
