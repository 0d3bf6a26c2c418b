"""Levels of description: observable spans and their lattice operations.

A level is the real span of the identity together with a set of Hermitian
generators.  Internally we keep a basis centered and orthonormalized in the
canonical-correlation (Kubo-Mori) product at a reference state.  The
reference travels with the level so results computed at one reference
cannot silently be reused at another.

All span arithmetic runs in a Euclidean embedding of operator space (which
`make_level` and `intersection` compute once per operator); it keeps
Gram-Schmidt, sublevel tests and principal-angle detection numerically solid.

Diagonal operators stay diagonal.  At a classical reference a diagonal
operator's embedding is written straight onto its diagonal slots, and when
every input is diagonal Gram-Schmidt projects the real diagonal vectors,
so a classical level never builds a d x d matrix.  The projections of such
embeddings then update only the d slots, through one reused length-d
buffer: the other entries are +0.0 and would stay +0.0.  The inner products
that choose a basis still run one at a time over the full length-d^2
embeddings, because BLAS sums a shorter vector, or a stacked product, in
another order.  Together this keeps every basis bit-identical to the dense
matrix algebra in tests/levels_oracle.py.  Each reference state computes
its embedding frame once (`DensityOperator.kmb_frame`).

Coordinates that choose no basis come stacked: a level's generator
coordinates are its own Gram-Schmidt R factor, and a sublevel's are one
product over the nonzero slots; both agree with inner products to rounding.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .errors import ValidationError
from .state_space import (
    DensityOperator,
    HermitianOperator,
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
    "intersection",
    "trivial_level",
    "full_classical_level",
]


def _coerce_operator(obj) -> HermitianOperator:
    if isinstance(obj, HermitianOperator):
        return obj
    arr = np.asarray(obj)
    if arr.ndim == 1:
        return HermitianOperator.from_diagonal(arr)
    return HermitianOperator.from_matrix(arr)


def _embedding(sigma: DensityOperator):
    """Map operators to complex vectors of length d^2 so the
    canonical-correlation product at sigma becomes Re <u, v> in the
    Euclidean sense.  `make_level` and `intersection` embed each operator
    once and reuse the vector.

    When sigma's eigenvectors form an exact permutation (every classical
    reference), V^dag X V only moves a diagonal operator's entries onto the
    diagonal, without roundoff; those entries are written straight into the
    diagonal slots instead, with the same bits as the two matrix products.
    """
    v = sigma.eigenvectors
    vh, sw, perm = sigma.kmb_frame
    sw_diag = np.diagonal(sw)
    d = sigma.dim

    def embed(op: HermitianOperator) -> np.ndarray:
        if perm is None or op.diagonal is None:
            return (sw * (vh @ op.matrix @ v)).ravel()
        z = np.zeros(d * d, dtype=complex)
        z[::d + 1] = sw_diag * op.diagonal[perm]
        return z
    return embed


def _slots(sigma: DensityOperator, ops) -> slice:
    """The entries of the embeddings of ops that can be nonzero: the
    diagonal slots when every op takes `_embedding`'s diagonal fast path,
    else all of them."""
    if sigma.kmb_frame.perm is not None and all(op.diagonal is not None for op in ops):
        return slice(None, None, sigma.dim + 1)
    return slice(None)


def _center(op: HermitianOperator, sigma: DensityOperator):
    """Split X = c*1 + dX with dX orthogonal to the identity at sigma."""
    c = expectation(sigma, op)
    if op.diagonal is not None:
        centered = HermitianOperator.from_diagonal(op.diagonal - c)
    else:
        centered = HermitianOperator.from_matrix(
            op.matrix - c * np.eye(op.dim), atol=1e-10)
    return c, centered


def _gram_schmidt(embeds, ops=None, slots=slice(None), drop_tol=DROP_TOL):
    """Orthonormalize embeddings (with one reorthogonalization pass).

    Returns the kept input indices, the orthonormal frame of embeddings,
    the basis operators when the operators behind the embeddings are given,
    and the upper-triangular R with embeds[kept[p]] = sum_b R[b, p] frame[b]:
    both passes' projections above the diagonal, the norms on it.

    Each basis operator is its input minus the same projections, scaled to
    unit norm.  Each pass replays them as one stacked product and
    ``np.subtract.reduce``, which subtracts left to right with the bits of
    the loop ``m -= c * b``.  Diagonal inputs stay diagonal vectors, scaled
    as ``m * (1.0 / norm)``: that is how numpy divides a complex matrix by
    a real scalar, so both paths have the same bits.

    The embedding updates write only the ``slots`` entries (see `_slots`)
    through one reused buffer: every other entry is +0.0 in every input and
    stays +0.0 (0 - c*0 is +0.0 for finite c), and an elementwise ufunc gives
    each entry the same bits whatever the stride.  The inner products run
    one at a time over the full length-d^2 vectors, because BLAS sums a
    compact vector or a stacked product in another order, and that would
    rotate the basis `intersection` chooses.
    """
    diagonal = ops is not None and all(op.diagonal is not None for op in ops)
    basis_ops: list[HermitianOperator] = []
    basis_z: list[np.ndarray] = []
    basis_s: list[np.ndarray] = []
    kept: list[int] = []
    r = np.zeros((len(embeds), len(embeds)))
    buf = np.empty_like(embeds[0][slots]) if embeds else None
    if ops:
        # rows: the basis so far; work: an operator, then its projections
        shape, dtype = ((ops[0].dim,), float) if diagonal else ((ops[0].dim,) * 2, complex)
        rows = np.empty((len(ops), *shape), dtype)
        work = np.empty((2 * len(ops) + 1, *shape), dtype)
    for idx, z in enumerate(embeds):
        orig = np.sqrt(max(np.vdot(z, z).real, 0.0))
        if orig == 0.0:
            continue
        zz = z.copy()
        zs = zz[slots]
        coeffs = []
        for _ in range(2):
            for bz, bs in zip(basis_z, basis_s):
                c = np.vdot(bz, zz).real
                np.multiply(bs, c, out=buf)
                zs -= buf
                coeffs.append(c)
        norm = np.sqrt(max(np.vdot(zz, zz).real, 0.0))
        if norm < drop_tol * orig:
            continue
        n = len(basis_z)
        coeffs = np.array(coeffs).reshape(2, n)
        if ops is not None:
            m = ops[idx].diagonal if diagonal else ops[idx].matrix
            if n:
                work[0] = m
                np.multiply(coeffs.reshape(2, n, *(1,) * len(shape)), rows[:n],
                            out=work[1:2 * n + 1].reshape(2, n, *shape))
                m = np.subtract.reduce(work[:2 * n + 1], axis=0)
            op = (HermitianOperator.from_diagonal(m * (1.0 / norm)) if diagonal
                  else HermitianOperator.from_matrix(m / norm, atol=1e-9))
            basis_ops.append(op)
            rows[n] = op.diagonal if diagonal else op.matrix
        zs /= norm
        basis_z.append(zz)
        basis_s.append(zs)
        kept.append(idx)
        r[:n, n], r[n, n] = coeffs[0] + coeffs[1], norm
    return kept, basis_z, basis_ops, r[:len(kept), :len(kept)]


@dataclass(frozen=True, eq=False)
class LevelOfDescription:
    """Span of {1, G_1, ..., G_m} with a basis orthonormal and centered in
    the canonical-correlation product at ``sigma``.

    ``generators`` keeps the operators as handed in; ``retained`` indexes
    the subset that survived dependency dropping, in input order.  Each
    retained generator decomposes exactly as

        G_a = gen_offsets[a] * 1 + sum_b gen_coeffs[a, b] * basis[b],

    which is how expectation targets in generator coordinates map onto the
    internal basis coordinates.
    """

    sigma: DensityOperator
    generators: tuple[HermitianOperator, ...]
    basis: tuple[HermitianOperator, ...]
    retained: tuple[int, ...]
    gen_offsets: np.ndarray
    gen_coeffs: np.ndarray
    label: str = ""

    @property
    def dim_hilbert(self) -> int:
        """Dimension of the Hilbert space, the reference state's."""
        return self.sigma.dim

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
        return self.sigma.same_state(other.sigma)

    def with_label(self, label: str) -> "LevelOfDescription":
        return replace(self, label=label)

    def __repr__(self) -> str:
        name = f" {self.label!r}" if self.label else ""
        return f"LevelOfDescription(dim={self.dim}, d={self.dim_hilbert}{name})"


def make_level(generators, sigma: DensityOperator, *,
               label: str = "") -> LevelOfDescription:
    """Build a level from Hermitian generators at the reference state sigma.

    Generators that are linear combinations of earlier ones, or
    proportional to the identity, are dropped.  An empty effective span
    yields the trivial level.
    """
    if not isinstance(sigma, DensityOperator):
        raise ValidationError("a level needs a reference state")
    d = sigma.dim
    ops = [_coerce_operator(g) for g in generators]
    if any(op.dim != d for op in ops):
        raise ValidationError("generator dimension does not match the reference state")

    centered = [_center(op, sigma) for op in ops]
    embed = _embedding(sigma)
    centered_ops = [c for _, c in centered]
    embeds = [embed(c) for c in centered_ops]
    kept, _, basis_ops, r = _gram_schmidt(embeds, centered_ops,
                                          _slots(sigma, centered_ops))

    offsets = np.array([centered[i][0] for i in kept], dtype=float)
    coeffs = np.ascontiguousarray(r.T)
    offsets.setflags(write=False)
    coeffs.setflags(write=False)
    return LevelOfDescription(
        sigma=sigma, generators=tuple(ops),
        basis=tuple(basis_ops), retained=tuple(kept),
        gen_offsets=offsets, gen_coeffs=coeffs, label=label)


def trivial_level(sigma: DensityOperator) -> LevelOfDescription:
    """The level spanned by the identity alone."""
    return make_level([], sigma, label="O")


def full_classical_level(sigma: DensityOperator) -> LevelOfDescription:
    """Outcome-indicator span of a classical sample space (dim(level) = d)."""
    eye = np.eye(sigma.dim)
    gens = [HermitianOperator.from_diagonal(eye[k]) for k in range(sigma.dim)]
    return make_level(gens, sigma, label="full")


def _require_same_context(a: LevelOfDescription, b: LevelOfDescription) -> None:
    if not a.same_context(b):
        raise ValidationError("levels are built at different reference states")


def _frame_dots(frame, zs) -> np.ndarray:
    """Re <f, z> for every embedding z (rows) and frame vector f (columns),
    each a full-length vdot: `intersection` picks its shared basis from
    these, and a stacked product would round them differently."""
    dots = np.array([[np.vdot(fz, z).real for fz in frame] for z in zs])
    return dots.reshape(len(zs), len(frame))


def _frame_coords(level: LevelOfDescription, ops) -> tuple[np.ndarray, np.ndarray]:
    """Coefficients Re <B, X> of each operator X along the level's basis
    B, as one stacked product, and the norm of what each X leaves over.
    The stacks hold only the embedding entries that can be nonzero
    (`_slots`)."""
    slots = _slots(level.sigma, [*level.basis, *ops])
    embed = _embedding(level.sigma)
    row = np.dtype((complex, len(range(level.dim_hilbert ** 2)[slots])))
    frame, zs = (np.fromiter((embed(op)[slots] for op in group), row, len(group))
                 for group in (level.basis, ops))
    coeffs = (zs @ frame.conj().T).real
    return coeffs, np.linalg.norm(zs - coeffs @ frame, axis=1)


def is_sublevel(sub: LevelOfDescription, sup: LevelOfDescription) -> bool:
    """True when span(sub) is contained in span(sup), shared context required."""
    _require_same_context(sub, sup)
    if sub is sup or sub.is_trivial:
        return True
    return bool(np.all(_frame_coords(sup, sub.basis)[1] <= SUBLEVEL_TOL))


def _op_label(a: LevelOfDescription, b: LevelOfDescription, sep: str) -> str:
    return f"{a.label}{sep}{b.label}" if a.label and b.label else ""


def intersection(a: LevelOfDescription, b: LevelOfDescription) -> LevelOfDescription:
    """Largest level contained in both spans, via principal angles.

    Working in the orthonormal coordinates of the union span, directions of
    b whose residual against span(a) has singular value below ANGLE_TOL
    (the sine of the principal angle) are declared shared.
    """
    _require_same_context(a, b)
    if a.is_trivial or b.is_trivial:
        return trivial_level(a.sigma)
    embed = _embedding(a.sigma)
    za, zb = [embed(op) for op in a.basis], [embed(op) for op in b.basis]
    frame = _gram_schmidt(za + zb, slots=_slots(a.sigma, [*a.basis, *b.basis]))[1]
    ca = _frame_dots(frame, za)
    cb = _frame_dots(frame, zb)
    resid = cb - (cb @ ca.T) @ ca
    u, s, _ = np.linalg.svd(resid, full_matrices=True)
    diagonal = b.all_diagonal
    shared = []
    for l in range(u.shape[1]):
        sine = s[l] if l < s.size else 0.0
        if sine < ANGLE_TOL:
            if diagonal:
                m = sum(u[j, l] * op.diagonal for j, op in enumerate(b.basis))
                shared.append(HermitianOperator.from_diagonal(m))
            else:
                m = sum(u[j, l] * op.matrix for j, op in enumerate(b.basis))
                shared.append(HermitianOperator.from_matrix(m, atol=1e-9))
    return make_level(shared, a.sigma, label=_op_label(a, b, "&"))


def complement(sub: LevelOfDescription,
               ambient: LevelOfDescription) -> LevelOfDescription:
    """Orthogonal complement of sub inside ambient, in the canonical
    correlation geometry at their shared reference: the ambient basis
    orthonormalized against sub's basis."""
    if not is_sublevel(sub, ambient):
        raise ValidationError("complement requires sub to be contained in ambient")
    sigma = ambient.sigma
    embed = _embedding(sigma)
    ordered = list(sub.basis) + list(ambient.basis)
    kept, _, basis_ops, _ = _gram_schmidt([embed(op) for op in ordered], ordered,
                                          _slots(sigma, ordered))
    comp = [op for op, idx in zip(basis_ops, kept) if idx >= len(sub.basis)]
    return make_level(comp, sigma, label=_op_label(ambient, sub, "-"))


def _sublevel_decomposition(level: LevelOfDescription,
                            sub: LevelOfDescription) -> tuple[np.ndarray, np.ndarray]:
    """Write each basis element of sub as c_j 1 + sum_b R_jb B_b in the
    frame of ``level``.  Requires sub to be contained in ``level``."""
    centered = [_center(op, level.sigma) for op in sub.basis]
    offsets = np.array([c for c, _ in centered], dtype=float)
    coeffs, resid = _frame_coords(level, [op for _, op in centered])
    if np.any(resid > SUBLEVEL_TOL):
        raise ValidationError(
            "level is not contained in the measured level of the data")
    return offsets, coeffs
