"""Levels of description: observable spans and their lattice operations.

A level is the real span of the identity together with a set of Hermitian
generators.  It holds one basis of that span, centered and orthonormal in
the canonical-correlation (Kubo-Mori) product at the reference state the
level carries, as one read-only array `LevelOfDescription.stack`: (k, d)
real diagonals when every generator is diagonal, else (k, d, d) complex
matrices.  `LevelOfDescription.basis` reads its rows as operators.

Span arithmetic runs in a Euclidean embedding of operator space, one row
per stacked operator, computed from each reference's frame
(`DensityOperator.kmb_frame`).  At a classical reference a diagonal stack
is written straight onto the diagonal slots, Gram-Schmidt projects its
real rows, and the embedding updates touch only those d slots, so a
classical level never builds a d x d matrix.  The inner products that
choose a basis still run one at a time over the full length-d^2
embeddings, because BLAS sums a shorter vector, or a stacked product, in
another order; every basis is bit-identical to the dense matrix algebra in
tests/levels_oracle.py.  Coordinates that choose no basis come stacked:
a level's generator coordinates are its Gram-Schmidt R factor, and a
sublevel's are one product over the nonzero slots.  `complement`
orthonormalizes in those coordinates, where the metric is Euclidean.
The classical outcome level orthonormalizes on the first read of its
frame, so a command that needs only its dimension never does.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .errors import ValidationError
from .state_space import (
    DensityOperator,
    HermitianOperator,
    _freeze,
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


def _stack(ops, d: int) -> np.ndarray:
    """The operators' diagonals as a (k, d) array when every one is
    diagonal, else their matrices as a (k, d, d) array."""
    diagonals = [op.diagonal for op in ops]
    if any(v is None for v in diagonals):
        return np.array([op.matrix for op in ops], dtype=complex).reshape(-1, d, d)
    return np.array(diagonals, dtype=float).reshape(-1, d)


def _compact(stack: np.ndarray) -> np.ndarray:
    """A (k, d, d) stack with no off-diagonal entry as its (k, d) real
    diagonals, the form `HermitianOperator.from_matrix` gives such a
    matrix; any other stack as it is."""
    if stack.ndim == 3 and not np.any(stack[:, ~np.eye(stack.shape[1], dtype=bool)]):
        return np.diagonal(stack, axis1=1, axis2=2).real
    return stack


def _views(stack: np.ndarray) -> tuple[HermitianOperator, ...]:
    """Operators reading the rows of a read-only stack, unvalidated: the
    package computed them from validated inputs.  A matrix row with no
    off-diagonal entry also carries its diagonal, as from_matrix tags it."""
    if stack.ndim == 2:
        return tuple(HermitianOperator(diagonal=row) for row in stack)
    off = ~np.eye(stack.shape[1], dtype=bool)
    return tuple(HermitianOperator(
        dense=row, diagonal=None if np.any(row[off]) else _freeze(np.real(np.diag(row))))
        for row in stack)


def _embedding(sigma: DensityOperator, stack: np.ndarray,
               slots: slice = slice(None)) -> np.ndarray:
    """The ``slots`` entries (see `_slots`) of the complex length-d^2
    vectors, one row per stacked operator, in which the canonical-correlation
    product at sigma becomes Re <u, v> in the Euclidean sense.

    When sigma's eigenvectors form an exact permutation (every classical
    reference), V^dag X V only moves a diagonal operator's entries onto the
    diagonal, without roundoff; those entries are written straight into the
    diagonal slots instead, with the same bits as the two matrix products.
    """
    v = sigma.eigenvectors
    vh, sw, perm = sigma.kmb_frame
    d = sigma.dim
    if perm is None or stack.ndim == 3:
        mats = stack if stack.ndim == 3 else stack[:, :, None] * np.eye(d)
        return (sw * (vh @ mats @ v)).reshape(len(stack), d * d)[:, slots]
    diag = np.diagonal(sw) * stack[:, perm]
    if slots.step == d + 1:
        return diag.astype(complex)
    z = np.zeros((len(stack), d * d), dtype=complex)
    z[:, ::d + 1] = diag
    return z[:, slots]


def _slots(sigma: DensityOperator, *stacks: np.ndarray) -> slice:
    """The entries of the stacks' embeddings that can be nonzero: the
    diagonal slots when every stack takes `_embedding`'s diagonal fast
    path, else all of them."""
    if sigma.kmb_frame.perm is not None and all(s.ndim == 2 for s in stacks):
        return slice(None, None, sigma.dim + 1)
    return slice(None)


def _split_identity(ops, stack: np.ndarray,
                    sigma: DensityOperator) -> tuple[np.ndarray, np.ndarray]:
    """Split each stacked X = c*1 + dX with dX orthogonal to the identity
    at sigma: the offsets c (from the operators) and the stacked dX."""
    offsets = np.array([expectation(sigma, op) for op in ops], dtype=float)
    if stack.ndim == 2:
        return offsets, stack - offsets[:, None]
    return offsets, stack - offsets[:, None, None] * np.eye(sigma.dim)


def _gram_schmidt(embeds, stack=None, slots=slice(None)):
    """Orthonormalize embeddings (with one reorthogonalization pass).

    Returns the kept input indices, the orthonormal frame of embeddings,
    the basis stack when the stack of operators behind the embeddings is
    given (else None), and the upper-triangular R with
    embeds[kept[p]] = sum_b R[b, p] frame[b]: both passes' projections
    above the diagonal, the norms on it.

    Each basis row is its input row minus the same projections, scaled to
    unit norm.  Each pass replays them as one stacked product and
    ``np.subtract.reduce``, which subtracts left to right with the bits of
    the loop ``m -= c * b``.  Diagonal rows are scaled as
    ``m * (1.0 / norm)``: that is how numpy divides a complex matrix by a
    real scalar, so both forms have the same bits.

    The embedding updates write only the ``slots`` entries (see `_slots`)
    through one reused buffer: every other entry is +0.0 in every input and
    stays +0.0 (0 - c*0 is +0.0 for finite c), and an elementwise ufunc gives
    each entry the same bits whatever the stride.  The inner products run
    one at a time over the full length-d^2 vectors, because BLAS sums a
    compact vector or a stacked product in another order, and that would
    rotate the basis `intersection` chooses.
    """
    basis_z: list[np.ndarray] = []
    basis_s: list[np.ndarray] = []
    kept: list[int] = []
    r = np.zeros((len(embeds), len(embeds)))
    buf = np.empty_like(embeds[0][slots]) if len(embeds) else None
    if stack is not None:
        # rows: the basis so far; work: a row, then its projections
        shape = stack.shape[1:]
        rows = np.empty_like(stack)
        work = np.empty((2 * len(stack) + 1, *shape), stack.dtype)
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
        if norm < DROP_TOL * orig:
            continue
        n = len(basis_z)
        coeffs = np.array(coeffs).reshape(2, n)
        if stack is not None:
            m = stack[idx]
            if n:
                work[0] = m
                np.multiply(coeffs.reshape(2, n, *(1,) * len(shape)), rows[:n],
                            out=work[1:2 * n + 1].reshape(2, n, *shape))
                m = np.subtract.reduce(work[:2 * n + 1], axis=0)
            rows[n] = m / norm if len(shape) == 2 else m * (1.0 / norm)
        zs /= norm
        basis_z.append(zz)
        basis_s.append(zs)
        kept.append(idx)
        r[:n, n], r[n, n] = coeffs[0] + coeffs[1], norm
    basis = None if stack is None else rows[:len(kept)]
    return kept, basis_z, basis, r[:len(kept), :len(kept)]


def _orthonormalize(ops, stack: np.ndarray,
                    sigma: DensityOperator) -> tuple[tuple[int, ...], dict]:
    """Center the stacked operators at sigma, embed them and run
    Gram-Schmidt: the kept input indices and the frame of
    `LevelOfDescription`."""
    offsets, centered = _split_identity(ops, stack, sigma)
    kept, _, basis, r = _gram_schmidt(_embedding(sigma, centered), centered,
                                      _slots(sigma, centered))
    return tuple(kept), {"stack": _freeze(basis), "gen_offsets": _freeze(offsets[kept]),
                         "gen_coeffs": _freeze(r.T.copy())}


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

    ``stack`` holds the basis, read-only: (k, d) real diagonals when every
    generator is diagonal, else (k, d, d) complex matrices; ``basis`` holds
    read-only operator views of its rows.  ``stack``, ``gen_offsets`` and
    ``gen_coeffs`` (the frame) come from one Gram-Schmidt pass.
    `make_level` runs it at once; `full_classical_level` knows ``retained``
    in advance and leaves the pass to the first read of the frame, which
    raises if the pass keeps other generators.
    """

    sigma: DensityOperator
    generators: tuple[HermitianOperator, ...]
    retained: tuple[int, ...]
    label: str = ""

    def _frame(self) -> dict:
        """Orthonormalize and keep all three frame attributes."""
        stack = _stack(self.generators, self.dim_hilbert)
        kept, frame = _orthonormalize(self.generators, stack, self.sigma)
        if kept != self.retained:
            raise ValidationError(
                f"Gram-Schmidt keeps generators {kept}, not the level's {self.retained}")
        vars(self).update(frame)
        return frame

    stack = cached_property(lambda self: self._frame()["stack"])
    gen_offsets = cached_property(lambda self: self._frame()["gen_offsets"])
    gen_coeffs = cached_property(lambda self: self._frame()["gen_coeffs"])
    basis = cached_property(lambda self: _views(self.stack))

    @property
    def dim_hilbert(self) -> int:
        """Dimension of the Hilbert space, the reference state's."""
        return self.sigma.dim

    @property
    def dim(self) -> int:
        """Dimension of the span, identity included."""
        return 1 + len(self.retained)

    @property
    def n_params(self) -> int:
        return len(self.retained)

    @property
    def is_trivial(self) -> bool:
        return not self.retained

    def same_context(self, other: "LevelOfDescription") -> bool:
        return self.sigma.same_state(other.sigma)

    def with_label(self, label: str) -> "LevelOfDescription":
        """The same level relabelled, with whatever it has computed."""
        new = replace(self, label=label)
        vars(new).update({k: v for k, v in vars(self).items() if k not in vars(new)})
        return new

    def __repr__(self) -> str:
        name = f" {self.label!r}" if self.label else ""
        return f"LevelOfDescription(dim={self.dim}, d={self.dim_hilbert}{name})"


def _level(stack: np.ndarray, sigma: DensityOperator, label: str,
           ops=None) -> LevelOfDescription:
    """The level of the stacked operators ops, orthonormalized at once; a
    computed stack without ops spans it with views of its rows."""
    if ops is None:
        stack = _freeze(_compact(stack))
        ops = _views(stack)
    kept, frame = _orthonormalize(ops, stack, sigma)
    level = LevelOfDescription(sigma=sigma, generators=tuple(ops),
                               retained=kept, label=label)
    vars(level).update(frame)
    return level


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
    return _level(_stack(ops, d), sigma, label, ops)


def trivial_level(sigma: DensityOperator) -> LevelOfDescription:
    """The level spanned by the identity alone."""
    return make_level([], sigma, label="O")


def full_classical_level(sigma: DensityOperator) -> LevelOfDescription:
    """Outcome-indicator span of a classical sample space (dim(level) = d).

    The d indicators sum to the identity, so the first d - 1 span the
    level and are all retained; the frame is computed on first read.
    """
    if not isinstance(sigma, DensityOperator):
        raise ValidationError("a level needs a reference state")
    gens = _views(_freeze(np.eye(sigma.dim)[:-1]))
    return LevelOfDescription(sigma=sigma, generators=gens,
                              retained=tuple(range(sigma.dim - 1)), label="full")


def _require_same_context(a: LevelOfDescription, b: LevelOfDescription) -> None:
    if not a.same_context(b):
        raise ValidationError("levels are built at different reference states")


def _frame_dots(frame, zs) -> np.ndarray:
    """Re <f, z> for every embedding z (rows) and frame vector f (columns),
    each a full-length vdot: `intersection` picks its shared basis from
    these, and a stacked product would round them differently."""
    dots = np.array([[np.vdot(fz, z).real for fz in frame] for z in zs])
    return dots.reshape(len(zs), len(frame))


def _frame_coords(level: LevelOfDescription,
                  stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Coefficients Re <B, X> of each stacked operator X along the level's
    basis B, as one stacked product, and the norm of what each X leaves
    over.  The embeddings hold only the entries that can be nonzero
    (`_slots`)."""
    slots = _slots(level.sigma, level.stack, stack)
    frame, zs = (_embedding(level.sigma, s, slots) for s in (level.stack, stack))
    coeffs = (zs @ frame.conj().T).real
    return coeffs, np.linalg.norm(zs - coeffs @ frame, axis=1)


def is_sublevel(sub: LevelOfDescription, sup: LevelOfDescription) -> bool:
    """True when span(sub) is contained in span(sup), shared context required."""
    _require_same_context(sub, sup)
    if sub is sup or sub.is_trivial:
        return True
    return bool(np.all(_frame_coords(sup, sub.stack)[1] <= SUBLEVEL_TOL))


def _op_label(a: LevelOfDescription, b: LevelOfDescription, sep: str) -> str:
    return f"{a.label}{sep}{b.label}" if a.label and b.label else ""


def _combine(weights: np.ndarray, stack: np.ndarray) -> np.ndarray:
    """The stack of sum_j weights[i, j] * stack[j] for every row i, each a
    Python sum over the rows: a stacked product would round differently."""
    rows = [sum(w * row for w, row in zip(ws, stack)) for ws in weights]
    return np.array(rows).reshape(len(rows), *stack.shape[1:])


def intersection(a: LevelOfDescription, b: LevelOfDescription) -> LevelOfDescription:
    """Largest level contained in both spans, via principal angles.

    Working in the orthonormal coordinates of the union span, directions of
    b whose residual against span(a) has singular value below ANGLE_TOL
    (the sine of the principal angle) are declared shared.
    """
    _require_same_context(a, b)
    if a.is_trivial or b.is_trivial:
        return trivial_level(a.sigma)
    sigma = a.sigma
    za, zb = _embedding(sigma, a.stack), _embedding(sigma, b.stack)
    frame = _gram_schmidt([*za, *zb], slots=_slots(sigma, a.stack, b.stack))[1]
    ca = _frame_dots(frame, za)
    cb = _frame_dots(frame, zb)
    resid = cb - (cb @ ca.T) @ ca
    u, s, _ = np.linalg.svd(resid, full_matrices=True)
    # s descends; the columns of u past it have sine 0
    shared = u[:, np.count_nonzero(s >= ANGLE_TOL):].T
    return _level(_combine(shared, b.stack), sigma, _op_label(a, b, "&"))


def complement(sub: LevelOfDescription,
               ambient: LevelOfDescription) -> LevelOfDescription:
    """Orthogonal complement of sub inside ambient, in the canonical
    correlation geometry at their shared reference.

    Runs in the coordinates of ambient's orthonormal basis, where the
    metric is Euclidean at any reference: sub's basis vectors, then the
    unit vectors, are orthonormalized, and the unit vectors' kept residuals
    are mapped back through ambient's basis.  A dependent direction thus
    drops at DROP_TOL even where the reference's weights are floored."""
    if not is_sublevel(sub, ambient):
        raise ValidationError("complement requires sub to be contained in ambient")
    coords = _frame_coords(ambient, sub.stack)[0]
    kept, frame, _, _ = _gram_schmidt([*coords, *np.eye(ambient.n_params)])
    residuals = [f for f, idx in zip(frame, kept) if idx >= len(coords)]
    return _level(_combine(residuals, ambient.stack), ambient.sigma,
                  _op_label(ambient, sub, "-"))


def _sublevel_decomposition(level: LevelOfDescription,
                            sub: LevelOfDescription) -> tuple[np.ndarray, np.ndarray]:
    """Write each basis element of sub as c_j 1 + sum_b R_jb B_b in the
    frame of ``level``.  Requires sub to be contained in ``level``."""
    offsets, centered = _split_identity(sub.basis, sub.stack, level.sigma)
    coeffs, resid = _frame_coords(level, centered)
    if np.any(resid > SUBLEVEL_TOL):
        raise ValidationError(
            "level is not contained in the measured level of the data")
    return offsets, coeffs
