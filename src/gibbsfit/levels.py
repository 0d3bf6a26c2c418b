"""Levels of description: observable spans and their lattice operations.

A level is the real span of the identity together with a set of Hermitian
generators.  It holds one basis of that span, centered and orthonormal in
the canonical-correlation (Kubo-Mori) product at the reference state the
level carries, as one read-only array `LevelOfDescription.stack`: (k, d)
real diagonals when every generator is diagonal, else (k, d, d) complex
matrices.  `LevelOfDescription.basis` reads its rows as operators.

Span arithmetic runs in a Euclidean embedding of operator space, one row
per stacked operator, computed from each reference's eigenvectors and
weights (`DensityOperator.kmb_roots`).  At a classical reference a diagonal
stack is written straight onto the diagonal slots
(`DensityOperator.permutation`), and its embeddings and the Gram-Schmidt
frame are held as those d slots alone, so neither a classical level nor
its reference builds a d x d matrix.  The inner products that choose a
basis still run one at a time over full length-d^2 vectors, each a reused
scratch, because BLAS sums a shorter vector, or a stacked product, in
another order; every basis is bit-identical to the dense matrix algebra in
tests/levels_oracle.py.  Coordinates that choose no basis come stacked:
a level's generator coordinates are its Gram-Schmidt R factor, and a
sublevel's are one product over the nonzero slots.  `complement`
orthonormalizes in those coordinates, where the metric is Euclidean.
The classical outcome level orthonormalizes on the first read of its
frame, so a command that needs only its dimension never does.

Levels depend on the reference and the generators, never on the data, so
the three computations that build them are memoized per process by
content (`_memo`): every level's orthonormalization, `intersection`'s
shared directions and `complement`'s kept ones.  A key holds the exact
content of everything the computation reads, and a hit returns the
read-only result the first build computed, so a warm result is the cold
one bit for bit.  The memo pays only where one process runs several
commands at one reference, through `gibbsfit.cli.run` or the library:
the commands of one analysis share its levels, and so do analyses of
successive datasets taken with one reference and one set of observables.  A single CLI command finds none
of its levels there and builds each once, as without the memo.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property, lru_cache
from types import MappingProxyType

import numpy as np

from .errors import ValidationError
from .state_space import (
    DensityOperator,
    HermitianOperator,
    _content,
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

# Most level computations `_memo` keeps per process, least recently used
# dropped first: room for the levels of one analysis (at most 14 in any
# perfbench analysis), while a stream of fresh references holds little.
MEMO_SIZE = 16

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
    perm = sigma.permutation
    d = sigma.dim
    if perm is None or stack.ndim == 3:
        v = sigma.eigenvectors
        mats = stack if stack.ndim == 3 else stack[:, :, None] * np.eye(d)
        rotated = v.conj().T @ mats @ v
        return (sigma.kmb_roots * rotated).reshape(len(stack), d * d)[:, slots]
    # the weights' diagonal is the spectrum itself
    diag = np.sqrt(sigma.eigenvalues) * stack[:, perm]
    if slots.step == d + 1:
        return diag.astype(complex)
    z = np.zeros((len(stack), d * d), dtype=complex)
    z[:, ::d + 1] = diag
    return z[:, slots]


def _slots(sigma: DensityOperator, *stacks: np.ndarray) -> slice:
    """The entries of the stacks' embeddings that can be nonzero: the
    diagonal slots when every stack takes `_embedding`'s diagonal fast
    path, else all of them."""
    if sigma.permutation is not None and all(s.ndim == 2 for s in stacks):
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


def _scratch(slots: slice, row: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A zeroed vector of the full embedding length (d^2 for the diagonal
    slots of `_slots`, else the row's own) and its ``slots`` view.  No other
    entry is ever written, so it stays +0.0 and a vdot over the vector reads
    the bytes of the full embedding of the row written into the view."""
    full = np.zeros(row.size if slots.step is None else (slots.step - 1) ** 2, row.dtype)
    return full, full[slots]


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

    The embeddings, and the frame rows, hold only the ``slots`` entries
    (see `_slots`): every other entry of a full embedding is +0.0 and stays
    +0.0 (0 - c*0 is +0.0 for finite c), and an elementwise ufunc gives each
    entry the same bits whatever the stride.  The inner products still run
    one at a time over full length-d^2 vectors, because BLAS sums a compact
    vector or a stacked product in another order, and that would rotate the
    basis `intersection` chooses.  Those vectors exist only as two reused
    scratches (`_scratch`): the current input, updated in place through its
    slots, and the frame row it is projected on.  Rows that hold every entry
    are read as they are.
    """
    frame: list[np.ndarray] = []
    kept: list[int] = []
    r = np.zeros((len(embeds), len(embeds)))
    if len(embeds):
        (zz, zs), (fz, fs) = _scratch(slots, embeds[0]), _scratch(slots, embeds[0])
        padded = zs.size < zz.size
        buf = np.empty_like(zs)
    if stack is not None:
        # rows: the basis so far; work: a row, then its projections
        shape = stack.shape[1:]
        rows = np.empty_like(stack)
        work = np.empty((2 * len(stack) + 1, *shape), stack.dtype)
    for idx, z in enumerate(embeds):
        zs[...] = z
        orig = np.sqrt(max(np.vdot(zz, zz).real, 0.0))
        if orig == 0.0:
            continue
        coeffs = []
        for _ in range(2):
            for f in frame:
                if padded:
                    fs[...] = f
                c = np.vdot(fz if padded else f, zz).real
                np.multiply(f, c, out=buf)
                zs -= buf
                coeffs.append(c)
        norm = np.sqrt(max(np.vdot(zz, zz).real, 0.0))
        if norm < DROP_TOL * orig:
            continue
        n = len(frame)
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
        frame.append(zs.copy())
        kept.append(idx)
        r[:n, n], r[n, n] = coeffs[0] + coeffs[1], norm
    basis = None if stack is None else rows[:len(kept)]
    return kept, frame, basis, r[:len(kept), :len(kept)]


class _Key:
    """The content of one memoized computation, hashed and compared as a
    tuple of exact contents (`_content`), never by a digest alone.  It
    also carries the cold computation, which `_memo` drops once it has
    run, so the memo keeps no input alive."""

    __slots__ = ("parts", "hash", "compute")

    def __init__(self, compute, *parts):
        self.parts, self.hash, self.compute = parts, hash(parts), compute

    def __hash__(self) -> int:
        return self.hash

    def __eq__(self, other) -> bool:
        return isinstance(other, _Key) and self.parts == other.parts


@lru_cache(maxsize=MEMO_SIZE)
def _memo(key: _Key):
    """The result of key's computation, run on the first call with its
    content; every later call returns that same read-only object."""
    compute, key.compute = key.compute, None
    return compute()


def _orthonormalize(ops, stack: np.ndarray,
                    sigma: DensityOperator) -> tuple[tuple[int, ...], MappingProxyType]:
    """Center the stacked operators at sigma, embed them and run
    Gram-Schmidt: the kept input indices and the read-only frame of
    `LevelOfDescription`, memoized on the content of the reference and
    the stack and on which operators hold a diagonal: every row of the
    stack is its operator's diagonal or matrix, but the offsets read an
    operator's diagonal when it has one."""
    def compute():
        offsets, centered = _split_identity(ops, stack, sigma)
        slots = _slots(sigma, centered)
        kept, _, basis, r = _gram_schmidt(_embedding(sigma, centered, slots), centered, slots)
        return tuple(kept), MappingProxyType({
            "stack": _freeze(basis), "gen_offsets": _freeze(offsets[kept]),
            "gen_coeffs": _freeze(r.T.copy())})

    return _memo(_Key(compute, "orthonormalize", sigma.content, _content(stack),
                      tuple(op.diagonal is None for op in ops)))


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

    def _frame(self) -> MappingProxyType:
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


def _frame_dots(frame, zs, slots: slice) -> np.ndarray:
    """Re <f, z> for every embedding z (rows) and frame vector f (columns),
    both holding the ``slots`` entries, each a vdot over the full length-d^2
    vectors (`_scratch`): `intersection` picks its shared basis from these,
    and a compact or stacked product would round them differently."""
    (zz, zv), (fz, fv) = _scratch(slots, zs[0]), _scratch(slots, zs[0])
    padded = zv.size < zz.size
    dots = np.empty((len(zs), len(frame)))
    for i, z in enumerate(zs):
        if padded:
            zv[...] = z
        for j, f in enumerate(frame):
            if padded:
                fv[...] = f
            dots[i, j] = np.vdot(fz if padded else f, zz if padded else z).real
    return dots


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
    return _level(_combine(_shared_weights(a, b), b.stack), a.sigma, _op_label(a, b, "&"))


def _shared_weights(a: LevelOfDescription, b: LevelOfDescription) -> np.ndarray:
    """Read-only weights over b's basis of the directions `intersection`
    declares shared, memoized on the content of the reference and of both
    stacks."""
    sigma = a.sigma

    def compute():
        slots = _slots(sigma, a.stack, b.stack)
        za, zb = (_embedding(sigma, lvl.stack, slots) for lvl in (a, b))
        frame = _gram_schmidt([*za, *zb], slots=slots)[1]
        ca, cb = (_frame_dots(frame, z, slots) for z in (za, zb))
        resid = cb - (cb @ ca.T) @ ca
        u, s, _ = np.linalg.svd(resid, full_matrices=True)
        # s descends; the columns of u past it have sine 0
        return _freeze(u[:, np.count_nonzero(s >= ANGLE_TOL):].T)

    return _memo(_Key(compute, "intersection", sigma.content,
                      _content(a.stack), _content(b.stack)))


def complement(sub: LevelOfDescription,
               ambient: LevelOfDescription) -> LevelOfDescription:
    """Orthogonal complement of sub inside ambient, in the canonical
    correlation geometry at their shared reference.

    Runs in the coordinates of ambient's orthonormal basis, where the
    metric is Euclidean at any reference: sub's basis vectors, then the
    unit vectors, are orthonormalized, and the unit vectors' kept residuals
    are mapped back through ambient's basis.  A dependent direction thus
    drops at DROP_TOL even where the reference's weights are floored.
    Raises ValidationError unless sub is contained in ambient."""
    _require_same_context(sub, ambient)
    return _level(_combine(_complement_weights(sub, ambient), ambient.stack),
                  ambient.sigma, _op_label(ambient, sub, "-"))


def _complement_weights(sub: LevelOfDescription, ambient: LevelOfDescription) -> np.ndarray:
    """Read-only weights over ambient's basis of the directions `complement`
    keeps, memoized on the content of the reference and of both stacks.
    The cold computation refuses a sub that ambient does not contain, so a
    hit stands for a containment already checked."""
    sigma = ambient.sigma

    def compute():
        coords, resid = _frame_coords(ambient, sub.stack)
        if np.any(resid > SUBLEVEL_TOL):
            raise ValidationError("complement requires sub to be contained in ambient")
        kept, frame, _, _ = _gram_schmidt([*coords, *np.eye(ambient.n_params)])
        residuals = [f for f, idx in zip(frame, kept) if idx >= len(coords)]
        return _freeze(np.array(residuals).reshape(len(residuals), ambient.n_params))

    return _memo(_Key(compute, "complement", sigma.content,
                      _content(sub.stack), _content(ambient.stack)))


def _coords(level: LevelOfDescription, sub: LevelOfDescription) -> np.ndarray:
    """Coefficients of sub's basis along level's, one row per element: both
    bases are centred at the shared reference, so no multiple of the
    identity is left over.  ValidationError for a sub built at another
    reference or not contained in level."""
    _require_same_context(level, sub)
    coeffs, resid = _frame_coords(level, sub.stack)
    if np.any(resid > SUBLEVEL_TOL):
        raise ValidationError(
            "level is not contained in the measured level of the data")
    return coeffs
