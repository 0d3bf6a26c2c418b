"""Dense reference implementation of the level operations.

Every operator goes through its d x d matrix: the embedding is the two
matrix products V^dag X V, and Gram-Schmidt updates the dense matrix of
each input alongside its embedding.  `gibbsfit.levels` keeps diagonal
operators as vectors instead; the tests check that it returns the same
bits as this oracle.
"""

import numpy as np

from gibbsfit.levels import (
    ANGLE_TOL,
    DROP_TOL,
    SUBLEVEL_TOL,
    LevelOfDescription,
    _coerce_operator,
    _frame_coords,
    _op_label,
)
from gibbsfit.state_space import HermitianOperator, _kmb_weights, expectation


def center(op, sigma):
    """Split X = c*1 + dX with dX orthogonal to the identity at sigma."""
    c = expectation(sigma, op)
    return c, HermitianOperator.from_matrix(op.matrix - c * np.eye(op.dim), atol=1e-10)


def dense_embedding(sigma):
    v = sigma.eigenvectors
    vh = v.conj().T
    sw = np.sqrt(_kmb_weights(sigma.eigenvalues))
    return lambda op: (sw * (vh @ op.matrix @ v)).ravel()


def dense_gram_schmidt(ops, embeds, drop_tol=DROP_TOL):
    """Orthonormalize with one reorthogonalization pass, projecting each
    dense matrix alongside its embedding when ops is given."""
    basis_ops, basis_z, kept = [], [], []
    for idx, z in enumerate(embeds):
        orig = np.sqrt(max(np.real(np.vdot(z, z)), 0.0))
        if orig == 0.0:
            continue
        m = None if ops is None else ops[idx].matrix.copy()
        zz = z.copy()
        for _ in range(2):
            for b, bz in enumerate(basis_z):
                c = float(np.real(np.vdot(bz, zz)))
                zz -= c * bz
                if m is not None:
                    m -= c * basis_ops[b].matrix
        norm = np.sqrt(max(np.real(np.vdot(zz, zz)), 0.0))
        if norm < drop_tol * orig:
            continue
        if m is not None:
            basis_ops.append(HermitianOperator.from_matrix(m / norm, atol=1e-9))
        basis_z.append(zz / norm)
        kept.append(idx)
    return basis_ops, basis_z, kept


def frame_coords(frame, z):
    """Coefficients of z along an orthonormal frame, one projection at a
    time, and the norm of the residual."""
    coeffs = np.zeros(len(frame))
    z = z.copy()
    for b, fz in enumerate(frame):
        coeffs[b] = float(np.real(np.vdot(fz, z)))
        z -= coeffs[b] * fz
    return coeffs, float(np.sqrt(max(np.real(np.vdot(z, z)), 0.0)))


def _stack(ops, d):
    """The operators' diagonals as an (m, d) array when every one is
    diagonal, else their matrices as an (m, d, d) array."""
    if all(op.diagonal is not None for op in ops):
        return np.array([op.diagonal for op in ops]).reshape(-1, d)
    return np.array([op.matrix for op in ops])


def make_level(generators, sigma, *, label=""):
    ops = [_coerce_operator(g) for g in generators]
    centered = [center(op, sigma) for op in ops]
    embed = dense_embedding(sigma)
    embeds = [embed(c) for _, c in centered]
    basis_ops, basis_z, kept = dense_gram_schmidt([c for _, c in centered], embeds)
    k = len(basis_ops)
    offsets = np.array([centered[i][0] for i in kept], dtype=float)
    coeffs = np.zeros((k, k))
    for a, i in enumerate(kept):
        for b, bz in enumerate(basis_z):
            coeffs[a, b] = float(np.real(np.vdot(bz, embeds[i])))
    level = LevelOfDescription(sigma=sigma, generators=_stack(ops, sigma.dim),
                               retained=tuple(kept), label=label)
    vars(level).update(stack=_stack(basis_ops, sigma.dim), basis=tuple(basis_ops),
                       gen_offsets=offsets, gen_coeffs=coeffs)
    return level


def is_sublevel(sub, sup):
    if sub is sup or sub.is_trivial:
        return True
    embed = dense_embedding(sup.sigma)
    sup_z = [embed(b) for b in sup.basis]
    return all(frame_coords(sup_z, embed(b))[1] <= SUBLEVEL_TOL for b in sub.basis)


def intersection(a, b):
    if a.is_trivial or b.is_trivial:
        return make_level([], a.sigma, label="O")
    embed = dense_embedding(a.sigma)
    za, zb = [embed(op) for op in a.basis], [embed(op) for op in b.basis]
    frame = np.array(dense_gram_schmidt([*a.basis, *b.basis], za + zb)[1])

    def coords(zs):
        return np.array([[float(np.real(np.vdot(fz, z))) for fz in frame]
                         for z in zs])

    ca = coords(za)
    cb = coords(zb)
    resid = cb - (cb @ ca.T) @ ca
    u, s, _ = np.linalg.svd(resid, full_matrices=True)
    shared = []
    for l in range(u.shape[1]):
        sine = s[l] if l < s.size else 0.0
        if sine < ANGLE_TOL:
            m = sum(u[j, l] * b.basis[j].matrix for j in range(len(b.basis)))
            shared.append(HermitianOperator.from_matrix(m, atol=1e-9))
    return make_level(shared, a.sigma, label=_op_label(a, b, "&"))


def complement(sub, ambient):
    """Gram-Schmidt in the coordinates of ambient's orthonormal basis: sub's
    basis vectors, then the unit vectors, whose kept residuals combine
    ambient's basis matrices.  The coordinates are the package's stacked
    product, checked here against one-at-a-time dense projections."""
    assert is_sublevel(sub, ambient)
    coords = _frame_coords(ambient, sub.stack)[0]
    embed = dense_embedding(ambient.sigma)
    amb_z = [embed(b) for b in ambient.basis]
    for row, b in zip(coords, sub.basis):
        assert np.allclose(row, frame_coords(amb_z, embed(b))[0], rtol=0.0, atol=1e-12)
    _, frame, kept = dense_gram_schmidt(None, [*coords, *np.eye(ambient.n_params)])
    comp = [sum(q[j] * b.matrix for j, b in enumerate(ambient.basis))
            for q, idx in zip(frame, kept) if idx >= len(coords)]
    return make_level(comp, ambient.sigma, label=_op_label(ambient, sub, "-"))
