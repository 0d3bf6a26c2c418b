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
    _center,
    _coerce_operator,
    _op_label,
)
from gibbsfit.state_space import HermitianOperator, _kmb_weights


def dense_embedding(sigma):
    v = sigma.eigenvectors
    vh = v.conj().T
    sw = np.sqrt(_kmb_weights(sigma.eigenvalues))
    return lambda op: (sw * (vh @ op.matrix @ v)).ravel()


def dense_gram_schmidt(ops, embeds, drop_tol=DROP_TOL):
    """Orthonormalize with one reorthogonalization pass, projecting each
    dense matrix alongside its embedding."""
    basis_ops, basis_z, kept = [], [], []
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
                m -= c * bop.matrix
        norm = np.sqrt(max(np.real(np.vdot(zz, zz)), 0.0))
        if norm < drop_tol * orig:
            continue
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


def make_level(generators, sigma, *, label=""):
    ops = [_coerce_operator(g) for g in generators]
    centered = [_center(op, sigma) for op in ops]
    embed = dense_embedding(sigma)
    embeds = [embed(c) for _, c in centered]
    basis_ops, basis_z, kept = dense_gram_schmidt([c for _, c in centered], embeds)
    k = len(basis_ops)
    offsets = np.array([centered[i][0] for i in kept], dtype=float)
    coeffs = np.zeros((k, k))
    for a, i in enumerate(kept):
        for b, bz in enumerate(basis_z):
            coeffs[a, b] = float(np.real(np.vdot(bz, embeds[i])))
    level = LevelOfDescription(sigma=sigma, generators=tuple(ops),
                               retained=tuple(kept), label=label)
    vars(level).update(basis=tuple(basis_ops), gen_offsets=offsets, gen_coeffs=coeffs)
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
    assert is_sublevel(sub, ambient)
    sigma = ambient.sigma
    embed = dense_embedding(sigma)
    ordered = list(sub.basis) + list(ambient.basis)
    basis_ops, _, kept = dense_gram_schmidt(ordered, [embed(op) for op in ordered])
    comp = [op for op, idx in zip(basis_ops, kept) if idx >= len(sub.basis)]
    return make_level(comp, sigma, label=_op_label(ambient, sub, "-"))
