from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from gibbsfit.errors import ValidationError
from gibbsfit.state_space import (
    DensityOperator,
    HermitianOperator,
    expectation,
    pauli_x,
    pauli_y,
    pauli_z,
    relative_entropy,
    uniform_state,
    von_neumann_entropy,
)
from conftest import random_density, random_hermitian
from oracles import bloch_state, kmb_inner


class TestConstruction:
    def test_quantum_requires_unit_trace(self):
        with pytest.raises(ValidationError):
            DensityOperator.quantum(np.eye(2, dtype=complex))

    def test_quantum_requires_hermitian(self):
        m = np.array([[0.5, 0.3], [0.0, 0.5]], dtype=complex)
        with pytest.raises(ValidationError):
            DensityOperator.quantum(m)

    def test_classical_rejects_negative(self):
        with pytest.raises(ValidationError):
            DensityOperator.classical([0.5, 0.6, -0.1])

    def test_classical_normalization_enforced(self):
        with pytest.raises(ValidationError):
            DensityOperator.classical([0.2, 0.2])

    def test_spectrum_floor_clamp_flagged(self):
        rho = DensityOperator.quantum(np.diag([1.0 - 1e-16, 1e-16]).astype(complex))
        assert rho.clamped
        assert rho.eigenvalues.min() >= 1e-13

    def test_hermitian_operator_symmetrizes_within_tolerance(self):
        m = np.array([[1.0, 0.2 + 1e-12j], [0.2 - 1e-12j, -1.0]])
        op = HermitianOperator.from_matrix(m)
        assert np.allclose(op.matrix, op.matrix.conj().T)

    def test_hermitian_operator_rejects_large_asymmetry(self):
        m = np.array([[1.0, 0.2], [0.5, -1.0]], dtype=complex)
        with pytest.raises(ValidationError):
            HermitianOperator.from_matrix(m)


    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_constructors_reject_non_finite(self, bad):
        with pytest.raises(ValidationError, match="non-finite"):
            HermitianOperator.from_diagonal([1.0, bad])
        with pytest.raises(ValidationError, match="non-finite"):
            HermitianOperator.from_matrix(np.array([[1.0, bad], [bad, 0.0]]))
        with pytest.raises(ValidationError, match="non-finite"):
            HermitianOperator.from_matrix(np.array([[1.0, 0.0], [0.0, bad]]))
        with pytest.raises(ValidationError, match="non-finite"):
            DensityOperator.classical([0.5, 0.5, bad])
        with pytest.raises(ValidationError, match="non-finite"):
            DensityOperator.quantum(np.array([[bad, 0.0], [0.0, 0.5]]))

    def test_diagonal_matrix_built_on_demand(self):
        op = HermitianOperator.from_diagonal([1.0, -2.0])
        assert op.dim == 2 and "matrix" not in vars(op)
        assert np.array_equal(op.matrix, np.diag([1.0, -2.0]).astype(complex))
        assert op.matrix is op.matrix
        assert not op.matrix.flags.writeable
        tagged = HermitianOperator.from_matrix(np.diag([1.0, -2.0]))
        assert np.array_equal(tagged.diagonal, op.diagonal)
        assert "matrix" not in vars(tagged)


class TestHeldAsSpectrum:
    @given(st.integers(2, 8), st.sampled_from(["classical", "quantum"]),
           st.integers(0, 2**32 - 1))
    def test_matrices_are_cached_read_only_spectral_forms(self, dim, kind, seed):
        rho = random_density(np.random.default_rng(seed), dim, kind)
        v, w = rho.eigenvectors, rho.eigenvalues
        assert "matrix" not in vars(rho) and "log_matrix" not in vars(rho)
        for name, want in (("matrix", (v * w) @ v.conj().T),
                           ("log_matrix", (v * np.log(w)) @ v.conj().T)):
            got = getattr(rho, name)
            assert got is getattr(rho, name)
            assert got.tobytes() == want.tobytes()
            with pytest.raises(ValueError):
                got[0, 0] = 0.0
            with pytest.raises(FrozenInstanceError):
                setattr(rho, name, want)

    @given(st.lists(st.floats(1e-3, 1.0), min_size=2, max_size=8))
    def test_diagonal_is_classical_of_a_normalized_vector(self, raw):
        p = np.array(raw) / sum(raw)
        p /= p.sum()
        assume(p.sum() == 1.0)
        got, want = DensityOperator._diagonal(p), DensityOperator.classical(p)
        for name in ("probs", "eigenvalues", "eigenvectors"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
        assert got.clamped is want.clamped is False


class TestExpectationEntropy:
    def test_expectation_diagonal_shortcut_matches_trace(self, rng):
        rho = random_density(rng, 4, kind="classical")
        vals = rng.normal(size=4)
        op = HermitianOperator.from_diagonal(vals)
        direct = float(np.real(np.trace(rho.matrix @ op.matrix)))
        assert expectation(rho, op) == pytest.approx(direct, abs=1e-14)

    def test_uniform_entropy(self):
        assert von_neumann_entropy(uniform_state(8)) == pytest.approx(np.log(8), abs=1e-12)

    def test_relative_entropy_self_is_zero(self, rng):
        rho = random_density(rng, 3)
        assert relative_entropy(rho, rho) == pytest.approx(0.0, abs=1e-12)

    def test_relative_entropy_positive(self, rng):
        for _ in range(10):
            rho = random_density(rng, 3)
            sig = random_density(rng, 3)
            assert relative_entropy(rho, sig) > 0

    def test_classical_relative_entropy_hand_value(self):
        p = DensityOperator.classical([0.7, 0.3])
        q = DensityOperator.classical([0.5, 0.5])
        want = 0.7 * np.log(0.7 / 0.5) + 0.3 * np.log(0.3 / 0.5)
        assert relative_entropy(p, q) == pytest.approx(want, abs=1e-14)


def _kmb_quadrature(sigma: DensityOperator, x, y, points: int = 96) -> float:
    """Independent oracle: Gauss-Legendre integral of tr(s^t X s^(1-t) Y)."""
    nodes, weights = np.polynomial.legendre.leggauss(points)
    t = 0.5 * (nodes + 1.0)
    w = 0.5 * weights
    p, v = sigma.eigenvalues, sigma.eigenvectors
    xm = v.conj().T @ x.matrix @ v
    ym = v.conj().T @ y.matrix @ v
    total = 0.0
    for ti, wi in zip(t, w):
        st_ = p ** ti
        s1t = p ** (1.0 - ti)
        total += wi * float(np.real(np.sum((st_[:, None] * xm) * (s1t[None, :] * ym.T))))
    return total


class TestKmbInner:
    def test_against_quadrature(self, rng):
        for dim in (2, 3, 4):
            sigma = random_density(rng, dim)
            x = random_hermitian(rng, dim)
            y = random_hermitian(rng, dim)
            got = kmb_inner(sigma, x, y)
            want = _kmb_quadrature(sigma, x, y)
            assert got == pytest.approx(want, rel=1e-9)

    def test_reduces_to_classical_covariance_form(self, rng):
        # for commuting diagonal observables the integral collapses to sum p x y
        sigma = random_density(rng, 5, kind="classical")
        x = HermitianOperator.from_diagonal(rng.normal(size=5))
        y = HermitianOperator.from_diagonal(rng.normal(size=5))
        want = float(np.sum(sigma.probs * x.diagonal * y.diagonal))
        assert kmb_inner(sigma, x, y) == pytest.approx(want, abs=1e-13)

    def test_degenerate_weight_is_continuous(self):
        # nearly equal eigenvalues: log-mean -> arithmetic mean limit
        base = DensityOperator.classical([0.5, 0.5])
        near = DensityOperator.classical([0.5 + 5e-11, 0.5 - 5e-11])
        x = pauli_x()
        a = kmb_inner(base, x, x)
        b = kmb_inner(near, x, x)
        assert a == pytest.approx(b, rel=1e-8)

    def test_symmetry_and_linearity(self, rng):
        sigma = random_density(rng, 3)
        x, y, z = (random_hermitian(rng, 3) for _ in range(3))
        assert kmb_inner(sigma, x, y) == pytest.approx(kmb_inner(sigma, y, x), rel=1e-12)
        com = HermitianOperator.from_matrix(y.matrix + 2.0 * z.matrix)
        assert kmb_inner(sigma, x, com) == pytest.approx(
            kmb_inner(sigma, x, y) + 2.0 * kmb_inner(sigma, x, z), rel=1e-10)

    def test_at_uniform_equals_scaled_hs(self, rng):
        d = 3
        sigma = uniform_state(d)
        x = random_hermitian(rng, d)
        y = random_hermitian(rng, d)
        tr_xy = float(np.real(np.trace(x.matrix @ y.matrix)))
        assert kmb_inner(sigma, x, y) == pytest.approx(tr_xy / d, rel=1e-12)


class TestPauliBloch:
    def test_pauli_algebra(self):
        sx, sy, sz = pauli_x().matrix, pauli_y().matrix, pauli_z().matrix
        assert np.allclose(sx @ sy - sy @ sx, 2j * sz)
        assert np.allclose(sx @ sx, np.eye(2))

    def test_bloch_state_expectations(self):
        r, th, ph = 0.6, 0.8, 1.1
        rho = bloch_state(r, th, ph)
        n = np.array([np.sin(th) * np.cos(ph), np.sin(th) * np.sin(ph), np.cos(th)])
        for op, comp in zip((pauli_x(), pauli_y(), pauli_z()), r * n):
            assert expectation(rho, op) == pytest.approx(comp, abs=1e-12)

    def test_bloch_state_rejects_pure(self):
        with pytest.raises(ValidationError):
            bloch_state(1.0, 0.0, 0.0)

    @given(st.floats(min_value=0.0, max_value=0.99))
    def test_bloch_entropy_closed_form(self, r):
        rho = bloch_state(r, 0.3, 0.7)
        lo, hi = (1 - r) / 2, (1 + r) / 2
        want = -(lo * np.log(lo) + hi * np.log(hi)) if r > 0 else np.log(2)
        assert von_neumann_entropy(rho) == pytest.approx(want, abs=1e-10)
