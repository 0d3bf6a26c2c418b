import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

import gibbsfit.levels
import gibbsfit.state_space
from gibbsfit.errors import ValidationError
from gibbsfit.levels import (
    complement,
    full_classical_level,
    intersection,
    is_sublevel,
    make_level,
    trivial_level,
)
from gibbsfit.state_space import (
    DensityOperator,
    HermitianOperator,
    expectation,
    pauli_x,
    pauli_y,
    pauli_z,
    uniform_state,
)
import levels_oracle as oracle
from conftest import full_quantum_level, random_density, random_diagonal, random_hermitian
from oracles import kmb_inner


class TestMakeLevel:
    def test_basis_is_kmb_orthonormal_and_centered(self, rng):
        sigma = random_density(rng, 4)
        ops = [random_hermitian(rng, 4) for _ in range(3)]
        lvl = make_level(ops, sigma)
        for i, bi in enumerate(lvl.basis):
            assert expectation(sigma, bi) == pytest.approx(0.0, abs=1e-10)
            for j, bj in enumerate(lvl.basis):
                want = 1.0 if i == j else 0.0
                assert kmb_inner(sigma, bi, bj) == pytest.approx(want, abs=1e-9)

    def test_generator_reconstruction(self, rng):
        sigma = random_density(rng, 3)
        ops = [random_hermitian(rng, 3) for _ in range(2)]
        lvl = make_level(ops, sigma)
        for a in lvl.retained:
            rebuilt = lvl.gen_offsets[a] * np.eye(3, dtype=complex)
            for b, basis_op in enumerate(lvl.basis):
                rebuilt = rebuilt + lvl.gen_coeffs[a, b] * basis_op.matrix
            assert np.allclose(rebuilt, lvl.generators[a].matrix, atol=1e-9)

    @given(dim=st.sampled_from([2, 3, 5]),
           reference=st.sampled_from(["classical", "quantum"]),
           dense=st.booleans(), data=st.data())
    def test_gen_coeffs_rebuild_generators(self, dim, reference, dense, data):
        # G_a - offset_a = sum_b T[a, b] B_b in the embedding, T lower
        # triangular with a positive diagonal
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        sigma = random_density(rng, dim, kind=reference)
        k = data.draw(st.integers(1, dim * dim - 1 if dense else dim - 1), label="k")
        draw = random_hermitian if dense else random_diagonal
        lvl = make_level([draw(rng, dim) for _ in range(k)], sigma)
        embed = oracle.dense_embedding(sigma)
        basis = np.array([embed(op) for op in lvl.basis])
        t = lvl.gen_coeffs
        assert np.all(np.diag(t) > 0) and np.all(np.triu(t, 1) == 0.0)
        for a, i in enumerate(lvl.retained):
            want = embed(oracle.center(lvl.generators[i], sigma)[1])
            assert lvl.gen_offsets[a] == expectation(sigma, lvl.generators[i])
            assert np.linalg.norm(t[a] @ basis - want) <= 1e-12 * np.linalg.norm(want)

    def test_dependent_generators_dropped(self, rng):
        sigma = random_density(rng, 4, kind="classical")
        a = random_diagonal(rng, 4)
        b = random_diagonal(rng, 4)
        dep = HermitianOperator.from_diagonal(2.0 * a.diagonal - b.diagonal)
        lvl = make_level([a, b, dep], sigma)
        assert lvl.n_params == 2
        assert lvl.retained == (0, 1)

    def test_identity_direction_is_absorbed(self, rng):
        sigma = random_density(rng, 3, kind="classical")
        shifted = HermitianOperator.from_diagonal(np.ones(3) * 7.0)
        lvl = make_level([shifted], sigma)
        assert lvl.n_params == 0
        assert lvl.is_trivial

    def test_kmb_needs_reference(self):
        with pytest.raises(TypeError):
            make_level([pauli_z()])
        with pytest.raises(ValidationError):
            make_level([pauli_z()], None)

    def test_rejects_generator_of_other_dimension(self, rng):
        sigma = uniform_state(2)
        with pytest.raises(ValidationError):
            make_level([pauli_z(), random_hermitian(rng, 3)], sigma)
        with pytest.raises(ValidationError):
            make_level([random_diagonal(rng, 3)], sigma)


class TestLevelQueries:
    def test_trivial_and_full_dims(self, rng):
        sigma = random_density(rng, 5, kind="classical")
        assert trivial_level(sigma).dim == 1
        assert full_classical_level(sigma).dim == 5
        squant = random_density(rng, 3)
        assert full_quantum_level(squant).dim == 9

    def test_is_sublevel(self, rng):
        sigma = uniform_state(2)
        ising = make_level([pauli_z()], sigma)
        heis = make_level([pauli_x(), pauli_y(), pauli_z()], sigma)
        assert is_sublevel(ising, heis)
        assert not is_sublevel(heis, ising)
        assert is_sublevel(ising, ising)

    @given(dim=st.sampled_from([2, 3, 4, 6]),
           kind=st.sampled_from(["classical", "quantum"]), data=st.data())
    def test_sublevel_properties(self, dim, kind, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        sigma = random_density(rng, dim, kind=kind)
        draw = random_diagonal if kind == "classical" else random_hermitian
        max_params = dim - 1 if kind == "classical" else dim * dim - 1
        k = data.draw(st.integers(0, max_params - 1), label="k")
        lvl = make_level([draw(rng, dim) for _ in range(k)], sigma)
        assert is_sublevel(lvl, lvl)
        # a rebuilt copy is another object, so this runs the projection path
        copy = make_level(lvl.basis, lvl.sigma)
        assert copy is not lvl
        assert is_sublevel(copy, lvl) and is_sublevel(lvl, copy)
        bigger = make_level([*lvl.generators, draw(rng, dim)], sigma)
        assert bigger.n_params == lvl.n_params + 1
        assert not is_sublevel(bigger, lvl)
        assert is_sublevel(lvl, bigger)

    def test_sublevel_requires_same_context(self, rng):
        s1 = random_density(rng, 3, kind="classical")
        s2 = random_density(rng, 3, kind="classical")
        l1 = make_level([random_diagonal(rng, 3)], s1)
        l2 = make_level([random_diagonal(rng, 3)], s2)
        with pytest.raises(ValidationError):
            is_sublevel(l1, l2)


def _assert_identical(a, b):
    """Bit-for-bit equality of two levels' retained sets and frames."""
    assert a.retained == b.retained
    assert np.array_equal(a.gen_offsets, b.gen_offsets)
    assert np.array_equal(a.gen_coeffs, b.gen_coeffs)
    assert len(a.basis) == len(b.basis)
    for x, y in zip(a.basis, b.basis):
        assert np.array_equal(x.diagonal, y.diagonal)


class TestOutcomeLevel:
    # the outcome level keeps the first d - 1 indicators and orthonormalizes
    # them on first read, with the bits make_level gives them
    @given(dim=st.integers(2, 70), one_hot=st.booleans(), data=st.data())
    def test_lazy_frame(self, dim, one_hot, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        if one_hot:
            w = np.full(dim, 1e-13)
            w[rng.integers(dim)] = 1.0
        else:
            w = 10.0 ** rng.uniform(-30.0, 0.0, dim)
        sigma = DensityOperator.classical(w / w.sum())
        full = full_classical_level(sigma)
        assert full.n_params == dim - 1 and "basis" not in vars(full)
        eye = np.eye(dim)
        _assert_identical(full, make_level(eye[:-1], sigma))
        assert full.retained == tuple(range(dim - 1))
        # the d-th indicator is the identity minus the others
        assert is_sublevel(make_level(eye[-1:], sigma), full)
        # all d indicators, as the level was once built: where Gram-Schmidt
        # drops the dependent last one, the frame is the same
        every = make_level(eye, sigma)
        if every.retained == full.retained:
            _assert_identical(full, every)

    def test_relabelled_level_keeps_its_frame(self, rng):
        full = full_classical_level(random_density(rng, 5, kind="classical"))
        assert "basis" not in vars(full.with_label("F"))
        basis = full.basis
        assert full.with_label("F").basis is basis

    def test_frame_must_keep_retained(self, rng):
        sigma = random_density(rng, 4, kind="classical")
        lvl = make_level([random_diagonal(rng, 4)], sigma)
        lazy = gibbsfit.levels.LevelOfDescription(
            sigma=sigma, generators=(lvl.generators[0],) * 2, retained=(0, 1))
        assert lazy.n_params == 2
        with pytest.raises(ValidationError, match="keeps generators"):
            lazy.gen_coeffs


class TestSetOperations:
    def test_union_intersection_dimension_identity(self, rng):
        # dim(A+B) + dim(A&B) = dim A + dim B for generic spans
        sigma = random_density(rng, 4, kind="classical")
        x, y, z = (random_diagonal(rng, 4) for _ in range(3))
        la = make_level([x, y], sigma, label="A")
        lb = make_level([y, z], sigma, label="B")
        u = make_level(list(la.basis) + list(lb.basis), sigma)
        i = intersection(la, lb)
        assert u.dim + i.dim == la.dim + lb.dim
        assert is_sublevel(i, la) and is_sublevel(i, lb)
        assert is_sublevel(la, u) and is_sublevel(lb, u)
        assert i.label == "A&B"

    def test_intersection_recovers_shared_direction(self, rng):
        sigma = random_density(rng, 4, kind="classical")
        shared = random_diagonal(rng, 4)
        la = make_level([shared, random_diagonal(rng, 4)], sigma)
        lb = make_level([shared, random_diagonal(rng, 4)], sigma)
        i = intersection(la, lb)
        assert i.n_params == 1
        # the recovered direction spans the same line as `shared` (centered)
        coeff = kmb_inner(sigma, i.basis[0], shared)
        resid = shared.matrix - expectation(sigma, shared) * np.eye(4) \
            - coeff * i.basis[0].matrix
        assert np.max(np.abs(resid)) < 1e-8

    def test_intersection_with_trivial(self, rng):
        sigma = random_density(rng, 3, kind="classical")
        la = make_level([random_diagonal(rng, 3)], sigma)
        assert intersection(la, trivial_level(sigma)).is_trivial

    def test_complement_is_orthogonal_and_fills(self, rng):
        sigma = random_density(rng, 4)
        amb = make_level([random_hermitian(rng, 4) for _ in range(4)], sigma)
        sub = make_level([amb.generators[0]], sigma)
        comp = complement(sub, amb)
        assert comp.n_params == amb.n_params - sub.n_params
        for cb in comp.basis:
            for sb in sub.basis:
                assert kmb_inner(sigma, cb, sb) == pytest.approx(0.0, abs=1e-9)

    def test_complement_of_the_whole_level_at_floored_reference(self):
        # four of five weights below the eigenvalue floor make the metric
        # ill-conditioned; in the level's own coordinates it is Euclidean,
        # so the complement of the whole level keeps no direction
        w = np.array([1.0, 1e-13, 1e-13, 1e-13, 1e-13])
        full = full_classical_level(DensityOperator.classical(w / w.sum()))
        shared = intersection(full, full)
        assert shared.n_params == 4 and is_sublevel(full, shared)
        assert complement(shared, full).is_trivial
        assert complement(full, full).is_trivial

    def test_complement_requires_containment(self, rng):
        sigma = random_density(rng, 3, kind="classical")
        la = make_level([random_diagonal(rng, 3)], sigma)
        lb = make_level([random_diagonal(rng, 3)], sigma)
        # a refusal is never memoized
        for _ in range(2):
            with pytest.raises(ValidationError, match="contained"):
                complement(la, lb)
        other = make_level(la.generators, random_density(rng, 3, kind="classical"))
        with pytest.raises(ValidationError, match="different reference"):
            complement(la, other)

    def test_complement_builds_one_level(self, rng, monkeypatch):
        # the inputs are used as built; only the result is a new level
        sigma = random_density(rng, 4)
        amb = make_level([random_hermitian(rng, 4) for _ in range(3)], sigma)
        sub = make_level([amb.generators[0]], sigma)
        calls = []
        original = gibbsfit.levels._orthonormalize

        def counting(ops, stack, sigma):
            calls.append(stack)
            return original(ops, stack, sigma)

        monkeypatch.setattr(gibbsfit.levels, "_orthonormalize", counting)
        assert complement(sub, amb).n_params == 2
        assert len(calls) == 1


@pytest.fixture
def embedded(monkeypatch):
    """Stacked operators handed to the canonical-correlation embedding, in
    order, one entry per row."""
    seen = []
    original = gibbsfit.levels._embedding

    def counting(sigma, stack, *args):
        seen.extend(stack)
        return original(sigma, stack, *args)

    monkeypatch.setattr(gibbsfit.levels, "_embedding", counting)
    return seen


class TestEmbeddingCount:
    # intersection and make_level embed each operator once, whatever the
    # frame size, and is_sublevel(L, L) embeds none
    def test_intersection(self, rng, embedded):
        sigma = random_density(rng, 64, kind="classical")
        full = full_classical_level(sigma)
        small = make_level([random_diagonal(rng, 64) for _ in range(3)], sigma)
        full.basis  # the outcome level's frame is built on first read
        embedded.clear()
        shared = intersection(full, small)
        assert shared.n_params == 3
        assert len(embedded) <= 2 * (63 + 3)

    def test_make_level(self, rng, embedded):
        sigma = random_density(rng, 4)
        make_level([random_hermitian(rng, 4) for _ in range(5)], sigma)
        assert len(embedded) <= 5

    def test_is_sublevel_of_itself(self, rng, embedded):
        lvl = full_quantum_level(random_density(rng, 3))
        embedded.clear()
        assert is_sublevel(lvl, lvl)
        assert embedded == []


class TestSlotUpdates:
    # diagonal operators at a permutation eigenframe: the embeddings and the
    # Gram-Schmidt frame hold only the d diagonal slots of each length-d^2
    # embedding; the full-length vectors exist only as reused scratches
    D = 64
    ENTRY = np.dtype(complex).itemsize

    @pytest.fixture
    def diagonal_inputs(self, rng):
        sigma = random_density(rng, self.D, kind="classical")
        raw = rng.normal(size=(6, self.D))
        stack = raw - (raw @ sigma.probs)[:, None]
        slots = gibbsfit.levels._slots(sigma, stack)
        assert slots != slice(None)
        return gibbsfit.levels._embedding(sigma, stack, slots), stack, slots, sigma

    @staticmethod
    def _traced(call):
        """What call returns, and the peak and the retained bytes it
        allocates."""
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            result = call()
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return result, peak - base, current - base

    def test_gram_schmidt_allocates_only_its_frame(self, diagonal_inputs):
        embeds, stack, slots, _ = diagonal_inputs
        assert embeds.shape == stack.shape
        (_, frame, basis, r), peak, retained = self._traced(
            lambda: gibbsfit.levels._gram_schmidt(embeds, stack, slots))
        k = len(stack)
        assert len(frame) == k and basis.shape == stack.shape
        assert r.shape == (k, k)
        # the frame holds the d slots of each row; the basis rows are real
        assert sum(f.size for f in frame) == k * self.D
        assert retained < 2 * k * self.D * self.ENTRY
        # beyond the frame: two length-d^2 scratches and length-d buffers
        assert peak - retained <= 3 * self.D * self.D * self.ENTRY

    @given(dim=st.integers(2, 70), k=st.integers(1, 6), dependent=st.booleans(),
           data=st.data())
    def test_slot_rows_keep_the_full_length_bits(self, dim, k, dependent, data):
        # a vdot over the d slots alone rounds differently from the
        # full-length one at most d; slot rows must keep every bit
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        sigma = random_density(rng, dim, kind="classical")
        raw = rng.normal(size=(min(k, dim - 1), dim))
        if dependent:
            raw = np.vstack([raw, 2.0 * raw[0] - raw[-1]])
        stack = raw - (raw @ sigma.probs)[:, None]
        slots = gibbsfit.levels._slots(sigma, stack)
        assert slots == slice(None, None, dim + 1)
        compact = gibbsfit.levels._gram_schmidt(
            gibbsfit.levels._embedding(sigma, stack, slots), stack, slots)
        full = gibbsfit.levels._gram_schmidt(
            gibbsfit.levels._embedding(sigma, stack), stack)
        assert compact[0] == full[0]
        assert compact[2].tobytes() == full[2].tobytes()
        assert compact[3].tobytes() == full[3].tobytes()
        padded = np.zeros((len(compact[1]), dim * dim), dtype=complex)
        padded[:, slots] = compact[1]
        assert padded.tobytes() == np.array(full[1]).reshape(padded.shape).tobytes()

    def test_diagonal_levels_build_no_full_length_stack(self, rng):
        # the outcome level's lazy pass and an intersection with it keep
        # (k, d) rows: the peak is a few length-d^2 scratches plus O(k d)
        sigma = random_density(rng, self.D, kind="classical")
        full = full_classical_level(sigma)
        small = make_level([random_diagonal(rng, self.D) for _ in range(3)], sigma)
        for call, k in ((lambda: full.stack, self.D - 1),
                        (lambda: intersection(full, small), self.D + 2)):
            _, peak, _ = self._traced(call)
            # one (k, d^2) complex array alone would take k * D^2 entries
            assert peak <= (3 * self.D * self.D + 8 * k * self.D) * self.ENTRY

    def test_frame_coords_allocates_one_working_copy(self, diagonal_inputs):
        _, stack, _, sigma = diagonal_inputs
        level = make_level(stack[1:], sigma)
        (_, resid), peak, _ = self._traced(
            lambda: gibbsfit.levels._frame_coords(level, stack[:1]))
        assert resid.shape == (1,) and resid[0] > 0
        # one length-d^2 embedding at a time; the stacks keep d entries a row
        assert peak < 1.5 * self.D * self.D * self.ENTRY

    @pytest.mark.parametrize("kind", ["classical", "quantum"])
    def test_frame_computed_once_per_reference(self, rng, monkeypatch, kind):
        calls = []
        weights = gibbsfit.state_space._kmb_weights

        def counting(p):
            calls.append(p)
            return weights(p)

        monkeypatch.setattr(gibbsfit.state_space, "_kmb_weights", counting)
        sigma = random_density(rng, 4, kind=kind)
        draw = random_diagonal if kind == "classical" else random_hermitian
        amb = make_level([draw(rng, 4) for _ in range(3)], sigma)
        sub = make_level(amb.generators[:1], sigma)
        assert is_sublevel(sub, amb)
        assert intersection(sub, amb).n_params == 1
        assert complement(sub, amb).n_params == 2
        # diagonal generators at a classical reference read only the
        # weights' diagonal, the spectrum, so the d x d weights are never built
        assert len(calls) == (0 if kind == "classical" else 1)


def _assert_same_level(new, old):
    """Bit-for-bit equality of the retained generators, their offsets and
    every basis operator.  gen_coeffs is the R factor of Gram-Schmidt in
    the package and a vdot against the finished basis in the oracle, so
    it agrees to rounding, with exact zeros above the diagonal."""
    assert new.retained == old.retained
    assert np.array_equal(new.gen_offsets, old.gen_offsets)
    assert new.gen_coeffs.shape == old.gen_coeffs.shape
    if old.gen_coeffs.size:
        scale = np.max(np.abs(old.gen_coeffs))
        assert np.max(np.abs(new.gen_coeffs - old.gen_coeffs)) <= 1e-12 * scale
    assert np.all(np.triu(new.gen_coeffs, 1) == 0.0)
    assert len(new.basis) == len(old.basis)
    for x, y in zip(new.basis, old.basis):
        assert (x.diagonal is None) == (y.diagonal is None)
        if x.diagonal is not None:
            assert np.array_equal(x.diagonal, y.diagonal)
        assert np.array_equal(x.matrix, y.matrix)


class TestDenseOracle:
    # diagonal operators stay vectors, with the same bits as the dense
    # matrix algebra of levels_oracle
    @given(dim=st.sampled_from([2, 3, 4, 6]),
           reference=st.sampled_from(["classical", "quantum", "uniform"]),
           kind=st.sampled_from(["diagonal", "dense", "mixed"]), data=st.data())
    def test_operations_match(self, dim, reference, kind, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        sigma = (uniform_state(dim) if reference == "uniform"
                 else random_density(rng, dim, kind=reference))
        max_params = dim - 1 if kind == "diagonal" else dim * dim - 1

        def draw():
            dense = kind == "dense" or (kind == "mixed" and rng.random() < 0.5)
            return (random_hermitian if dense else random_diagonal)(rng, dim)

        k = data.draw(st.integers(1, min(4, max_params)), label="k")
        gens = [draw() for _ in range(k)]
        # a combination of earlier generators and the identity: dropped
        dep = HermitianOperator.from_matrix(
            2.0 * gens[0].matrix - gens[-1].matrix + 0.5 * np.eye(dim))
        a = make_level([*gens, dep], sigma, label="A")
        _assert_same_level(a, oracle.make_level([*gens, dep], sigma))
        assert k not in a.retained
        b = make_level([gens[0], *(draw() for _ in range(k))], sigma, label="B")
        _assert_same_level(b, oracle.make_level(b.generators, sigma))
        for x, y in ((a, b), (b, a)):
            _assert_same_level(intersection(x, y), oracle.intersection(x, y))
        sub = make_level(gens[:1], sigma)
        _assert_same_level(complement(sub, a), oracle.complement(sub, a))

    def test_full_classical_level_d64(self, rng):
        sigma = random_density(rng, 64, kind="classical")
        full = full_classical_level(sigma)
        assert len(full.generators) == 63
        _assert_same_level(full, oracle.make_level(full.generators, sigma))
        # all 64 indicators: the dependent last one is dropped, nothing moves
        _assert_same_level(full, oracle.make_level(np.eye(64), sigma))
        small = make_level([random_diagonal(rng, 64) for _ in range(3)], sigma)
        _assert_same_level(intersection(full, small), oracle.intersection(full, small))


class TestLazyDiagonal:
    @pytest.fixture
    def levels(self, rng):
        sigma = random_density(rng, 64, kind="classical")
        full = full_classical_level(sigma)
        return full, make_level([random_diagonal(rng, 64) for _ in range(3)], sigma)

    def test_intersection_constructs_no_frame_operators(self, levels, monkeypatch):
        built = []
        init = HermitianOperator.__init__

        def counting(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        levels[0].basis  # the outcome level's frame is built on first read
        monkeypatch.setattr(HermitianOperator, "__init__", counting)
        shared = intersection(*levels)
        assert shared.n_params == 3
        # the 66-direction frame makes none: only the shared generators,
        # their centred copies and the shared basis are operators
        assert len(built) <= 3 * shared.n_params

    def test_diagonal_bases_build_no_matrix(self, levels):
        shared = intersection(*levels)
        for lvl in (*levels, shared):
            assert all(op.diagonal is not None and "matrix" not in vars(op)
                       for op in lvl.basis)


def _level_bytes(level):
    """The exact bytes of a level's retained set and frame."""
    return (level.retained, *((a.dtype.str, a.shape, a.tobytes()) for a in (
        level.stack, level.gen_offsets, level.gen_coeffs)))


def _misses():
    return gibbsfit.levels._memo.cache_info().misses


class TestMemo:
    # levels are memoized per process by content: a warm result is the
    # cold one byte for byte, and any other content is built cold
    @given(dim=st.sampled_from([2, 3, 4, 6]),
           reference=st.sampled_from(["classical", "quantum", "uniform"]),
           kind=st.sampled_from(["diagonal", "dense", "mixed"]),
           signed_zero=st.booleans(), data=st.data())
    def test_warm_equals_cold(self, dim, reference, kind, signed_zero, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        sigma = (uniform_state(dim) if reference == "uniform"
                 else random_density(rng, dim, kind=reference))
        max_params = dim - 1 if kind == "diagonal" else dim * dim - 1

        def draw():
            if kind == "dense" or (kind == "mixed" and rng.random() < 0.5):
                m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
                m = m + m.conj().T
                if signed_zero:
                    m[0, 0] = -0.0
                return HermitianOperator.from_matrix(m)
            v = rng.normal(size=dim)
            if signed_zero:
                v[0] = -0.0
            return HermitianOperator.from_diagonal(v)

        k = data.draw(st.integers(1, min(4, max_params)), label="k")
        gens = [draw() for _ in range(k)]
        # a combination of earlier generators and the identity: dropped
        dep = HermitianOperator.from_matrix(
            2.0 * gens[0].matrix - gens[-1].matrix + 0.5 * np.eye(dim))
        others = [draw() for _ in range(k)]

        def build():
            a = make_level([*gens, dep], sigma, label="A")
            b = make_level([gens[0], *others], sigma, label="B")
            sub = make_level(gens[:1], sigma)
            built = [a, b, intersection(a, b), intersection(b, a), complement(sub, a)]
            if sigma.is_classical:
                full = full_classical_level(sigma)
                shared = intersection(full, b)
                built += [full, shared, complement(shared, full)]
            return [_level_bytes(lvl) for lvl in built]

        gibbsfit.levels._memo.cache_clear()
        cold = build()
        misses = _misses()
        warm = build()
        assert _misses() == misses  # every computation of the second build hits
        gibbsfit.levels._memo.cache_clear()
        assert build() == warm == cold

    def test_other_content_is_built_cold(self, rng):
        # a signed zero, or the same matrix held dense rather than diagonal,
        # is other content: each is built cold, as it is after a clear
        sigma = random_density(rng, 4, kind="classical")
        v = rng.normal(size=4)
        v[1] = 0.0
        w = v.copy()
        w[1] = -0.0
        x = random_hermitian(rng, 4)
        dense_v = HermitianOperator(diagonal=None, dense=np.diag(v).astype(complex))
        variants = [[v], [w], [HermitianOperator.from_diagonal(v), x], [dense_v, x]]
        built = []
        for gens in variants:
            misses = _misses()
            built.append(_level_bytes(make_level(gens, sigma)))
            assert _misses() == misses + 1
        gibbsfit.levels._memo.cache_clear()
        assert [_level_bytes(make_level(gens, sigma)) for gens in variants] == built

    def test_each_eigenvector_phase_is_built_cold(self, rng):
        # equal matrices (same_state) held with a column of the eigenvectors
        # negated: the embeddings differ, so each state gets its own result
        one = random_density(rng, 3)
        v = np.array(one.eigenvectors)
        v[:, 1] *= -1.0
        other = DensityOperator._from_spectrum(one.eigenvalues, v)
        assert one.same_state(other) and one.content != other.content
        gens = [random_hermitian(rng, 3) for _ in range(3)]
        a, b = make_level(gens[:2], one), make_level(gens[1:], one)
        intersection(a, b)
        misses = _misses()
        c, d = make_level(gens[:2], other), make_level(gens[1:], other)
        shared = _level_bytes(intersection(c, d))
        # two levels, the intersection's weights and its result level
        assert _misses() == misses + 4
        built = [_level_bytes(lvl) for lvl in (c, d)]
        gibbsfit.levels._memo.cache_clear()
        c, d = make_level(gens[:2], other), make_level(gens[1:], other)
        assert [_level_bytes(lvl) for lvl in (c, d)] == built
        assert _level_bytes(intersection(c, d)) == shared

    @pytest.mark.parametrize("kind", ["classical", "quantum"])
    def test_warm_complement_runs_no_gram_schmidt(self, rng, monkeypatch, kind):
        # complement's kept directions come from the memo too: a warm
        # complement, of levels built anew with the same content, runs no
        # Gram-Schmidt and no containment check (the cold one ran it) and
        # returns the cold level's bytes
        sigma = random_density(rng, 4, kind=kind)
        draw = random_diagonal if kind == "classical" else random_hermitian
        gens = [draw(rng, 4) for _ in range(3)]

        def build():
            amb = make_level(gens, sigma, label="A")
            return _level_bytes(complement(make_level(gens[:1], sigma), amb))

        cold = build()
        calls = []
        for name in ("_gram_schmidt", "_frame_coords"):
            original = getattr(gibbsfit.levels, name)

            def counting(*args, original=original, **kwargs):
                calls.append(args)
                return original(*args, **kwargs)

            monkeypatch.setattr(gibbsfit.levels, name, counting)
        assert build() == cold
        assert calls == []

    def test_classical_reference_holds_no_square_array(self, rng):
        # a classical state holds its eigenvectors as their order, so neither
        # the state nor a memo key built on it holds a d x d array until
        # the eigenvectors are read
        d = 16
        sigma = random_density(rng, d, kind="classical")
        full = full_classical_level(sigma)
        sub = make_level([random_diagonal(rng, d) for _ in range(2)], sigma)
        complement(intersection(full, sub), full)
        assert "eigenvectors" not in vars(sigma)
        assert all(value.ndim <= 1 for value in vars(sigma).values()
                   if isinstance(value, np.ndarray))
        # the memo keys hold the state as its content
        assert gibbsfit.levels._memo.cache_info().currsize > 0
        assert all(part is None or len(part[1]) <= 1 for part in sigma.content)
        v = sigma.eigenvectors
        assert v.shape == (d, d) and not v.flags.writeable
        assert np.array_equal(v, np.eye(d, dtype=complex)[:, np.argsort(sigma.probs)[::-1]])
        assert np.array_equal((v * sigma.eigenvalues) @ v.T, np.diag(sigma.probs))

    def test_threads_share_one_memo(self, rng):
        # more threads than cores build and intersect the same levels at
        # once, switching often: every result is the cold one
        sigma = random_density(rng, 4)
        gens = [[random_hermitian(rng, 4) for _ in range(2)] for _ in range(6)]

        def build(i):
            a, b = make_level(gens[i], sigma), make_level(gens[i - 1][:1] + gens[i], sigma)
            return [_level_bytes(lvl) for lvl in (a, b, intersection(b, a))]

        want = [build(i) for i in range(len(gens))]
        gibbsfit.levels._memo.cache_clear()
        got, errors = [], []

        def work(order):
            try:
                for i in order:
                    got.append((i, build(i)))
            except Exception as exc:  # reported by the assertion below
                errors.append(exc)

        threads = [threading.Thread(target=work, args=(list(rng.permutation(6)) * 3,))
                   for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads) and errors == []
        assert len(got) == 4 * 18
        assert all(built == want[i] for i, built in got)

    def test_bounded_and_read_only(self, rng):
        size = gibbsfit.levels.MEMO_SIZE
        sigma = random_density(rng, 4)
        levels = [make_level([random_hermitian(rng, 4)], sigma) for _ in range(size + 5)]
        assert gibbsfit.levels._memo.cache_info().currsize <= size
        amb = make_level([random_hermitian(rng, 4) for _ in range(3)], sigma)
        sub = make_level([amb.generators[0], random_hermitian(rng, 4)], sigma)
        weights = gibbsfit.levels._shared_weights(sub, amb)
        # a hit returns the cached objects themselves
        warm = make_level(levels[-1].generators, sigma)
        assert warm.stack is levels[-1].stack
        assert gibbsfit.levels._shared_weights(sub, amb) is weights
        for a in (weights, warm.stack, warm.gen_offsets, warm.gen_coeffs):
            with pytest.raises(ValueError, match="read-only"):
                a.flat[0] = 1.0
        frame = gibbsfit.levels._orthonormalize(warm.generators, warm.stack, sigma)[1]
        with pytest.raises(TypeError):
            frame["stack"] = None
