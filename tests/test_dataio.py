import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from gibbsfit.dataio import load_classical, load_quantum, resolve_level
from gibbsfit.errors import DataFormatError
from gibbsfit.state_space import HermitianOperator, expectation, relative_entropy
from oracles import hermitian_operator, parse_observable

WOLF_COUNTS = "data/wolf_counts.csv"
WOLF_OBS = "data/wolf_observables.csv"
QUBIT_JSON = "data/qubit_tilt3.json"


class TestLoadClassical:
    def test_wolf_frequencies(self):
        ds = load_classical(WOLF_COUNTS)
        assert ds.n == 20000
        freq = ds.data.counts / ds.n
        assert freq[0] == pytest.approx(0.16230, abs=5e-6)
        assert ds.reference.probs == pytest.approx(np.full(6, 1 / 6))

    def test_entropy_reproducible_from_counts(self):
        ds = load_classical(WOLF_COUNTS)
        emp = ds.data.empirical
        s = relative_entropy(emp, ds.reference)
        assert 2 * ds.n * s == pytest.approx(270.7685, abs=1e-3)

    def test_observables_table(self):
        ds = load_classical(WOLF_COUNTS, WOLF_OBS)
        assert set(ds.observables) == {"G1", "G2"}
        g1 = ds.observables["G1"]
        assert g1.diagonal == pytest.approx(np.arange(1, 7) - 3.5)
        emp = ds.data.empirical
        assert expectation(emp, g1) == pytest.approx(0.0983, abs=1e-6)
        assert expectation(emp, ds.observables["G2"]) == pytest.approx(0.1393, abs=1e-6)

    def test_reference_weight_column(self, tmp_path):
        path = tmp_path / "weighted.csv"
        path.write_text("outcome,count,reference_weight\na,10,1\nb,30,3\n")
        ds = load_classical(path)
        assert ds.reference.probs == pytest.approx([0.25, 0.75])

    def test_rejects_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("outcome,frequency\na,0.5\nb,0.5\n")
        with pytest.raises(DataFormatError):
            load_classical(path)

    def test_rejects_negative_count(self, tmp_path):
        path = tmp_path / "neg.csv"
        path.write_text("outcome,count\na,10\nb,-1\n")
        with pytest.raises(DataFormatError):
            load_classical(path)

    def test_rejects_single_outcome(self, tmp_path):
        path = tmp_path / "one.csv"
        path.write_text("outcome,count\na,10\n")
        with pytest.raises(DataFormatError):
            load_classical(path)

    def test_rejects_zero_total(self, tmp_path):
        path = tmp_path / "zero.csv"
        path.write_text("outcome,count\na,0\nb,0\n")
        with pytest.raises(DataFormatError):
            load_classical(path)

    def test_rejects_duplicate_outcome(self, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text("outcome,count\na,5\na,6\n")
        with pytest.raises(DataFormatError):
            load_classical(path)

    def test_rejects_outcome_mismatch_with_observables(self, tmp_path):
        counts = tmp_path / "c.csv"
        counts.write_text("outcome,count\na,5\nb,6\n")
        obs = tmp_path / "o.csv"
        obs.write_text("outcome,E\na,1\nc,2\n")
        with pytest.raises(DataFormatError):
            load_classical(counts, obs)


class TestLoadQuantum:
    def test_qubit_file(self):
        ds = load_quantum(QUBIT_JSON)
        assert ds.reference.dim == 2
        assert np.allclose(ds.reference.matrix, np.eye(2) / 2)
        assert set(ds.observables) == {"X", "Y", "Z"}
        assert ds.n == 20000
        # measured level spans the three Paulis plus identity
        assert ds.levels["F"].dim == 4
        assert ds.named == {"ising": ("Z",), "heisenberg": ("X", "Y", "Z")}

    def test_sample_means_order(self):
        ds = load_quantum(QUBIT_JSON)
        r, tilt = 0.73, np.deg2rad(3.0)
        want = {"X": r * np.sin(tilt), "Y": 0.0, "Z": r * np.cos(tilt)}
        lvl = ds.data.level
        for pos, gen_idx in enumerate(lvl.retained):
            name = ["X", "Y", "Z"][gen_idx]
            assert ds.data.means[pos] == pytest.approx(want[name], abs=1e-12)

    def test_rejects_wrong_format_version(self, tmp_path):
        doc = json.loads(Path(QUBIT_JSON).read_text())
        doc["format_version"] = 2
        path = tmp_path / "v2.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(DataFormatError):
            load_quantum(path)

    def test_rejects_non_hermitian_observable(self, tmp_path):
        doc = json.loads(Path(QUBIT_JSON).read_text())
        doc["observables"][0]["re"] = [[0.0, 1.0], [0.3, 0.0]]
        path = tmp_path / "nh.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(DataFormatError):
            load_quantum(path)

    def test_rejects_bad_reference(self, tmp_path):
        doc = json.loads(Path(QUBIT_JSON).read_text())
        doc["reference"] = {"re": [[0.9, 0.0], [0.0, 0.9]],
                            "im": [[0.0, 0.0], [0.0, 0.0]]}
        path = tmp_path / "badref.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(DataFormatError):
            load_quantum(path)

    def test_rejects_unknown_mean(self, tmp_path):
        doc = json.loads(Path(QUBIT_JSON).read_text())
        doc["sample_means"]["W"] = 0.1
        path = tmp_path / "unknown.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(DataFormatError):
            load_quantum(path)

    def test_rejects_level_with_unknown_observable(self, tmp_path):
        doc = json.loads(Path(QUBIT_JSON).read_text())
        doc["levels"]["bad"] = ["Z", "W"]
        path = tmp_path / "badlevel.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(DataFormatError, match="unknown observables"):
            load_quantum(path)

    @pytest.mark.parametrize("name", ["full", "F", "O"])
    def test_rejects_builtin_level_name(self, tmp_path, name):
        doc = json.loads(Path(QUBIT_JSON).read_text())
        doc["levels"][name] = ["Z"]
        path = tmp_path / "shadow.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(DataFormatError, match="reserved"):
            load_quantum(path)

    def test_rejects_missing_key(self, tmp_path):
        doc = json.loads(Path(QUBIT_JSON).read_text())
        del doc["dim"]
        path = tmp_path / "nodim.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(DataFormatError):
            load_quantum(path)


OBSERVABLE_KINDS = ("dense", "diagonal", "integer", "real-no-im")


def _observable_entry(rng, dim: int, kind: str, name: str) -> dict:
    """One JSON observable of the given kind.  Dense and real matrices carry
    an asymmetry well inside the 1e-9 tolerance, so symmetrizing rounds."""
    im = None
    if kind == "integer":
        a, b = rng.integers(-3, 4, size=(2, dim, dim))
        re, im = a + a.T, b - b.T
    elif kind == "diagonal":
        re, im = np.diag(rng.normal(size=dim)), np.zeros((dim, dim))
    else:
        a = rng.normal(size=(dim, dim))
        if kind == "dense":
            a = a + 1j * rng.normal(size=(dim, dim))
        h = 0.5 * (a + a.conj().T)
        h[0, 1] += 1e-12 * rng.normal()
        re, im = h.real, (h.imag if kind == "dense" else None)
    entry = {"name": name, "re": re.tolist()}
    if im is not None:
        entry["im"] = im.tolist()
    return entry


def _assert_same_operator(got, want):
    assert (got.diagonal is None) == (want.diagonal is None)
    assert np.array_equal(got.matrix, want.matrix)
    assert got.matrix.tobytes() == want.matrix.tobytes()
    if want.diagonal is not None:
        assert np.array_equal(got.diagonal, want.diagonal)
        assert got.diagonal.tobytes() == want.diagonal.tobytes()


class TestStackedObservables:
    # the stacked reader gives each observable the bits that reading it
    # on its own gives, with the same dense or diagonal tag
    @given(dim=st.integers(2, 8), data=st.data())
    def test_matches_entry_by_entry_reader(self, dim, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        kinds = data.draw(st.lists(st.sampled_from(OBSERVABLE_KINDS), min_size=1,
                                   max_size=8), label="kinds")
        entries = [_observable_entry(rng, dim, kind, f"A{i}") for i, kind in enumerate(kinds)]
        measured = {"name": "Z", "re": np.diag([1] + [0] * (dim - 2) + [-1]).tolist()}
        doc = {"format_version": 1, "dim": dim, "observables": [measured, *entries],
               "sample_means": {"Z": 0.25}, "N": 100}
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "observables.json"
            path.write_text(json.dumps(doc))
            ds = load_quantum(path)
        for entry in doc["observables"]:
            _assert_same_operator(ds.observables[entry["name"]], parse_observable(entry, dim))

    @given(dim=st.integers(2, 8), kind=st.sampled_from(OBSERVABLE_KINDS),
           seed=st.integers(0, 2**32 - 1))
    def test_from_matrix_matches_one_matrix_rule(self, dim, kind, seed):
        entry = _observable_entry(np.random.default_rng(seed), dim, kind, "A")
        m = np.array(entry["re"], dtype=float) + 1j * np.array(
            entry.get("im", np.zeros((dim, dim))), dtype=float)
        _assert_same_operator(HermitianOperator.from_matrix(m, atol=1e-9),
                              hermitian_operator(m, 1e-9))


class TestResolveLevel:
    def test_named_level(self):
        ds = load_quantum(QUBIT_JSON)
        assert resolve_level(ds, "ising").dim == 2
        assert resolve_level(ds, "O").is_trivial

    def test_builtin_names(self):
        ds = load_quantum(QUBIT_JSON)
        assert resolve_level(ds, "full") is ds.data.level
        assert resolve_level(ds, " F ") is ds.data.level
        assert resolve_level(ds, "X,Z").n_params == 2

    def test_observable_list(self):
        ds = load_classical(WOLF_COUNTS, WOLF_OBS)
        lvl = resolve_level(ds, "G1,G2")
        assert lvl.n_params == 2

    def test_unknown_spec_rejected(self):
        ds = load_classical(WOLF_COUNTS)
        with pytest.raises(DataFormatError):
            resolve_level(ds, "nope")


class TestReadOnlyDataset:
    # one dataset serves every command a process runs on the same bytes, so
    # none of them may change what the next one reads
    @pytest.mark.parametrize("ds", [lambda: load_classical(WOLF_COUNTS, WOLF_OBS),
                                    lambda: load_quantum(QUBIT_JSON)],
                             ids=["classical", "quantum"])
    @pytest.mark.parametrize("field", ["observables", "levels", "named"])
    def test_maps_refuse_item_assignment(self, ds, field):
        with pytest.raises(TypeError):
            getattr(ds(), field)["extra"] = None
