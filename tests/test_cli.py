import argparse
import builtins
import hashlib
import json
import math
import os
import subprocess
import sys
import threading
import time
from dataclasses import asdict
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import gibbsfit.cli
import gibbsfit.dataio
import gibbsfit.demos
import gibbsfit.gibbs
import gibbsfit.inference
import gibbsfit.levels
import gibbsfit.state_space
from gibbsfit.cli import EXIT_DATA, EXIT_OK, EXIT_SOLVER, run
from gibbsfit.dataio import load_classical, load_quantum
from gibbsfit.demos import THERMAL_N, thermal_setup
from gibbsfit.inference import estimate_alpha
from gibbsfit.report import load_report

WOLF_COUNTS = "data/wolf_counts.csv"
WOLF_OBS = "data/wolf_observables.csv"
QUBIT_JSON = "data/qubit_tilt3.json"
QUBIT_PARTIAL = "data/qubit_partial.json"


def _variant_qubit(tmp_path, name, **means):
    doc = json.loads(Path(QUBIT_JSON).read_text())
    doc["sample_means"] = means
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


class TestExitCodes:
    def test_project_succeeds(self, capsys):
        assert run(["project", "--data", WOLF_COUNTS]) == EXIT_OK
        assert "# gibbsfit project" in capsys.readouterr().out

    def test_missing_file(self, capsys):
        assert run(["project", "--data", "no/such/file.csv"]) == EXIT_DATA
        assert "gibbsfit: error:" in capsys.readouterr().err

    def test_malformed_data(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("outcome,count\na,-3\nb,5\n")
        assert run(["project", "--data", str(bad)]) == EXIT_DATA

    def test_observables_with_json_data(self, capsys):
        rc = run(["project", "--data", QUBIT_JSON, "--observables", WOLF_OBS])
        assert rc == EXIT_DATA
        assert "classical" in capsys.readouterr().err

    def test_bad_alpha(self, capsys):
        rc = run(["estimate", "--data", WOLF_COUNTS, "--alpha", "-2"])
        assert rc == EXIT_DATA
        rc = run(["estimate", "--data", WOLF_COUNTS, "--alpha", "lots"])
        assert rc == EXIT_DATA

    def test_evidence_not_applicable(self, tmp_path, capsys):
        path = _variant_qubit(tmp_path, "flat.json", X=0.0, Y=0.0, Z=0.0)
        assert run(["estimate", "--data", path, "--alpha", "auto"]) == EXIT_DATA
        assert "gibbsfit: error:" in capsys.readouterr().err

    def test_infeasible_target(self, tmp_path, capsys):
        path = _variant_qubit(tmp_path, "outside.json", X=1.5, Y=0.0, Z=0.0)
        assert run(["project", "--data", path, "--level", "F"]) == EXIT_SOLVER
        assert "gibbsfit: solver error:" in capsys.readouterr().err

    def test_builtin_level_name_in_file(self, tmp_path, capsys):
        doc = json.loads(Path(QUBIT_JSON).read_text())
        doc["levels"]["full"] = ["Z"]
        path = tmp_path / "shadow.json"
        path.write_text(json.dumps(doc))
        assert run(["project", "--data", str(path), "--level", "full"]) == EXIT_DATA
        assert "reserved" in capsys.readouterr().err

    def test_bad_log_env(self, monkeypatch, capsys):
        monkeypatch.setenv("GIBBSFIT_LOG", "loud")
        assert run(["project", "--data", WOLF_COUNTS]) == EXIT_DATA
        assert "GIBBSFIT_LOG" in capsys.readouterr().err


def _classical_files(tmp_path, counts="3,4,5", weights="1,1,1", values="1,2,3"):
    """A 3-outcome counts file with a reference_weight column and a
    one-observable table, each column given as comma-separated cells."""
    data = tmp_path / "counts.csv"
    data.write_text("outcome,count,reference_weight\n" + "".join(
        f"{o},{c},{w}\n" for o, c, w in zip("abc", counts.split(","), weights.split(","))))
    obs = tmp_path / "obs.csv"
    obs.write_text("outcome,G\n" + "".join(
        f"{o},{v}\n" for o, v in zip("abc", values.split(","))))
    return ["--data", str(data), "--observables", str(obs)]


def _quantum_file(tmp_path, edit):
    doc = json.loads(Path(QUBIT_JSON).read_text())
    edit(doc)
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(doc))
    return ["--data", str(path)]


def _set_observable_entry(doc):
    doc["observables"][0]["re"][0][1] = float("nan")


def _set_huge_observable_entry(doc):
    doc["observables"][2]["im"][0][0] = 10**400


def _set_reference(doc):
    doc["reference"] = {"re": [[float("inf"), 0.0], [0.0, 0.5]]}


class TestNonFiniteInput:
    # every non-finite number is refused at load, whichever input holds it
    @pytest.mark.parametrize("files", [
        lambda tmp: _classical_files(tmp, counts="3,nan,5"),
        lambda tmp: _classical_files(tmp, counts="3,inf,5"),
        lambda tmp: _classical_files(tmp, weights="1,inf,1"),
        lambda tmp: _classical_files(tmp, values="1,nan,3"),
        lambda tmp: _quantum_file(tmp, _set_observable_entry),
        lambda tmp: _quantum_file(tmp, _set_reference),
        lambda tmp: _quantum_file(tmp, lambda doc: doc["sample_means"].update(Z=float("nan"))),
        lambda tmp: _quantum_file(tmp, lambda doc: doc.update(N=float("nan"))),
        # a JSON integer beyond float range
        lambda tmp: _quantum_file(tmp, _set_huge_observable_entry),
        lambda tmp: _quantum_file(tmp, lambda doc: doc["sample_means"].update(Z=-10**400)),
        lambda tmp: _quantum_file(tmp, lambda doc: doc.update(N=10**400)),
    ], ids=["count-nan", "count-inf", "reference-weight", "observable-value",
            "quantum-observable", "quantum-reference", "sample-mean", "N",
            "observable-huge-integer", "sample-mean-huge-integer", "N-huge-integer"])
    def test_rejected_with_data_error(self, tmp_path, capsys, files):
        assert run(["significance", *files(tmp_path)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert "gibbsfit: error:" in err and "finite" in err

    def test_finite_files_pass(self, tmp_path):
        assert run(["significance", *_classical_files(tmp_path)]) == EXIT_OK


def _set_text_entry(doc):
    doc["observables"][0]["re"][0][1] = "a"


class TestNonFiniteOption:
    # a NaN, infinite or out-of-range number on the command line is a data
    # error whose message names the option
    @pytest.mark.parametrize("argv, name", [
        (["estimate", "--data", WOLF_COUNTS, "--alpha", "nan"], "--alpha"),
        (["estimate", "--data", WOLF_COUNTS, "--alpha", "inf"], "--alpha"),
        (["compare", "--data", WOLF_COUNTS, "--coarse", "O", "--fine", "full",
          "--alpha", "nan"], "--alpha"),
        (["compare", "--data", WOLF_COUNTS, "--coarse", "O", "--fine", "full",
          "--prior-odds", "nan"], "prior odds"),
        (["compare", "--data", WOLF_COUNTS, "--coarse", "O", "--fine", "full",
          "--prior-odds", "inf"], "prior odds"),
        (["demo", "qubit", "--n", "nan"], "sample size n"),
        (["demo", "qubit", "--r", "nan"], "radius r"),
        (["demo", "qubit", "--r", "1.5"], "radius r"),
        (["demo", "qubit", "--tilt-deg", "nan"], "tilt_deg"),
    ], ids=["estimate-alpha-nan", "estimate-alpha-inf", "compare-alpha-nan",
            "prior-odds-nan", "prior-odds-inf", "qubit-n-nan", "qubit-r-nan",
            "qubit-r-above-one", "qubit-tilt-nan"])
    def test_rejected_with_data_error(self, capsys, argv, name):
        assert run(argv) == EXIT_DATA
        err = capsys.readouterr().err
        assert "gibbsfit: error:" in err and name in err


class TestMalformedClassicalTable:
    # a table the loader cannot read unambiguously is a data error naming
    # its file, not a traceback or a silently chosen row
    def test_counts_header_without_count_column(self, tmp_path, capsys):
        counts = tmp_path / "counts.csv"
        counts.write_text("outcome\n1\n2\n3\n")
        assert run(["significance", "--data", str(counts)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert "gibbsfit: error:" in err and str(counts) in err

    def test_undecodable_byte(self, tmp_path, capsys):
        # 0xff starts no UTF-8 sequence: a data error, not a traceback
        counts = tmp_path / "counts.csv"
        counts.write_bytes(b"outcome,count\na,3\nb,\xff5\n")
        assert run(["significance", "--data", str(counts)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert "gibbsfit: error:" in err and str(counts) in err

    def test_observables_duplicate_outcome(self, tmp_path, capsys):
        obs = tmp_path / "observables.csv"
        rows = Path(WOLF_OBS).read_text().splitlines()
        obs.write_text("\n".join([*rows, "6,2.5,9.0"]) + "\n")
        assert "6,2.5,1" in rows
        argv = ["project", "--data", WOLF_COUNTS, "--observables", str(obs),
                "--level", "G1,G2"]
        assert run(argv) == EXIT_DATA
        err = capsys.readouterr().err
        assert "gibbsfit: error:" in err and str(obs) in err and "'6'" in err


class TestMalformedQuantumFile:
    # a value of the wrong JSON type is refused at load, naming its field
    @pytest.mark.parametrize("edit, field", [
        (_set_text_entry, "observable 'X' 're'"),
        (lambda doc: doc["observables"][0]["re"][1].pop(), "observable 'X' 're'"),
        (lambda doc: doc.update(observables=5), "observables"),
        (lambda doc: doc.update(N=True), "N must be"),
        (lambda doc: doc["sample_means"].update(Z=True), "sample mean of 'Z'"),
        (lambda doc: doc["sample_means"].update(Z="0.73"), "sample mean of 'Z'"),
        (lambda doc: doc["levels"].update(a="XZ"), "level 'a'"),
        (lambda doc: doc.update(format_version=True), "format_version"),
    ], ids=["non-numeric-entry", "ragged-rows", "observables-not-array",
            "N-bool", "sample-mean-bool", "sample-mean-string", "level-string",
            "format-version-bool"])
    def test_rejected_with_data_error(self, tmp_path, capsys, edit, field):
        assert run(["significance", *_quantum_file(tmp_path, edit)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert "gibbsfit: error:" in err and field in err

    @pytest.mark.parametrize("part", ["re", "im"])
    def test_bool_entry_refused(self, tmp_path, capsys, part):
        # a JSON true is a number to numpy (1.0), not to the loader
        def edit(doc):
            doc["observables"][1][part][0][1] = True
        assert run(["significance", *_quantum_file(tmp_path, edit)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert f"observable 'Y' '{part}' must be 2x2 numbers" in err

    def test_undecodable_byte(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_bytes(b"\xff" + Path(QUBIT_JSON).read_bytes())
        assert run(["significance", "--data", str(path)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert "gibbsfit: error:" in err and str(path) in err

    def test_first_faulty_observable_named(self, tmp_path, capsys):
        def edit(doc):
            doc["observables"][0]["re"] = [[0.0, 1.0], [0.3, 0.0]]  # not Hermitian
            doc["observables"][1]["re"][1].pop()  # ragged
        assert run(["significance", *_quantum_file(tmp_path, edit)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert "observable 'X': observable is not Hermitian" in err
        assert "'Y'" not in err

    @pytest.mark.parametrize("edit, field", [
        (lambda doc: doc.update(dim=100000), "observable 'X' 're' must be 100000x100000"),
        (lambda doc: doc["levels"].update(bad=["W"]), "level 'bad' uses unknown"),
        (lambda doc: doc["sample_means"].update(Z=None), "sample mean of 'Z'"),
    ], ids=["mistyped-dim", "unknown-level-observable", "sample-mean-null"])
    def test_refused_before_reference_is_built(self, tmp_path, monkeypatch, capsys,
                                               edit, field):
        # the d x d reference (an eigendecomposition) comes after every check
        def refuse(dim):
            raise AssertionError(f"uniform_state({dim}) built before the checks")
        monkeypatch.setattr(gibbsfit.dataio, "uniform_state", refuse)
        assert run(["significance", *_quantum_file(tmp_path, edit)]) == EXIT_DATA
        assert field in capsys.readouterr().err


def _full_basis_file(tmp_path, dim=4, seed=3):
    """A quantum file in the style of a full operator-basis experiment:
    projectors P_i and X_ij, Y_ij for i < j, exact expectations of a random
    full-rank state, and a "ring" level (the projectors plus the nearest-
    neighbour X terms)."""
    rng = np.random.default_rng(seed)
    w = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = 0.5 * np.eye(dim) / dim + 0.5 * (w @ w.conj().T) / np.trace(w @ w.conj().T).real
    ops = {}
    for i in range(dim):
        ops[f"P{i}"] = np.diag(np.eye(dim)[i]).astype(complex)
    for i in range(dim):
        for j in range(i + 1, dim):
            x, y = np.zeros((2, dim, dim), complex)
            x[i, j] = x[j, i] = 1.0
            y[i, j], y[j, i] = -1j, 1j
            ops[f"X{i}_{j}"], ops[f"Y{i}_{j}"] = x, y
    ring = [f"P{i}" for i in range(dim)] + [f"X{i}_{i + 1}" for i in range(dim - 1)]
    doc = {"format_version": 1, "dim": dim, "reference": "uniform",
           "observables": [{"name": n, "re": m.real.tolist(), "im": m.imag.tolist()}
                           for n, m in ops.items()],
           "levels": {"ring": ring},
           "sample_means": {n: float(np.real(np.trace(rho @ m))) for n, m in ops.items()},
           "N": 5000}
    path = tmp_path / "full_basis.json"
    path.write_text(json.dumps(doc))
    return ["--data", str(path)]


class TestProjectSolvesOnce:
    # project reports its fit and the residual of that same fit: one Newton
    # solve, and the residual block is what significance reports
    @pytest.mark.parametrize("files, level", [
        (lambda tmp: ["--data", WOLF_COUNTS, "--observables", WOLF_OBS], "G1,G2"),
        (_full_basis_file, "ring"),
    ], ids=["wolf-G1G2", "full-basis-ring"])
    def test_one_newton_solve(self, tmp_path, monkeypatch, capsys, files, level):
        argv = [*files(tmp_path), "--level", level, "--format", "json"]
        solves = []
        original = gibbsfit.gibbs.project

        def counting(lvl, targets):
            solves.append(lvl)
            return original(lvl, targets)

        for mod in (gibbsfit.gibbs, gibbsfit.cli, gibbsfit.inference):
            monkeypatch.setattr(mod, "project", counting)
        assert run(["project", *argv]) == EXIT_OK
        residual = json.loads(capsys.readouterr().out)["result"]["residual"]
        assert len(solves) == 1
        assert run(["significance", *argv]) == EXIT_OK
        assert residual == json.loads(capsys.readouterr().out)["result"]["significance"]


class TestStatesHeldAsSpectra:
    # a state builds its matrix only when something reads it, and a fitted
    # quantum state keeps eigh's eigenvectors without fixing their phases
    def test_project_builds_no_state_matrix(self, monkeypatch, capsys):
        fits = []
        original = gibbsfit.cli.project

        def keeping(lvl, targets):
            fits.append(original(lvl, targets))
            return fits[-1]

        monkeypatch.setattr(gibbsfit.cli, "project", keeping)
        assert run(["project", "--data", WOLF_COUNTS, "--level", "full"]) == EXIT_OK
        [fit] = fits
        assert "matrix" not in vars(fit.level.sigma)
        assert "matrix" not in vars(fit.state)

    def test_fits_fix_no_phases(self, monkeypatch, capsys):
        # loaded (and its reference phase-fixed) before counting: every
        # command below takes this dataset from gibbsfit.dataio.load
        gibbsfit.dataio.load("data/qutrit_mixed.json")
        calls = []
        original = gibbsfit.state_space._fix_phases

        def counting(vecs):
            calls.append(vecs)
            return original(vecs)

        for name, mod in list(sys.modules.items()):
            if name.startswith("gibbsfit") and hasattr(mod, "_fix_phases"):
                monkeypatch.setattr(mod, "_fix_phases", counting)
        data = ["--data", "data/qutrit_mixed.json"]
        for argv in (["project", *data], ["project", *data, "--level", "spin"],
                     ["estimate", *data, "--level", "spin"],
                     ["compare", *data, "--coarse", "diag", "--fine", "full"]):
            assert run(argv) == EXIT_OK, argv
        assert calls == []


class TestLogging:
    def test_warning_visible_by_default(self, tmp_path, monkeypatch, capsys):
        monkeypatch.delenv("GIBBSFIT_LOG", raising=False)
        path = _variant_qubit(tmp_path, "flat.json", X=0.0, Y=0.0, Z=0.0)
        run(["estimate", "--data", path])
        assert "WARNING gibbsfit" in capsys.readouterr().err

    def test_error_level_suppresses_warnings(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("GIBBSFIT_LOG", "error")
        path = _variant_qubit(tmp_path, "flat.json", X=0.0, Y=0.0, Z=0.0)
        run(["estimate", "--data", path])
        assert "WARNING" not in capsys.readouterr().err


class TestOutput:
    def test_table_format(self, capsys):
        run(["significance", "--data", WOLF_COUNTS])
        out = capsys.readouterr().out
        assert out.startswith("# gibbsfit significance")
        assert "statistic" in out and "significant" in out

    def test_json_format(self, capsys):
        run(["significance", "--data", WOLF_COUNTS, "--format", "json"])
        doc = json.loads(capsys.readouterr().out)
        assert doc["command"] == "significance"
        assert set(doc) == {"format_version", "command", "config",
                            "provenance", "result"}
        assert doc["result"]["significance"]["statistic"] == pytest.approx(
            270.7685, abs=1e-3)

    def test_out_file(self, tmp_path, capsys):
        dest = tmp_path / "report.json"
        run(["significance", "--data", WOLF_COUNTS, "--format", "json",
             "--out", str(dest)])
        assert capsys.readouterr().out == ""
        doc = json.loads(dest.read_text())
        assert doc["command"] == "significance"

    def test_provenance_digests_inputs(self, capsys):
        run(["compare", "--data", WOLF_COUNTS, "--observables", WOLF_OBS,
             "--coarse", "O", "--fine", "G1,G2", "--format", "json"])
        doc = json.loads(capsys.readouterr().out)
        digests = doc["provenance"]["inputs"]
        assert set(digests) == {WOLF_COUNTS, WOLF_OBS}
        assert all(len(v) == 64 for v in digests.values())

    def test_report_roundtrip_exact(self, tmp_path, capsys):
        dest = tmp_path / "estimate.json"
        run(["estimate", "--data", WOLF_COUNTS, "--observables", WOLF_OBS,
             "--level", "G1,G2", "--format", "json", "--out", str(dest)])
        rep = load_report(dest)
        ds = load_classical(WOLF_COUNTS, WOLF_OBS)
        direct = estimate_alpha(ds.data)
        # full-precision JSON: numbers survive the file unchanged
        assert rep.result["evidence"]["alpha"] == direct.alpha
        assert rep.result["evidence"]["t"] == direct.t
        rep2 = load_report(dest.read_text())
        assert rep2 == rep


def _strict_json(text):
    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")
    return json.loads(text, parse_constant=reject)


def _huge_counts(tmp_path):
    """A 6-outcome counts file whose first count is finite but near the top
    of the float range."""
    path = tmp_path / "huge.csv"
    path.write_text("outcome,count\n1,1.5e308\n" + "".join(f"{k},1\n" for k in range(2, 7)))
    return ["--data", str(path)]


def _leaves(tree):
    if isinstance(tree, dict):
        return [leaf for value in tree.values() for leaf in _leaves(value)]
    if isinstance(tree, list):
        return [leaf for value in tree for leaf in _leaves(value)]
    return [tree]


class TestOverflowingStatistic:
    # a finite sample size so large that a statistic overflows is a data
    # error naming the sample size, not a report with nulls in it
    @pytest.mark.parametrize("argv, n", [
        (lambda tmp: ["demo", "qubit", "--n", "1e308"], "1e+308"),
        (lambda tmp: ["compare", "--coarse", "ising", "--fine", "heisenberg",
                      *_quantum_file(tmp, lambda doc: doc.update(N=1.7e308))], "1.7e+308"),
        (lambda tmp: ["significance", *_huge_counts(tmp)], "1.5e+308"),
        (lambda tmp: ["estimate", "--level", "full", *_huge_counts(tmp)], "1.5e+308"),
    ], ids=["demo-qubit", "compare-quantum", "significance", "estimate-evidence"])
    def test_rejected_with_data_error(self, tmp_path, capsys, argv, n):
        assert run([*argv(tmp_path), "--format", "json"]) == EXIT_DATA
        out, err = capsys.readouterr()
        assert out == ""
        assert "gibbsfit: error:" in err and f"sample size n = {n}" in err

    def test_subnormal_alpha_names_alpha(self, capsys):
        # N/alpha overflows at a subnormal alpha, whatever the sample size
        argv = ["compare", "--data", QUBIT_JSON, "--coarse", "O", "--fine", "full",
                "--alpha", "1e-320"]
        assert run(argv) == EXIT_DATA
        out, err = capsys.readouterr()
        assert out == ""
        assert "prior weight alpha = 1e-320 is too small" in err
        assert "sample size is too large" not in err

    def test_large_sample_still_reports(self, capsys):
        assert run(["demo", "qubit", "--n", "1e200", "--format", "json"]) == EXIT_OK
        result = _strict_json(capsys.readouterr().out)["result"]
        assert result["compare_ising_vs_heisenberg"]["chi2_exact"] > 1e190
        assert None not in _leaves(result)


class TestSignificanceAtZero:
    # equal counts sit exactly on the uniform reference: the statistic is 0
    # and the density there is the chi-square limit for dof = outcomes - 1
    @pytest.mark.parametrize("outcomes, pdf", [(2, None), (3, 0.5), (4, 0.0)])
    def test_density_at_zero_statistic(self, tmp_path, capsys, outcomes, pdf):
        path = tmp_path / "equal.csv"
        path.write_text("outcome,count\n" + "".join(
            f"{k},100\n" for k in range(outcomes)))
        rc = run(["significance", "--data", str(path), "--level", "O",
                  "--format", "json"])
        assert rc == EXIT_OK
        sig = _strict_json(capsys.readouterr().out)["result"]["significance"]
        assert sig["statistic"] == 0.0 and sig["dof"] == outcomes - 1
        assert sig["pdf"] == pdf
        assert sig["pvalue"] == 1.0


def _counts_file(tmp_path, counts, weights=None):
    """A counts CSV, with a reference_weight column when weights are given."""
    path = tmp_path / "counts.csv"
    if weights is None:
        path.write_text("outcome,count\n" + "".join(
            f"{k},{c}\n" for k, c in enumerate(counts)))
    else:
        path.write_text("outcome,count,reference_weight\n" + "".join(
            f"{k},{c},{w}\n" for k, (c, w) in enumerate(zip(counts, weights))))
    return ["--data", str(path)]


class TestFlooredReference:
    # four of five reference weights below the eigenvalue floor: the outcome
    # level still has d - 1 = 4 parameters, not a fifth spurious direction
    COUNTS = (10, 20, 15, 30, 5)
    WEIGHTS = (1, 1e-13, 1e-13, 1e-13, 1e-13)

    def _run(self, tmp_path, capsys, *argv):
        rc = run([*argv, *_counts_file(tmp_path, self.COUNTS, self.WEIGHTS),
                  "--format", "json"])
        out, err = capsys.readouterr()
        assert rc == EXIT_OK, err
        return _strict_json(out)["result"]

    def test_significance_dof(self, tmp_path, capsys):
        assert self._run(tmp_path, capsys, "significance")["significance"]["dof"] == 4

    def test_project_full(self, tmp_path, capsys):
        fit = self._run(tmp_path, capsys, "project", "--level", "full")["fit"]
        freq = np.array(self.COUNTS[:4]) / sum(self.COUNTS)
        assert np.allclose(fit["generator_means"], freq, rtol=1e-12, atol=0.0)

    def test_compare_full(self, tmp_path, capsys):
        rep = self._run(tmp_path, capsys, "compare", "--coarse", "O", "--fine", "full",
                        "--alpha", "50")["comparison"]
        assert rep["extra_params"] == 4

    def test_estimate_full_has_no_unmeasured_block(self, tmp_path, capsys):
        # the data measure the whole prior level, so nothing is unmeasured
        post = self._run(tmp_path, capsys, "estimate", "--level", "full",
                         "--alpha", "50")["posterior"]
        assert post["measured_dim"] == 5
        assert "unmeasured_dim" not in post and "cov_unmeasured" not in post


class TestClampWarning:
    # a zero count floors the frequency state once per command, so the
    # warning prints once
    @pytest.mark.parametrize("argv", [
        ["significance"], ["project", "--level", "full"],
        ["estimate", "--level", "full", "--alpha", "50"],
        ["compare", "--coarse", "O", "--fine", "full", "--alpha", "50"],
    ], ids=["significance", "project", "estimate", "compare"])
    def test_printed_once(self, tmp_path, monkeypatch, capsys, argv):
        monkeypatch.delenv("GIBBSFIT_LOG", raising=False)
        assert run([*argv, *_counts_file(tmp_path, (10, 20, 0, 30))]) == EXIT_OK
        err = capsys.readouterr().err
        assert [line for line in err.splitlines() if "clamped" in line] == [
            "WARNING gibbsfit.state_space: eigenvalues below 1e-12 clamped "
            "and state renormalized"]


class TestLazyLevels:
    def test_only_the_resolved_named_level_is_built(self, monkeypatch, capsys):
        built = []
        original = gibbsfit.levels.make_level

        def counting(generators, sigma, *, label=""):
            built.append(label)
            return original(generators, sigma, label=label)

        for mod in (gibbsfit.levels, gibbsfit.dataio):
            monkeypatch.setattr(mod, "make_level", counting)
        assert run(["project", "--data", QUBIT_JSON, "--level", "ising"]) == EXIT_OK
        assert "ising" in built
        assert "heisenberg" not in built

    @pytest.mark.parametrize("argv, frames", [
        (["significance"], 0),
        (["significance", "--level", "G1,G2"], 0),
        (["project", "--level", "G1,G2"], 0),
        (["estimate"], 1),
        (["compare", "--coarse", "O", "--fine", "full"], 1),
    ], ids=["significance", "significance-G1G2", "project", "estimate", "compare"])
    def test_outcome_level_orthonormalized_on_demand(self, monkeypatch, capsys,
                                                     argv, frames):
        # significance and project need only the outcome level's dimension
        seen = []
        original = gibbsfit.levels._orthonormalize

        def counting(stack, sigma):
            seen.append(stack)
            return original(stack, sigma)

        monkeypatch.setattr(gibbsfit.levels, "_orthonormalize", counting)
        assert run([*argv, "--data", WOLF_COUNTS, "--observables", WOLF_OBS]) == EXIT_OK
        outcome = [stack for stack in seen if np.array_equal(stack, np.eye(6)[:-1])]
        assert len(outcome) == frames


class TestLevelMemo:
    def test_second_command_reuses_the_outcome_frame(self, monkeypatch, capsys, tmp_path):
        # estimate builds the outcome level's frame; compare, run next in
        # the same process, takes it from the memo with the same result
        assert run(["estimate", "--data", WOLF_COUNTS]) == EXIT_OK
        outcome = []
        original = gibbsfit.levels._gram_schmidt

        def counting(embeds, stack=None, slots=slice(None)):
            if stack is not None and len(stack) == 5:
                outcome.append(stack)
            return original(embeds, stack, slots)

        monkeypatch.setattr(gibbsfit.levels, "_gram_schmidt", counting)

        def compare(name):
            out = tmp_path / f"{name}.json"
            assert run(["compare", "--data", WOLF_COUNTS, "--coarse", "O", "--fine", "full",
                        "--format", "json", "--out", str(out)]) == EXIT_OK
            return json.dumps(json.loads(out.read_text())["result"])

        warm = compare("warm")
        assert outcome == []
        # cold: nothing reused, neither a level nor the loaded dataset
        gibbsfit.levels._memo.cache_clear()
        _cold()
        cold = compare("cold")
        assert len(outcome) == 1
        assert warm == cold


# one analysis of each kind: the four commands on one dataset
ANALYSES = {
    "quantum": (["--data", QUBIT_JSON], "load_quantum", [
        ["significance"], ["project", "--level", "ising"], ["estimate", "--alpha", "50"],
        ["compare", "--coarse", "ising", "--fine", "heisenberg", "--alpha", "50"]]),
    "classical": (["--data", WOLF_COUNTS, "--observables", WOLF_OBS], "load_classical", [
        ["significance"], ["project", "--level", "G1,G2"], ["estimate", "--alpha", "50"],
        ["compare", "--coarse", "O", "--fine", "G1,G2", "--alpha", "50"]]),
}


def _parses(monkeypatch, *loaders):
    """The calls gibbsfit.dataio.load makes to the named loaders."""
    calls = []
    for name in loaders:
        original = getattr(gibbsfit.dataio, name)

        def counting(*args, _original=original, **kwargs):
            calls.append(args)
            return _original(*args, **kwargs)

        monkeypatch.setattr(gibbsfit.dataio, name, counting)
    return calls


def _report(tmp_path, argv, name="report.json"):
    """Run one command with a JSON report; returns (exit code, report text)."""
    dest = tmp_path / name
    dest.unlink(missing_ok=True)
    rc = run([*argv, "--format", "json", "--out", str(dest)])
    return rc, dest.read_text() if dest.exists() else ""


def _cold():
    gibbsfit.dataio._last = (None, None)


class TestLoadOnce:
    # the commands one process runs on unchanged files parse them once; any
    # change to any input's bytes, and any load that failed or warned, parses
    # again
    @pytest.mark.parametrize("kind", list(ANALYSES))
    def test_analysis_parses_once(self, monkeypatch, tmp_path, kind):
        data, loader, commands = ANALYSES[kind]
        calls = _parses(monkeypatch, loader)
        warm = [_report(tmp_path, [*cmd, *data]) for cmd in commands]
        assert len(calls) == 1
        cold = []
        for cmd in commands:
            _cold()
            cold.append(_report(tmp_path, [*cmd, *data]))
        assert len(calls) == 1 + len(commands)
        assert all(rc == EXIT_OK for rc, _ in warm)
        assert warm == cold

    def test_observables_with_json_refused_before_reading(self, tmp_path, capsys):
        argv = ["project", "--data", str(tmp_path / "absent.json"),
                "--observables", str(tmp_path / "absent.csv")]
        assert run(argv) == EXIT_DATA
        assert "--observables only applies to classical CSV data" in capsys.readouterr().err

    def test_rewritten_file_is_parsed_again(self, tmp_path):
        argv = ["project", "--level", "full", *_counts_file(tmp_path, (3, 4, 5))]
        first = _report(tmp_path, argv)
        path = Path(argv[-1])
        path.write_text("outcome,count\n0,5\n1,4\n2,3\n")
        second = _report(tmp_path, argv)
        _cold()
        assert second == _report(tmp_path, argv) != first
        digest = json.loads(second[1])["provenance"]["inputs"][str(path)]
        assert digest == hashlib.sha256(path.read_bytes()).hexdigest()

    def test_other_observables_file_is_parsed_again(self, monkeypatch, tmp_path):
        other = tmp_path / "observables.csv"
        other.write_text(Path(WOLF_OBS).read_text().replace("outcome,G1,G2", "outcome,G2,G1"))
        calls = _parses(monkeypatch, "load_classical")
        argv = ["project", "--data", WOLF_COUNTS, "--level", "G1", "--observables"]
        first, second = (_report(tmp_path, [*argv, obs]) for obs in (WOLF_OBS, str(other)))
        assert len(calls) == 2
        assert json.loads(first[1])["result"] != json.loads(second[1])["result"]

    def test_malformed_file_fails_each_time(self, tmp_path, capsys):
        path = tmp_path / "counts.csv"
        path.write_text("outcome,count\n0,3\n1,four\n")
        argv = ["significance", "--data", str(path)]
        errors = []
        for _ in range(2):
            assert run(argv) == EXIT_DATA
            errors.append(capsys.readouterr().err)
        assert errors[0] == errors[1] and "'four' is not a number" in errors[0]
        path.write_text("outcome,count\n0,3\n1,4\n")
        assert run(argv) == EXIT_OK

    def test_clamped_load_warns_each_time(self, tmp_path, monkeypatch, capsys):
        monkeypatch.delenv("GIBBSFIT_LOG", raising=False)
        argv = ["significance", *_counts_file(tmp_path, (10, 20, 0, 30))]
        for _ in range(2):
            assert run(argv) == EXIT_OK
            assert "clamped" in capsys.readouterr().err

    def test_each_input_opened_once(self, monkeypatch, capsys):
        opened = []
        original = builtins.open

        def recording(file, *args, **kwargs):
            opened.append(file)
            return original(file, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", recording)
        data, _, commands = ANALYSES["classical"]
        for cmd in commands:
            opened.clear()
            assert run([*cmd, *data]) == EXIT_OK
            assert sorted(p for p in opened if p in data) == [WOLF_COUNTS, WOLF_OBS], cmd

    def test_digest_is_of_the_parsed_bytes(self, monkeypatch, tmp_path):
        argv = ["project", "--level", "full", *_counts_file(tmp_path, (3, 4, 5))]
        path = Path(argv[-1])
        parsed = path.read_bytes()
        want = _report(tmp_path, argv)
        _cold()
        original = gibbsfit.cli.resolve_level

        def rewriting(ds, spec):
            # the file changes after the load, before the report is built
            path.write_text("outcome,count\n0,5\n1,4\n2,3\n")
            return original(ds, spec)

        monkeypatch.setattr(gibbsfit.cli, "resolve_level", rewriting)
        got = _report(tmp_path, argv)
        assert json.loads(got[1])["provenance"]["inputs"] == {
            str(path): hashlib.sha256(parsed).hexdigest()}
        assert got == want

    def test_threads_alternating_two_files(self, tmp_path):
        # more threads than cores alternate two datasets through one slot,
        # switching often: every report is the one its file gives alone
        argvs = [["estimate", "--alpha", "50", *ANALYSES[kind][0]] for kind in ANALYSES]
        want = []
        for argv in argvs:
            _cold()
            want.append(_report(tmp_path, argv))
        got, errors = [], []

        def work(t, order):
            try:
                for n, i in enumerate(order):
                    got.append((i, _report(tmp_path, argvs[i], f"{t}-{n}.json")))
            except Exception as exc:  # reported by the assertion below
                errors.append(exc)

        threads = [threading.Thread(target=work, args=(t, [t % 2, 1 - t % 2] * 6))
                   for t in range(4)]
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
        assert len(got) == 4 * 12
        assert all(report == want[i] for i, report in got)


class TestEstimate:
    def test_evidence_runs_once(self, monkeypatch, capsys):
        monkeypatch.delenv("GIBBSFIT_LOG", raising=False)
        rc = run(["estimate", "--data", QUBIT_JSON, "--level", "ising",
                  "--format", "json"])
        assert rc == EXIT_OK
        out, err = capsys.readouterr()
        assert err.count("fitted directions") == 1
        ds = load_quantum(QUBIT_JSON)
        result = json.loads(out)["result"]
        assert result["evidence"] == asdict(estimate_alpha(ds.data))
        assert result["posterior"]["alpha"] == result["evidence"]["alpha"]
        assert result["posterior"]["alpha_source"] == "evidence"

    def test_pinned_alpha_skips_evidence(self, capsys):
        rc = run(["estimate", "--data", QUBIT_JSON, "--level", "ising",
                  "--alpha", "100", "--format", "json"])
        assert rc == EXIT_OK
        out, err = capsys.readouterr()
        result = json.loads(out)["result"]
        assert "evidence" not in result and "fitted directions" not in err
        assert result["posterior"]["alpha"] == 100.0
        assert result["posterior"]["alpha_source"] == "user"


    def test_unmeasured_block_from_file(self, capsys):
        # Y carries no sample mean, so the heisenberg prior keeps one
        # unmeasured direction; at the uniform qubit reference its variance
        # at Bloch radius r is r / atanh r, widened by the prior weight
        rc = run(["estimate", "--data", QUBIT_PARTIAL, "--level", "heisenberg",
                  "--alpha", "50", "--format", "json"])
        assert rc == EXIT_OK
        post = json.loads(capsys.readouterr().out)["result"]["posterior"]
        assert post["unmeasured_dim"] == 2
        doc = json.loads(Path(QUBIT_PARTIAL).read_text())
        alpha, n = 50.0, float(doc["N"])
        r_data = math.hypot(doc["sample_means"]["X"], doc["sample_means"]["Z"])
        t = alpha / (alpha + n)
        r_hat = math.tanh((1.0 - t) * math.atanh(r_data))
        want = r_hat / math.atanh(r_hat) / alpha
        assert post["cov_unmeasured"][0][0] == pytest.approx(want, rel=1e-12, abs=0.0)


class TestCompare:
    def test_wolf_verdicts(self, capsys):
        run(["compare", "--data", WOLF_COUNTS, "--observables", WOLF_OBS,
             "--coarse", "O", "--fine", "G1,G2"])
        assert "Refine" in capsys.readouterr().out
        run(["compare", "--data", WOLF_COUNTS, "--observables", WOLF_OBS,
             "--coarse", "G1,G2", "--fine", "full"])
        assert "KeepCoarse" in capsys.readouterr().out

    def test_fixed_alpha_and_odds(self, capsys):
        rc = run(["compare", "--data", WOLF_COUNTS, "--observables", WOLF_OBS,
                  "--coarse", "O", "--fine", "G1,G2", "--alpha", "250",
                  "--prior-odds", "2.0", "--format", "json"])
        assert rc == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["result"]["comparison"]["alpha"] == 250.0
        assert doc["config"]["prior_odds"] == 2.0


class TestConfigEcho:
    # the config block echoes exactly the options each command takes
    @pytest.mark.parametrize("argv, keys", [
        (["project", "--data", WOLF_COUNTS],
         {"command", "inputs", "level", "sig_level", "format"}),
        (["significance", "--data", WOLF_COUNTS],
         {"command", "inputs", "level", "sig_level", "format"}),
        (["estimate", "--data", WOLF_COUNTS, "--observables", WOLF_OBS,
          "--level", "G1,G2"],
         {"command", "inputs", "level", "alpha_policy", "format"}),
        (["compare", "--data", WOLF_COUNTS, "--observables", WOLF_OBS,
          "--coarse", "O", "--fine", "G1,G2"],
         {"command", "inputs", "coarse", "fine", "alpha_policy", "prior_odds",
          "format"}),
        (["demo", "wolf"], {"command", "format"}),
        (["demo", "qubit"], {"command", "format", "tilt_deg", "r", "n"}),
        (["demo", "thermal"], {"command", "format"}),
    ], ids=["project", "significance", "estimate", "compare", "demo-wolf",
            "demo-qubit", "demo-thermal"])
    def test_config_keys(self, tmp_path, capsys, argv, keys):
        dest = tmp_path / "report.json"
        assert run([*argv, "--format", "json", "--out", str(dest)]) == EXIT_OK
        rep = load_report(dest)
        assert set(rep.config) == keys
        assert rep.command == rep.config["command"]


class TestConfigValues:
    # non-default options echo as typed: level names and --alpha as strings,
    # --sig-level and --prior-odds as floats
    @pytest.mark.parametrize("argv, want", [
        (["project", "--data", WOLF_COUNTS, "--observables", WOLF_OBS,
          "--level", "G1,G2", "--sig-level", "0.01"],
         {"command": "project", "inputs": [WOLF_COUNTS, WOLF_OBS], "level": "G1,G2",
          "sig_level": 0.01}),
        (["significance", "--data", WOLF_COUNTS, "--sig-level", "0.01"],
         {"command": "significance", "inputs": [WOLF_COUNTS], "level": "O",
          "sig_level": 0.01}),
        (["estimate", "--data", WOLF_COUNTS, "--observables", WOLF_OBS,
          "--level", "G1,G2", "--alpha", "250"],
         {"command": "estimate", "inputs": [WOLF_COUNTS, WOLF_OBS], "level": "G1,G2",
          "alpha_policy": "250"}),
        (["compare", "--data", WOLF_COUNTS, "--observables", WOLF_OBS,
          "--coarse", "G1", "--fine", "G1,G2", "--alpha", "250", "--prior-odds", "2"],
         {"command": "compare", "inputs": [WOLF_COUNTS, WOLF_OBS], "coarse": "G1",
          "fine": "G1,G2", "alpha_policy": "250", "prior_odds": 2.0}),
    ], ids=["project", "significance", "estimate", "compare"])
    def test_values_echo_as_typed(self, tmp_path, capsys, argv, want):
        dest = tmp_path / "report.json"
        assert run([*argv, "--format", "json", "--out", str(dest)]) == EXIT_OK
        config = load_report(dest).config
        want = {**want, "format": "json"}
        assert config == want
        assert all(type(config[key]) is type(val) for key, val in want.items())


class TestEveryOptionRead:
    # every option a command's parser declares is read by cli.run's load, the
    # handler or _emit: none is accepted and then ignored
    @pytest.mark.parametrize("argv", [
        # a level below the data's, so that project checks the residual
        ["project", "--data", WOLF_COUNTS, "--observables", WOLF_OBS, "--level", "G1,G2"],
        ["significance", "--data", WOLF_COUNTS],
        ["estimate", "--data", WOLF_COUNTS, "--observables", WOLF_OBS, "--level", "G1,G2"],
        ["compare", "--data", WOLF_COUNTS, "--observables", WOLF_OBS,
         "--coarse", "O", "--fine", "G1,G2"],
        ["demo", "wolf"],
        ["demo", "qubit"],
        ["demo", "thermal"],
    ], ids=["project", "significance", "estimate", "compare", "demo-wolf",
            "demo-qubit", "demo-thermal"])
    def test_declared_options_are_read(self, monkeypatch, capsys, argv):
        reads = set()

        class Recording(argparse.Namespace):
            def __getattribute__(self, name):
                reads.add(name)
                return super().__getattribute__(name)

        parser = gibbsfit.cli.build_parser()
        parsed = []

        def parse_args(args):
            # argparse itself reads every destination while parsing
            parsed.append(parser.parse_args(args, namespace=Recording()))
            reads.clear()
            return parsed[-1]

        monkeypatch.setattr(gibbsfit.cli, "_parser",
                            lambda: SimpleNamespace(parse_args=parse_args))
        assert run(argv) == EXIT_OK
        declared = set(vars(parsed[0])) - {"command", "which", "handler"}
        assert "format" in declared and "out" in declared
        assert declared - reads == set()


class TestDemoOptions:
    # --tilt-deg, --r and --n belong to demo qubit; the other demos refuse
    # them as a usage error
    @pytest.mark.parametrize("which", ["wolf", "thermal"])
    @pytest.mark.parametrize("option", [["--tilt-deg", "2"], ["--r", "0.9"], ["--n", "10"]],
                             ids=["tilt-deg", "r", "n"])
    def test_other_demos_refuse_qubit_options(self, capsys, which, option):
        with pytest.raises(SystemExit) as exc:
            run(["demo", which, *option])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and option[0] in err

    def test_qubit_echoes_its_options(self, capsys):
        argv = ["demo", "qubit", "--tilt-deg", "2", "--r", "0.9", "--n", "500",
                "--format", "json"]
        assert run(argv) == EXIT_OK
        config = json.loads(capsys.readouterr().out)["config"]
        assert (config["tilt_deg"], config["r"], config["n"]) == (2.0, 0.9, 500.0)
        assert config["command"] == "demo qubit"


class TestDemos:
    @pytest.mark.parametrize("which", ["wolf", "qubit", "thermal"])
    def test_runs_fast(self, which, capsys):
        start = time.perf_counter()
        assert run(["demo", which]) == EXIT_OK
        assert time.perf_counter() - start < 5.0
        assert f"# gibbsfit demo {which}" in capsys.readouterr().out

    def test_wolf_tells_both_verdicts(self, capsys):
        run(["demo", "wolf"])
        out = capsys.readouterr().out
        assert "Refine" in out and "KeepCoarse" in out

    def test_wolf_json_refines_the_trivial_level(self, capsys):
        assert run(["demo", "wolf", "--format", "json"]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["command"] == "demo wolf"
        assert doc["result"]["compare_trivial_vs_two"]["verdict"] == "Refine"

    def test_qubit_tilt_flag(self, capsys):
        run(["demo", "qubit", "--tilt-deg", "2.0", "--format", "json"])
        doc = json.loads(capsys.readouterr().out)
        assert doc["config"]["tilt_deg"] == 2.0
        per = doc["result"]["metric_route"]["per_param"]
        assert per == pytest.approx(8.2541, rel=1e-3)

    @pytest.mark.parametrize("nudge", [-3e-15, 0.0, 3e-15, 4e-15])
    def test_thermal_shot_count_is_exact(self, nudge, monkeypatch):
        # roots a few ulps apart, where the sum of n * p1 rounds off 12000
        bisect = gibbsfit.demos._bisect
        roots = []

        def nudged(*args):
            roots.append(bisect(*args) * (1.0 + nudge))
            return roots[-1]

        monkeypatch.setattr(gibbsfit.demos, "_bisect", nudged)
        assert thermal_setup()[3].n == THERMAL_N
        assert len(roots) == 1

    def test_thermal_temperature(self, capsys):
        run(["demo", "thermal", "--format", "json"])
        doc = json.loads(capsys.readouterr().out)
        post = doc["result"]["posterior"]
        assert post["temperature_estimate"] == pytest.approx(107.317, abs=5e-3)
        assert doc["result"]["evidence"]["t"] == pytest.approx(0.25, abs=1e-12)


# Runs in a fresh interpreter: imports the CLI, runs every command on the
# wolf and qubit data, then the demos, and prints the scipy modules loaded
# after each stage and the scipy imports that package code itself made.
STARTUP_SCRIPT = """
import builtins, contextlib, io, json, sys

direct = set()
_import = builtins.__import__


def tracking_import(name, globals=None, locals=None, fromlist=(), level=0):
    caller = (globals or {}).get("__name__", "")
    if level == 0 and name.split(".")[0] == "scipy" and caller.startswith("gibbsfit"):
        direct.add(caller + ":" + name)
    return _import(name, globals, locals, fromlist, level)


builtins.__import__ = tracking_import


def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")


from gibbsfit.cli import run

stages = {"import": scipy_modules()}
for stage, argvs in json.loads(sys.argv[1]):
    for argv in argvs:
        with contextlib.redirect_stdout(io.StringIO()):
            assert run(argv) == 0, argv
    stages[stage] = scipy_modules()
print(json.dumps({"stages": stages, "direct": sorted(direct)}))
"""


class TestWarmWork:
    # a command whose levels are all in the memo computes no offset and no
    # expectation: the means of a sublevel come from its coordinates alone
    @pytest.mark.parametrize("argv", [
        ["estimate", "--data", "data/qutrit_mixed.json", "--level", "spin", "--alpha", "50"],
        ["compare", "--data", "data/qutrit_mixed.json", "--coarse", "diag", "--fine", "full"],
        ["estimate", "--data", QUBIT_PARTIAL, "--level", "full", "--alpha", "50"],
        ["compare", "--data", QUBIT_JSON, "--coarse", "O", "--fine", "ising"],
    ], ids=["qutrit-estimate", "qutrit-compare", "qubit-estimate", "qubit-compare"])
    def test_warm_quantum_command_takes_no_expectation(self, monkeypatch, capsys, argv):
        assert run(argv) == EXIT_OK
        calls = []

        def counter(original):
            def counting(*args):
                calls.append(args)
                return original(*args)
            return counting

        for module, name in ((gibbsfit.state_space, "expectation"),
                             (gibbsfit.levels, "_split_identity")):
            monkeypatch.setattr(module, name, counter(getattr(module, name)))
        assert run(argv) == EXIT_OK
        assert calls == []

    def test_warm_compare_reads_each_nesting_once(self, monkeypatch, capsys):
        # ising in heisenberg gives the containment check and the coarse
        # targets in one coordinate read, and heisenberg in the measured
        # level is read once, by its means; the one moment pass is the
        # coarse fit's metric on the fine level
        argv = ["compare", "--data", QUBIT_JSON, "--coarse", "ising", "--fine", "heisenberg"]
        assert run(argv) == EXIT_OK
        calls = {"_frame_coords": [], "_moments": []}

        def counter(name, original):
            def counting(*args):
                calls[name].append(args)
                return original(*args)
            return counting

        monkeypatch.setattr(gibbsfit.levels, "_frame_coords",
                            counter("_frame_coords", gibbsfit.levels._frame_coords))
        moments = counter("_moments", gibbsfit.gibbs._moments)
        for module in (gibbsfit.gibbs, gibbsfit.inference):
            monkeypatch.setattr(module, "_moments", moments)
        assert run(argv) == EXIT_OK
        assert (len(calls["_frame_coords"]), len(calls["_moments"])) == (2, 1)

    def test_warm_count_compare_reads_the_fine_level_once(self, monkeypatch, capsys):
        # a trivial coarse level has no coordinates to read; the one read
        # is the fine level's containment in the measured one
        argv = ["compare", "--data", WOLF_COUNTS, "--observables", WOLF_OBS,
                "--coarse", "O", "--fine", "G1,G2"]
        assert run(argv) == EXIT_OK
        calls = []
        original = gibbsfit.levels._frame_coords

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(gibbsfit.levels, "_frame_coords", counting)
        assert run(argv) == EXIT_OK
        assert len(calls) == 1


@pytest.fixture
def complement_calls(monkeypatch):
    """Every complement that posterior_estimate builds."""
    calls = []
    original = gibbsfit.inference.complement

    def counting(sub, ambient):
        calls.append((sub, ambient))
        return original(sub, ambient)

    monkeypatch.setattr(gibbsfit.inference, "complement", counting)
    return calls


class TestUnmeasuredBlock:
    def test_measured_prior_builds_no_complement(self, capsys, complement_calls):
        # every spin direction is measured: nothing is left at prior width
        argv = ["estimate", "--data", "data/qutrit_mixed.json", "--level", "spin",
                "--format", "json"]
        assert run(argv) == EXIT_OK
        post = json.loads(capsys.readouterr().out)["result"]["posterior"]
        assert post["measured_dim"] == 4 and "unmeasured_dim" not in post
        assert complement_calls == []

    def test_partial_prior_keeps_its_unmeasured_block(self, capsys, complement_calls):
        # Y carries no sample mean: one complement, and its variance to the
        # bit (the closed form is checked in TestEstimate)
        rc = run(["estimate", "--data", QUBIT_PARTIAL, "--level", "heisenberg",
                  "--alpha", "50", "--format", "json"])
        assert rc == EXIT_OK
        post = json.loads(capsys.readouterr().out)["result"]["posterior"]
        assert post["unmeasured_dim"] == 2
        assert post["cov_unmeasured"] == [[0.015736343559822202]]
        assert len(complement_calls) == 1


class TestContainmentRefusal:
    @pytest.mark.parametrize("argv, sub, level", [
        (["compare", "--data", QUBIT_JSON, "--coarse", "heisenberg", "--fine", "ising"],
         "heisenberg", "ising"),
        (["compare", "--data", QUBIT_PARTIAL, "--coarse", "ising", "--fine", "heisenberg"],
         "heisenberg", "F"),
        (["project", "--data", QUBIT_PARTIAL, "--level", "heisenberg"], "heisenberg", "F"),
    ], ids=["coarse-outside-fine", "fine-outside-measured", "project-outside-measured"])
    def test_names_both_levels(self, capsys, argv, sub, level):
        assert run(argv) == EXIT_DATA
        err = capsys.readouterr().err
        assert f"level {sub!r} is not contained in level {level!r}" in err


class TestSigLevel:
    # the significance level is refused where it enters, also when no
    # residual is computed to read it
    @pytest.mark.parametrize("value", ["5", "nan", "-1", "0", "1"])
    @pytest.mark.parametrize("data", [WOLF_COUNTS, QUBIT_JSON], ids=["counts", "means"])
    @pytest.mark.parametrize("command", ["project", "significance"])
    def test_out_of_range_is_a_usage_error(self, capsys, command, data, value):
        with pytest.raises(SystemExit) as exc:
            run([command, "--data", data, "--sig-level", value])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and "--sig-level" in err


class TestStartup:
    def test_commands_load_no_scipy(self):
        # numpy carries every command and every demo
        wolf = ["--data", WOLF_COUNTS, "--observables", WOLF_OBS]
        qubit = ["--data", QUBIT_JSON]
        commands = [[*cmd, *data] for data, fine in ((wolf, "G1,G2"), (qubit, "ising"))
                    for cmd in (["significance"], ["project"],
                                ["estimate", "--alpha", "auto"],
                                ["compare", "--coarse", "O", "--fine", fine])]
        stages = [["commands", commands],
                  ["demos", [["demo", "qubit"], ["demo", "wolf"]]],
                  ["thermal", [["demo", "thermal"]]]]
        root = Path(__file__).resolve().parents[1]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
        proc = subprocess.run([sys.executable, "-c", STARTUP_SCRIPT, json.dumps(stages)],
                              capture_output=True, text=True, env=env, cwd=root,
                              timeout=120)
        assert proc.returncode == 0, proc.stderr
        seen = json.loads(proc.stdout)
        assert seen["stages"]["import"] == []
        assert seen["stages"]["commands"] == []
        assert seen["stages"]["demos"] == []
        assert seen["stages"]["thermal"] == []
        assert seen["direct"] == []

    def test_run_builds_one_parser(self, monkeypatch, capsys):
        built = []
        build = gibbsfit.cli.build_parser

        def counting():
            built.append(1)
            return build()

        monkeypatch.setattr(gibbsfit.cli, "build_parser", counting)
        gibbsfit.cli._parser.cache_clear()
        assert run(["demo", "wolf"]) == EXIT_OK
        assert run(["project", "--data", WOLF_COUNTS]) == EXIT_OK
        assert len(built) == 1
        assert build() is not build()

    def test_defaults_do_not_leak_between_runs(self, tmp_path):
        dest = tmp_path / "report.json"
        out = ["--format", "json", "--out", str(dest)]
        assert run(["project", "--data", WOLF_COUNTS, "--observables", WOLF_OBS,
                    "--level", "G1,G2", *out]) == EXIT_OK
        assert load_report(dest).config["level"] == "G1,G2"
        assert run(["project", "--data", WOLF_COUNTS, *out]) == EXIT_OK
        assert load_report(dest).config["level"] == "full"
