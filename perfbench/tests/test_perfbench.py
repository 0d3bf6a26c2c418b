"""Self-tests of the benchmark: reduced-size smoke runs, the correctness
checks, failure accounting and the tracer's layer accounting."""

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import checks, speed, workloads
from perfbench.bench import Analysis, Outcome, Runner, tail, timed_metrics
from perfbench.tracer import Tracer

ROOT = Path(__file__).resolve().parents[2]
CONFIG = json.loads((ROOT / "BENCHMARK.json").read_text())
SMOKE_DIM = {"classical-wide": 12, "quantum-full": 3, "small-many": 6}


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run(workload, trace):
    proc = _bench("--workload", workload, "--seed", "5", "--seconds", "0.2",
                  "--trace", trace, "--dim", str(SMOKE_DIM[workload]))
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1
    listed = CONFIG["end_to_end" if trace == "0" else "per_layer"]
    assert set(last["metrics"]) == {m["name"] for m in listed}
    for m in listed:
        assert last["metrics"][m["name"]]["unit"] == m["unit"]


def test_bare_directory_fails(tmp_path):
    """Without the package sources the benchmark exits nonzero and prints
    no result line."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "small-many", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.fixture
def runner(tmp_path):
    return Runner("small-many", 3, tmp_path)


def _reports(runner, tmp_path):
    ds = workloads.make_dataset("small-many", tmp_path, 3, 0)
    cmds = workloads.commands(ds, tmp_path, 0)
    out = []
    for cmd in cmds:
        rc, err = runner.run_command(cmd.argv)
        assert rc == 0, err
        path = Path(cmd.argv[cmd.argv.index("--out") + 1])
        out.append((cmd, json.loads(path.read_text())))
    return ds, out


PERTURBATIONS = {
    "project": [("fit", "generator_means", 0, 1e-6),
                ("fit", "probabilities", 0, 1e-6),
                ("residual", "statistic", None, 1.0)],
    "significance": [("significance", "statistic", None, 1e-3)],
    "estimate": [("evidence", "chi2", None, 1e-3),
                 ("posterior", "t", None, 1e-6)],
    "compare": [("comparison", "chi2_exact", None, 1e-6),
                ("comparison", "alpha", None, 1.0)],
}


def test_unperturbed_reports_pass(runner, tmp_path):
    ds, reports = _reports(runner, tmp_path)
    for cmd, report in reports:
        assert checks.check_report(report, cmd, ds) == [], cmd.argv[:2]


@pytest.mark.parametrize("kind", sorted(PERTURBATIONS))
def test_perturbed_report_rejected(runner, tmp_path, kind):
    ds, reports = _reports(runner, tmp_path)
    cmd, report = next((c, r) for c, r in reports if c.kind == kind)
    for section, key, idx, delta in PERTURBATIONS[kind]:
        bad = copy.deepcopy(report)
        node = bad["result"][section]
        if idx is None:
            node[key] += delta
        else:
            node[key][idx] += delta
        assert checks.check_report(bad, cmd, ds), (section, key)


def test_wrong_verdict_rejected(runner, tmp_path):
    ds, reports = _reports(runner, tmp_path)
    cmd, report = next((c, r) for c, r in reports if c.kind == "compare")
    bad = copy.deepcopy(report)
    verdicts = {"Refine", "KeepCoarse", "Inconclusive"} - {bad["result"]["comparison"]["verdict"]}
    bad["result"]["comparison"]["verdict"] = sorted(verdicts)[0]
    assert any("verdict" in e for e in checks.check_report(bad, cmd, ds))


def test_golden_comparison_catches_drift():
    golden = json.loads((ROOT / "perfbench" / "golden" / "small-many.json").read_text())
    assert checks.compare_golden(golden, golden) == []
    drifted = copy.deepcopy(golden)
    drifted[1]["result"]["fit"]["ln_z"] *= 1 + 1e-5
    assert checks.compare_golden(drifted, golden)


def test_default_seed_matches_golden(runner):
    """Any run's seed-1 warm-up is compared with the golden reports."""
    assert runner.golden is not None
    a = runner.analysis(0, seed=workloads.DEFAULT_SEED)
    assert a.failures == []


def test_golden_drift_fails_the_analysis(runner):
    runner.golden = copy.deepcopy(runner.golden)
    runner.golden[1]["result"]["fit"]["ln_z"] *= 1 + 1e-5
    a = runner.analysis(0, seed=workloads.DEFAULT_SEED)
    assert a.failed == 1 and "golden" in a.failures[0]
    assert runner.analysis(0).failures == []  # other seeds: no golden comparison


def test_nonzero_exit_counts_as_failed(runner, monkeypatch):
    real = workloads.commands

    def with_bad_command(ds, outdir, index):
        cmds = real(ds, outdir, index)
        bad = workloads.Command(kind="estimate", argv=(
            "estimate", "--data", str(ds.paths["data"]), "--alpha", "-2",
            "--format", "json", "--out", str(outdir / "bad.json")))
        return cmds + [bad]

    monkeypatch.setattr(workloads, "commands", with_bad_command)
    out = Outcome()
    a = runner.analysis(0)
    a.probe_s = speed.PROBE_REF_S
    out.add(a)
    assert out.attempted == 8 and out.failed == 1 and "exit 2" in out.failures[0]
    notes = timed_metrics(1.0, out)["notes"]
    assert notes["failed_frac"] == pytest.approx(1 / 8)


def test_times_are_scaled_by_the_probe():
    """A probe twice the reference time halves every reported time."""
    cmds = [(kind, 0.5 * n, 0.5 * (n + 1)) for n, kind in
            enumerate(("significance", "project", "estimate", "compare"))]
    out = Outcome()
    out.add(Analysis(0, 2.0, cmds, attempted=4, failed=0, failures=[],
                     probe_s=2 * speed.PROBE_REF_S))
    m = timed_metrics(1.0, out)["metrics"]
    assert m["analysis_s.p50"][0] == pytest.approx(1.0)
    assert m["analyses_per_s"][0] == pytest.approx(1.0)
    assert m["project_s"][0] == pytest.approx(0.25)


def test_tail_rule():
    assert tail([float(i) for i in range(100)]) == (89.0, 90.0)
    assert tail([1.0, 2.0]) == (1.0, 0.0)


def test_tracer_accounting_and_restore(runner):
    import gibbsfit.cli
    import gibbsfit.levels

    before = (gibbsfit.cli.project, gibbsfit.levels.make_level,
              gibbsfit.inference.project)
    tracer = Tracer()
    tracer.install()
    try:
        assert gibbsfit.cli.project is not before[0]
        assert gibbsfit.levels.make_level is not before[1]
        tracer.analysis = 0
        a = runner.analysis(0)
    finally:
        tracer.uninstall()
    assert (gibbsfit.cli.project, gibbsfit.levels.make_level,
            gibbsfit.inference.project) == before
    assert a.failures == []
    s = tracer.analysis_summary(0, a.wall_s, a.commands)
    assert s["errors"] == []
    assert sum(s["layers"].values()) + s["uncovered_s"] == pytest.approx(a.wall_s, rel=1e-9)
    assert s["fn_calls"]["cli.run"] == 7
    assert s["fn_calls"]["demos.run_wolf"] == 1
    assert all(v >= 0 for v in s["layers"].values())
    assert s["counters"]["levels.basis_bytes"] > 0 and s["counters"]["report.bytes_out"] > 0


def test_tracer_accounting_catches_unwrapped_cli_run(runner):
    """With cli.run left unwrapped, the spans no longer account for the
    commands the runner timed, and the check fails."""
    import gibbsfit.cli

    tracer = Tracer()
    tracer.install()
    wrapped, gibbsfit.cli.run = gibbsfit.cli.run, gibbsfit.cli.run.__wrapped__
    try:
        tracer.analysis = 0
        a = runner.analysis(0)
    finally:
        gibbsfit.cli.run = wrapped
        tracer.uninstall()
    assert a.failures == []
    errors = tracer.analysis_summary(0, a.wall_s, a.commands)["errors"]
    assert any("top-level spans" in e for e in errors)


def test_tracer_accounting_catches_short_span(runner):
    """A cli.run span much shorter than the runner's timing of the command
    fails the check."""
    tracer = Tracer()
    tracer.install()
    try:
        tracer.analysis = 0
        a = runner.analysis(0)
    finally:
        tracer.uninstall()
    kind, t0, t1 = a.commands[2]
    a.commands[2] = (kind, t0, t1 + 2 * (t1 - t0) + 0.01)
    errors = tracer.analysis_summary(0, a.wall_s, a.commands)["errors"]
    assert any(e.startswith(f"{kind}: cli.run span") for e in errors)
