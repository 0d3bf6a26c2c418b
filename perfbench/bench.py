"""Closed-loop runner: one caller runs a workload's analyses back to back,
in process, through ``gibbsfit.cli.run(argv)``.

Each analysis generates a fresh seeded dataset (untimed), runs the
workload's command sequence (timed per command and as a whole), then reads
every JSON report back and checks it against the generated data (untimed).
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import platform
import resource
import statistics
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy

from . import checks, speed, workloads
from .tracer import Tracer, layer_metrics

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


@dataclass
class Analysis:
    index: object
    wall_s: float
    commands: list  # (kind, start, end) of each CLI command
    attempted: int
    failed: int
    failures: list
    probe_s: float = 0.0  # probe time it is scaled by (timed loop only)


@dataclass
class Outcome:
    """Everything a loop measured, plus every failure seen."""

    analyses: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)

    def add(self, a: Analysis) -> None:
        self.analyses.append(a)
        self.attempted += a.attempted
        self.failed += a.failed
        self.failures += a.failures


class Runner:
    """Runs analyses of one workload at one size and seed."""

    def __init__(self, workload: str, seed: int, workdir: Path, dim: int | None = None):
        from gibbsfit import cli

        self.cli = cli
        self.workload = workload
        self.seed = seed
        self.dim = dim or workloads.DEFAULT_DIM[workload]
        self.workdir = workdir
        self.golden = None
        if self.dim == workloads.DEFAULT_DIM[workload]:
            path = GOLDEN_DIR / f"{workload}.json"
            if path.exists():
                self.golden = json.loads(path.read_text())

    def run_command(self, argv) -> tuple[int, str]:
        """Run one CLI command; returns (exit code, captured stderr)."""
        err = io.StringIO()
        try:
            with contextlib.redirect_stderr(err):
                rc = self.cli.run(list(argv))
        except SystemExit as exc:  # argparse rejects its argv
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a crash is a failed command, not a dead benchmark
            rc = -1
            err.write(traceback.format_exc())
        return rc, err.getvalue()

    def analysis(self, index, seed: int | None = None) -> Analysis:
        """One analysis on the dataset of (``seed`` or the runner's seed,
        ``index``)."""
        seed = self.seed if seed is None else seed
        ds = workloads.make_dataset(self.workload, self.workdir, seed, index, self.dim)
        cmds = workloads.commands(ds, self.workdir, index)
        spans, codes = [], []
        t0 = time.perf_counter()
        for cmd in cmds:
            tc = time.perf_counter()
            codes.append(self.run_command(cmd.argv))
            spans.append((cmd.kind, tc, time.perf_counter()))
        wall = time.perf_counter() - t0
        golden = self.golden if (seed, index) == (workloads.DEFAULT_SEED, 0) else None
        problems = self.verify(ds, cmds, codes, index, golden)
        return Analysis(index, wall, spans, attempted=len(cmds),
                        failed=sum(1 for p in problems if p),
                        failures=[m for p in problems for m in p])

    def verify(self, ds, cmds, codes, index, golden=None) -> list[list[str]]:
        """Failure messages per command: exit code, report checks and, when
        given, the golden reports."""
        problems = []
        for n, (cmd, (rc, err)) in enumerate(zip(cmds, codes)):
            tag = f"analysis {index} #{n} {' '.join(cmd.argv[:2])}"
            out = Path(cmd.argv[cmd.argv.index("--out") + 1])
            if rc != 0:
                last = err.strip().splitlines()[-1:] or ["(no message)"]
                problems.append([f"{tag}: exit {rc}: {last[0]}"])
                continue
            try:
                report = json.loads(out.read_text())
            except (OSError, ValueError) as exc:
                problems.append([f"{tag}: unreadable report ({exc})"])
                continue
            finally:
                out.unlink(missing_ok=True)
            errs = checks.check_report(report, cmd, ds)
            if golden is not None:
                got = {"command": report.get("command"), "result": report.get("result")}
                errs += [f"golden: {e}" for e in checks.compare_golden(got, golden[n], "report")]
            problems.append([f"{tag}: {e}" for e in errs])
        for path in ds.paths.values():
            Path(path).unlink(missing_ok=True)
        return problems

    def golden_reports(self) -> list[dict]:
        """Result trees of analysis 0, for writing the golden files."""
        ds = workloads.make_dataset(self.workload, self.workdir, self.seed, 0, self.dim)
        out = []
        for cmd in workloads.commands(ds, self.workdir, 0):
            rc, err = self.run_command(cmd.argv)
            if rc != 0:
                raise RuntimeError(f"{cmd.argv[:2]} exited {rc}: {err}")
            path = Path(cmd.argv[cmd.argv.index("--out") + 1])
            report = json.loads(path.read_text())
            out.append({"command": report["command"], "result": report["result"]})
        return out

    def loop(self, seconds: float, outcome: Outcome) -> None:
        """Analyses with indices 0, 1, ... until ``seconds`` have passed
        (at least one analysis), each right after a speed probe.  An
        analysis is scaled by the median of the last ``speed.WINDOW``
        probes, which damps the probe's own noise."""
        start = time.perf_counter()
        index = 0
        recent: list[float] = []
        while True:
            recent = recent[1 - speed.WINDOW:] + [speed.probe()]
            a = self.analysis(index)
            a.probe_s = statistics.median(recent)
            outcome.add(a)
            index += 1
            if time.perf_counter() - start >= seconds:
                return

    def paired_loop(self, seconds: float, untraced: Outcome, traced: Outcome,
                    tracer: Tracer) -> None:
        """Each index runs untraced, then traced, until ``seconds`` have
        passed.  Pairing puts both halves in the same machine state, so the
        tracing overhead does not absorb drift in machine speed."""
        start = time.perf_counter()
        index = 0
        while True:
            untraced.add(self.analysis(index))
            tracer.analysis = index
            tracer.install()
            try:
                traced.add(self.analysis(index))
            finally:
                tracer.uninstall()
            index += 1
            if time.perf_counter() - start >= seconds:
                return


# -- statistics --------------------------------------------------------


def tail(samples: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, as
    (value, percentile).  With ten or fewer samples no percentile has ten
    beyond it; the minimum is returned with percentile 0."""
    xs = sorted(samples)
    n = len(xs)
    if n <= 10:
        return xs[0], 0.0
    return xs[n - 11], 100.0 * (n - 10) / n


def timed_metrics(setup_s: float, out: Outcome) -> dict:
    """End-to-end metrics, plus notes that are printed but not listed.

    Every time is scaled to the reference speed by its analysis's
    ``probe_s`` (see ``Runner.loop`` and speed.py).  The tail (see ``tail``) is a
    note: at 30 s a classical-wide run holds about 18 analyses, so its
    highest percentile with ten analyses beyond it lies below the median
    and measures no tail."""
    walls = [a.wall_s * speed.scale(a.probe_s) for a in out.analyses]
    tail_s, tail_pct = tail(walls)
    by_kind: dict[str, list[float]] = {}
    for a in out.analyses:
        for kind, t0, t1 in a.commands:
            by_kind.setdefault(kind, []).append((t1 - t0) * speed.scale(a.probe_s))
    m = {
        "setup_s": (setup_s, "s"),
        "analysis_s.p50": (statistics.median(walls), "s"),
        "analyses_per_s": (len(walls) / sum(walls), "1/s"),
    }
    for kind in ("significance", "project", "estimate", "compare"):
        m[f"{kind}_s"] = (statistics.median(by_kind[kind]), "s")
    m["peak_rss_mb"] = (peak_rss_mb(), "MB")
    notes = {"analyses": len(walls), "analysis_s.tail": tail_s, "tail_percentile": tail_pct,
             "wall_analysis_s.p50": statistics.median(a.wall_s for a in out.analyses),
             "probe_s.p50": statistics.median(a.probe_s for a in out.analyses),
             "commands": {k: len(v) for k, v in by_kind.items()},
             "failed_frac": out.failed / max(out.attempted, 1)}
    return {"metrics": m, "notes": notes}


def traced_metrics(untraced: Outcome, traced: Outcome, tracer: Tracer) -> dict:
    summaries = []
    errors = []
    for a in traced.analyses:
        s = tracer.analysis_summary(a.index, a.wall_s, a.commands)
        summaries.append(s)
        errors += [f"analysis {a.index} accounting: {e}" for e in s["errors"]]
    units = {"share": "ratio", "calls": "count", "basis_bytes": "bytes",
             "bytes_out": "bytes"}
    m = {}
    for name, val in layer_metrics(summaries).items():
        m[name] = (val, units.get(name.rsplit(".", 1)[-1], "s"))
    p50_untraced = statistics.median(a.wall_s for a in untraced.analyses)
    p50_traced = statistics.median(s["wall_s"] for s in summaries)
    m["trace.overhead_frac"] = (p50_traced / p50_untraced - 1.0, "ratio")
    demo = [t1 - t0 for a in untraced.analyses for kind, t0, t1 in a.commands
            if kind == "demo"]
    m["demo_s"] = (statistics.median(demo) if demo else 0.0, "s")
    notes = {"untraced_analyses": len(untraced.analyses),
             "traced_analyses": len(summaries),
             "traced_analysis_s.p50": p50_traced,
             "untraced_analysis_s.p50": p50_untraced}
    return {"metrics": m, "notes": notes, "errors": errors}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- environment record ------------------------------------------------


def _git_commit(root: Path) -> str:
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _openblas_version() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        return "unknown"


def environment(root: Path, workload: str | None, seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _openblas_version(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "workload": workload,
        "seed": seed,
        "git_commit": _git_commit(root),
    }
