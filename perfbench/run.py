#!/usr/bin/env python3
"""gibbsfit benchmark: closed-loop CLI workloads, a traced per-layer run
and a budgeted size ladder.

Run from the repository root:

    python3 perfbench/run.py --workload classical-wide --seed 3 --seconds 30 --trace 0
    python3 perfbench/run.py --workload quantum-full --seed 3 --seconds 30 --trace 1
    python3 perfbench/run.py --ladder

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines before
it print every metric by name and unit, the environment record and any
failures.  See perfbench/README.md.
"""

from __future__ import annotations

import os
import sys
import time

# Pin BLAS to one thread before anything imports numpy: one thread was as
# fast as the default at these sizes and removes thread scheduling noise.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench"
WORKLOADS = ("classical-wide", "quantum-full", "small-many")
SETUP_REPS = 3
# What a fresh process pays before its first command: numpy, scipy and
# gibbsfit imported from this checkout's src/.
IMPORT_CODE = "import sys; sys.path.insert(0, 'src'); import gibbsfit.cli"


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description="gibbsfit benchmark")
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0,
                    help="length of the measured loop (trace 1: untraced and traced "
                         "analyses alternate)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--dim", type=int, default=None,
                    help="override the workload's dimension (smoke runs)")
    ap.add_argument("--ladder", action="store_true",
                    help="run the budgeted size ladder instead of a workload")
    ap.add_argument("--ladder-case", metavar="WORKLOAD:DIM",
                    help=argparse.SUPPRESS)
    ap.add_argument("--write-golden", action="store_true",
                    help="rewrite perfbench/golden/ from the default seed")
    args = ap.parse_args(argv)
    if not (args.ladder or args.ladder_case or args.write_golden or args.workload):
        ap.error("--workload is required")
    return args


def _require_source() -> None:
    """The benchmark builds nothing: it imports the package from this
    checkout's src/ and refuses to run without it."""
    if not (ROOT / "src" / "gibbsfit" / "__init__.py").is_file():
        print(f"perfbench: no gibbsfit package under {ROOT / 'src'}", file=sys.stderr)
        sys.exit(2)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    import gibbsfit

    if Path(gibbsfit.__file__).resolve().parent != (ROOT / "src" / "gibbsfit").resolve():
        print(f"perfbench: imported gibbsfit from {gibbsfit.__file__}, not from this "
              "checkout", file=sys.stderr)
        sys.exit(2)


def _print_result(correct: bool, attempted: int, failed: int, metrics: dict) -> None:
    for name, (val, unit) in metrics.items():
        print(f"{name:<38} {val:>16.6g} {unit}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))


def _report_failures(failures: list[str]) -> None:
    for line in failures[:20]:
        print(f"perfbench: FAILED {line}", file=sys.stderr)
    if len(failures) > 20:
        print(f"perfbench: ... {len(failures) - 20} more failures", file=sys.stderr)


def run_workload(args) -> int:
    from perfbench import workloads
    from perfbench.bench import Outcome, Runner, environment, timed_metrics, traced_metrics
    from perfbench.tracer import Tracer

    env = environment(ROOT, args.workload, args.seed)
    print("perfbench-env " + json.dumps(env))
    workdir = OUT_DIR / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        runner = Runner(args.workload, args.seed, workdir, args.dim)
        # Set-up, SETUP_REPS times: import gibbsfit in a fresh interpreter,
        # then analyse the default seed's first dataset in process (checked
        # against the golden reports, whatever --seed is).  setup_s is the
        # median of the reps, in raw wall time: the import in another
        # process does not follow the speed probe, and scaling by it made
        # the reps spread more, not less.
        setup = Outcome()
        reps = []
        for _ in range(SETUP_REPS if args.trace == 0 else 1):
            t0 = time.perf_counter()
            if args.trace == 0:
                subprocess.run([sys.executable, "-c", IMPORT_CODE], cwd=ROOT,
                               check=True, timeout=120)
            setup.add(runner.analysis(0, seed=workloads.DEFAULT_SEED))
            reps.append(time.perf_counter() - t0)
        setup_s = statistics.median(reps)

        if args.trace == 0:
            timed = Outcome()
            runner.loop(args.seconds, timed)
            result = timed_metrics(setup_s, timed)
            outcomes = [setup, timed]
            errors = []
        else:
            untraced, traced, tracer = Outcome(), Outcome(), Tracer()
            runner.paired_loop(args.seconds, untraced, traced, tracer)
            result = traced_metrics(untraced, traced, tracer)
            errors = result["errors"]
            outcomes = [setup, untraced, traced]
            trace_path = OUT_DIR / f"trace-{args.workload}.json"
            tracer.dump(trace_path, env)
            print(f"perfbench-trace spans={len(tracer.span_name)} file={trace_path}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    _report_failures([f for o in outcomes for f in o.failures] + errors)
    print("perfbench-notes " + json.dumps(result["notes"]))
    print(f"failed_frac {failed / attempted:.6g} ratio ({failed} of {attempted} commands)")
    _print_result(failed == 0 and not errors, attempted, failed, result["metrics"])
    return 0


def write_golden() -> int:
    from perfbench import workloads
    from perfbench.bench import GOLDEN_DIR, Runner

    workdir = OUT_DIR / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        for wl in WORKLOADS:
            runner = Runner(wl, workloads.DEFAULT_SEED, workdir)
            path = GOLDEN_DIR / f"{wl}.json"
            path.write_text(json.dumps(runner.golden_reports(), indent=1) + "\n")
            print(f"wrote {path}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.ladder_case:
        # limit this child's own address space before numpy maps anything
        sys.path.insert(0, str(ROOT))
        from perfbench.ladder import limit_address_space
        limit_address_space()
    _require_source()
    OUT_DIR.mkdir(exist_ok=True)
    if args.ladder or args.ladder_case:
        from perfbench import ladder
        if args.ladder_case:
            return ladder.run_case(args, ROOT, OUT_DIR)
        return ladder.run_ladder(args, ROOT, OUT_DIR)
    if args.write_golden:
        return write_golden()
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
