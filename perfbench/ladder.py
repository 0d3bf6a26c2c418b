"""Budgeted size ladder: one traced analysis per (workload, d), each in its
own child process under a wall-time budget and an address-space limit the
child sets on itself.  A case that goes over is recorded as skipped with
its reason, never dropped.  Diagnostic output only: no bound applies.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

# Per case: wall-time budget (the parent kills the child) and the
# address-space limit the child sets on itself.
BUDGET_S = 120
MEM_MB = 2048

CASES = [("classical-wide", d) for d in (16, 32, 64, 128)] + \
        [("quantum-full", d) for d in (2, 3, 4, 6, 8)]


def _out_of_memory(text: str) -> bool:
    return any(m in text for m in ("MemoryError", "Memory allocation",
                                   "Cannot allocate memory"))


def limit_address_space() -> None:
    """Child side, before numpy is imported: cap this process's address
    space at MEM_MB."""
    import resource

    limit = MEM_MB * 1024 * 1024
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


def run_case(args, root, out_dir) -> int:
    """Child side: one traced analysis at the requested size."""
    from .bench import Runner, peak_rss_mb
    from .tracer import LAYERS, Tracer

    workload, dim = args.ladder_case.split(":")
    workdir = out_dir / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    runner = Runner(workload, args.seed, workdir, int(dim))
    tracer = Tracer()
    tracer.install()
    try:
        tracer.analysis = 0
        a = runner.analysis(0)
    finally:
        tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)
    s = tracer.analysis_summary(0, a.wall_s, a.commands)
    print(json.dumps({
        "analysis_s": a.wall_s,
        "commands_s": {k: t1 - t0 for k, t0, t1 in a.commands},
        "layer_self_s": {layer: s["layers"][layer] for layer in LAYERS},
        "uncovered_s": s["uncovered_s"],
        "levels.basis_bytes": s["counters"].get("levels.basis_bytes", 0),
        "levels.make_level.calls": s["fn_calls"].get("levels.make_level", 0),
        "state_space.kmb_inner.calls": s["fn_calls"].get("state_space.kmb_inner", 0),
        "peak_rss_mb": peak_rss_mb(),
        "failures": a.failures + s["errors"],
    }))
    return 0


def run_ladder(args, root, out_dir) -> int:
    """Parent side: run every case, record ok / failed / skipped."""
    from .bench import environment

    results = []
    for workload, dim in CASES:
        cmd = [sys.executable, str(root / "perfbench" / "run.py"),
               "--ladder-case", f"{workload}:{dim}", "--seed", str(args.seed)]
        case = {"workload": workload, "dim": dim}
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=root,
                                  timeout=BUDGET_S)
        except subprocess.TimeoutExpired:
            case.update(status="skipped",
                        reason=f"time budget of {BUDGET_S} s exceeded")
        else:
            lines = proc.stdout.strip().splitlines()
            if proc.returncode == 0 and lines:
                case.update(json.loads(lines[-1]))
            failures = "\n".join(case.get("failures", [])) + proc.stderr
            if _out_of_memory(failures):
                case.update(status="skipped",
                            reason=f"address-space limit of {MEM_MB} MB exceeded")
            elif proc.returncode == 0 and lines:
                case["status"] = "failed" if case["failures"] else "ok"
            else:
                tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
                case.update(status="failed", reason=f"exit {proc.returncode}: {tail[0]}")
        case["case_wall_s"] = time.perf_counter() - t0
        results.append(case)
        detail = case.get("reason") or (
            f"analysis {case['analysis_s']:.3f} s  rss {case['peak_rss_mb']:.0f} MB  "
            f"basis {case['levels.basis_bytes'] / 2**20:.1f} MiB (computed)")
        print(f"{workload:<15} d={dim:<4} {case['status']:<8} {detail}", flush=True)
    doc = {"env": environment(root, None, args.seed), "budget_s": BUDGET_S,
           "mem_mb": MEM_MB, "cases": results}
    path = out_dir / f"ladder-seed{args.seed}.json"
    path.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {path}")
    return 0
