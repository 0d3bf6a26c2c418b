#!/usr/bin/env python3
"""Print one SHA-256 line per CLI result tree, for byte-identity checks.

Runs a fixed set of CLI commands in process and hashes the ``result`` tree
of each JSON report (config and provenance are left out, since they echo
paths and versions).  Each line reads ``<sha256> <exit code> <label>``.
Save the output on one tree and check another against it to show that a
change leaves every result bit-identical:

    PYTHONPATH=src python3 scripts/result_digest.py > before.txt
    PYTHONPATH=src python3 scripts/result_digest.py --against before.txt

With ``--against`` the script prints only the labels whose line differs
from the saved file (or that only one side has) and exits 1 if there is
any.

A digest shows that a result moved, not by how much.  ``--values FILE``
also writes every result tree, with its exit code, to FILE as JSON; given
such a file, ``--against`` prints for each label that differs the largest
relative difference between the two trees and the field where it occurs,
and still exits 1 on any difference.  Its last line gives the largest of
those differences over all labels, and the label, so "every result within
X" reads off one number:

    PYTHONPATH=src python3 scripts/result_digest.py --values before.json
    PYTHONPATH=src python3 scripts/result_digest.py --against before.json

The command set covers every command on the files in ``data/``, the three
demos, and the first two analyses of each perfbench workload at seeds 1 and
29 (their datasets come from ``perfbench.workloads``, which is only read).

The script then runs the same commands a second time in the same process,
where every level comes from the package's per-process memo, and exits 1
if any warm line differs from the cold one.  In both passes consecutive
commands on one file share the dataset the first of them parsed
(``gibbsfit.dataio.load`` keeps the last one), as a one-shot ``gibbsfit``
process does not.  It prints each such label as
``warm differs: <label>`` and a one-line count on standard error, so the
standard output stays a file that ``--against`` reads.
"""

import argparse
import hashlib
import json
import math
import os
import sys
import tempfile
from pathlib import Path

from gibbsfit.cli import run

ROOT = Path(__file__).resolve().parents[1]
SEEDS = (1, 29)
ANALYSES = 2

WOLF = ["--data", "data/wolf_counts.csv"]
WOLF_OBS = WOLF + ["--observables", "data/wolf_observables.csv"]
QUBIT = ["--data", "data/qubit_tilt3.json"]
# qubit_tilt3 without Y's sample mean: the heisenberg prior keeps an
# unmeasured direction, so the report carries a complement block
QUBIT_PARTIAL = ["--data", "data/qubit_partial.json"]
# a qutrit with a complex non-uniform reference and integer, real-only and
# diagonal observables
QUTRIT = ["--data", "data/qutrit_mixed.json"]
# a qutrit whose reference is diagonal with unsorted weights: its diagonal
# levels fit on vectors, the complete one in closed form
QUTRIT_DIAGONAL = ["--data", "data/qutrit_diagonal.json"]
# edges of the classical domain: a reference with four weights below the
# eigenvalue floor, and a zero count
EDGES = [["--data", "data/floored_reference.csv"], ["--data", "data/zero_count.csv"]]
EDGE_RUNS = [["significance"], ["project", "--level", "full"],
             ["estimate", "--level", "full", "--alpha", "50"],
             ["compare", "--coarse", "O", "--fine", "full", "--alpha", "50"]]

DATA_COMMANDS = [
    ["significance", *WOLF],
    ["project", *WOLF],
    ["estimate", *WOLF],
    ["compare", *WOLF, "--coarse", "O", "--fine", "full"],
    ["significance", *WOLF_OBS, "--level", "G1,G2"],
    ["project", *WOLF_OBS, "--level", "G1,G2"],
    ["estimate", *WOLF_OBS, "--level", "G1,G2"],
    ["estimate", *WOLF_OBS, "--level", "G1,G2", "--alpha", "250"],
    ["compare", *WOLF_OBS, "--coarse", "O", "--fine", "G1,G2"],
    ["compare", *WOLF_OBS, "--coarse", "G1,G2", "--fine", "full"],
    ["compare", *WOLF_OBS, "--coarse", "G1", "--fine", "G1,G2",
     "--alpha", "250", "--prior-odds", "2"],
    ["significance", *QUBIT],
    ["significance", *QUBIT, "--level", "ising"],
    ["project", *QUBIT],
    ["project", *QUBIT, "--level", "ising"],
    ["project", *QUBIT, "--level", "heisenberg"],
    ["estimate", *QUBIT],
    ["estimate", *QUBIT, "--level", "ising"],
    ["estimate", *QUBIT, "--level", "ising", "--alpha", "100"],
    ["compare", *QUBIT, "--coarse", "O", "--fine", "ising"],
    ["compare", *QUBIT, "--coarse", "ising", "--fine", "full"],
    ["estimate", *QUBIT_PARTIAL, "--level", "heisenberg", "--alpha", "50"],
    ["significance", *QUTRIT],
    ["significance", *QUTRIT, "--level", "diag"],
    ["project", *QUTRIT],
    ["project", *QUTRIT, "--level", "spin"],
    ["estimate", *QUTRIT, "--level", "spin"],
    ["estimate", *QUTRIT, "--level", "diag", "--alpha", "100"],
    ["compare", *QUTRIT, "--coarse", "O", "--fine", "spin"],
    ["compare", *QUTRIT, "--coarse", "diag", "--fine", "full"],
    ["significance", *QUTRIT_DIAGONAL, "--level", "z"],
    ["project", *QUTRIT_DIAGONAL, "--level", "diag"],
    ["estimate", *QUTRIT_DIAGONAL, "--level", "z", "--alpha", "100"],
    ["compare", *QUTRIT_DIAGONAL, "--coarse", "z", "--fine", "diag"],
    *([cmd, *edge, *rest] for edge in EDGES for cmd, *rest in EDGE_RUNS),
]

DEMO_COMMANDS = [["demo", "wolf"], ["demo", "qubit"], ["demo", "thermal"],
                 ["demo", "qubit", "--tilt-deg", "2", "--r", "0.995"]]


def result_digest(argv, out: Path) -> tuple[str, int, object]:
    """Run one CLI command with a JSON report at ``out``; return the
    SHA-256 of its canonical result tree (or '-'), the exit code and the
    tree (or None).  argparse keeps the last --format/--out, so argv may
    already set them."""
    rc = run([*argv, "--format", "json", "--out", str(out)])
    if rc != 0 or not out.exists():
        return "-", rc, None
    result = json.loads(out.read_text())["result"]
    out.unlink()
    return _digest(result), rc, result


def _digest(result) -> str:
    text = json.dumps(result, sort_keys=True, separators=(",", ":"), allow_nan=False)
    return hashlib.sha256(text.encode()).hexdigest()


def largest_difference(got, want, path: str = "result") -> tuple[float, str]:
    """(relative difference, field) of the leaf where two result trees
    differ most: |a - b| / max(|a|, |b|) for numbers, inf where a string, a
    flag, a null or the structure differs, (0.0, "") when they are equal."""
    if isinstance(got, dict) and isinstance(want, dict) and got.keys() == want.keys():
        pairs = [(got[k], want[k], f"{path}.{k}") for k in want]
    elif isinstance(got, list) and isinstance(want, list) and len(got) == len(want):
        pairs = [(g, w, f"{path}[{i}]") for i, (g, w) in enumerate(zip(got, want))]
    elif got == want and type(got) is type(want):
        return 0.0, ""
    elif all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in (got, want)):
        return abs(got - want) / max(abs(got), abs(want)), path
    else:
        return math.inf, path
    return max((largest_difference(*pair) for pair in pairs), default=(0.0, ""))


def _difference(label: str, run: tuple | None, saved: dict) -> tuple[float, str]:
    """How a label differs from a --values file: the relative size (inf for
    a missing side or another exit code) and the reason, which names the
    field of the largest relative difference."""
    if run is None:
        return math.inf, "only in the saved file"
    if label not in saved:
        return math.inf, "only in this run"
    rc, result = run
    if rc != saved[label]["exit"]:
        return math.inf, f"exit code {rc}, saved {saved[label]['exit']}"
    rel, where = largest_difference(result, saved[label]["result"])
    return rel, f"largest relative difference {rel:.3g} at {where}"


def _read_saved(path: Path) -> tuple[dict, dict | None]:
    """The saved lines by label and, from a --values file, the trees."""
    text = path.read_text()
    if not text.lstrip().startswith("{"):
        return {ln.split(" ", 2)[2]: ln for ln in text.splitlines() if ln}, None
    values = json.loads(text)
    lines = {label: f"{'-' if v['result'] is None else _digest(v['result'])} "
                    f"{v['exit']} {label}" for label, v in values.items()}
    return lines, values


def perfbench_commands(workdir: Path):
    """(label, argv) of the first ANALYSES analyses of every perfbench workload."""
    sys.path.insert(0, str(ROOT))
    from perfbench import workloads
    for workload in workloads.WORKLOADS:
        for seed in SEEDS:
            for index in range(ANALYSES):
                sub = workdir / f"{workload}-{seed}-{index}"
                sub.mkdir()
                ds = workloads.make_dataset(workload, sub, seed, index)
                for n, cmd in enumerate(workloads.commands(ds, sub, index)):
                    what = f"demo {cmd.demo}" if cmd.demo else cmd.kind
                    label = f"perfbench {workload} seed={seed} analysis={index} #{n} {what}"
                    yield label, cmd.argv


def run_pass(only: str | None, workdir: Path):
    """Run the command set once, or the group ``only``, with its reports
    and datasets under ``workdir``: yield (label, line, exit code, result
    tree) per command."""
    workdir.mkdir()
    groups = {
        "data": ((" ".join(argv), argv) for argv in DATA_COMMANDS),
        "demos": ((" ".join(argv), argv) for argv in DEMO_COMMANDS),
        "perfbench": perfbench_commands(workdir),
    }
    for name, items in groups.items():
        if only not in (None, name):
            continue
        for label, argv in items:
            digest, rc, result = result_digest(argv, workdir / "report.json")
            yield label, f"{digest} {rc} {label}", rc, result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--only", choices=("data", "demos", "perfbench"),
                    help="run one group of commands (default: all)")
    ap.add_argument("--against", type=Path, metavar="FILE",
                    help="compare with a saved output or --values file: print "
                         "the labels that differ and exit 1 if any does")
    ap.add_argument("--values", type=Path, metavar="FILE",
                    help="also write every result tree and exit code to FILE as JSON")
    args = ap.parse_args(argv)
    saved = values = None
    if args.against is not None:
        saved, values = _read_saved(args.against)
    out_values = None if args.values is None else args.values.resolve()
    os.chdir(ROOT)
    os.environ.setdefault("GIBBSFIT_LOG", "error")

    runs: dict[str, tuple[int, object]] = {}
    lines: dict[str, str] = {}
    differ: list[str] = []
    with tempfile.TemporaryDirectory(prefix="result-digest-") as tmp:
        for label, line, rc, result in run_pass(args.only, Path(tmp) / "cold"):
            runs[label] = (rc, result)
            lines[label] = line
            if saved is None:
                print(line, flush=True)
            elif saved.pop(label, None) != line:
                differ.append(label)
        warm = {label: line for label, line, *_ in run_pass(args.only, Path(tmp) / "warm")}
    warm_differ = [label for label in {**lines, **warm} if warm.get(label) != lines.get(label)]
    for label in warm_differ:
        print(f"warm differs: {label}", file=sys.stderr)
    print(f"{len(warm_differ)} of {len(lines)} label(s) differ between the cold and the "
          "warm pass", file=sys.stderr)
    if out_values is not None:
        out_values.write_text(json.dumps(
            {label: {"exit": rc, "result": result} for label, (rc, result) in runs.items()},
            indent=1, allow_nan=False) + "\n")
    if saved is None:
        return 1 if warm_differ else 0
    differ += saved  # saved lines this run did not produce
    worst = (0.0, "")
    for label in differ:
        why = ""
        if values is not None:
            rel, why = _difference(label, runs.get(label), values)
            worst = max(worst, (rel, label), key=lambda pair: pair[0])
            why = f": {why}"
        print(f"differs: {label}{why}")
    print(f"{len(differ)} line(s) differ from {args.against}")
    if values is not None:
        where = f" at {worst[1]}" if worst[1] else ""
        print(f"largest relative difference over all labels: {worst[0]:.3g}{where}")
    return 1 if differ or warm_differ else 0


if __name__ == "__main__":
    sys.exit(main())
