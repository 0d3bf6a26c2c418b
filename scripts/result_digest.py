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

The command set covers every command on the files in ``data/``, the three
demos, and the first two analyses of each perfbench workload at seeds 1 and
29 (their datasets come from ``perfbench.workloads``, which is only read).
"""

import argparse
import hashlib
import json
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
]

DEMO_COMMANDS = [["demo", "wolf"], ["demo", "qubit"], ["demo", "thermal"],
                 ["demo", "qubit", "--tilt-deg", "2", "--r", "0.995"]]


def result_digest(argv, out: Path) -> tuple[str, int]:
    """Run one CLI command with a JSON report at ``out``; return the
    SHA-256 of its canonical result tree (or '-') and the exit code.
    argparse keeps the last --format/--out, so argv may already set them."""
    rc = run([*argv, "--format", "json", "--out", str(out)])
    if rc != 0 or not out.exists():
        return "-", rc
    result = json.loads(out.read_text())["result"]
    out.unlink()
    text = json.dumps(result, sort_keys=True, separators=(",", ":"), allow_nan=False)
    return hashlib.sha256(text.encode()).hexdigest(), rc


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


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--only", choices=("data", "demos", "perfbench"),
                    help="run one group of commands (default: all)")
    ap.add_argument("--against", type=Path, metavar="FILE",
                    help="compare with a saved output: print the labels that "
                         "differ and exit 1 if any line does")
    args = ap.parse_args()
    saved = None
    if args.against is not None:
        saved = {line.split(" ", 2)[2]: line
                 for line in args.against.read_text().splitlines() if line}
    os.chdir(ROOT)
    os.environ.setdefault("GIBBSFIT_LOG", "error")

    differ: list[str] = []
    with tempfile.TemporaryDirectory(prefix="result-digest-") as tmp:
        tmp = Path(tmp)
        groups = {
            "data": ((" ".join(argv), argv) for argv in DATA_COMMANDS),
            "demos": ((" ".join(argv), argv) for argv in DEMO_COMMANDS),
            "perfbench": perfbench_commands(tmp),
        }
        for name, items in groups.items():
            if args.only not in (None, name):
                continue
            for label, argv in items:
                digest, rc = result_digest(argv, tmp / "report.json")
                line = f"{digest} {rc} {label}"
                if saved is None:
                    print(line, flush=True)
                elif saved.pop(label, None) != line:
                    differ.append(label)
    if saved is None:
        return 0
    differ += saved  # saved lines this run did not produce
    for label in differ:
        print(f"differs: {label}")
    print(f"{len(differ)} line(s) differ from {args.against}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
