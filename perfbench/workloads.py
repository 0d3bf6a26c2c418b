"""Seeded datasets and the CLI command sequence of each workload.

An *analysis* is one workload's fixed command sequence run on one freshly
generated dataset.  Every dataset is a pure function of (workload, size,
seed, index): the program under test only ever sees the files written
here.  Datasets are interior by construction (no zero counts, full-rank
quantum states, a deviation from the reference well above its noise
floor), so every command is expected to succeed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

N_SHOTS = 20000

WORKLOADS = ("classical-wide", "quantum-full", "small-many")

# Default sizes; the size ladder and the reduced smoke runs override them.
DEFAULT_DIM = {"classical-wide": 64, "quantum-full": 6, "small-many": 6}

# Seed whose first timed analysis is compared with the golden reports.
DEFAULT_SEED = 1


@dataclass
class Dataset:
    """Files for one analysis plus the facts the checks need.

    ``gens`` maps each observable name to its values (classical: a
    length-d vector) or matrix (quantum: d x d complex); ``means`` maps each
    name to the sample mean the data imply; ``reference`` is the reference
    probability vector (classical) or matrix (quantum).
    """

    workload: str
    dim: int
    kind: str
    n: float
    paths: dict
    gens: dict
    means: dict
    reference: np.ndarray
    levels: dict = field(default_factory=dict)
    freq: np.ndarray | None = None
    rho: np.ndarray | None = None
    tilt_deg: float | None = None


@dataclass(frozen=True)
class Command:
    """One CLI call of an analysis.  ``kind`` names the timing bucket;
    ``level`` (a tuple of observable names, or a named level) says what
    the report's fitted models should match; ``demo`` names the demo."""

    kind: str
    argv: tuple
    level: object = None
    coarse: object = None
    fine: object = None
    demo: str | None = None


def _rng(workload: str, seed: int, index) -> np.random.Generator:
    tag = [ord(c) for c in workload]
    extra = [index] if isinstance(index, int) else [ord(c) for c in str(index)]
    return np.random.default_rng(np.random.SeedSequence([seed, *tag, 7919, *extra]))


def _write_counts(path: Path, counts: np.ndarray) -> None:
    lines = ["outcome,count"] + [f"{i + 1},{int(c)}" for i, c in enumerate(counts)]
    path.write_text("\n".join(lines) + "\n")


def _write_observables(path: Path, gens: dict) -> None:
    names = list(gens)
    d = len(next(iter(gens.values())))
    lines = ["outcome," + ",".join(names)]
    for i in range(d):
        lines.append(f"{i + 1}," + ",".join(repr(float(gens[n][i])) for n in names))
    path.write_text("\n".join(lines) + "\n")


def _draw_counts(rng, p: np.ndarray, n: int) -> np.ndarray:
    """Multinomial draws, redrawn until every outcome is seen (interior data)."""
    while True:
        counts = rng.multinomial(n, p)
        if counts.min() > 0:
            return counts


def _pearson(counts: np.ndarray, ref: np.ndarray) -> float:
    n = counts.sum()
    return float(n * np.sum((counts / n - ref) ** 2 / ref))


def classical_wide(workdir: Path, seed: int, index, dim: int) -> Dataset:
    """Smooth log-polynomial distribution on d outcomes, uniform reference,
    three polynomial observables G1..G3 on a grid over [-1, 1]."""
    rng = _rng("classical-wide", seed, index)
    x = np.linspace(-1.0, 1.0, dim)
    gens = {"G1": x, "G2": x ** 2, "G3": x ** 3}
    coef = rng.uniform(0.2, 0.6, size=4) * rng.choice([-1.0, 1.0], size=4)
    logp = coef[0] * x + coef[1] * x ** 2 + coef[2] * x ** 3 + coef[3] * x ** 4
    p = np.exp(logp - logp.max())
    p /= p.sum()
    ref = np.full(dim, 1.0 / dim)
    counts = _draw_counts(rng, p, N_SHOTS)
    return _classical_dataset("classical-wide", workdir, index, dim, counts, gens, ref)


def small_many(workdir: Path, seed: int, index, dim: int = 6) -> Dataset:
    """Die-sized table: two observables (centred face value and a
    flat-face contrast), a tilt along both plus a little per-outcome
    structure, uniform reference."""
    rng = _rng("small-many", seed, index)
    face = np.arange(1, dim + 1) - (dim + 1) / 2.0
    flat = np.where(np.isin(np.arange(dim) % 6, (2, 3)), -2.0, 1.0)
    gens = {"G1": face, "G2": flat}
    ref = np.full(dim, 1.0 / dim)
    while True:
        a, b = rng.uniform(0.02, 0.06, size=2) * rng.choice([-1.0, 1.0], size=2)
        logp = a * face + b * flat + 0.03 * rng.normal(size=dim)
        p = np.exp(logp - logp.max())
        p /= p.sum()
        counts = _draw_counts(rng, p, N_SHOTS)
        # keep the evidence procedure applicable with a wide margin
        if _pearson(counts, ref) > 4.0 * (dim - 1):
            break
    ds = _classical_dataset("small-many", workdir, index, dim, counts, gens, ref)
    ds.tilt_deg = float(rng.uniform(1.0, 4.0))
    return ds


def _classical_dataset(workload, workdir, index, dim, counts, gens, ref) -> Dataset:
    stem = f"{workload}-{index}"
    paths = {"data": workdir / f"{stem}-counts.csv",
             "observables": workdir / f"{stem}-obs.csv"}
    _write_counts(paths["data"], counts)
    _write_observables(paths["observables"], gens)
    freq = counts / counts.sum()
    means = {name: float(freq @ g) for name, g in gens.items()}
    return Dataset(workload=workload, dim=dim, kind="classical", n=float(counts.sum()),
                   paths=paths, gens=gens, means=means, reference=ref, freq=freq)


def _basis_ops(dim: int) -> dict:
    """Projectors P_i, then X_ij and Y_ij for i < j: a complete Hermitian
    basis (d^2 operators, d^2 - 1 of them independent of the identity)."""
    ops = {}
    for i in range(dim):
        m = np.zeros((dim, dim), complex)
        m[i, i] = 1.0
        ops[f"P{i}"] = m
    for i in range(dim):
        for j in range(i + 1, dim):
            m = np.zeros((dim, dim), complex)
            m[i, j] = m[j, i] = 1.0
            ops[f"X{i}_{j}"] = m
            m = np.zeros((dim, dim), complex)
            m[i, j], m[j, i] = -1j, 1j
            ops[f"Y{i}_{j}"] = m
    return ops


def quantum_full(workdir: Path, seed: int, index, dim: int) -> Dataset:
    """Full operator basis measured on a seeded random full-rank state;
    means are exact expectations.  Named levels: ``diag`` (the d
    projectors) and ``ring`` (diag plus the d - 1 nearest-neighbour X
    terms)."""
    rng = _rng("quantum-full", seed, index)
    w = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    wishart = w @ w.conj().T
    rho = 0.5 * np.eye(dim) / dim + 0.5 * wishart / np.trace(wishart).real
    rho = 0.5 * (rho + rho.conj().T)
    ops = _basis_ops(dim)
    means = {name: float(np.real(np.trace(rho @ m))) for name, m in ops.items()}
    diag = [f"P{i}" for i in range(dim)]
    levels = {"diag": diag, "ring": diag + [f"X{i}_{i + 1}" for i in range(dim - 1)]}
    doc = {
        "format_version": 1,
        "dim": dim,
        "reference": "uniform",
        "observables": [{"name": name, "re": m.real.tolist(), "im": m.imag.tolist()}
                        for name, m in ops.items()],
        "levels": levels,
        "sample_means": means,
        "N": N_SHOTS,
    }
    path = workdir / f"quantum-full-{index}.json"
    path.write_text(json.dumps(doc))
    return Dataset(workload="quantum-full", dim=dim, kind="quantum", n=float(N_SHOTS),
                   paths={"data": path}, gens=ops, means=means,
                   reference=np.eye(dim, dtype=complex) / dim, levels=levels, rho=rho)


GENERATORS = {"classical-wide": classical_wide, "quantum-full": quantum_full,
              "small-many": small_many}


def make_dataset(workload: str, workdir: Path, seed: int, index, dim: int | None = None) -> Dataset:
    return GENERATORS[workload](Path(workdir), seed, index, dim or DEFAULT_DIM[workload])


def _names(spec: str) -> tuple:
    return tuple(spec.split(","))


def commands(ds: Dataset, outdir: Path, index) -> list[Command]:
    """The workload's command sequence on one dataset, each writing a JSON
    report to its own file under ``outdir``."""
    data = ["--data", str(ds.paths["data"])]
    if "observables" in ds.paths:
        data += ["--observables", str(ds.paths["observables"])]
    if ds.workload == "classical-wide":
        steps = [
            ("significance", ["--level", "G1,G2"], dict(level=_names("G1,G2"))),
            ("project", ["--level", "G1,G2"], dict(level=_names("G1,G2"))),
            ("estimate", ["--level", "G1,G2,G3", "--alpha", "auto"],
             dict(level=_names("G1,G2,G3"))),
            ("compare", ["--coarse", "G1,G2", "--fine", "full"],
             dict(coarse=_names("G1,G2"), fine="full")),
        ]
    elif ds.workload == "quantum-full":
        steps = [
            ("significance", ["--level", "diag"], dict(level="diag")),
            ("project", ["--level", "ring"], dict(level="ring")),
            ("estimate", ["--level", "ring", "--alpha", "auto"], dict(level="ring")),
            ("compare", ["--coarse", "diag", "--fine", "full"],
             dict(coarse="diag", fine="full")),
        ]
    else:
        steps = [
            ("significance", [], dict(level="O")),
            ("project", ["--level", "G1,G2"], dict(level=_names("G1,G2"))),
            ("estimate", ["--level", "G1,G2", "--alpha", "auto"],
             dict(level=_names("G1,G2"))),
            ("compare", ["--coarse", "O", "--fine", "G1,G2"],
             dict(coarse="O", fine=_names("G1,G2"))),
        ]
    out = []
    for n, (kind, extra, facts) in enumerate(steps):
        path = outdir / f"{ds.workload}-{index}-{n}-{kind}.json"
        argv = (kind, *data, *extra, "--format", "json", "--out", str(path))
        out.append(Command(kind=kind, argv=argv, **facts))
    if ds.workload == "small-many":
        demos = [("qubit", ["--tilt-deg", repr(ds.tilt_deg)]), ("wolf", []), ("thermal", [])]
        for n, (which, extra) in enumerate(demos, start=len(out)):
            path = outdir / f"{ds.workload}-{index}-{n}-demo-{which}.json"
            argv = ("demo", which, *extra, "--format", "json", "--out", str(path))
            out.append(Command(kind="demo", argv=argv, demo=which))
    return out
