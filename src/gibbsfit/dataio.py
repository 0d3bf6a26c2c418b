"""Data ingestion: classical count tables (CSV) and quantum datasets (JSON).

Classical data arrive as two small tables: a counts file with header
``outcome,count[,reference_weight]`` and an optional observables file with
header ``outcome,<name1>,<name2>,...`` whose rows must cover exactly the
same outcomes.  Quantum data arrive as a single JSON document carrying the
reference state, named Hermitian observables (complex matrices split into
"re"/"im" parts), named levels over those observables, and sample means.
Named levels are checked at load and built only when resolve_level asks
for one.
Both formats are plain text so datasets diff cleanly and reproduce exactly.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import DataFormatError, ValidationError
from .inference import ExperimentData
from .levels import LevelOfDescription, full_classical_level, make_level, trivial_level
from .state_space import DensityOperator, HermitianOperator, uniform_state

FORMAT_VERSION = 1

# Names resolve_level keeps for the measured level and the bare reference; a
# quantum file may not give them to a level of its own.
BUILTIN_LEVELS = ("full", "F", "O")

__all__ = [
    "Dataset",
    "load_classical",
    "load_quantum",
    "resolve_level",
]


@dataclass(frozen=True, eq=False)
class Dataset:
    """Reference state, named observables and levels, and the measured data.

    ``levels`` holds the measured level under its built-in names ("full",
    and "F" for quantum data); ``named`` maps each level a quantum file
    names to its observable names, in file order (empty for classical
    data).  Classical ``data`` keeps the raw counts.  ``reference`` is the
    state the measured level carries.
    """

    observables: dict[str, HermitianOperator]
    levels: dict[str, LevelOfDescription]
    named: dict[str, tuple[str, ...]]
    data: ExperimentData

    @property
    def reference(self) -> DensityOperator:
        return self.data.level.sigma

    @property
    def n(self) -> float:
        return self.data.n


def _read_csv(path) -> tuple[list[str], list[list[str]]]:
    try:
        with open(path, newline="") as fh:
            rows = [row for row in csv.reader(fh)
                    if row and any(cell.strip() for cell in row)]
    except OSError as exc:
        raise DataFormatError(f"cannot read {path}: {exc}")
    if len(rows) < 2:
        raise DataFormatError(f"{path}: needs a header row and at least one data row")
    header = [h.strip() for h in rows[0]]
    body = [[cell.strip() for cell in row] for row in rows[1:]]
    for row in body:
        if len(row) != len(header):
            raise DataFormatError(f"{path}: row {row!r} does not match the header width")
    return header, body


def _parse_float(cell, path, what: str) -> float:
    try:
        value = float(cell)
    except (TypeError, ValueError):
        raise DataFormatError(f"{path}: {what} {cell!r} is not a number")
    if not math.isfinite(value):
        raise DataFormatError(f"{path}: {what} {cell!r} is not finite")
    return value


def load_classical(counts_path, observables_path=None) -> Dataset:
    """Read a counts table and an optional observables table.

    The reference state is uniform unless a reference_weight column gives
    relative weights (normalized here).  The measured level is the full
    outcome-indicator span at that reference; named observable columns
    become diagonal Hermitians available for building coarser levels.
    """
    header, body = _read_csv(counts_path)
    if header[:2] != ["outcome", "count"]:
        raise DataFormatError(
            f"{counts_path}: header must start with 'outcome,count', got {header!r}")
    has_ref = len(header) > 2 and header[2] == "reference_weight"
    if len(header) > (3 if has_ref else 2):
        raise DataFormatError(f"{counts_path}: unexpected extra columns in {header!r}")

    outcomes: list[str] = []
    counts: list[float] = []
    weights: list[float] = []
    for row in body:
        if row[0] in outcomes:
            raise DataFormatError(f"{counts_path}: duplicate outcome {row[0]!r}")
        outcomes.append(row[0])
        c = _parse_float(row[1], counts_path, "count")
        if c < 0:
            raise DataFormatError(f"{counts_path}: negative count for outcome {row[0]!r}")
        counts.append(c)
        if has_ref:
            w = _parse_float(row[2], counts_path, "reference weight")
            if w <= 0:
                raise DataFormatError(
                    f"{counts_path}: reference weight must be positive for {row[0]!r}")
            weights.append(w)
    if len(outcomes) < 2:
        raise DataFormatError(f"{counts_path}: a single outcome is a degenerate sample space")
    counts_arr = np.asarray(counts)
    if counts_arr.sum() <= 0:
        raise DataFormatError(f"{counts_path}: counts total zero")

    if has_ref:
        w = np.asarray(weights)
        reference = DensityOperator.classical(w / w.sum())
    else:
        reference = DensityOperator.classical(np.full(len(outcomes), 1.0 / len(outcomes)))

    observables: dict[str, HermitianOperator] = {}
    if observables_path is not None:
        oh, ob = _read_csv(observables_path)
        if oh[0] != "outcome":
            raise DataFormatError(
                f"{observables_path}: first column must be 'outcome', got {oh[0]!r}")
        names = oh[1:]
        if len(set(names)) != len(names) or not names:
            raise DataFormatError(f"{observables_path}: observable names must be "
                                  "nonempty and unique")
        table: dict[str, list[str]] = {}
        for row in ob:
            if row[0] in table:
                raise DataFormatError(f"{observables_path}: duplicate outcome {row[0]!r}")
            table[row[0]] = row[1:]
        if set(table) != set(outcomes):
            raise DataFormatError(
                f"{observables_path}: outcomes do not match {counts_path}")
        for j, name in enumerate(names):
            vals = [_parse_float(table[o][j], observables_path, f"{name} value")
                    for o in outcomes]
            observables[name] = HermitianOperator.from_diagonal(vals)

    full = full_classical_level(reference)
    data = ExperimentData.from_counts(counts_arr, full)
    return Dataset(observables=observables, levels={"full": full}, named={}, data=data)


def _is_number(x) -> bool:
    """A JSON number: true/false and numeric strings are not."""
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _json_number(value, path, what: str) -> float:
    if not _is_number(value) or not math.isfinite(value):
        raise DataFormatError(f"{path}: {what} must be a finite number, got {value!r}")
    return float(value)


def _parse_part(rows, dim: int, path, what: str) -> np.ndarray:
    """One real dim x dim part of a JSON matrix: a list of rows of numbers."""
    if not (isinstance(rows, list) and len(rows) == dim
            and all(isinstance(r, list) and len(r) == dim and all(map(_is_number, r))
                    for r in rows)):
        raise DataFormatError(f"{path}: {what} must be {dim}x{dim} numbers")
    part = np.array(rows, dtype=float)
    if not np.all(np.isfinite(part)):
        raise DataFormatError(f"{path}: {what} has a non-finite entry")
    return part


def _parse_matrix(obj, dim: int, path, what: str) -> np.ndarray:
    if not isinstance(obj, dict) or "re" not in obj:
        raise DataFormatError(f"{path}: {what} must be an object with 're' (and 'im')")
    re = _parse_part(obj["re"], dim, path, f"{what} 're'")
    im = (_parse_part(obj["im"], dim, path, f"{what} 'im'") if "im" in obj
          else np.zeros_like(re))
    return re + 1j * im


def load_quantum(path) -> Dataset:
    """Read a quantum dataset: reference, observables, levels, sample means.

    The measured level spans every observable that carries a sample mean,
    in file order; its retained generators define the order of the means
    vector.  Named levels must use known observables and may not take a
    built-in name; they are built at the reference by resolve_level.
    """
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise DataFormatError(f"cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise DataFormatError(f"{path}: invalid JSON: {exc}")
    if not isinstance(doc, dict):
        raise DataFormatError(f"{path}: top level must be an object")
    version = doc.get("format_version")
    if version != FORMAT_VERSION or isinstance(version, bool):
        raise DataFormatError(
            f"{path}: unsupported format_version {version!r} (expected {FORMAT_VERSION})")
    for key in ("dim", "observables", "sample_means", "N"):
        if key not in doc:
            raise DataFormatError(f"{path}: missing required key {key!r}")
    dim = doc["dim"]
    if not isinstance(dim, int) or dim < 2:
        raise DataFormatError(f"{path}: dim must be an integer >= 2")

    ref_spec = doc.get("reference", "uniform")
    if ref_spec == "uniform":
        reference = uniform_state(dim)
    else:
        try:
            reference = DensityOperator.quantum(_parse_matrix(ref_spec, dim, path, "reference"))
        except ValidationError as exc:
            raise DataFormatError(f"{path}: reference: {exc}")

    if not isinstance(doc["observables"], list):
        raise DataFormatError(f"{path}: observables must be an array")
    for key in ("sample_means", "levels"):
        if not isinstance(doc.get(key, {}), dict):
            raise DataFormatError(f"{path}: {key} must be an object")
    observables: dict[str, HermitianOperator] = {}
    for entry in doc["observables"]:
        if not isinstance(entry, dict) or not isinstance(entry.get("name"), str):
            raise DataFormatError(f"{path}: each observable needs a 'name' string")
        name = entry["name"]
        if name in observables:
            raise DataFormatError(f"{path}: duplicate observable name {name!r}")
        try:
            observables[name] = HermitianOperator.from_matrix(
                _parse_matrix(entry, dim, path, f"observable {name!r}"), atol=1e-9)
        except ValidationError as exc:
            raise DataFormatError(f"{path}: observable {name!r}: {exc}")

    means_map = doc["sample_means"]
    unknown = set(means_map) - set(observables)
    if unknown:
        raise DataFormatError(f"{path}: sample means for unknown observables {sorted(unknown)}")
    measured_names = [n for n in observables if n in means_map]
    if not measured_names:
        raise DataFormatError(f"{path}: no observable carries a sample mean")
    sample_means = {n: _json_number(means_map[n], path, f"sample mean of {n!r}")
                    for n in measured_names}
    n_shots = _json_number(doc["N"], path, "N")
    if n_shots < 0:
        raise DataFormatError(f"{path}: N must be nonnegative")

    measured = make_level([observables[n] for n in measured_names],
                          reference, label="F")
    means = np.array([sample_means[measured_names[i]] for i in measured.retained])
    data = ExperimentData(level=measured, means=means, n=n_shots)

    named: dict[str, tuple[str, ...]] = {}
    for name, obs_names in doc.get("levels", {}).items():
        if name in BUILTIN_LEVELS:
            raise DataFormatError(f"{path}: level name {name!r} is reserved")
        if not (isinstance(obs_names, list) and all(isinstance(o, str) for o in obs_names)):
            raise DataFormatError(f"{path}: level {name!r} must be a list of observable names")
        missing = [o for o in obs_names if o not in observables]
        if missing:
            raise DataFormatError(f"{path}: level {name!r} uses unknown observables {missing}")
        named[name] = tuple(obs_names)
    return Dataset(observables=observables,
                   levels={"full": measured, "F": measured}, named=named,
                   data=data)


def resolve_level(dataset: Dataset, spec: str) -> LevelOfDescription:
    """Turn a CLI level spec into a level: the measured level ("full"), the
    bare reference ("O"), a level the data file names, or a comma-separated
    list of observable names.  Levels other than the measured one are built
    here, at the dataset's reference."""
    spec = spec.strip()
    if spec in dataset.levels:
        return dataset.levels[spec]
    if spec == "O":
        return trivial_level(dataset.reference)
    names = dataset.named.get(spec)
    if names is None:
        names = [s.strip() for s in spec.split(",") if s.strip()]
        missing = [n for n in names if n not in dataset.observables]
        if not names or missing:
            raise DataFormatError(
                f"cannot resolve level {spec!r}: not a named level and "
                f"unknown observables {missing or spec!r}")
    return make_level([dataset.observables[n] for n in names],
                      dataset.reference, label=spec)
