"""Data ingestion: classical count tables (CSV) and quantum datasets (JSON).

Classical data arrive as two small tables: a counts file with header
``outcome,count[,reference_weight]`` and an optional observables file with
header ``outcome,<name1>,<name2>,...`` whose rows must cover exactly the
same outcomes.  Quantum data arrive as a single JSON document carrying the
reference state, named Hermitian observables (complex matrices split into
"re"/"im" parts), named levels over those observables, and sample means.
The observables are read as one stack: their names and row layouts are
checked in one pass over the document, their numbers converted into one
(m, d, d) array, and finiteness, the Hermitian check, symmetrization and
diagonal tagging run once over that array.  The reference state is
eigendecomposed only after every check on the file has passed.  Named
levels are checked at load and built only when resolve_level asks for one.
Both formats are plain text so datasets diff cleanly and reproduce exactly.
``load``, the CLI's entry point, reads each input once and keeps the last
read-only ``Dataset`` it parsed, so commands on unchanged files parse once.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from dataclasses import dataclass
from types import MappingProxyType

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
    "load",
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
    state the measured level carries.  The three maps are read-only views.
    """

    observables: MappingProxyType[str, HermitianOperator]
    levels: MappingProxyType[str, LevelOfDescription]
    named: MappingProxyType[str, tuple[str, ...]]
    data: ExperimentData

    def __post_init__(self):
        for name in ("observables", "levels", "named"):
            object.__setattr__(self, name, MappingProxyType(dict(getattr(self, name))))

    @property
    def reference(self) -> DensityOperator:
        return self.data.level.sigma

    @property
    def n(self) -> float:
        return self.data.n


def _read(path) -> bytes:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise DataFormatError(f"cannot read {path}: {exc}")


def _text(path, raw: bytes | None, newline=None) -> io.StringIO:
    """The bytes (``raw``, else read) decoded as open(path, newline=newline) does."""
    text = io.TextIOWrapper(io.BytesIO(_read(path) if raw is None else raw), newline=newline)
    try:
        return io.StringIO(text.read(), newline="")
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"{path}: not readable as text: {exc}")


def _read_csv(path, raw: bytes | None) -> tuple[list[str], list[list[str]]]:
    rows = [row for row in csv.reader(_text(path, raw, newline=""))
            if row and any(cell.strip() for cell in row)]
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


def load_classical(counts_path, observables_path=None, *, raw=(None, None)) -> Dataset:
    """Read a counts table and an optional observables table.

    The reference state is uniform unless a reference_weight column gives
    relative weights (normalized here).  The measured level is the full
    outcome-indicator span at that reference, whose frame is computed only
    when a command reads it; named observable columns become diagonal
    Hermitians available for building coarser levels.  ``raw`` holds the
    two files' bytes; a None entry is read here.
    """
    header, body = _read_csv(counts_path, raw[0])
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
        oh, ob = _read_csv(observables_path, raw[1])
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


def _as_float(x) -> float:
    """A JSON number as a float; an integer beyond float range reads as
    infinite, so the finiteness checks refuse it."""
    try:
        return float(x)
    except OverflowError:
        return math.inf if x > 0 else -math.inf


def _json_number(value, path, what: str) -> float:
    if not _is_number(value) or not math.isfinite(_as_float(value)):
        raise DataFormatError(f"{path}: {what} must be a finite number, got {value!r}")
    return float(value)


def _is_grid(rows, dim: int) -> bool:
    """Whether rows is dim lists of dim JSON numbers (bool and str refused)."""
    return (isinstance(rows, list) and len(rows) == dim
            and all(isinstance(r, list) and len(r) == dim for r in rows)
            and {type(x) for r in rows for x in r} <= {int, float})


def _layout_fault(obj, dim: int) -> str | None:
    """What is wrong with the layout of one JSON matrix, or None."""
    if not isinstance(obj, dict) or "re" not in obj:
        return "must be an object with 're' (and 'im')"
    for part in ("re", "im"):
        if part in obj and not _is_grid(obj[part], dim):
            return f"{part!r} must be {dim}x{dim} numbers"
    return None


def _float_stack(grids: list, dim: int) -> np.ndarray:
    try:
        return np.array(grids, dtype=float).reshape(-1, dim, dim)
    except OverflowError:
        return np.array([[[_as_float(x) for x in r] for r in g] for g in grids],
                        dtype=float).reshape(-1, dim, dim)


def _read_matrices(objs: list, whats: list, dim: int) -> tuple[np.ndarray, str | None]:
    """Stack JSON matrices ("re" rows, optional "im" rows) as one complex
    (m, dim, dim) array, re + 1j * im, in one pass over the numbers.

    Reading stops at the first matrix whose layout is wrong: the stack
    holds the matrices before it, and the message names it by ``whats[i]``
    (None when every matrix reads).  Non-finite entries are left to the
    checks of the operator or state built from the stack.
    """
    k = next((i for i, obj in enumerate(objs) if _layout_fault(obj, dim)), len(objs))
    fault = None if k == len(objs) else f"{whats[k]} {_layout_fault(objs[k], dim)}"
    re = _float_stack([obj["re"] for obj in objs[:k]], dim)
    im = np.zeros_like(re)
    with_im = [i for i in range(k) if "im" in objs[i]]
    im[with_im] = _float_stack([objs[i]["im"] for i in with_im], dim)
    with np.errstate(invalid="ignore"):  # 1j * inf, refused as non-finite later
        return re + 1j * im, fault


def _read_observables(entries: list, dim: int, path) -> dict[str, HermitianOperator]:
    """The named observables of a quantum file, validated as one stack.

    Names and layouts are checked in one pass, the numbers read in a
    second, and finiteness, the Hermitian check (within 1e-9 * max(1,
    max|entry|)), symmetrization and diagonal tagging run once over the
    stack; each operator holds the bits HermitianOperator.from_matrix(...,
    atol=1e-9) gives its matrix.  An error names the first faulty
    observable in file order.
    """
    names: dict[str, None] = {}  # insertion-ordered, with O(1) lookups
    fault = None
    for entry in entries:
        if not isinstance(entry, dict) or not isinstance(entry.get("name"), str):
            fault = "each observable needs a 'name' string"
            break
        if entry["name"] in names:
            fault = f"duplicate observable name {entry['name']!r}"
            break
        names[entry["name"]] = None
    whats = [f"observable {name!r}" for name in names]
    stack, read_fault = _read_matrices(entries[:len(names)], whats, dim)
    try:
        ops = HermitianOperator.from_stack(stack, atol=1e-9, names=whats)
    except ValidationError as exc:
        raise DataFormatError(f"{path}: {exc}")
    if read_fault or fault:
        raise DataFormatError(f"{path}: {read_fault or fault}")
    return dict(zip(names, ops))


def load_quantum(path, *, raw: bytes | None = None) -> Dataset:
    """Read a quantum dataset: reference, observables, levels, sample means.

    The measured level spans every observable that carries a sample mean,
    in file order; its retained generators define the order of the means
    vector.  Named levels must use known observables and may not take a
    built-in name; they are built at the reference by resolve_level.  Every
    check on the file runs before the reference state is eigendecomposed,
    so a dim that does not fit the matrices fails fast.  ``raw`` is the
    file's bytes; None reads them here.
    """
    try:
        doc = json.load(_text(path, raw))
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
    ref_matrix = None
    if ref_spec != "uniform":
        ref_matrix, fault = _read_matrices([ref_spec], ["reference"], dim)
        if fault:
            raise DataFormatError(f"{path}: {fault}")

    if not isinstance(doc["observables"], list):
        raise DataFormatError(f"{path}: observables must be an array")
    for key in ("sample_means", "levels"):
        if not isinstance(doc.get(key, {}), dict):
            raise DataFormatError(f"{path}: {key} must be an object")
    observables = _read_observables(doc["observables"], dim, path)

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

    if ref_matrix is None:
        reference = uniform_state(dim)
    else:
        try:
            reference = DensityOperator.quantum(ref_matrix[0])
        except ValidationError as exc:
            raise DataFormatError(f"{path}: reference: {exc}")
    measured = make_level([observables[n] for n in measured_names],
                          reference, label="F")
    means = np.array([sample_means[measured_names[i]] for i in measured.retained])
    data = ExperimentData(level=measured, means=means, n=n_shots)
    return Dataset(observables=observables,
                   levels={"full": measured, "F": measured}, named=named,
                   data=data)


# ((loader, every input's bytes), dataset) of the last load kept, rebound whole
_last: tuple = (None, None)


def load(data, observables=None) -> tuple[Dataset, dict[str, str]]:
    """The dataset in a quantum JSON file, or a counts CSV and optional
    observables CSV, and the SHA-256 of each input's bytes by path as given.
    If the loader and all bytes match the last load kept, its dataset returns
    unparsed.  A load that raised or clamped a state (and warned) is never
    kept, so its repeat fails or warns again."""
    global _last
    quantum = str(data).endswith(".json")
    if quantum and observables:
        raise ValidationError("--observables only applies to classical CSV data")
    paths = (data,) if quantum else (data, observables)
    raw = tuple(None if p is None else _read(p) for p in paths)
    digests = {str(p): hashlib.sha256(b).hexdigest() for p, b in zip(paths, raw) if b is not None}
    key, (last_key, last) = (quantum, raw), _last
    if key == last_key:
        return last, digests
    ds = load_quantum(data, raw=raw[0]) if quantum else load_classical(*paths, raw=raw)
    if not any(s is not None and s.clamped for s in (ds.reference, ds.data.empirical)):
        _last = (key, ds)
    return ds, digests


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
