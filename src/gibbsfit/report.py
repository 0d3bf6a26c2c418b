"""Structured reports: a JSON-serializable result tree with provenance,
whose input digests the caller gives, of the bytes it parsed.  Tables show
6 significant digits; JSON keeps full double precision so a report re-read
from disk reproduces every number exactly.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import DataFormatError
from .gibbs import thermodynamic_entropy, volume_weight

REPORT_FORMAT_VERSION = 1

__all__ = [
    "Report",
    "render_table",
    "load_report",
    "model_summary",
    "comparison_summary",
    "posterior_summary",
]


def _jsonable(obj):
    """Coerce result-tree leaves to plain JSON types, full precision; a
    non-finite float becomes None (JSON null)."""
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        obj = obj.item()
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    raise DataFormatError(f"cannot serialize {type(obj).__name__} into a report")


@dataclass(frozen=True)
class Report:
    """Result tree plus provenance: input digests, tool version, config."""

    command: str
    result: dict
    config: dict
    provenance: dict

    @classmethod
    def build(cls, config: dict, result: dict, inputs: dict) -> "Report":
        """`config` echoes the invocation; `inputs` maps each input path to
        the SHA-256 of the bytes the command parsed."""
        from . import __version__
        prov = {"tool": "gibbsfit", "version": __version__, "inputs": dict(inputs)}
        return cls(command=config["command"], result=_jsonable(result),
                   config=_jsonable(config), provenance=prov)

    def to_json(self) -> str:
        doc = {"format_version": REPORT_FORMAT_VERSION, "command": self.command,
               "config": self.config, "provenance": self.provenance,
               "result": self.result}
        return json.dumps(doc, indent=2, sort_keys=False, allow_nan=False)


def load_report(path_or_text) -> Report:
    """Re-ingest a JSON report; numbers round-trip bit exactly."""
    text = path_or_text
    if "\n" not in str(path_or_text) and not str(path_or_text).lstrip().startswith("{"):
        with open(path_or_text) as fh:
            text = fh.read()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DataFormatError(f"invalid report JSON: {exc}")
    if doc.get("format_version") != REPORT_FORMAT_VERSION:
        raise DataFormatError(
            f"unsupported report format_version {doc.get('format_version')!r}")
    for key in ("command", "result", "config", "provenance"):
        if key not in doc:
            raise DataFormatError(f"report is missing {key!r}")
    return Report(command=doc["command"], result=doc["result"],
                  config=doc["config"], provenance=doc["provenance"])


# -- summaries of domain results ----------------------------------------


def model_summary(model) -> dict:
    """JSON-ready view of one manifold point."""
    out = {
        "level": model.level.label or "level",
        "dim": model.level.dim,
        "n_params": model.n_params,
        "ln_z": float(model.ln_z),
        "multipliers_basis": model.lam.tolist(),
        "generator_means": model.generator_expectations().tolist(),
        "generator_multipliers": model.generator_multipliers().tolist(),
        "thermodynamic_entropy": float(thermodynamic_entropy(model)),
        "volume_weight": volume_weight(model),
    }
    if model.state.is_classical:
        out["probabilities"] = model.state.probs.tolist()
    return out


def comparison_summary(rep) -> dict:
    return {"coarse": rep.coarse, "fine": rep.fine, "n": rep.n,
            "extra_params": rep.s, "rel_entropy": rep.rel_entropy,
            "chi2_gain": rep.chi2_gain, "chi2_exact": rep.chi2_exact,
            "per_param": rep.per_param, "ln_n": rep.ln_n,
            "band_low": rep.band[0], "band_high": rep.band[1],
            "verdict": rep.verdict, "alpha": rep.alpha_used,
            "log_ratio": rep.log_ratio, "prior_odds": rep.prior_odds}


def posterior_summary(post) -> dict:
    out = {"t": post.t, "alpha": post.alpha_used,
           "alpha_source": post.alpha_source, "n": post.n,
           "measured_dim": post.measured.dim,
           "cov_measured": post.cov_measured.tolist(),
           "estimate": model_summary(post.rho_hat),
           "warnings": list(post.warnings)}
    if post.unmeasured is not None:
        out["unmeasured_dim"] = post.unmeasured.dim
        out["cov_unmeasured"] = post.cov_unmeasured.tolist()
    return out


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return f"{value:.6g}"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_fmt(v) for v in value) + "]"
    return str(value)


def render_table(report: Report) -> str:
    """Flatten the result tree into aligned key/value rows, 6 significant
    digits, with one section per top-level branch."""
    lines: list[str] = [f"# gibbsfit {report.command}"]

    def walk(tree: dict, prefix: str) -> list[tuple[str, str]]:
        rows: list[tuple[str, str]] = []
        for key, val in tree.items():
            name = f"{prefix}{key}"
            if isinstance(val, dict):
                rows.extend(walk(val, name + "."))
            else:
                rows.append((name, _fmt(val)))
        return rows

    for section, branch in report.result.items():
        lines.append("")
        lines.append(f"[{section}]")
        if isinstance(branch, dict):
            rows = walk(branch, "")
        else:
            rows = [(section, _fmt(branch))]
        width = max((len(k) for k, _ in rows), default=0)
        for key, val in rows:
            lines.append(f"  {key.ljust(width)}  {val}")
    return "\n".join(lines) + "\n"
