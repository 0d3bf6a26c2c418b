"""Command-line front end: load a dataset, run one pipeline stage, emit a
report as an aligned table or as JSON.

Exit codes: 0 success, 2 data or validation problems (including evidence
weighting that does not apply), 3 solver non-convergence.  The package
log level is set with GIBBSFIT_LOG (error, warn, info, debug).
"""

from __future__ import annotations

import argparse
import functools
import logging
import math
import os
import sys

from .dataio import load_classical, load_quantum, resolve_level
from .demos import run_qubit, run_thermal, run_wolf
from .errors import (
    DataFormatError,
    EvidenceNotApplicableError,
    InfeasibleTargetError,
    NotConvergedError,
    ValidationError,
)
from .gibbs import project
from .inference import (
    DEFAULT_SIG_LEVEL,
    EntropicPrior,
    compare_levels,
    level_significance,
    posterior_estimate,
)
from .report import (
    Report,
    RunConfig,
    alpha_summary,
    comparison_summary,
    model_summary,
    posterior_summary,
    render_table,
    significance_summary,
)

EXIT_OK = 0
EXIT_DATA = 2
EXIT_SOLVER = 3

_LOG_LEVELS = {"error": logging.ERROR, "warn": logging.WARNING,
               "info": logging.INFO, "debug": logging.DEBUG}

__all__ = ["main", "run", "build_parser", "EXIT_OK", "EXIT_DATA", "EXIT_SOLVER"]


def _configure_logging() -> None:
    name = os.environ.get("GIBBSFIT_LOG", "warn").strip().lower()
    if name not in _LOG_LEVELS:
        raise ValidationError(
            f"GIBBSFIT_LOG must be one of {'/'.join(_LOG_LEVELS)}, got {name!r}")
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    pkg = logging.getLogger("gibbsfit")
    pkg.handlers[:] = [handler]
    pkg.setLevel(_LOG_LEVELS[name])
    pkg.propagate = False


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="gibbsfit",
        description="Fit, weigh and compare Gibbs-manifold descriptions of "
                    "small classical and quantum datasets.")
    sub = ap.add_subparsers(dest="command", required=True, metavar="command")

    def output_opts(p: argparse.ArgumentParser) -> None:
        p.add_argument("--format", choices=("table", "json"), default="table",
                       help="report format (default: table)")
        p.add_argument("--out", metavar="PATH",
                       help="write the report to a file instead of stdout")

    def data_opts(p: argparse.ArgumentParser) -> None:
        p.add_argument("--data", required=True, metavar="PATH",
                       help="counts CSV (classical) or dataset JSON (quantum)")
        p.add_argument("--observables", metavar="PATH",
                       help="observable table CSV, classical data only")

    p = sub.add_parser("project", help="fit a level of description to the data")
    data_opts(p)
    p.add_argument("--level", default="full",
                   help="target level: a named level or comma-separated "
                        "observable names (default: full)")
    p.add_argument("--sig-level", type=float, default=DEFAULT_SIG_LEVEL,
                   help="tail probability threshold for the residual check")
    output_opts(p)

    p = sub.add_parser("significance",
                       help="significance of the deviation from a fitted level")
    data_opts(p)
    p.add_argument("--level", default="O",
                   help="fitted level (default: O, the bare reference)")
    p.add_argument("--sig-level", type=float, default=DEFAULT_SIG_LEVEL,
                   help="tail probability below which the deviation counts "
                        "as significant (default: 1e-3)")
    output_opts(p)

    p = sub.add_parser("estimate",
                       help="posterior state estimate with evidence weighting")
    data_opts(p)
    p.add_argument("--level", default="full",
                   help="prior (model) level (default: full)")
    p.add_argument("--alpha", default="auto", metavar="auto|VALUE",
                   help="prior weight: 'auto' runs the evidence procedure, "
                        "a number pins it")
    output_opts(p)

    p = sub.add_parser("compare",
                       help="model selection between two nested levels")
    data_opts(p)
    p.add_argument("--coarse", required=True, help="coarse candidate level")
    p.add_argument("--fine", required=True, help="fine candidate level")
    p.add_argument("--alpha", default="auto", metavar="auto|VALUE",
                   help="prior weight for the posterior odds (default: auto)")
    p.add_argument("--prior-odds", type=float, default=1.0,
                   help="prior probability ratio coarse:fine (default: 1)")
    output_opts(p)

    p = sub.add_parser("demo", help="run a built-in worked example")
    p.add_argument("which", choices=("wolf", "qubit", "thermal"))
    p.add_argument("--tilt-deg", type=float, default=3.0,
                   help="qubit demo: tilt angle in degrees (default: 3)")
    p.add_argument("--r", type=float, default=0.73,
                   help="qubit demo: Bloch radius (default: 0.73)")
    p.add_argument("--n", type=float, default=20000,
                   help="qubit demo: number of shots (default: 20000)")
    output_opts(p)
    return ap


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser `run` uses, built once per process: parse_args keeps no
    state between calls, so one parser serves every command."""
    return build_parser()


def _load_dataset(args):
    path = str(args.data)
    if path.endswith(".json"):
        if args.observables:
            raise ValidationError("--observables only applies to classical CSV data")
        return load_quantum(path)
    return load_classical(path, args.observables)


def _parse_alpha(text: str) -> float | None:
    """'auto' -> None (evidence procedure); otherwise a finite positive number."""
    if text.strip().lower() == "auto":
        return None
    try:
        val = float(text)
    except ValueError:
        raise ValidationError(f"--alpha must be 'auto' or a number, got {text!r}")
    if not (math.isfinite(val) and val > 0):
        raise ValidationError(f"--alpha must be finite and positive, got {text!r}")
    return val


def _dispatch(args) -> tuple[RunConfig, dict]:
    if args.command == "demo":
        extra = {}
        if args.which == "wolf":
            result = run_wolf()
        elif args.which == "qubit":
            extra = {"tilt_deg": args.tilt_deg, "r": args.r, "n": args.n}
            result = run_qubit(r=args.r, tilt_deg=args.tilt_deg, n=args.n)
        else:
            result = run_thermal()
        config = RunConfig(command=f"demo {args.which}", out_format=args.format, extra=extra)
        return config, result

    ds = _load_dataset(args)
    inputs = tuple(p for p in (args.data, args.observables) if p)

    if args.command == "project":
        level = resolve_level(ds, args.level)
        fit = project(level, ds.data.means_for(level))
        result = {"fit": model_summary(fit)}
        if ds.data.level.n_params > level.n_params:
            rep = level_significance(ds.data, level, sig_level=args.sig_level)
            result["residual"] = significance_summary(rep)
        config = RunConfig(command="project", inputs=inputs, level=args.level,
                           sig_level=args.sig_level, out_format=args.format)
        return config, result

    if args.command == "significance":
        level = resolve_level(ds, args.level)
        rep = level_significance(ds.data, level, sig_level=args.sig_level)
        config = RunConfig(command="significance", inputs=inputs,
                           level=args.level, sig_level=args.sig_level,
                           out_format=args.format)
        return config, {"significance": significance_summary(rep)}

    if args.command == "estimate":
        level = resolve_level(ds, args.level)
        prior = EntropicPrior(level=level, alpha=_parse_alpha(args.alpha))
        post = posterior_estimate(ds.data, prior)
        result = {}
        if post.evidence is not None:
            result["evidence"] = alpha_summary(post.evidence)
        result["posterior"] = posterior_summary(post)
        config = RunConfig(command="estimate", inputs=inputs, level=args.level,
                           alpha_policy=args.alpha, out_format=args.format)
        return config, result

    if args.command == "compare":
        coarse = resolve_level(ds, args.coarse)
        fine = resolve_level(ds, args.fine)
        alpha = _parse_alpha(args.alpha)
        rep = compare_levels(coarse, fine, ds.data,
                             alpha="evidence" if alpha is None else alpha,
                             prior_odds=args.prior_odds)
        config = RunConfig(command="compare", inputs=inputs,
                           coarse=args.coarse, fine=args.fine,
                           alpha_policy=args.alpha, prior_odds=args.prior_odds,
                           out_format=args.format)
        return config, {"comparison": comparison_summary(rep)}

    raise ValidationError(f"unknown command {args.command!r}")


def _emit(report: Report, args) -> None:
    if args.format == "json":
        text = report.to_json() + "\n"
    else:
        text = render_table(report)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def run(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        _configure_logging()
        config, result = _dispatch(args)
        _emit(Report.build(config, result), args)
    except (DataFormatError, ValidationError, EvidenceNotApplicableError,
            OSError) as exc:
        print(f"gibbsfit: error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (InfeasibleTargetError, NotConvergedError) as exc:
        print(f"gibbsfit: solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    return EXIT_OK


def main() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    main()
