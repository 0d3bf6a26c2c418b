"""Command-line front end: load a dataset (`dataio.load`, whose digests of
the bytes parsed go to the report), run one pipeline stage, emit a report
as an aligned table or as JSON.

Exit codes: 0 success, 2 data or validation problems (including evidence
weighting that does not apply), 3 solver non-convergence.  An argparse
usage error (an unknown command or option, a missing or malformed value)
also exits 2: `run` raises SystemExit(2) for it rather than returning.
The package log level is set with GIBBSFIT_LOG (error, warn, info, debug).
"""

from __future__ import annotations

import argparse
import functools
import logging
import math
import os
import sys
from dataclasses import asdict

from .dataio import load, resolve_level
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
    fit_significance,
    level_significance,
    posterior_estimate,
)
from .report import (
    Report,
    comparison_summary,
    model_summary,
    posterior_summary,
    render_table,
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


def _sig_level(text: str) -> float:
    """The --sig-level tail probability, refused as a usage error unless it
    lies in (0, 1): a fit with no finer data never reads it."""
    val = float(text)
    if not 0.0 < val < 1.0:
        raise argparse.ArgumentTypeError(f"must lie in (0, 1), got {text!r}")
    return val


def _project(args, ds) -> dict:
    level = resolve_level(ds, args.level)
    fit = project(level, ds.data.means_for(level))
    result = {"fit": model_summary(fit)}
    if ds.data.level.n_params > level.n_params:
        result["residual"] = asdict(fit_significance(ds.data, fit, sig_level=args.sig_level))
    return result


def _significance(args, ds) -> dict:
    level = resolve_level(ds, args.level)
    return {"significance": asdict(
        level_significance(ds.data, level, sig_level=args.sig_level))}


def _estimate(args, ds) -> dict:
    prior = EntropicPrior(level=resolve_level(ds, args.level),
                          alpha=_parse_alpha(args.alpha_policy))
    post = posterior_estimate(ds.data, prior)
    evidence = {} if post.evidence is None else {"evidence": asdict(post.evidence)}
    return {**evidence, "posterior": posterior_summary(post)}


def _compare(args, ds) -> dict:
    coarse, fine = resolve_level(ds, args.coarse), resolve_level(ds, args.fine)
    alpha = _parse_alpha(args.alpha_policy)
    rep = compare_levels(coarse, fine, ds.data,
                         alpha="evidence" if alpha is None else alpha,
                         prior_odds=args.prior_odds)
    return {"comparison": comparison_summary(rep)}


def build_parser() -> argparse.ArgumentParser:
    """One subparser per command and per demo, each holding its handler:
    the function that turns the parsed options, and the loaded dataset of
    a data command (None for a demo), into a result tree."""
    ap = argparse.ArgumentParser(
        prog="gibbsfit",
        description="Fit, weigh and compare Gibbs-manifold descriptions of "
                    "small classical and quantum datasets.")
    sub = ap.add_subparsers(dest="command", required=True, metavar="command")

    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--format", choices=("table", "json"), default="table",
                        help="report format (default: table)")
    output.add_argument("--out", metavar="PATH",
                        help="write the report to a file instead of stdout")
    data = argparse.ArgumentParser(add_help=False)
    data.add_argument("--data", required=True, metavar="PATH",
                      help="counts CSV (classical) or dataset JSON (quantum)")
    data.add_argument("--observables", metavar="PATH",
                      help="observable table CSV, classical data only")

    p = sub.add_parser("project", parents=[data, output],
                       help="fit a level of description to the data")
    p.add_argument("--level", default="full",
                   help="target level: a named level or comma-separated "
                        "observable names (default: full)")
    p.add_argument("--sig-level", type=_sig_level, default=DEFAULT_SIG_LEVEL,
                   help="tail probability threshold for the residual check")
    p.set_defaults(handler=_project)

    p = sub.add_parser("significance", parents=[data, output],
                       help="significance of the deviation from a fitted level")
    p.add_argument("--level", default="O",
                   help="fitted level (default: O, the bare reference)")
    p.add_argument("--sig-level", type=_sig_level, default=DEFAULT_SIG_LEVEL,
                   help="tail probability below which the deviation counts "
                        "as significant (default: 1e-3)")
    p.set_defaults(handler=_significance)

    p = sub.add_parser("estimate", parents=[data, output],
                       help="posterior state estimate with evidence weighting")
    p.add_argument("--level", default="full",
                   help="prior (model) level (default: full)")
    p.add_argument("--alpha", dest="alpha_policy", default="auto", metavar="auto|VALUE",
                   help="prior weight: 'auto' runs the evidence procedure, "
                        "a number pins it")
    p.set_defaults(handler=_estimate)

    p = sub.add_parser("compare", parents=[data, output],
                       help="model selection between two nested levels")
    p.add_argument("--coarse", required=True, help="coarse candidate level")
    p.add_argument("--fine", required=True, help="fine candidate level")
    p.add_argument("--alpha", dest="alpha_policy", default="auto", metavar="auto|VALUE",
                   help="prior weight for the posterior odds (default: auto)")
    p.add_argument("--prior-odds", type=float, default=1.0,
                   help="prior probability ratio coarse:fine (default: 1)")
    p.set_defaults(handler=_compare)

    demo = sub.add_parser("demo", help="run a built-in worked example")
    demos = demo.add_subparsers(dest="which", required=True, metavar="which")
    p = demos.add_parser("wolf", parents=[output], help="a die from 20000 throws")
    p.set_defaults(handler=lambda args, ds: run_wolf())
    p = demos.add_parser("qubit", parents=[output], help="a tilted spin")
    p.add_argument("--tilt-deg", type=float, default=3.0,
                   help="tilt angle in degrees (default: 3)")
    p.add_argument("--r", type=float, default=0.73, help="Bloch radius (default: 0.73)")
    p.add_argument("--n", type=float, default=20000,
                   help="number of shots (default: 20000)")
    p.set_defaults(handler=lambda args, ds: run_qubit(r=args.r, tilt_deg=args.tilt_deg, n=args.n))
    p = demos.add_parser("thermal", parents=[output], help="a thermal ladder")
    p.set_defaults(handler=lambda args, ds: run_thermal())
    return ap


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser `run` uses, built once per process: parse_args keeps no
    state between calls, so one parser serves every command."""
    return build_parser()


# parsed values the config block leaves out: the command and handler, and
# the paths, which it echoes as `inputs` or not at all
_NOT_ECHOED = frozenset({"command", "which", "handler", "data", "observables", "out"})


def _config(args) -> dict:
    """Echo of one invocation: the command, its input files and every
    other option its parser declares, as parsed."""
    parsed = vars(args)
    config = {"command": " ".join(filter(None, (parsed["command"], parsed.get("which"))))}
    if "data" in parsed:
        config["inputs"] = tuple(filter(None, (parsed["data"], parsed["observables"])))
    config.update((key, val) for key, val in parsed.items() if key not in _NOT_ECHOED)
    return config


def _emit(report: Report, args) -> None:
    text = report.to_json() + "\n" if args.format == "json" else render_table(report)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def run(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        _configure_logging()
        ds, inputs = load(args.data, args.observables) if "data" in vars(args) else (None, {})
        _emit(Report.build(_config(args), args.handler(args, ds), inputs), args)
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
