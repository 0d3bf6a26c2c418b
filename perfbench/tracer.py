"""Span tracing of gibbsfit's layers from outside the program.

``Tracer.install`` rebinds each public function of the package, at every
module where that function object is bound (its home module, every module
that imported it by name, and the package namespace), to a wrapper that
records one span per call.  Public classmethods and methods that do real
work are wrapped on their class.  Nothing in the package source changes,
and ``uninstall`` restores every binding; timed runs never install it.

A span is (name, start, end, parent span, analysis id).  Spans stay in
memory and are written out when the run ends.  A span's self time is its
duration minus the time its child spans cover; a layer's self time is the
sum over its spans.  The layer is the first dotted component of the span
name, which is the package module the function lives in.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import statistics
import sys
import time
from collections import defaultdict

LAYERS = ("cli", "dataio", "levels", "gibbs", "inference", "state_space",
          "report", "demos")

# Accounting check: a command's cli.run span must last at least this share
# of the runner's timing of it, and the spans must leave at most this share
# of the analysis uncovered.  The runner's own overhead around a command is
# microseconds; the slack absorbs a rare preemption between the two clocks.
SPAN_MIN_SHARE = 0.9
UNCOVERED_MAX_SHARE = 0.05


def public_functions(module) -> list[str]:
    """The plain functions a package module exports in ``__all__``.
    Private helpers (_eval, _embedding, ...) are not wrapped: their time
    belongs to the public caller."""
    return [n for n in module.__all__ if inspect.isfunction(getattr(module, n))]


# (module, class, attribute): constructors and methods called across layers.
METHODS = (
    ("state_space", "HermitianOperator", "from_matrix"),
    ("state_space", "HermitianOperator", "from_diagonal"),
    ("state_space", "DensityOperator", "quantum"),
    ("state_space", "DensityOperator", "classical"),
    ("gibbs", "GibbsModel", "generator_expectations"),
    ("gibbs", "GibbsModel", "generator_multipliers"),
    ("inference", "ExperimentData", "__init__"),
    ("inference", "ExperimentData", "from_counts"),
    ("inference", "ExperimentData", "means_for"),
    ("inference", "ExperimentData", "basis_means"),
    ("report", "Report", "build"),
    ("report", "Report", "to_json"),
)


def basis_bytes(level) -> int:
    """Computed bytes held by a level's basis arrays (matrix and, where
    present, diagonal of every basis operator)."""
    total = 0
    for op in level.basis:
        total += op.matrix.nbytes
        if op.diagonal is not None:
            total += op.diagonal.nbytes
    return total


# Result hooks: counters read from what a wrapped call returns.
RESULT_COUNTERS = {
    "levels.make_level": ("levels.basis_bytes", basis_bytes),
    "report.Report.to_json": ("report.bytes_out", lambda text: len(text.encode())),
}


class Tracer:
    """In-memory span store plus the install/uninstall of the wrappers."""

    def __init__(self):
        self.names: list[str] = []
        self.span_name: list[int] = []
        self.span_start: list[float] = []
        self.span_end: list[float] = []
        self.span_parent: list[int] = []
        self.span_analysis: list[int] = []
        self.stack: list[int] = []
        self.analysis = -1
        self.counters: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self._sites: list[tuple] = []
        self._installed = False

    # -- recording -----------------------------------------------------

    def _wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        hook = RESULT_COUNTERS.get(name)
        span_name, span_start, span_end = self.span_name, self.span_start, self.span_end
        span_parent, span_analysis, stack = self.span_parent, self.span_analysis, self.stack
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(span_name)
            span_name.append(nid)
            span_parent.append(stack[-1] if stack else -1)
            span_analysis.append(tracer.analysis)
            span_start.append(0.0)
            span_end.append(0.0)
            stack.append(i)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                span_start[i] = t0
                span_end[i] = t1
            if hook is not None:
                tracer.counters[tracer.analysis][hook[0]] += hook[1](result)
            return result

        return wrapper

    def _binding_sites(self) -> list[tuple]:
        """(object, attribute, original, wrapper) for every place a listed
        function or method is bound; the wrappers are made once."""
        for layer in LAYERS:
            importlib.import_module(f"gibbsfit.{layer}")
        mods = [m for n, m in list(sys.modules.items())
                if m is not None and (n == "gibbsfit" or n.startswith("gibbsfit."))]
        sites = []
        for layer in LAYERS:
            home = sys.modules[f"gibbsfit.{layer}"]
            for fname in public_functions(home):
                fn = getattr(home, fname)
                wrapper = self._wrap(f"{layer}.{fname}", fn)
                sites += [(mod, attr, fn, wrapper) for mod in mods
                          for attr, val in vars(mod).items() if val is fn]
        for layer, cname, attr in METHODS:
            cls = getattr(sys.modules[f"gibbsfit.{layer}"], cname)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                new = classmethod(self._wrap(f"{layer}.{cname}.{attr}", raw.__func__))
            else:
                new = self._wrap(f"{layer}.{cname}.{attr}", raw)
            sites.append((cls, attr, raw, new))
        return sites

    def install(self) -> None:
        """Rebind every listed function at each module that holds it."""
        if self._installed:
            raise RuntimeError("tracer already installed")
        if not self._sites:
            self._sites = self._binding_sites()
        for obj, attr, _, wrapper in self._sites:
            setattr(obj, attr, wrapper)
        self._installed = True

    def uninstall(self) -> None:
        for obj, attr, original, _ in reversed(self._sites):
            setattr(obj, attr, original)
        self._installed = False

    # -- accounting ----------------------------------------------------

    def spans_of(self, analysis: int) -> list[int]:
        return [i for i, a in enumerate(self.span_analysis) if a == analysis]

    def self_times(self, idx: list[int]) -> dict[int, float]:
        """Self time of each span: duration minus its children's durations."""
        child = defaultdict(float)
        for i in idx:
            p = self.span_parent[i]
            if p >= 0:
                child[p] += self.span_end[i] - self.span_start[i]
        return {i: self.span_end[i] - self.span_start[i] - child[i] for i in idx}

    def analysis_summary(self, analysis: int, wall: float, commands: list) -> dict:
        """Per-layer and per-function calls and self time of one analysis,
        the uncovered remainder, and the accounting check.

        ``commands`` holds the runner's own (kind, start, end) clock
        readings of each CLI command.  Layer self times always sum to the
        time the top-level spans cover, so the check compares those spans
        with the runner's clock instead: every command must be one
        top-level ``cli.run`` span lasting (nearly) as long as the runner
        measured, and the remainder no span covers must stay small."""
        idx = self.spans_of(analysis)
        selfs = self.self_times(idx)
        by_fn_self: dict[str, float] = defaultdict(float)
        by_fn_calls: dict[str, int] = defaultdict(int)
        by_layer: dict[str, float] = {layer: 0.0 for layer in LAYERS}
        for i in idx:
            name = self.names[self.span_name[i]]
            by_fn_self[name] += selfs[i]
            by_fn_calls[name] += 1
            by_layer[name.split(".", 1)[0]] += selfs[i]
        top = sorted((i for i in idx if self.span_parent[i] < 0),
                     key=lambda i: self.span_start[i])
        uncovered = wall - sum(self.span_end[i] - self.span_start[i] for i in top)
        errors = []
        names = [self.names[self.span_name[i]] for i in top]
        if names != ["cli.run"] * len(commands):
            errors.append(f"{len(commands)} commands but top-level spans {names[:8]}")
        else:
            for i, (kind, t0, t1) in zip(top, commands):
                span = self.span_end[i] - self.span_start[i]
                if not (t0 <= self.span_start[i] and self.span_end[i] <= t1
                        and span >= SPAN_MIN_SHARE * (t1 - t0) - 1e-3):
                    errors.append(f"{kind}: cli.run span {span:.6f} s does not match "
                                  f"the command's {t1 - t0:.6f} s")
        if uncovered > UNCOVERED_MAX_SHARE * wall:
            errors.append(f"spans leave {uncovered:.6f} s of {wall:.6f} s uncovered")
        return {"wall_s": wall, "uncovered_s": uncovered, "layers": by_layer,
                "fn_self": dict(by_fn_self), "fn_calls": dict(by_fn_calls),
                "counters": dict(self.counters.get(analysis, {})),
                "errors": errors}

    def dump(self, path, env: dict) -> None:
        """Write every span as [name, start, end, parent, analysis]."""
        doc = {"env": env, "names": self.names,
               "fields": ["name", "start_s", "end_s", "parent", "analysis"],
               "spans": [[self.span_name[i], round(self.span_start[i], 9),
                          round(self.span_end[i], 9), self.span_parent[i],
                          self.span_analysis[i]] for i in range(len(self.span_name))]}
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def layer_metrics(summaries: list[dict]) -> dict[str, float]:
    """Per-layer metrics: per analysis, median over analyses."""
    def med(fn):
        return float(statistics.median(fn(s) for s in summaries))

    m: dict[str, float] = {}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = med(lambda s: s["layers"][layer])
    m["levels.share"] = med(lambda s: s["layers"]["levels"] / s["wall_s"])
    m["gibbs.share"] = med(lambda s: s["layers"]["gibbs"] / s["wall_s"])
    for fn in ("levels.make_level", "gibbs.project", "gibbs.project_state",
               "state_space.kmb_inner", "state_space.expectation"):
        m[f"{fn}.calls"] = med(lambda s: s["fn_calls"].get(fn, 0))
    for fn in ("levels.make_level", "levels.intersection", "levels.complement",
               "levels.is_sublevel", "gibbs.project", "gibbs.gibbs_state",
               "state_space.kmb_inner", "state_space.relative_entropy",
               "inference.level_significance", "inference.estimate_alpha",
               "inference.posterior_estimate", "inference.compare_levels",
               "dataio.load_classical", "dataio.load_quantum",
               "dataio.resolve_level"):
        m[f"{fn}.self_s"] = med(lambda s: s["fn_self"].get(fn, 0.0))
    m["report.build.self_s"] = med(lambda s: s["fn_self"].get("report.Report.build", 0.0))
    m["report.to_json.self_s"] = med(lambda s: s["fn_self"].get("report.Report.to_json", 0.0))
    m["levels.basis_bytes"] = med(lambda s: s["counters"].get("levels.basis_bytes", 0))
    m["report.bytes_out"] = med(lambda s: s["counters"].get("report.bytes_out", 0))
    m["trace.uncovered_s"] = med(lambda s: s["uncovered_s"])
    return m
