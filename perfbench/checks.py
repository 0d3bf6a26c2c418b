"""Correctness checks on every JSON report, made from the benchmark's own
generated data (never from the program's intermediate results).

Each check returns a list of failure messages; an empty list passes.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import gammaincc

from .workloads import Command, Dataset

VERDICT_REFINE = "Refine"
VERDICT_KEEP = "KeepCoarse"
VERDICT_INCONCLUSIVE = "Inconclusive"


def _close(a, b, rtol=1e-9, atol=1e-12) -> bool:
    return a is not None and b is not None and abs(a - b) <= atol + rtol * abs(b)


def _vec(ds: Dataset, name: str) -> np.ndarray:
    """Real coordinates of an observable (quantum: real and imaginary parts)."""
    g = np.asarray(ds.gens[name])
    if g.ndim == 1:
        return g.astype(float)
    return np.concatenate([g.real.ravel(), g.imag.ravel()])


def level_names(ds: Dataset, spec) -> list[str]:
    """Observable names behind a level spec; "full" is the measured level."""
    if isinstance(spec, tuple):
        return list(spec)
    if spec == "O":
        return []
    if spec == "full":
        if ds.kind == "classical":
            return [f"#{i}" for i in range(ds.dim)]
        return list(ds.gens)
    return list(ds.levels[spec])


def _indicator_or_gen(ds: Dataset, name: str) -> np.ndarray:
    if name.startswith("#"):
        return np.eye(ds.dim)[int(name[1:])]
    return _vec(ds, name)


def retained(ds: Dataset, names: list[str]) -> list[str]:
    """Generators kept after dropping those in the span of the identity and
    the earlier ones (same rule as the program, computed independently)."""
    if ds.kind == "classical":
        ident = np.ones(ds.dim)
    else:
        eye = np.eye(ds.dim)
        ident = np.concatenate([eye.ravel(), np.zeros(ds.dim * ds.dim)])
    rows = [ident]
    kept = []
    for name in names:
        cand = np.array(rows + [_indicator_or_gen(ds, name)])
        if np.linalg.matrix_rank(cand, tol=1e-9 * max(1.0, np.abs(cand).max())) == len(cand):
            rows.append(cand[-1])
            kept.append(name)
    return kept


def sample_mean(ds: Dataset, name: str) -> float:
    if name.startswith("#"):
        return float(ds.freq[int(name[1:])])
    return ds.means[name]


def evidence_chi2(ds: Dataset) -> float:
    """Deviation of the data from the reference in the reference metric,
    over the full measured level: Pearson's statistic classically, and
    N d tr((rho - 1/d)^2) for the complete quantum basis at 1/d."""
    if ds.kind == "classical":
        return float(ds.n * np.sum((ds.freq - ds.reference) ** 2 / ds.reference))
    delta = ds.rho - ds.reference
    return float(ds.n * ds.dim * np.real(np.trace(delta @ delta)))


def n_params(ds: Dataset, spec) -> int:
    return len(retained(ds, level_names(ds, spec)))


# -- generic checks (any report, any workload) -------------------------


def check_model(model: dict, where: str, ds: Dataset | None, spec=None) -> list[str]:
    errs = []
    probs = model.get("probabilities")
    if probs is not None:
        p = np.asarray(probs, float)
        if not _close(float(p.sum()), 1.0, rtol=0, atol=1e-9):
            errs.append(f"{where}: probabilities sum to {p.sum()!r}")
        if p.min() <= 0:
            errs.append(f"{where}: nonpositive probability")
        if ds is not None and spec is not None and ds.kind == "classical" and p.min() > 0:
            # log(p / sigma) must be affine in the level's observables
            names = level_names(ds, spec)
            design = np.column_stack([np.ones(ds.dim)] +
                                     [_indicator_or_gen(ds, n) for n in names])
            logr = np.log(p) - np.log(ds.reference)
            coef, *_ = np.linalg.lstsq(design, logr, rcond=None)
            resid = float(np.max(np.abs(design @ coef - logr)))
            if resid > 1e-8 * max(1.0, float(np.max(np.abs(logr)))):
                errs.append(f"{where}: log(p/sigma) not affine in the level "
                            f"observables (residual {resid:.3e})")
    return errs


def check_fit_means(model: dict, where: str, ds: Dataset, spec) -> list[str]:
    """A projection's generator means equal the sample means of its level."""
    names = retained(ds, level_names(ds, spec))
    got = model.get("generator_means", [])
    if len(got) != len(names) or model.get("n_params") != len(names):
        return [f"{where}: {len(got)} generator means for {len(names)} generators"]
    want = [sample_mean(ds, n) for n in names]
    bad = [(n, g, w) for n, g, w in zip(names, got, want) if abs(g - w) > 1e-8 * (1 + abs(w))]
    return [f"{where}: generator mean of {n} is {g!r}, data say {w!r}" for n, g, w in bad]


def check_significance(sig: dict, where: str, ds: Dataset | None, dof=None) -> list[str]:
    errs = []
    stat, k, n = sig["statistic"], sig["dof"], sig["n"]
    if stat < 0:
        errs.append(f"{where}: negative statistic {stat!r}")
    if dof is not None and k != dof:
        errs.append(f"{where}: dof {k} != {dof}")
    if ds is not None and n != ds.n:
        errs.append(f"{where}: n {n!r} != {ds.n!r}")
    if not _close(sig["entropy_scale"], stat / (2.0 * n)):
        errs.append(f"{where}: entropy_scale != statistic / 2N")
    pval = sig["pvalue"]
    if pval > 1e-290:
        want = float(gammaincc(0.5 * k, 0.5 * stat))
        if not _close(pval, want, rtol=1e-6, atol=1e-300):
            errs.append(f"{where}: pvalue {pval!r} != chi-square tail {want!r}")
        if not _close(sig["log10_pvalue"], math.log10(pval), rtol=1e-9, atol=1e-9):
            errs.append(f"{where}: log10_pvalue disagrees with pvalue")
    if sig["significant"] != (10.0 ** sig["log10_pvalue"] < sig["sig_level"]):
        errs.append(f"{where}: 'significant' disagrees with pvalue and sig_level")
    return errs


def check_comparison(cmp: dict, where: str) -> list[str]:
    errs = []
    n = cmp["n"]
    if not _close(cmp["chi2_exact"], 2.0 * n * cmp["rel_entropy"]):
        errs.append(f"{where}: chi2_exact != 2 N rel_entropy")
    if not _close(cmp["ln_n"], math.log(n)):
        errs.append(f"{where}: ln_n != ln N")
    if not _close(cmp["per_param"], cmp["chi2_gain"] / cmp["extra_params"]):
        errs.append(f"{where}: per_param != chi2_gain / extra_params")
    lo, hi, rate = cmp["band_low"], cmp["band_high"], cmp["per_param"]
    if not (_close(lo, cmp["ln_n"] / math.sqrt(2)) and _close(hi, cmp["ln_n"] * math.sqrt(2))):
        errs.append(f"{where}: band is not [ln N / sqrt 2, sqrt 2 ln N]")
    want = (VERDICT_REFINE if rate > hi else VERDICT_KEEP if rate < lo
            else VERDICT_INCONCLUSIVE)
    if cmp["verdict"] != want:
        errs.append(f"{where}: verdict {cmp['verdict']!r} but per_param {rate:.6g} "
                    f"against band [{lo:.6g}, {hi:.6g}] says {want!r}")
    return errs


def _walk(tree, path=""):
    if isinstance(tree, dict):
        yield path, tree
        for key, val in tree.items():
            yield from _walk(val, f"{path}.{key}" if path else key)


def generic_checks(report: dict) -> list[str]:
    """Internal consistency of every model, significance and comparison
    summary anywhere in a report."""
    errs = []
    for where, node in _walk(report.get("result", {})):
        if "probabilities" in node:
            errs += check_model(node, where, None)
        if "chi2_exact" in node and "verdict" in node:
            errs += check_comparison(node, where)
        if "statistic" in node and "pvalue" in node:
            errs += check_significance(node, where, None)
    return errs


# -- checks against the generated data ---------------------------------


def check_report(report: dict, cmd: Command, ds: Dataset) -> list[str]:
    """Every check that applies to this command's report."""
    want_cmd = f"demo {cmd.demo}" if cmd.kind == "demo" else cmd.kind
    if report.get("format_version") != 1 or report.get("command") != want_cmd:
        return [f"report header: expected command {want_cmd!r}, "
                f"got {report.get('command')!r}"]
    errs = generic_checks(report)
    res = report["result"]
    data_params = n_params(ds, "full")
    try:
        if cmd.kind == "significance":
            errs += check_significance(res["significance"], "significance", ds,
                                       data_params - n_params(ds, cmd.level))
            errs += _bound_by_reference(res["significance"], ds, cmd.level)
        elif cmd.kind == "project":
            errs += check_fit_means(res["fit"], "fit", ds, cmd.level)
            errs += check_model(res["fit"], "fit", ds, cmd.level)
            errs += check_significance(res["residual"], "residual", ds,
                                       data_params - n_params(ds, cmd.level))
        elif cmd.kind == "estimate":
            errs += _check_estimate(res, ds, cmd.level, data_params)
        elif cmd.kind == "compare":
            cmp = res["comparison"]
            extra = n_params(ds, cmd.fine) - n_params(ds, cmd.coarse)
            if cmp["extra_params"] != extra or cmp["n"] != ds.n:
                errs.append(f"comparison: extra_params {cmp['extra_params']} != {extra} "
                            f"or n {cmp['n']!r} != {ds.n!r}")
            errs += _check_alpha(cmp["alpha"], ds, data_params, "comparison")
        elif cmd.demo == "qubit":
            if not _close(res["config"]["tilt_deg"], ds.tilt_deg):
                errs.append("demo qubit: tilt_deg differs from the request")
    except (KeyError, TypeError) as exc:
        errs.append(f"{cmd.kind}: report lacks an expected field ({exc!r})")
    return errs


def _bound_by_reference(sig: dict, ds: Dataset, spec) -> list[str]:
    """2N S(f || fit) <= 2N S(f || sigma), with equality for the bare level."""
    if sig["kind"] != "entropy":
        return []
    full = 2.0 * ds.n * float(ds.freq @ (np.log(ds.freq) - np.log(ds.reference)))
    if spec == "O":
        ok = _close(sig["statistic"], full, rtol=1e-9)
    else:
        ok = sig["statistic"] <= full * (1 + 1e-12)
    return [] if ok else [f"significance: statistic {sig['statistic']!r} vs "
                          f"2N S(f||sigma) = {full!r}"]


def _check_alpha(alpha, ds: Dataset, dof: int, where: str) -> list[str]:
    chi2 = evidence_chi2(ds)
    t = dof / chi2
    want = ds.n * t / (1.0 - t)
    if not _close(alpha, want, rtol=1e-7):
        return [f"{where}: alpha {alpha!r}, evidence from the data gives {want!r}"]
    return []


def _check_estimate(res: dict, ds: Dataset, spec, dof: int) -> list[str]:
    errs = []
    ev, post = res["evidence"], res["posterior"]
    chi2 = evidence_chi2(ds)
    if ev["dof"] != dof or not _close(ev["chi2"], chi2, rtol=1e-7):
        errs.append(f"evidence: chi2 {ev['chi2']!r} / dof {ev['dof']} but the data "
                    f"give {chi2!r} / {dof}")
    if not _close(ev["t"], dof / chi2, rtol=1e-7):
        errs.append("evidence: t != dof / chi2")
    errs += _check_alpha(ev["alpha"], ds, dof, "evidence")
    if post["alpha_source"] != "evidence" or not _close(post["alpha"], ev["alpha"]):
        errs.append("posterior: alpha is not the evidence alpha")
    if not _close(post["t"], post["alpha"] / (post["alpha"] + ds.n)):
        errs.append("posterior: t != alpha / (alpha + N)")
    cov = np.asarray(post["cov_measured"], float)
    if cov.size and (not np.allclose(cov, cov.T, rtol=0, atol=1e-12)
                     or np.min(np.diag(cov)) <= 0):
        errs.append("posterior: cov_measured is not a covariance matrix")
    errs += check_model(post["estimate"], "posterior.estimate", ds, spec)
    return errs


# -- golden reports ----------------------------------------------------


def compare_golden(got, want, path="result", rtol=1e-7, atol=1e-9) -> list[str]:
    """Structural equality with numeric tolerance; strings and flags exact."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return [f"{path}: keys differ from the golden report"]
        return [e for k in want for e in compare_golden(got[k], want[k], f"{path}.{k}",
                                                         rtol, atol)]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{path}: length differs from the golden report"]
        return [e for i, (g, w) in enumerate(zip(got, want))
                for e in compare_golden(g, w, f"{path}[{i}]", rtol, atol)]
    if isinstance(want, bool) or want is None or isinstance(want, str):
        return [] if got == want else [f"{path}: {got!r} != golden {want!r}"]
    if isinstance(got, bool) or not isinstance(got, (int, float)):
        return [f"{path}: {got!r} is not a number"]
    if not _close(float(got), float(want), rtol, atol):
        return [f"{path}: {got!r} != golden {want!r}"]
    return []
