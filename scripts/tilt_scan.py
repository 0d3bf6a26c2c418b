#!/usr/bin/env python3
"""Sweep the tilt angle of a spin state and watch the level-selection verdict.

A Bloch vector of radius r tilted off the z axis is handed to the model
comparison as exact sample means, so the per-parameter rate reflects the
systematic tilt alone.  The scan prints the rate from the closed-form
metric and from the exact relative-entropy route next to the decision
band, then locates the angle where the exact rate crosses ln N.
"""

import argparse

import numpy as np
from scipy.optimize import brentq

from gibbsfit import (
    ExperimentData,
    compare_levels,
    make_level,
    pauli_level,
    pauli_z,
    uniform_state,
)


def tilt_rates(r: float, tilt_deg: float, n: float):
    tau = np.deg2rad(tilt_deg)
    sigma = uniform_state(2)
    fine = pauli_level(sigma)
    coarse = make_level([pauli_z()], sigma, label="z-only")
    means = np.array([r * np.sin(tau), 0.0, r * np.cos(tau)])
    data = ExperimentData(level=fine, means=means, n=n)
    cmp_ = compare_levels(coarse, fine, data, alpha=None)
    rate_metric = n * r * np.arctanh(r) * tau * tau / cmp_.s
    return rate_metric, cmp_.chi2_exact / cmp_.s, cmp_


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--r", type=float, default=0.73, help="Bloch radius")
    ap.add_argument("--n", type=float, default=20000, help="shot count")
    ap.add_argument("--min-deg", type=float, default=0.5)
    ap.add_argument("--max-deg", type=float, default=4.0)
    ap.add_argument("--steps", type=int, default=8)
    args = ap.parse_args()

    ln_n = np.log(args.n)
    lo, hi = tilt_rates(args.r, args.min_deg, args.n)[2].band
    print(f"r = {args.r}, N = {args.n:g}, "
          f"decision band [{lo:.3f}, {hi:.3f}] around ln N = {ln_n:.3f}")
    print(f"{'tilt[deg]':>10} {'rate(metric)':>13} {'rate(exact)':>12} verdict")
    for tilt in np.linspace(args.min_deg, args.max_deg, args.steps):
        rm, re_, cmp_ = tilt_rates(args.r, tilt, args.n)
        print(f"{tilt:>10.3f} {rm:>13.4f} {re_:>12.4f} {cmp_.verdict}")

    def gap(deg: float) -> float:
        return tilt_rates(args.r, deg, args.n)[1] - ln_n

    if gap(args.min_deg) * gap(args.max_deg) < 0:
        cross = brentq(gap, args.min_deg, args.max_deg, xtol=1e-9)
        print(f"exact rate meets ln N at {cross:.4f} deg")
    else:
        print("exact rate does not cross ln N inside the scanned range")


if __name__ == "__main__":
    main()
