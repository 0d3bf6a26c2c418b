"""Machine-speed probe for the timed runs.

On a small shared host the speed of the whole machine drifts.  Over
minutes the same analysis ran anywhere between 0.58 and 1.13 s, in states
that last longer than a run, so a median over one run cannot average them
out.  The probe is a fixed task that runs no gibbsfit code: a pure-Python
loop, many 6 x 6 complex eigendecompositions (as in the quantum
covariance loop) and 64 x 64 complex products (as in the classical
levels).  The timed loop runs it right before every analysis, and each
analysis's time is reported at a reference machine speed:

    scaled = wall * PROBE_REF_S / probe

where probe is the median of the last WINDOW probe times.  That is the
time the analysis would have taken had the machine run the probe in
PROBE_REF_S at that moment.  A change to gibbsfit cannot move the
probe, so a change that speeds an analysis up by a factor shows the same
factor in the scaled time.  The raw wall-clock medians are printed beside
the metrics.
"""

from __future__ import annotations

import time

import numpy as np

# About the median probe time on the tuning host (2-core Intel Xeon, BLAS
# at one thread).  Any constant would do; this one keeps the scaled times
# close to that host's wall times.
PROBE_REF_S = 0.040
# An analysis is scaled by the median of this many most recent probes.
# On a five-minute record of quantum-full analyses this cut the spread of
# 30 s medians from 0.073 (the last probe alone) to 0.050 (raw: 0.21);
# longer windows lag the drift.
WINDOW = 3


def probe() -> float:
    """Run the fixed task once and return its wall time in seconds.  The
    arrays are made afresh on every call, so their placement in memory
    does not bias one process's probes."""
    rng = np.random.default_rng(0)
    t0 = time.perf_counter()
    s = 0
    for i in range(100_000):  # interpreter
        s += i * i % 7
    small = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    small = small @ small.conj().T
    for _ in range(300):  # many small numpy calls
        w, v = np.linalg.eigh(small)
        (v * np.exp(w)) @ v.conj().T
    big = rng.normal(size=(64, 64)) + 1j * rng.normal(size=(64, 64))
    for k in range(63):  # dense 64 x 64 complex algebra
        (big + k) @ big
    for _ in range(10):
        np.linalg.eigh(big @ big.conj().T)
    return time.perf_counter() - t0


def scale(probe_s: float) -> float:
    """Factor that takes a wall time measured next to ``probe_s`` to the
    reference speed."""
    return PROBE_REF_S / probe_s
