"""Host speed probe, to scale every timing the benchmark reports.

On a shared 2-core host the CPU a process runs on drifts between a fast
and a slow state, about 1.5x apart, for fractions of a second to minutes
at a time, and each CPU drifts on its own.  The minimum over a run's
samples cannot remove a slow state that covers the whole run.  So
``run.py`` pins itself and its children to one CPU and times this fixed
probe just before and just after each timed child or decide burst.  A
timing is reported as ``wall * NOMINAL_S / probe``, with ``probe`` the
mean of the two readings: seconds at the speed where the probe takes
``NOMINAL_S``.  The probe is benchmark code, independent of the program
under test, so a change to the program does not move it.
"""

from __future__ import annotations

import time

import numpy as np

NOMINAL_S = 0.1  # the probe's time on an idle 2-core host at the fast state
_REPEATS = 1000
_SPD = (lambda a: a @ a.T + 48 * np.eye(48))(np.random.default_rng(0).normal(size=(48, 48)))
# Parsing a line of floats: the program's other main cost, TSV input.
_LINE = " ".join(repr(float(v)) for v in np.random.default_rng(1).normal(size=256))


def probe() -> float:
    """Wall seconds of a fixed mix of small linear algebra and parsing."""
    t0 = time.perf_counter()
    for _ in range(_REPEATS):
        np.linalg.cholesky(_SPD)
        np.array(_LINE.split(), dtype=float)
    return time.perf_counter() - t0


def scaled(wall: float, before: float, after: float) -> float:
    """``wall`` seconds at the probe's nominal speed."""
    return wall * NOMINAL_S * 2.0 / (before + after)
