"""Host-speed probe: a fixed computation that touches nothing of statnn.

The speed of a shared virtual machine drifts in phases of ten seconds or
more: one fixed three-replicate computation took between 0.69 s and
1.40 s within two minutes, and a 30-second run averages only a few
phases.  The probe runs just before and just after every round; a
round's timings are multiplied by ``NOMINAL_S`` over the mean of the two
probe times, so they read as seconds on a host where the probe takes
``NOMINAL_S``.  Over 10-call windows this cut the spread of the fixed
computation from 16% to 2%.  A change to the program cannot move the
probe, so it cannot move the scale either.

The probe mixes what the package's inner loops do: small matrix
products, a logistic map and Python-level iteration.
"""

from __future__ import annotations

import time

import numpy as np

#: The probe's duration on a quiet host of the reference machine.
NOMINAL_S = 0.1

_STEPS = 3000


class Probe:
    def __init__(self):
        rng = np.random.default_rng(0)
        self.x = rng.standard_normal((1000, 7))
        self.y = rng.standard_normal(1000)
        self.gamma = np.array([1.0, -1.0])

    def __call__(self) -> float:
        """Seconds taken by one fixed run of the computation."""
        start = time.perf_counter()
        w = np.full((7, 2), 0.1)
        for _ in range(_STEPS):
            h = 0.5 * (1.0 + np.tanh(0.5 * (self.x @ w)))
            residual = self.y - h @ self.gamma
            w = w + 1e-9 * (self.x.T @ (h * (1.0 - h) * residual[:, None]))
        return time.perf_counter() - start

    @staticmethod
    def scale(before: float, after: float) -> float:
        """Factor that turns seconds measured between two probes into
        seconds at the nominal host speed."""
        return NOMINAL_S / (0.5 * (before + after))
