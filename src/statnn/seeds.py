"""Reproducible random streams named by a seed and a path of integers.

Every stream in the package (a restart's starting point, a simulated
replicate, a cross-validation split, a child seed for a nested run) is
``SeedSequence((seed mod 2**64, *parts))``, so a result depends only on
the seed and its place in the computation, never on evaluation order or
worker count.
"""

from __future__ import annotations

import numpy as np


def _sequence(seed: int, parts) -> np.random.SeedSequence:
    return np.random.SeedSequence(
        (int(seed) & 0xFFFFFFFFFFFFFFFF, *(int(v) for v in parts)))


def rng(seed: int, *parts: int) -> np.random.Generator:
    """Generator for the stream at (seed, *parts)."""
    return np.random.default_rng(_sequence(seed, parts))


def derive_seed(seed: int, *parts: int) -> int:
    """Child seed for the stream at (seed, *parts): its first 64-bit word."""
    return int(_sequence(seed, parts).generate_state(1, np.uint64)[0])
