"""Seeding policy shared by every sampler in the package.

All randomness flows through numpy's PCG64.  Samplers take an explicit
``seed`` argument and never touch ambient RNG state, so any result is
reproducible from (inputs, seed).
"""

from __future__ import annotations

import numpy as np


def make_rng(seed) -> np.random.Generator:
    """Return a Generator for ``seed``; a Generator passes through unchanged."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)
