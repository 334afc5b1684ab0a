"""Seeded random streams.

Every stochastic routine in the package takes an explicit generator, so a
run is reproducible from its seed alone.  Philox is counter-based, which
makes independently seeded streams cheap and collision-free.
"""

from __future__ import annotations

import numpy as np

__all__ = ["make_rng"]


def make_rng(seed: int | np.random.Generator) -> np.random.Generator:
    """Return a Philox-backed Generator; pass Generators through unchanged."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.Generator(np.random.Philox(seed))
