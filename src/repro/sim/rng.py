"""Seeded random number generation.

Every data generator takes an explicit RNG (or seed) so a whole experiment
is reproducible from the config's single ``seed`` field.
"""

import numpy as np


def make_rng(seed):
    """Create a numpy Generator from a seed or pass an existing one through."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)
