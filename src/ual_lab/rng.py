"""Counter-based random streams derived from (master seed, path).

Every stochastic component in the library takes a ``numpy.random.Generator``.
Streams are derived from a master seed plus an integer path, so runs that
execute in parallel (seeds x models x strategies) draw from independent,
order-free streams: deriving ``(master, 3, 1)`` never depends on whether
``(master, 2, 0)`` was consumed first.
"""

from __future__ import annotations

import numpy as np

__all__ = ["derive_rng"]


def derive_rng(master_seed: int, *path: int) -> np.random.Generator:
    """Independent Philox stream for ``(master_seed, *path)``.

    Philox is counter-based, so generators for distinct paths are
    statistically independent and reproducible regardless of creation or
    consumption order.
    """
    seq = np.random.SeedSequence(entropy=master_seed, spawn_key=tuple(path))
    return np.random.Generator(np.random.Philox(seq))
