"""Deterministic random-number-generator helpers.

Every stochastic component in the library (datasets, delay injection,
initiator selection for majority collectives, weight initialisation)
accepts either an integer seed or a :class:`numpy.random.Generator`.  The
helpers here centralise the conversion so that experiments are exactly
reproducible across runs and across ranks.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Union

import numpy as np

SeedLike = Union[int, np.random.Generator, None]

#: Default seed used throughout the library when the caller does not
#: provide one.  Chosen arbitrarily but fixed for reproducibility.
DEFAULT_SEED = 0x5EED


def seeded_rng(seed: SeedLike = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for ``seed``.

    Parameters
    ----------
    seed:
        ``None`` (use :data:`DEFAULT_SEED`), an integer, or an existing
        generator (returned unchanged).
    """
    if isinstance(seed, np.random.Generator):
        return seed
    if seed is None:
        seed = DEFAULT_SEED
    return np.random.default_rng(int(seed))


def rank_seed(base_seed: int, rank: int, stream: int = 0) -> int:
    """Derive a per-rank seed from a base seed.

    The derivation uses :class:`numpy.random.SeedSequence` spawning so
    that different ``(rank, stream)`` pairs give statistically
    independent streams while remaining fully deterministic.
    """
    ss = np.random.SeedSequence(entropy=int(base_seed), spawn_key=(int(rank), int(stream)))
    return int(ss.generate_state(1, dtype=np.uint64)[0] % (2**63 - 1))


def spawn_rngs(seed: SeedLike, count: int) -> List[np.random.Generator]:
    """Spawn ``count`` independent generators from one seed."""
    if isinstance(seed, np.random.Generator):
        # Use the generator itself to derive child seeds deterministically.
        seeds = seed.integers(0, 2**63 - 1, size=count)
        return [np.random.default_rng(int(s)) for s in seeds]
    base = DEFAULT_SEED if seed is None else int(seed)
    ss = np.random.SeedSequence(base)
    return [np.random.default_rng(child) for child in ss.spawn(count)]


def choice_without_replacement(
    rng: np.random.Generator, n: int, k: int
) -> np.ndarray:
    """Choose ``k`` distinct indices out of ``n``."""
    if k > n:
        raise ValueError(f"cannot choose {k} items out of {n}")
    return rng.choice(n, size=k, replace=False)
