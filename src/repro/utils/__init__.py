"""Shared utilities: deterministic RNG handling, timers and statistics."""

from repro.utils.rng import seeded_rng, spawn_rngs, rank_seed
from repro.utils.timer import Timer
from repro.utils.stats import (
    RunningStat,
    Histogram,
    summarize,
    DistributionSummary,
)

__all__ = [
    "seeded_rng",
    "spawn_rngs",
    "rank_seed",
    "Timer",
    "RunningStat",
    "Histogram",
    "summarize",
    "DistributionSummary",
]
