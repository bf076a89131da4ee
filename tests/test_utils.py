"""Tests for repro.utils (rng, timers, statistics)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.utils.rng import (
    DEFAULT_SEED,
    choice_without_replacement,
    rank_seed,
    seeded_rng,
    spawn_rngs,
)
from repro.utils.stats import DistributionSummary, Histogram, RunningStat, summarize
from repro.utils.timer import Timer


class TestRng:
    def test_seeded_rng_deterministic(self):
        a = seeded_rng(7).random(5)
        b = seeded_rng(7).random(5)
        assert np.allclose(a, b)

    def test_seeded_rng_none_uses_default(self):
        a = seeded_rng(None).random(3)
        b = seeded_rng(DEFAULT_SEED).random(3)
        assert np.allclose(a, b)

    def test_seeded_rng_passthrough_generator(self):
        gen = np.random.default_rng(3)
        assert seeded_rng(gen) is gen

    def test_rank_seed_distinct_per_rank(self):
        seeds = {rank_seed(1, r) for r in range(64)}
        assert len(seeds) == 64

    def test_rank_seed_deterministic(self):
        assert rank_seed(5, 3, stream=2) == rank_seed(5, 3, stream=2)

    def test_rank_seed_stream_changes_seed(self):
        assert rank_seed(5, 3, stream=0) != rank_seed(5, 3, stream=1)

    def test_spawn_rngs_independent(self):
        rngs = spawn_rngs(9, 4)
        draws = [g.random() for g in rngs]
        assert len(set(draws)) == 4

    def test_spawn_rngs_from_generator(self):
        rngs = spawn_rngs(np.random.default_rng(0), 3)
        assert len(rngs) == 3

    def test_choice_without_replacement_bounds(self):
        rng = seeded_rng(0)
        picks = choice_without_replacement(rng, 10, 5)
        assert len(set(picks.tolist())) == 5
        with pytest.raises(ValueError):
            choice_without_replacement(rng, 3, 5)


class TestRunningStat:
    def test_matches_numpy(self, rng):
        data = rng.normal(3.0, 2.0, size=500)
        stat = RunningStat()
        stat.extend(data)
        assert stat.count == 500
        assert stat.mean == pytest.approx(float(np.mean(data)))
        assert stat.std == pytest.approx(float(np.std(data)))
        assert stat.min == pytest.approx(float(np.min(data)))
        assert stat.max == pytest.approx(float(np.max(data)))

    def test_empty(self):
        stat = RunningStat()
        assert stat.mean == 0.0
        assert stat.std == 0.0

    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=50))
    @settings(max_examples=50, deadline=None)
    def test_property_mean_within_bounds(self, values):
        stat = RunningStat()
        stat.extend(values)
        assert min(values) - 1e-9 <= stat.mean <= max(values) + 1e-9


class TestHistogram:
    def test_bins_and_total(self):
        h = Histogram(bin_width=10.0)
        h.extend([1, 5, 15, 25, 25])
        assert h.total == 5
        bins = h.bins()
        assert bins[0] == (0.0, 10.0, 2)
        assert h.mode_bin()[2] == 2

    def test_rejects_bad_width(self):
        with pytest.raises(ValueError):
            Histogram(bin_width=0)

    def test_series_shapes(self):
        h = Histogram(5.0)
        h.extend(range(20))
        centers, counts = h.as_series()
        assert len(centers) == len(counts) == 4
        assert counts.sum() == 20

    def test_empty_series(self):
        centers, counts = Histogram(1.0).as_series()
        assert centers.size == 0 and counts.size == 0

    def test_mode_bin_empty_raises(self):
        with pytest.raises(ValueError):
            Histogram(1.0).mode_bin()


class TestSummarize:
    def test_summary_values(self):
        s = summarize([1.0, 2.0, 3.0, 4.0])
        assert s.count == 4
        assert s.mean == pytest.approx(2.5)
        assert s.median == pytest.approx(2.5)
        assert s.min == 1.0 and s.max == 4.0

    def test_empty_summary(self):
        s = summarize([])
        assert s.count == 0
        assert isinstance(s, DistributionSummary)

    def test_str_contains_stats(self):
        assert "mean=" in str(summarize([1.0, 2.0]))


class TestTimers:
    def test_timer_accumulates(self):
        t = Timer()
        with t:
            pass
        first = t.elapsed
        with t:
            pass
        assert t.elapsed >= first >= 0.0

    def test_timer_stop_without_start(self):
        with pytest.raises(RuntimeError):
            Timer().stop()

    def test_timer_double_start_raises(self):
        # Regression: start() used to silently discard the in-flight
        # interval, corrupting accumulated timings.
        t = Timer().start()
        with pytest.raises(RuntimeError, match="already running"):
            t.start()
        t.stop()  # the original interval is still intact
        assert t.elapsed >= 0.0
        t.start()  # restartable after a clean stop
        t.stop()

