"""Unit tests for the read-window planning policies (Algorithm 1, §5.2)."""

from __future__ import annotations

import pytest

from repro.mrbgraph.windows import (
    ChunkLocation,
    IndexOnlyPolicy,
    MultiDynamicWindowPolicy,
    MultiFixedWindowPolicy,
    SingleFixedWindowPolicy,
)


def loc(offset, length, batch=0):
    return ChunkLocation(offset=offset, length=length, batch=batch)


class TestIndexOnly:
    def test_reads_exact_chunk(self):
        plan = IndexOnlyPolicy().plan(loc(100, 50), [], file_size=1000)
        assert (plan.offset, plan.nbytes) == (100, 50)

    def test_caps_at_file_end(self):
        plan = IndexOnlyPolicy().plan(loc(990, 50), [], file_size=1000)
        assert plan.nbytes == 10


class TestFixedWindows:
    def test_single_fixed_reads_window(self):
        policy = SingleFixedWindowPolicy(window_size=400)
        plan = policy.plan(loc(100, 50), [], file_size=1000)
        assert (plan.offset, plan.nbytes) == (100, 400)

    def test_window_never_smaller_than_chunk(self):
        policy = SingleFixedWindowPolicy(window_size=10)
        plan = policy.plan(loc(0, 64), [], file_size=1000)
        assert plan.nbytes == 64

    def test_multi_fixed_is_per_batch(self):
        assert MultiFixedWindowPolicy().per_batch_windows
        assert not SingleFixedWindowPolicy().per_batch_windows

    def test_invalid_sizes(self):
        with pytest.raises(ValueError):
            SingleFixedWindowPolicy(window_size=0)
        with pytest.raises(ValueError):
            MultiFixedWindowPolicy(window_size=-1)


class TestDynamicWindow:
    def test_extends_over_small_gaps(self):
        # Algorithm 1: fold the next chunk in while gap < T.
        policy = MultiDynamicWindowPolicy(gap_threshold=100, read_cache_size=10_000)
        upcoming = [loc(160, 40), loc(230, 40)]
        plan = policy.plan(loc(100, 50), upcoming, file_size=10_000)
        # 100..150, gap 10 -> 160..200, gap 30 -> 230..270.
        assert plan.offset == 100
        assert plan.nbytes == 170

    def test_stops_at_large_gap(self):
        policy = MultiDynamicWindowPolicy(gap_threshold=100, read_cache_size=10_000)
        upcoming = [loc(500, 40)]  # gap of 350 >= T
        plan = policy.plan(loc(100, 50), upcoming, file_size=10_000)
        assert plan.nbytes == 50

    def test_respects_cache_budget(self):
        policy = MultiDynamicWindowPolicy(gap_threshold=1000, read_cache_size=100)
        upcoming = [loc(160, 80)]  # would need 140 total > 100 budget
        plan = policy.plan(loc(100, 50), upcoming, file_size=10_000)
        assert plan.nbytes == 50

    def test_skips_backward_duplicates(self):
        policy = MultiDynamicWindowPolicy(gap_threshold=1000, read_cache_size=10_000)
        upcoming = [loc(40, 20)]  # behind the target: stop extending
        plan = policy.plan(loc(100, 50), upcoming, file_size=10_000)
        assert plan.nbytes == 50

    def test_smallest_window_for_last_request(self):
        # Fig 7: "Since there are no further requests, we use the smallest
        # possible read window".
        policy = MultiDynamicWindowPolicy()
        plan = policy.plan(loc(100, 50), [], file_size=10_000)
        assert plan.nbytes == 50

    def test_validation(self):
        with pytest.raises(ValueError):
            MultiDynamicWindowPolicy(gap_threshold=-1)
        with pytest.raises(ValueError):
            MultiDynamicWindowPolicy(read_cache_size=0)

