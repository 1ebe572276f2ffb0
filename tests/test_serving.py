"""Tests for the online serving subsystem (`repro.serving`).

The load-bearing claim (ISSUE 9's acceptance criterion): a query
answered *during* concurrent ingestion is byte-identical to the same
query against a quiesced replay of its pinned epoch — across host
execution backends and serving shard counts.  Everything else (epoch
retention and pinning, overlay collapse, incremental top-k, the
delta-driven cache, costs and timeouts, the pipeline bridge) is checked
piecewise first.
"""

from __future__ import annotations

import pickle
import random
import threading
from bisect import bisect_left, bisect_right

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.wordcount import WordCountMapper, WordCountReducer
from repro.common import serialization
from repro.common.sizeof import record_size
from repro.common.errors import (
    EpochRetired,
    QueryTimeout,
    ReproError,
    ServingError,
    UnknownEpoch,
)
from repro.common.kvpair import sort_key
from repro.datasets.text import zipf_tweets
from repro.mapreduce.job import JobConf
from repro.resilience import RetryPolicy
from repro.serving import (
    EpochManager,
    LoadGenerator,
    QueryMix,
    QueryServer,
    ResultCache,
    ServingBridge,
)
from repro.serving import epochs
from repro.serving.cache import entry_signature
from repro.streaming import (
    BatchOutcome,
    ContinuousPipeline,
    CountBatcher,
    OneStepStreamConsumer,
    ReplaySource,
    StreamConsumer,
    evolving_text_source,
)

from tests.conftest import fresh_cluster

# --------------------------------------------------------------------- #
# epoch manager                                                         #
# --------------------------------------------------------------------- #


class TestEpochManager:
    def test_publish_diffs_and_versions(self):
        m = EpochManager(num_shards=4)
        s0 = m.publish({"a": 1, "b": 2})
        s1 = m.publish({"a": 1, "b": 5, "c": 3})
        s2 = m.publish({"a": 1, "c": 3})
        assert (s0.epoch, s1.epoch, s2.epoch) == (0, 1, 2)
        assert s1.touched == {"b", "c"}
        assert s2.touched == {"b"}
        # older snapshots keep their view after later publishes.
        assert s0.get("b") == 2 and s1.get("b") == 5
        assert s2.get("b") is None and "b" not in s2
        assert s0.num_keys == 2 and s2.num_keys == 2

    def test_unchanged_state_still_commits_an_epoch(self):
        m = EpochManager()
        m.publish({"x": 1})
        s = m.publish({"x": 1})
        assert s.epoch == 1 and s.touched == frozenset()

    def test_publish_delta_matches_full_publish(self):
        full = EpochManager(num_shards=3)
        delta = EpochManager(num_shards=3)
        full.publish({"a": 1, "b": 2})
        delta.publish_delta({"a": 1, "b": 2})
        full.publish({"a": 9, "c": 4})
        delta.publish_delta({"a": 9, "c": 4}, deleted=["b"])
        a, b = full.latest(), delta.latest()
        assert sorted(a.items()) == sorted(b.items())
        assert a.touched == b.touched

    def test_unknown_and_retired_epochs(self):
        m = EpochManager(retain=2)
        with pytest.raises(UnknownEpoch):
            m.latest()
        for i in range(5):
            m.publish({"k": i})
        assert m.oldest_epoch == 3 and m.latest_epoch == 4
        with pytest.raises(EpochRetired):
            m.snapshot(0)
        with pytest.raises(UnknownEpoch):
            m.snapshot(99)
        # the library-error contract holds for serving errors too.
        with pytest.raises(ReproError):
            m.snapshot(0)
        assert m.retired_epochs == 3

    def test_pin_blocks_retirement(self):
        m = EpochManager(retain=1)
        m.publish({"k": 0})
        with m.pinned(0) as snap:
            for i in range(1, 6):
                m.publish({"k": i})
            # the pinned epoch (and everything behind it) survived.
            assert snap.get("k") == 0
            assert m.snapshot(0).get("k") == 0
            assert m.num_live_epochs == 6
        # releasing the pin lets retention reclaim the backlog.
        assert m.oldest_epoch == 5
        with pytest.raises(EpochRetired):
            m.snapshot(0)

    def test_overlay_chains_stay_bounded(self):
        m = EpochManager(num_shards=2, retain=2, collapse_depth=4)
        state = {}
        for i in range(40):
            state[f"k{i % 7}"] = i
            m.publish(dict(state))
        snap = m.latest()
        assert all(ov.depth() <= 6 for ov in snap._overlays)
        # flattening never changed what readers see.
        assert sorted(snap.items()) == sorted(state.items())

    def test_bad_construction(self):
        with pytest.raises(ServingError):
            EpochManager(num_shards=-1)
        with pytest.raises(ServingError):
            EpochManager(retain=0)
        with pytest.raises(ServingError):
            EpochManager(topk_slack=0)


class TestSnapshotReads:
    def _manager(self):
        m = EpochManager(num_shards=3)
        m.publish({f"w{i:02d}": (i * 7) % 13 for i in range(20)})
        return m

    def test_range_scan_matches_bruteforce(self):
        snap = self._manager().latest()
        live = dict(snap.items())
        lo, hi = "w03", "w11"
        expected = sorted(
            ((k, v) for k, v in live.items() if lo <= k <= hi),
            key=lambda kv: sort_key(kv[0]),
        )
        assert snap.range_scan(lo, hi) == expected
        assert snap.range_scan(lo, hi, limit=3) == expected[:3]
        with pytest.raises(ServingError):
            snap.range_scan("z", "a")

    def test_prefix_scan(self):
        m = EpochManager()
        m.publish({"apple": 1, "apricot": 2, "banana": 3, 7: 4})
        snap = m.latest()
        assert snap.prefix_scan("ap") == [("apple", 1), ("apricot", 2)]
        assert snap.prefix_scan("z") == []
        with pytest.raises(ServingError):
            snap.prefix_scan(7)

    def test_range_scan_visits_every_shard(self):
        # hash placement cannot bound a scan to a contiguous shard run.
        snap = self._manager().latest()
        assert list(snap.range_shards("w00", "w19")) == [0, 1, 2]

    def test_topk_deeper_than_tracked_falls_back_to_scan(self):
        m = EpochManager(track_top=2, topk_slack=2)
        m.publish({f"k{i}": i for i in range(10)})
        snap = m.latest()
        expected = [(f"k{i}", i) for i in range(9, -1, -1)]
        assert snap.top_k(2) == expected[:2]
        assert snap.top_k(7) == expected[:7]
        assert snap.top_k(0) == []


class TestIncrementalTopK:
    def test_matches_bruteforce_under_churn(self):
        rng = random.Random(17)
        m = EpochManager(num_shards=2, track_top=5, topk_slack=2)
        mirror = {}
        publishes = 0
        for _ in range(60):
            for _ in range(rng.randrange(1, 5)):
                key = f"k{rng.randrange(30)}"
                if mirror and rng.random() < 0.3:
                    mirror.pop(rng.choice(sorted(mirror)), None)
                else:
                    mirror[key] = rng.randrange(100)
            snap = m.publish(dict(mirror))
            publishes += 1
            expected = sorted(
                mirror.items(),
                key=lambda kv: (sort_key(kv[1]), sort_key(kv[0])),
                reverse=True,
            )
            assert snap.top_k(5) == expected[:5]
            assert snap.top_k(3) == expected[:3]
        # the point of incremental maintenance: repairs, not recomputes.
        assert m.topk_rebuilds < publishes / 2

    def test_tie_break_is_deterministic(self):
        m = EpochManager(track_top=3)
        m.publish({"b": 1, "a": 1, "c": 1, "d": 0})
        assert m.latest().top_k(3) == [("c", 1), ("b", 1), ("a", 1)]


# --------------------------------------------------------------------- #
# result cache                                                          #
# --------------------------------------------------------------------- #


class TestResultCache:
    def test_hit_requires_entry_at_or_before_reader_epoch(self):
        cache = ResultCache(capacity=8)
        cache.put("q", 42, epoch=5, latest_epoch=5, deps=frozenset(["k"]))
        assert cache.get("q", pinned_epoch=5) == (True, 42)
        assert cache.get("q", pinned_epoch=7) == (True, 42)
        # a reader pinned before the entry's epoch must recompute.
        assert cache.get("q", pinned_epoch=4) == (False, None)

    def test_point_invalidation_is_exact(self):
        cache = ResultCache(capacity=8)
        cache.put("qa", 1, 0, 0, deps=frozenset(["a"]))
        cache.put("qb", 2, 0, 0, deps=frozenset(["b"]))
        assert cache.invalidate(frozenset(["a", "zzz"])) == 1
        assert cache.get("qa", 0) == (False, None)
        assert cache.get("qb", 0) == (True, 2)

    def test_range_invalidation_by_bounds(self):
        cache = ResultCache(capacity=8)
        cache.put("low", [], 0, 0, bounds=(sort_key("a"), sort_key("f")))
        cache.put("high", [], 0, 0, bounds=(sort_key("p"), sort_key("z")))
        cache.invalidate(frozenset(["c"]))
        assert cache.get("low", 0) == (False, None)
        assert cache.get("high", 0) == (True, [])

    @pytest.mark.parametrize("style", ["ints", "strings", "mixed", "tuples"])
    def test_range_invalidation_equals_the_per_key_scan(self, style):
        """The sorted-once bisect dooms exactly the entries the old
        ``any(lo <= sk <= hi for sk in touched)`` scan doomed — bounds
        that start or end *on* a touched key included."""
        import random

        rng = random.Random(17)
        universe = {
            "ints": list(range(0, 400, 3)),
            "strings": ["w%03d" % i for i in range(0, 400, 3)],
            "mixed": [None, True, 2, 2.5, 7, "a", "b", "w9", b"x", (1, "a"), (2, 0)],
            "tuples": [(i % 7, "s%d" % (i % 5)) for i in range(40)],
        }[style]
        for trial in range(30):
            touched = frozenset(rng.sample(universe, rng.randrange(1, min(20, len(universe)))))
            cache = ResultCache(capacity=256)
            bounds = {}
            edge = sorted(map(sort_key, touched))
            for i in range(40):
                lo, hi = sorted((sort_key(rng.choice(universe)), sort_key(rng.choice(universe))))
                if i == 0:
                    lo = hi = edge[0]              # a one-key range on a touched key
                elif i == 1:
                    lo, hi = edge[-1], max(edge[-1], hi)   # lo is a touched key
                elif i == 2:
                    lo, hi = min(edge[0], lo), edge[0]     # hi is a touched key
                bounds["r%d" % i] = (lo, hi)
                cache.put("r%d" % i, i, 0, 0, bounds=(lo, hi))
            cache.put("point", 1, 0, 0, deps=frozenset([rng.choice(universe)]))
            expected = {
                sig for sig, (lo, hi) in bounds.items()
                if any(lo <= sort_key(key) <= hi for key in touched)
            }
            assert {"r0", "r1", "r2"} <= expected
            point_dies = bool(cache._by_key.keys() & touched)
            assert cache.invalidate(touched) == len(expected) + point_dies
            assert cache.stats.invalidations == len(expected) + point_dies
            assert {sig for sig in bounds if cache.get(sig, 0)[0]} == set(bounds) - expected
            assert cache._ranged == set(bounds) - expected

    def test_global_entries_die_on_any_touch(self):
        cache = ResultCache(capacity=8)
        cache.put("topk", [1], 0, 0, global_dep=True)
        cache.invalidate(frozenset(["anything"]))
        assert cache.get("topk", 0) == (False, None)

    def test_lru_eviction_prunes_dependency_index(self):
        cache = ResultCache(capacity=2)
        cache.put("q1", 1, 0, 0, deps=frozenset(["a"]))
        cache.put("q2", 2, 0, 0, deps=frozenset(["b"]))
        cache.get("q1", 0)  # refresh q1 -> q2 becomes the LRU victim
        cache.put("q3", 3, 0, 0, deps=frozenset(["c"]))
        assert cache.stats.evictions == 1
        assert cache.get("q2", 0) == (False, None)
        assert cache.get("q1", 0) == (True, 1)
        assert "b" not in cache._by_key

    def test_stale_put_rejected(self):
        cache = ResultCache(capacity=8)
        # computed at epoch 3, but epoch 4 already published: reject.
        assert not cache.put("q", 1, epoch=3, latest_epoch=4,
                             deps=frozenset(["k"]))
        assert cache.stats.stale_puts == 1
        assert cache.get("q", 4) == (False, None)

    def test_zero_capacity_disables(self):
        cache = ResultCache(capacity=0)
        assert not cache.put("q", 1, 0, 0, deps=frozenset(["k"]))
        assert cache.get("q", 0) == (False, None)

    def test_signatures_distinguish_kinds_and_args(self):
        assert entry_signature("get", ("k", None)) != \
            entry_signature("get", ("k2", None))
        assert entry_signature("get", ("k", None)) != \
            entry_signature("top_k", ("k", None))


# --------------------------------------------------------------------- #
# query server                                                          #
# --------------------------------------------------------------------- #


def _small_server(**kwargs) -> QueryServer:
    server = QueryServer(num_shards=kwargs.pop("num_shards", 2), **kwargs)
    server.publish({f"w{i:02d}": (i * 3) % 11 for i in range(12)})
    return server


class TestQueryServer:
    def test_point_get_costs_then_caches(self):
        server = _small_server()
        first = server.get("w03")
        assert first.value == 9 and not first.from_cache
        assert first.cost_s > 0 and first.shards_read == 1
        again = server.get("w03")
        assert again.from_cache and again.cost_s == 0.0
        assert server.cache.stats.hits == 1

    def test_multi_get_fans_out(self):
        server = _small_server(num_shards=4)
        res = server.multi_get(["w00", "w05", "w11", "nope"])
        assert res.value["w05"] == 4 and res.value["nope"] is None
        assert res.shards_read >= 1
        assert res.cost_s > server.get("w00").cost_s or res.from_cache

    def test_scans_and_topk_agree_with_snapshot(self):
        server = _small_server()
        snap = server.manager.latest()
        assert server.range_scan("w02", "w06").value == \
            snap.range_scan("w02", "w06")
        assert server.prefix_scan("w0").value == snap.prefix_scan("w0")
        assert server.top_k(4).value == snap.top_k(4)

    def test_delta_invalidates_only_affected_answers(self):
        server = _small_server()
        server.get("w01")
        server.get("w02")
        server.top_k(3)
        server.publish_delta({"w01": 999})
        assert server.get("w02").from_cache       # untouched: still cached
        assert not server.get("w01").from_cache   # touched: recomputed
        assert server.get("w01").from_cache       # (the recompute re-cached)
        fresh_top = server.top_k(3)               # global dep: recomputed
        assert not fresh_top.from_cache
        assert fresh_top.value[0] == ("w01", 999)

    def test_historical_epoch_reads(self):
        server = _small_server()
        e0 = server.manager.latest_epoch
        server.publish_delta({"w00": -1})
        assert server.get("w00").value == -1
        assert server.get("w00", epoch=e0).value == 0

    def test_query_timeout_raises_and_counts(self):
        server = _small_server(timeout_s=1e-9)
        with pytest.raises(QueryTimeout) as err:
            server.get("w00")
        assert err.value.cost_s > err.value.timeout_s
        assert server.stats.timeouts == 1
        # a policy without a deadline never times out.
        relaxed = _small_server(policy=RetryPolicy.disabled())
        relaxed.top_k(5)
        assert relaxed.stats.timeouts == 0

    def test_costs_are_deterministic(self):
        def run():
            server = _small_server(num_shards=3)
            server.get("w01")
            server.multi_get(["w02", "w07"])
            server.range_scan("w00", "w09")
            server.top_k(3)
            return server.stats.sim_read_s

        assert run() == run()

    def test_stats_track_epochs_served(self):
        server = _small_server()
        server.get("w00")
        server.publish_delta({"w00": 1})
        server.get("w00")
        assert server.stats.num_epochs_served == 2
        assert server.stats.queries == 2


# --------------------------------------------------------------------- #
# columnar scans                                                        #
# --------------------------------------------------------------------- #


def _reference_range_scan(snap, lo, hi, limit=None):
    """The per-hit scan the columns replaced: chain lookups, one global
    re-sort, then the limit."""
    lo_sk, hi_sk = sort_key(lo), sort_key(hi)
    hits = []
    for sid in snap.range_shards(lo, hi):
        overlay = snap._overlays[sid]
        keys = sorted(overlay.materialize(), key=sort_key)
        sks = [sort_key(k) for k in keys]
        for key in keys[bisect_left(sks, lo_sk):bisect_right(sks, hi_sk)]:
            hits.append((key, overlay.get(key)))
    hits.sort(key=lambda kv: sort_key(kv[0]))
    if limit is not None:
        hits = hits[:limit]
    return hits


def _reference_prefix_scan(snap, prefix, limit=None):
    hits = [
        (key, value)
        for key, value in _reference_range_scan(snap, prefix, prefix + "\U0010ffff")
        if isinstance(key, str) and key.startswith(prefix)
    ]
    if limit is not None:
        hits = hits[:limit]
    return hits


def _reference_result(server, snap, hits, lo, hi):
    """``(value, cost_s, shards_read)`` as the per-hit server charged."""
    by_shard = {sid: 0 for sid in snap.range_shards(lo, hi)}
    for key, value in hits:
        sid = snap.shard_for(key)
        by_shard[sid] = by_shard.get(sid, 0) + record_size(key, value)
    if by_shard:
        volumes = sorted(by_shard.values(), reverse=True)
        cost_s = server.cost_model.serving_read_time(volumes[0], volumes[1:])
    else:
        cost_s = server.cost_model.store_read_time(0)
    return hits, cost_s, max(1, len(by_shard))


_KEY_STYLES = {
    "int": st.integers(-40, 40),
    "str": st.text(alphabet="abé\U0001f600", max_size=3),
    "float": st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-8, 8, width=16)),
    "tuple": st.tuples(st.integers(0, 3), st.text(alphabet="ab", max_size=2)),
    "mixed": st.one_of(
        st.none(), st.booleans(), st.integers(-5, 5), st.sampled_from([0.0, -0.0, 1.0, 2.5]),
        st.text(alphabet="ab", max_size=2), st.tuples(st.integers(0, 2)),
    ),
}
_VALUES = st.one_of(
    st.integers(-3, 3), st.booleans(), st.sampled_from([0.0, -0.0, 1.0]),
    st.text(alphabet="xé", max_size=5),
)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_scans_equal_the_per_hit_reference(data):
    """Columnar scans answer, cost and count shards exactly like the
    per-hit loop they replaced (``repr`` so ``-0.0``/``True`` cannot hide
    behind ``==``): every key style, 1/2/4 hash-placed shards, limits
    that do and do not cut, older pinned epochs, and overlays flattened
    after their columns were built (``collapse_depth=1``)."""
    style = data.draw(st.sampled_from(sorted(_KEY_STYLES)), label="style")
    keys = _KEY_STYLES[style]
    shards = data.draw(st.sampled_from([1, 2, 4]), label="shards")
    server = QueryServer(
        manager=EpochManager(num_shards=shards, retain=3, collapse_depth=1),
        cache=ResultCache(capacity=0),
        policy=RetryPolicy.disabled(),
    )
    manager = server.manager
    state = {}
    sim_read_s = 0.0
    for _ in range(data.draw(st.integers(1, 5), label="publishes")):
        state.update(data.draw(st.dictionaries(keys, _VALUES, max_size=10)))
        if state:
            for key in data.draw(st.lists(st.sampled_from(list(state)), max_size=3)):
                state.pop(key, None)
        server.publish(dict(state))
        for _ in range(data.draw(st.integers(0, 4), label="queries")):
            epoch = data.draw(
                st.one_of(st.none(), st.integers(manager.oldest_epoch, manager.latest_epoch))
            )
            limit = data.draw(st.sampled_from([None, 0, 1, 3]))
            snap = manager.snapshot(epoch)
            if data.draw(st.booleans(), label="prefix"):
                prefix = data.draw(st.text(alphabet="abé", max_size=2))
                got = server.prefix_scan(prefix, limit=limit, epoch=epoch)
                want = _reference_result(
                    server, snap, _reference_prefix_scan(snap, prefix, limit),
                    prefix, prefix + "\U0010ffff",
                )
            else:
                pool = st.sampled_from(list(state)) if state else keys
                lo = data.draw(st.one_of(pool, keys))
                hi = lo if data.draw(st.booleans()) else data.draw(st.one_of(pool, keys))
                lo, hi = sorted((lo, hi), key=sort_key)
                got = server.range_scan(lo, hi, limit=limit, epoch=epoch)
                want = _reference_result(
                    server, snap, _reference_range_scan(snap, lo, hi, limit), lo, hi
                )
            assert got.epoch == snap.epoch and not got.from_cache
            assert repr((got.value, got.cost_s, got.shards_read)) == repr(want)
            assert pickle.dumps(got.value) == pickle.dumps(want[0])
            sim_read_s += want[1]
    assert repr(server.stats.sim_read_s) == repr(sim_read_s)


def test_flattening_keeps_built_columns_valid():
    manager = EpochManager(num_shards=2, retain=2, collapse_depth=1)
    manager.publish({f"w{i:02d}": i for i in range(20)})
    manager.publish_delta({"w03": -1}, deleted=["w07"])
    snap = manager.latest()
    before = snap.range_scan("w00", "w19")
    assert any(ov._columns is not None and ov.base is not None for ov in snap._overlays)
    for i in range(4):
        manager.publish_delta({"w05": i})
    assert all(ov.base is None for ov in snap._overlays)  # flattened
    assert snap.range_scan("w00", "w19") == before == _reference_range_scan(snap, "w00", "w19")


def test_columns_build_once_per_scanned_overlay(monkeypatch):
    sized = []
    real_record_size = epochs.record_size
    monkeypatch.setattr(
        epochs, "record_size", lambda k, v: sized.append(k) or real_record_size(k, v)
    )
    server = QueryServer(num_shards=3, cache=ResultCache(capacity=0))
    server.publish({f"w{i:02d}": i for i in range(30)})
    server.publish_delta({"w01": 99})
    server.publish({**{f"w{i:02d}": i for i in range(30)}, "w01": 99, "x": 1})
    assert sized == []  # ingestion builds no columns
    for _ in range(3):
        server.range_scan("w00", "w29")
        server.range_scan("w05", "w05", limit=1)
        server.prefix_scan("w1")
        server.top_k(25)
    assert sorted(sized) == sorted(dict(server.manager.latest().items()))
    # an older epoch rebuilds only the overlays its successors replaced.
    sized.clear()
    older = server.manager.snapshot(1)
    for _ in range(3):
        server.range_scan("w00", "w29", epoch=1)
    replaced = older.shard_for("x")
    assert sorted(sized) == sorted(older._overlays[replaced].columns()[1])


def test_items_walk_shard_by_shard():
    state = {f"k{i:02d}": i for i in range(30)}
    manager = EpochManager(num_shards=3)
    snap = manager.publish(state)
    expected = [
        (key, state[key])
        for sid in range(3)
        for key in sorted(state, key=sort_key)
        if snap.shard_for(key) == sid
    ]
    assert list(snap.items()) == expected
    assert list(snap.items()) != sorted(state.items())  # not globally K2


def test_deep_topk_charges_every_shards_bytes():
    server = QueryServer(
        manager=EpochManager(num_shards=3, track_top=2),
        cache=ResultCache(capacity=0),
    )
    state = {f"w{i:02d}": "x" * i for i in range(12)}
    snap = server.publish(state)
    result = server.top_k(10)
    assert not snap.topk_complete and 10 > len(snap.topk)
    by_shard = {sid: 0 for sid in range(3)}
    for key, value in state.items():
        by_shard[snap.shard_for(key)] += record_size(key, value)
    volumes = sorted(by_shard.values(), reverse=True)
    expected = server.cost_model.serving_read_time(volumes[0], volumes[1:])
    assert repr(result.cost_s) == repr(expected)
    assert result.shards_read == 3
    assert [snap.scan_bytes(sid) for sid in range(3)] == [by_shard[sid] for sid in range(3)]


# --------------------------------------------------------------------- #
# pipeline bridge                                                       #
# --------------------------------------------------------------------- #


class _FlakyConsumer(StreamConsumer):
    """Commits batches as running sums; batch #1 always fails."""

    def __init__(self):
        self.total = 0

    def process_batch(self, records):
        if records[0].key == 2:  # batch #1 under CountBatcher(2)
            raise RuntimeError("poison batch")
        self.total += sum(r.value for r in records)
        return BatchOutcome(processing_s=1.0)

    def state(self):
        return {"total": self.total}

    def close(self):
        pass


class TestServingBridge:
    def test_epoch_per_committed_batch_skips_dead_letters(self):
        from repro.common.kvpair import insert

        server = QueryServer(num_shards=1)
        server.publish({"total": 0})  # epoch 0: the initial state
        bridge = ServingBridge(server)
        records = [insert(i, 1) for i in range(6)]
        pipe = ContinuousPipeline(
            ReplaySource(records, rate=100.0),
            CountBatcher(2),
            _FlakyConsumer(),
            batch_retries=1,
        )
        pipe.add_batch_listener(bridge)
        pipe.run()
        # 3 batches, 1 dead-lettered -> 2 published epochs after epoch 0.
        assert len(pipe.dead_letters) == 1
        assert bridge.published == 2 and bridge.skipped == 1
        assert server.manager.latest_epoch == 2
        assert server.get("total").value == 4  # the poison batch's 2 lost

    def test_net_zero_batch_publishes_bare_commit_record(self):
        """A batch whose delta nets to zero schedules no map tasks and
        publishes no epoch work beyond the commit record itself."""
        from repro.algorithms.pagerank import PageRank
        from repro.common.kvpair import delete, insert
        from repro.datasets.graphs import powerlaw_web_graph
        from repro.iterative.api import IterativeJob
        from repro.streaming import IterativeStreamConsumer

        graph = powerlaw_web_graph(60, 4.0, seed=3)
        cluster, dfs = fresh_cluster()
        job = IterativeJob(PageRank(), graph, num_partitions=4,
                           max_iterations=60, epsilon=1e-6)
        consumer = IterativeStreamConsumer.from_initial(
            cluster, dfs, job, net_deltas=True
        )
        server = QueryServer(num_shards=2)
        server.publish(consumer.state())  # epoch 0: the initial state
        probe = next(iter(consumer.state()))
        assert server.get(probe).from_cache is False
        assert server.get(probe).from_cache is True  # primed
        bridge = ServingBridge(server)
        noop = [insert(999, ((1,), "")), delete(999, ((1,), ""))]
        with ContinuousPipeline(
            ReplaySource(noop, rate=100.0), CountBatcher(2), consumer
        ) as pipe:
            pipe.add_batch_listener(bridge)
            result = pipe.run()
        assert result.num_batches == 1
        assert result.batches[0].map_tasks == 0
        # The commit record: one new epoch, but it touches nothing —
        # readers advance, cached answers survive untouched.
        assert bridge.published == 1
        snapshot = server.manager.latest()
        assert snapshot.epoch == 1
        assert snapshot.touched == frozenset()
        answer = server.get(probe)
        assert answer.from_cache is True
        assert answer.epoch == 1


# --------------------------------------------------------------------- #
# load generator                                                        #
# --------------------------------------------------------------------- #


class TestLoadGenerator:
    def test_deterministic_choices_and_hot_set_hits(self):
        server = _small_server()
        keys = [f"w{i:02d}" for i in range(12)]
        report = LoadGenerator(server, keys, QueryMix(), seed=3).run(120)
        assert report["queries"] == 120
        assert report["cache_hit_rate"] > 0
        assert report["epochs_served"] >= 1
        # same seed, fresh server -> the same simulated read cost.
        again = LoadGenerator(_small_server(), keys, QueryMix(), seed=3).run(120)
        assert again["sim_read_s"] == report["sim_read_s"]

    def test_rejects_empty_universe(self):
        with pytest.raises(ValueError):
            LoadGenerator(_small_server(), [])
        with pytest.raises(ValueError):
            QueryMix(point=0, multi=0, top_k=0, range_scan=0)


# --------------------------------------------------------------------- #
# the acceptance criterion: consistency under concurrent ingestion      #
# --------------------------------------------------------------------- #


def _canonical(value):
    """Stable encodable form of a query answer (dicts sort)."""
    if isinstance(value, dict):
        return sorted(value.items(), key=lambda kv: sort_key(kv[0]))
    return value


def _wordcount_pipeline(executor, serving_shards, retain):
    """A streaming wordcount wired to a fresh query server."""
    tweets = zipf_tweets(80, seed=11)
    cluster, dfs = fresh_cluster()
    dfs.write("/tweets", sorted(tweets.tweets.items()))
    conf = JobConf(name="wc", mapper=WordCountMapper,
                   reducer=WordCountReducer, inputs=["/tweets"],
                   output="/counts", num_reducers=2, executor=executor)
    consumer = OneStepStreamConsumer.from_initial(
        cluster, dfs, conf, accumulator=True
    )
    source = evolving_text_source(
        tweets, fraction=0.15, generations=2, period_s=60.0, seed=13
    )
    server = QueryServer(
        manager=EpochManager(num_shards=serving_shards, retain=retain)
    )
    server.publish(consumer.state())  # epoch 0 = the converged initial run
    pipe = ContinuousPipeline(source, CountBatcher(5), consumer)
    pipe.add_batch_listener(ServingBridge(server))
    return pipe, server


def test_no_reader_pins_an_epoch_before_its_listeners_ran():
    """The result cache invalidates in an epoch listener; a reader that
    pinned the new epoch first would be served the previous epoch's cached
    answers (the flake ``test_queries_during_ingestion_*`` used to show)."""
    manager = EpochManager(num_shards=1)
    manager.publish({"a": 1})
    events = []

    def listener(snapshot):
        reader = threading.Thread(
            target=lambda: events.append(("reader pinned", manager.latest().epoch))
        )
        reader.start()
        reader.join(timeout=0.3)
        events.append(("listener returns", snapshot.epoch))
        readers.append(reader)

    readers = []
    manager.add_listener(listener)
    manager.publish({"a": 2})
    readers[0].join(timeout=10)
    assert not readers[0].is_alive()
    assert events == [("listener returns", 1), ("reader pinned", 1)]


@pytest.mark.parametrize("executor", ["serial", "thread", "process"])
@pytest.mark.parametrize("serving_shards", [1, 4])
def test_queries_during_ingestion_match_quiesced_replay(
    executor, serving_shards
):
    """Snapshot isolation, end to end (ISSUE 9 acceptance criterion).

    Queries are fired from the main thread while the pipeline ingests on
    a background thread; each answer is recorded with its pinned epoch.
    The same pipeline is then replayed with *no* concurrent queries into
    a server that retains every epoch, and every recorded query is
    re-asked at its recorded epoch.  The answers must be byte-identical:
    a query during ingestion saw exactly its pinned epoch, never a
    half-applied delta.
    """
    pipe, server = _wordcount_pipeline(executor, serving_shards, retain=8)
    words = sorted(dict(server.manager.latest().items()))
    rng = random.Random(29)
    recorded = []

    def record(result, kind, args):
        recorded.append(
            (result.epoch, kind, args,
             serialization.encode(_canonical(result.value)))
        )

    # hold a pin on epoch 0 for the whole run: late reads of an early
    # epoch must also stay consistent (and survive retention).
    with server.manager.pinned(0):
        ingest = threading.Thread(target=pipe.run)
        ingest.start()
        try:
            while True:
                done = not ingest.is_alive()
                for _ in range(4):
                    word = rng.choice(words)
                    record(server.get(word), "get", (word,))
                    record(server.top_k(5), "top_k", (5,))
                    lo = rng.choice(words)
                    hi = lo + "￿"
                    record(server.range_scan(lo, hi), "range", (lo, hi))
                    picks = tuple(rng.sample(words, min(4, len(words))))
                    record(server.multi_get(picks), "multi", (picks,))
                if done:
                    break
        finally:
            ingest.join()
        record(server.get(words[0], epoch=0), "get", (words[0],))
        pipe.close()

    assert {epoch for epoch, *_ in recorded} != {0}, "no epochs advanced"

    # --- quiesced replay: same stream, every epoch retained ----------- #
    replay_pipe, replay = _wordcount_pipeline(
        executor, serving_shards, retain=10_000
    )
    with replay_pipe:
        replay_pipe.run()
    assert replay.manager.latest_epoch == server.manager.latest_epoch

    for epoch, kind, args, expected in recorded:
        if kind == "get":
            result = replay.get(args[0], epoch=epoch)
        elif kind == "top_k":
            result = replay.top_k(args[0], epoch=epoch)
        elif kind == "range":
            result = replay.range_scan(args[0], args[1], epoch=epoch)
        else:
            result = replay.multi_get(list(args[0]), epoch=epoch)
        assert serialization.encode(_canonical(result.value)) == expected, (
            f"{kind}{args} diverged at epoch {epoch}"
        )
