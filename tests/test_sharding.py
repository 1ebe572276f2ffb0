"""Tests for the sharded MRBG-Store: hash routing, parallel maintenance,
byte-level equivalence with the monolithic store, and end-to-end
engine equivalence on WordCount, PageRank and K-means workloads."""

from __future__ import annotations

import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import StoreClosedError, StoreError
from repro.common.kvpair import Op, delete, insert
from repro.common.serialization import encode_many
from repro.incremental.api import delta_to_dfs_records
from repro.incremental.engine import IncrMREngine
from repro.incremental.state import PreservedJobState
from repro.mapreduce.job import JobConf
from repro.mrbgraph import sharding as sharding_module
from repro.mrbgraph import store as store_module
from repro.mrbgraph.graph import DeltaEdge, Edge
from repro.mrbgraph.sharding import HashShardRouter, ShardedMRBGStore
from repro.mrbgraph.store import MRBGStore
from repro.mrbgraph.wal import atomic_write

from tests.conftest import fresh_cluster
from tests.test_incremental_onestep import TokenMapper


def build_chunks(n, edges_per_chunk=3):
    return [
        (k2, [Edge(mk, float(k2 * 10 + mk)) for mk in range(edges_per_chunk)])
        for k2 in range(n)
    ]


def make_sharded(tmp_path, num_shards=4, **kwargs) -> ShardedMRBGStore:
    return ShardedMRBGStore(
        str(tmp_path / "sharded"), num_shards=num_shards, **kwargs
    )


# ---------------------------------------------------------------------- #
# routers                                                                #
# ---------------------------------------------------------------------- #


class TestHashRouter:
    def test_deterministic_and_in_range(self):
        router = HashShardRouter(4)
        keys = [0, 1, "word", ("t", 3), b"raw", 2.5, None, True]
        for key in keys:
            shard = router.shard_for(key)
            assert 0 <= shard < 4
            assert shard == router.shard_for(key)
            assert shard == HashShardRouter(4).shard_for(key)

    def test_distributes_across_shards(self):
        router = HashShardRouter(4)
        hit = {router.shard_for(k) for k in range(1000)}
        assert hit == {0, 1, 2, 3}

    def test_invalid_shard_count(self):
        with pytest.raises(ValueError):
            HashShardRouter(0)

    def test_spec_roundtrip(self, tmp_path):
        router = HashShardRouter(8)
        assert router.spec() == {"kind": "hash", "num_shards": 8}
        ShardedMRBGStore(str(tmp_path / "s"), num_shards=8).close()
        reopened = ShardedMRBGStore.open(str(tmp_path / "s"))
        assert reopened.num_shards == 8
        assert all(
            reopened.router.shard_for(k) == router.shard_for(k) for k in range(100)
        )
        reopened.close()


class TestRouterStability:
    """Routing is a pure function of the key: inserting or deleting
    other keys can never move a key between shards."""

    @given(
        keys=st.lists(
            st.one_of(st.integers(-1000, 1000), st.text(max_size=8)),
            min_size=1,
            max_size=30,
            unique=True,
        ),
        mutations=st.lists(
            st.one_of(st.integers(-1000, 1000), st.text(max_size=8)),
            max_size=20,
        ),
        num_shards=st.integers(1, 6),
    )
    @settings(max_examples=40, deadline=None)
    def test_assignment_survives_key_space_mutation(
        self, keys, mutations, num_shards
    ):
        router = HashShardRouter(num_shards)
        before = {key: router.shard_for(key) for key in keys}
        # Mutate the key space: route (and "insert"/"delete") other keys.
        for key in mutations:
            router.shard_for(key)
        assert {key: router.shard_for(key) for key in keys} == before

    @given(
        batches=st.lists(
            st.lists(
                st.tuples(
                    st.integers(0, 19),  # k2
                    st.integers(0, 3),   # mk
                    st.booleans(),       # delete?
                ),
                min_size=1,
                max_size=12,
            ),
            min_size=1,
            max_size=3,
        )
    )
    @settings(max_examples=25, deadline=None)
    def test_chunks_stay_in_their_shard(self, tmp_path_factory, batches):
        tmp = tmp_path_factory.mktemp("router-stability")
        store = ShardedMRBGStore(str(tmp / "s"), num_shards=3)
        router = store.router
        store.build([(k, [Edge(0, 0)]) for k in range(0, 20, 2)])
        for batch in batches:
            grouped = {}
            for k2, mk, is_delete in batch:
                grouped.setdefault(k2, []).append(
                    DeltaEdge(mk, None if is_delete else 1.0,
                              Op.DELETE if is_delete else Op.INSERT)
                )
            list(store.merge_delta(sorted(grouped.items())))
        for sid, shard in enumerate(store.shards):
            for key in shard._index:
                assert router.shard_for(key) == sid
        store.close()


# ---------------------------------------------------------------------- #
# the sharded store                                                      #
# ---------------------------------------------------------------------- #


class TestShardedStoreBasics:
    def test_build_then_get(self, tmp_path):
        store = make_sharded(tmp_path)
        store.build(build_chunks(40))
        assert len(store) == 40
        assert store.get_chunk(7) == [Edge(0, 70.0), Edge(1, 71.0), Edge(2, 72.0)]
        assert store.get_chunk(99) is None
        assert 7 in store and 99 not in store
        store.close()

    def test_keys_merged_sorted(self, tmp_path):
        store = make_sharded(tmp_path)
        store.build([(k, [Edge(0, k)]) for k in [9, 5, 1, 3, 7]])
        assert store.keys() == [1, 3, 5, 7, 9]
        store.close()

    def test_merge_delta_preserves_input_order(self, tmp_path):
        store = make_sharded(tmp_path)
        store.build(build_chunks(30))
        delta = sorted(
            (k, [DeltaEdge(0, -1.0, Op.INSERT)]) for k in range(0, 30, 2)
        )
        merged = list(store.merge_delta(delta))
        assert [k for k, _ in merged] == [k for k, _ in delta]
        assert all(entries[0].value == -1.0 for _, entries in merged)
        store.close()

    def test_merge_matches_single_store(self, tmp_path):
        sharded = make_sharded(tmp_path, num_shards=3)
        single = MRBGStore(str(tmp_path / "single"))
        chunks = build_chunks(25)
        sharded.build(iter(chunks))
        single.build(iter(chunks))
        delta = [
            (1, [DeltaEdge(0, 999.0, Op.INSERT)]),
            (2, [DeltaEdge(mk, None, Op.DELETE) for mk in range(3)]),
            (77, [DeltaEdge(5, "new", Op.INSERT)]),
        ]
        assert list(sharded.merge_delta(delta)) == list(single.merge_delta(delta))
        for k in list(range(25)) + [77]:
            assert sharded.get_chunk(k) == single.get_chunk(k)
        sharded.close()
        single.close()

    def test_session_api_routes_chunks(self, tmp_path):
        store = make_sharded(tmp_path)
        store.begin_merge([])
        store.put_chunk(3, [Edge(0, 1.0)])
        store.put_chunk(4, [Edge(0, 2.0)])
        store.end_merge()
        assert store.get_chunk(3) == [Edge(0, 1.0)]
        store.begin_merge([3])
        store.delete_chunk(3)
        store.end_merge()
        assert store.get_chunk(3) is None
        store.close()

    def test_session_errors(self, tmp_path):
        store = make_sharded(tmp_path)
        with pytest.raises(StoreError):
            store.put_chunk(1, [])
        with pytest.raises(StoreError):
            store.end_merge()
        store.begin_merge([])
        with pytest.raises(StoreError):
            store.begin_merge([])
        with pytest.raises(StoreError):
            store.compact()
        store.end_merge()
        store.close()

    def test_closed_raises(self, tmp_path):
        store = make_sharded(tmp_path)
        store.build(build_chunks(4))
        store.close()
        store.close()  # idempotent
        with pytest.raises(StoreClosedError):
            store.get_chunk(1)
        with pytest.raises(StoreClosedError):
            store.save_index()

    def test_num_shards_router_mismatch(self, tmp_path):
        """A shard count contradicting the directory's manifest is refused:
        keeping the old manifest would reopen the keys under the wrong
        placement and lose some of them."""
        directory = str(tmp_path / "s")
        old = ShardedMRBGStore(directory, num_shards=4)
        old.build(build_chunks(8))
        old.save_index()
        old.close()
        with pytest.raises(StoreError):
            ShardedMRBGStore(directory, num_shards=2)
        reopened = ShardedMRBGStore.open(directory)
        assert reopened.num_shards == 4
        assert reopened.keys() == list(range(8))
        reopened.close()


class TestEmptyShards:
    def test_sparse_keys_leave_shards_empty(self, tmp_path):
        store = make_sharded(tmp_path, num_shards=8)
        store.build([(k, [Edge(0, float(k))]) for k in range(3)])
        occupied = sum(1 for shard in store.shards if len(shard))
        assert occupied <= 3 < store.num_shards
        # Maintenance over empty shards is harmless.
        schedule = store.compact()
        assert len(schedule.assignment) == 8
        assert store.save_index() > 0
        assert len(store) == 3
        assert store.get_chunk(1) == [Edge(0, 1.0)]
        store.close()

    def test_fully_empty_store(self, tmp_path):
        store = make_sharded(tmp_path, num_shards=4)
        store.build([])
        assert len(store) == 0
        assert store.file_size == 0
        assert store.num_batches == 0
        store.compact()
        store.close()


class TestSingleShardDegenerate:
    def test_byte_identical_to_plain_store(self, tmp_path):
        sharded = ShardedMRBGStore(str(tmp_path / "one"), num_shards=1)
        plain = MRBGStore(str(tmp_path / "plain"))
        chunks = build_chunks(30)
        sharded.build(iter(chunks))
        plain.build(iter(chunks))
        for generation in range(3):
            delta = sorted(
                (k, [DeltaEdge(0, float(generation), Op.INSERT)])
                for k in range(0, 30, 3)
            )
            list(sharded.merge_delta(delta))
            list(plain.merge_delta(delta))
        sharded.save_index()
        plain.save_index()

        shard_dir = sharded.shards[0].directory
        for name in ("mrbg.dat", "mrbg.idx"):
            with open(os.path.join(shard_dir, name), "rb") as fh:
                shard_bytes = fh.read()
            with open(os.path.join(plain.directory, name), "rb") as fh:
                plain_bytes = fh.read()
            assert shard_bytes == plain_bytes, name

        # Compaction and the index flush after it keep the equivalence,
        # journal included: both stores run the one protocol.
        sharded.compact()
        plain.compact()
        sharded.save_index()
        plain.save_index()
        for name in ("mrbg.dat", "mrbg.idx", "mrbg.wal"):
            with open(os.path.join(shard_dir, name), "rb") as fh:
                shard_bytes = fh.read()
            with open(os.path.join(plain.directory, name), "rb") as fh:
                plain_bytes = fh.read()
            assert shard_bytes == plain_bytes, name
        assert sharded.file_size == plain.file_size
        assert sharded.live_bytes() == plain.live_bytes()
        sharded.close()
        plain.close()


class TestCompactionDurability:
    def test_each_shard_directory_is_fsynced_after_its_swap(self, tmp_path, monkeypatch):
        """A compaction's swap is durable: every shard fsyncs its directory."""
        synced = []

        def record(directory):
            data = os.path.join(directory, "mrbg.dat")
            swapped = not os.path.exists(data + ".compact")
            synced.append((os.path.abspath(directory), swapped, os.path.getsize(data)))

        for module in (store_module, sharding_module):
            monkeypatch.setattr(module, "fsync_directory", record, raising=False)
        store = make_sharded(tmp_path, num_shards=4)
        store.build(build_chunks(40))
        list(store.merge_delta(
            sorted((k, [DeltaEdge(0, -1.0, Op.INSERT)]) for k in range(0, 40, 3))
        ))
        store.compact()
        assert sorted(synced) == sorted(
            (os.path.abspath(shard.directory), True, shard.file_size)
            for shard in store.shards
        )
        store.close()


class TestPersistence:
    def test_save_and_reopen(self, tmp_path):
        store = make_sharded(tmp_path, num_shards=3)
        store.build(build_chunks(20))
        list(store.merge_delta([(3, [DeltaEdge(0, "updated", Op.INSERT)])]))
        store.save_index()
        store.close()
        reopened = ShardedMRBGStore.open(str(tmp_path / "sharded"))
        assert reopened.num_shards == 3
        assert len(reopened) == 20
        assert reopened.get_chunk(3)[0].value == "updated"
        reopened.close()

    @pytest.mark.parametrize(
        "spec",
        [{"kind": "range", "boundaries": [10]}, {"kind": "nope"}],
        ids=["range", "unknown"],
    )
    def test_range_manifest_is_refused(self, tmp_path, spec):
        """Hash routing is the only placement: any other manifest kind
        fails loudly instead of being read as hash routing."""
        directory = tmp_path / "ranged"
        directory.mkdir()
        atomic_write(str(directory / "mrbg.shards"), encode_many([{"router": spec}]))
        with pytest.raises(StoreError):
            ShardedMRBGStore.open(str(directory))
        with pytest.raises(StoreError):
            ShardedMRBGStore(str(directory), num_shards=2)

    def test_open_without_manifest_raises(self, tmp_path):
        with pytest.raises(StoreError):
            ShardedMRBGStore.open(str(tmp_path / "missing"))


class TestShardedMetrics:
    def test_metrics_merge_across_shards(self, tmp_path):
        store = make_sharded(tmp_path)
        store.build(build_chunks(40))
        list(store.merge_delta(
            sorted((k, [DeltaEdge(0, -1.0, Op.INSERT)]) for k in range(0, 40, 2))
        ))
        per_shard = store.shard_metrics()
        merged = store.metrics
        assert merged.bytes_written == sum(m.bytes_written for m in per_shard)
        assert merged.io_writes == sum(m.io_writes for m in per_shard)
        assert merged.bytes_written > 0
        snap = merged.snapshot()
        assert store.metrics.since(snap).bytes_written == 0
        store.reset_metrics()
        assert store.metrics.bytes_written == 0
        store.close()

    def test_save_index_charges_each_shard(self, tmp_path):
        store = make_sharded(tmp_path, num_shards=4)
        store.build(build_chunks(16))
        writes_before = store.metrics.io_writes
        nbytes = store.save_index()
        assert nbytes > 0
        assert store.metrics.io_writes == writes_before + 4
        store.close()

    def test_compact_schedule_is_locality_aware(self, tmp_path):
        store = make_sharded(tmp_path, num_shards=4, num_workers=4)
        store.build(build_chunks(40))
        schedule = store.compact()
        assert store.last_schedule is schedule
        assert schedule.locality_hits == 4
        assert schedule.locality_misses == 0
        # Each shard task ran on its owning worker.
        for sid in range(4):
            assert schedule.assignment[f"compact-{sid:04d}"] == sid
        store.close()

    def test_compact_preserves_content(self, tmp_path):
        store = make_sharded(tmp_path, num_shards=3)
        store.build(build_chunks(30))
        for generation in range(3):
            list(store.merge_delta(
                sorted((k, [DeltaEdge(0, float(generation), Op.INSERT)])
                       for k in range(0, 30, 2))
            ))
        before = {k: store.get_chunk(k) for k in store.keys()}
        old_size = store.file_size
        store.compact()
        assert store.file_size < old_size
        assert store.file_size == store.live_bytes()
        assert store.num_batches == 1
        assert {k: store.get_chunk(k) for k in store.keys()} == before
        # The compacted shards accept further merges.
        list(store.merge_delta([(1, [DeltaEdge(9, 99.0, Op.INSERT)])]))
        assert Edge(9, 99.0) in store.get_chunk(1)
        store.close()


class TestBackendIdentity:
    """The same operation sequence leaves identical shard files, merged
    results and simulated stage times whichever backend ran the fan-out."""

    @pytest.mark.parametrize("executor", ["serial", "thread", "process"])
    def test_results_and_bytes_identical(self, tmp_path, executor):
        reference = self._drive(tmp_path / "ref", "serial")
        candidate = self._drive(tmp_path / executor, executor)
        assert candidate == reference

    def test_more_shards_shrink_simulated_stage_time(self, tmp_path):
        """Locality-aware placement runs shard tasks in parallel on the
        simulated cluster: 8 shards finish merge and compact sooner."""
        *_, one = self._drive(tmp_path / "one", "serial", num_shards=1)
        *_, eight = self._drive(tmp_path / "eight", "serial", num_shards=8)
        merge_one, compact_one = one
        merge_eight, compact_eight = eight
        assert merge_eight < merge_one
        assert compact_eight < compact_one

    @staticmethod
    def _drive(base, executor, num_shards=4):
        store = ShardedMRBGStore(str(base), num_shards=num_shards, executor=executor)
        store.build(build_chunks(50))
        merged = list(store.merge_delta(
            sorted((k, [DeltaEdge(1, "x", Op.INSERT)]) for k in range(0, 50, 3))
        ))
        sim_merge_s = store.last_schedule.elapsed_s
        sim_compact_s = store.compact().elapsed_s
        index_bytes = store.save_index()
        metrics = store.metrics
        files = {}
        for shard in store.shards:
            for name in ("mrbg.dat", "mrbg.idx"):
                with open(os.path.join(shard.directory, name), "rb") as fh:
                    files[(os.path.basename(shard.directory), name)] = fh.read()
        store.close()
        return merged, index_bytes, metrics, files, (sim_merge_s, sim_compact_s)


# ---------------------------------------------------------------------- #
# engine equivalence                                                     #
# ---------------------------------------------------------------------- #


def _wordcount_outputs(num_shards):
    from repro.incremental.api import SumReducer

    cluster, dfs = fresh_cluster()
    docs = {i: f"w{i % 7} w{i % 3} common" for i in range(30)}
    dfs.write("/docs", sorted(docs.items()))
    engine = IncrMREngine(cluster, dfs)
    conf = JobConf(name="wc", mapper=TokenMapper, reducer=SumReducer,
                   inputs=["/docs"], output="/counts", num_reducers=3)
    _, state = engine.run_initial(conf, num_shards=num_shards)
    delta = [
        insert(30, "w1 w2 fresh"),
        delete(3, docs[3]),
        insert(31, "common common"),
    ]
    dfs.write("/delta", delta_to_dfs_records(delta))
    engine.run_incremental(conf, "/delta", state)
    out = list(dfs.read_all("/counts"))
    if num_shards is not None and num_shards > 1:
        assert any(
            isinstance(s, ShardedMRBGStore) for s in state.stores.values()
        )
    state.cleanup()
    return out


def _pagerank_state(num_shards, executor="serial"):
    from repro.algorithms.pagerank import PageRank
    from repro.datasets.graphs import mutate_web_graph, powerlaw_web_graph
    from repro.inciter.engine import I2MREngine, I2MROptions
    from repro.iterative.api import IterativeJob

    cluster, dfs = fresh_cluster()
    graph = powerlaw_web_graph(200, 6.0, seed=3)
    job = IterativeJob(PageRank(), graph, num_partitions=3,
                       max_iterations=12, epsilon=1e-6)
    engine = I2MREngine(cluster, dfs, num_shards=num_shards, executor=executor)
    _, prev = engine.run_initial(job)
    delta = mutate_web_graph(graph, 0.05, seed=9)
    result = engine.run_incremental(
        job, delta.records, prev,
        I2MROptions(filter_threshold=1e-4, max_iterations=10, epsilon=1e-6),
    )
    state = dict(prev.state)
    prev.cleanup()
    engine.close()
    return state, result.iterations


def _kmeans_state(num_shards):
    from repro.algorithms.kmeans import Kmeans
    from repro.datasets.points import gaussian_points, mutate_points
    from repro.inciter.engine import I2MREngine, I2MROptions
    from repro.iterative.api import IterativeJob

    cluster, dfs = fresh_cluster(seed=8)
    points = gaussian_points(120, dim=3, k=3, seed=8)
    job = IterativeJob(Kmeans(k=3, dim=3), points, num_partitions=3,
                       max_iterations=10, epsilon=1e-5)
    engine = I2MREngine(cluster, dfs, num_shards=num_shards)
    _, prev = engine.run_initial(job)
    delta = mutate_points(points, 0.05, seed=9)
    # Keep MRBGraph maintenance on (K-means normally trips the P∆
    # auto-off) so the incremental path exercises the stores.
    result = engine.run_incremental(
        job, delta.records, prev,
        I2MROptions(max_iterations=10, epsilon=1e-5, pdelta_threshold=1.1),
    )
    state = dict(prev.state)
    prev.cleanup()
    engine.close()
    return state, result.iterations


class TestEngineEquivalence:
    """A sharded run's merged outputs are byte-identical to the
    single-store run on every workload class."""

    def test_wordcount_finegrain(self):
        single = _wordcount_outputs(1)
        assert _wordcount_outputs(3) == single
        assert _wordcount_outputs(5) == single

    def test_pagerank_incremental(self):
        single, iters_single = _pagerank_state(None)
        sharded, iters_sharded = _pagerank_state(4)
        assert iters_sharded == iters_single
        assert sharded == single

    def test_pagerank_sharded_backends_agree(self):
        thread, _ = _pagerank_state(4, executor="thread")
        process, _ = _pagerank_state(4, executor="process")
        assert thread == process

    def test_kmeans_incremental(self):
        single, iters_single = _kmeans_state(None)
        sharded, iters_sharded = _kmeans_state(4)
        assert iters_sharded == iters_single
        assert sharded == single


class TestStreamingWithShards:
    """Micro-batched pipelines over a sharded store: identical final
    state, with per-batch shard routing surfaced in the metrics."""

    @staticmethod
    def _stream_pagerank(num_shards):
        from repro.algorithms.pagerank import PageRank
        from repro.datasets.graphs import mutate_web_graph, powerlaw_web_graph
        from repro.inciter.engine import I2MROptions
        from repro.iterative.api import IterativeJob
        from repro.streaming.batching import CountBatcher
        from repro.streaming.consumers import IterativeStreamConsumer
        from repro.streaming.pipeline import ContinuousPipeline
        from repro.streaming.sources import ReplaySource

        cluster, dfs = fresh_cluster()
        graph = powerlaw_web_graph(120, 5.0, seed=4)
        job = IterativeJob(PageRank(), graph, num_partitions=3,
                           max_iterations=40, epsilon=1e-6)
        consumer = IterativeStreamConsumer.from_initial(
            cluster, dfs, job,
            I2MROptions(filter_threshold=1e-3, max_iterations=20),
            num_shards=num_shards,
        )
        records = mutate_web_graph(graph, 0.08, seed=11).records
        with ContinuousPipeline(
            ReplaySource(records, rate=4.0), CountBatcher(7), consumer
        ) as pipe:
            result = pipe.run()
            state = dict(consumer.state())
        return state, result

    def test_sharded_pipeline_state_identical(self):
        single_state, single_result = self._stream_pagerank(None)
        sharded_state, sharded_result = self._stream_pagerank(3)
        assert sharded_state == single_state
        assert sharded_result.num_batches == single_result.num_batches
        # Unsharded stores report no shard routing...
        assert all(b.shards_touched == 0 for b in single_result.batches)
        # ...while sharded batches record the shards their delta reached.
        assert any(b.shards_touched > 0 for b in sharded_result.batches)
        assert sharded_result.mean_shards_touched > 0


class TestPreservedStateSharding:
    def test_store_for_returns_sharded(self, tmp_path):
        state = PreservedJobState(
            num_reducers=2, root_dir=str(tmp_path), num_shards=4
        )
        store = state.store_for(0)
        assert isinstance(store, ShardedMRBGStore)
        assert store.num_shards == 4
        state.cleanup()

    def test_default_is_monolithic(self, tmp_path):
        state = PreservedJobState(num_reducers=2, root_dir=str(tmp_path))
        assert isinstance(state.store_for(0), MRBGStore)
        state.cleanup()

    def test_invalid_shards(self):
        with pytest.raises(ValueError):
            PreservedJobState(num_reducers=1, num_shards=0)

    def test_zero_shards_raises_on_store_too(self, tmp_path):
        """Explicit 0 must not be coerced to the default shard count."""
        with pytest.raises(ValueError):
            ShardedMRBGStore(str(tmp_path / "zero"), num_shards=0)

    def test_close_then_store_for_reopens(self, tmp_path):
        """close() keeps files; store_for must reload them, not recreate."""
        for label, shards in (("mono", 1), ("sharded", 3)):
            state = PreservedJobState(
                num_reducers=1, root_dir=str(tmp_path / label), num_shards=shards
            )
            store = state.store_for(0)
            store.build(build_chunks(20))
            state.close()

            reopened = PreservedJobState(
                num_reducers=1, root_dir=str(tmp_path / label), num_shards=shards
            ).store_for(0)
            assert len(reopened) == 20, label
            assert reopened.get_chunk(7) == [
                Edge(mk, float(7 * 10 + mk)) for mk in range(3)
            ], label
            reopened.close()

    def test_placement_spans_engine_cluster(self, tmp_path):
        """Shard placement must use the engine's cluster size, not the
        DEFAULT_NUM_WORKERS constant."""
        from repro.incremental.api import SumReducer

        cluster, dfs = fresh_cluster(num_workers=3)
        dfs.write("/docs", [(i, f"w{i % 5} common") for i in range(20)])
        engine = IncrMREngine(cluster, dfs)
        conf = JobConf(
            name="wc", mapper=TokenMapper, reducer=SumReducer,
            inputs=["/docs"], output="/counts", num_reducers=1,
        )
        _, state = engine.run_initial(conf, num_shards=4)
        store = state.store_for(0)
        assert store.placement.num_workers == 3
        state.cleanup()
        engine.close()

    def test_env_default(self, tmp_path, monkeypatch):
        import importlib

        from repro.common import config
        monkeypatch.setenv("REPRO_SHARDS", "3")
        importlib.reload(config)
        try:
            assert config.DEFAULT_NUM_SHARDS == 3
        finally:
            monkeypatch.delenv("REPRO_SHARDS")
            importlib.reload(config)
