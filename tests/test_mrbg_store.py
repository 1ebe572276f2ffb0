"""Tests for the on-disk MRBG-Store: chunks, index, windows, batches,
persistence, compaction and metrics."""

from __future__ import annotations

import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import StoreClosedError, StoreError
from repro.common.kvpair import Op
from repro.mrbgraph.chunk import chunk_size, decode_chunk, encode_chunk
from repro.mrbgraph.graph import DeltaEdge, Edge
from repro.mrbgraph.store import MRBGStore
from repro.mrbgraph.windows import (
    IndexOnlyPolicy,
    MultiDynamicWindowPolicy,
    MultiFixedWindowPolicy,
    SingleFixedWindowPolicy,
)


def make_store(tmp_path, policy=None, **kwargs) -> MRBGStore:
    return MRBGStore(str(tmp_path / "store"), policy=policy, **kwargs)


def build_chunks(n, edges_per_chunk=3):
    return [
        (k2, [Edge(mk, float(k2 * 10 + mk)) for mk in range(edges_per_chunk)])
        for k2 in range(n)
    ]


class TestChunkCodec:
    def test_roundtrip(self):
        entries = [Edge(1, "a"), Edge(2, 3.5)]
        raw = encode_chunk("key", entries)
        k2, decoded, consumed = decode_chunk(raw)
        assert k2 == "key"
        assert decoded == entries
        assert consumed == len(raw)

    def test_chunk_size_matches(self):
        entries = [Edge(1, (2, 3))]
        assert chunk_size("k", entries) == len(encode_chunk("k", entries))

    def test_empty_chunk(self):
        raw = encode_chunk(5, [])
        k2, decoded, _ = decode_chunk(raw)
        assert k2 == 5
        assert decoded == []


class TestBuildAndGet:
    def test_build_then_get(self, tmp_path):
        store = make_store(tmp_path)
        store.build(build_chunks(20))
        assert len(store) == 20
        assert store.get_chunk(7) == [Edge(0, 70.0), Edge(1, 71.0), Edge(2, 72.0)]
        store.close()

    def test_get_missing_returns_none(self, tmp_path):
        store = make_store(tmp_path)
        store.build(build_chunks(3))
        assert store.get_chunk(99) is None
        store.close()

    def test_keys_sorted(self, tmp_path):
        store = make_store(tmp_path)
        store.build([(k, [Edge(0, k)]) for k in [5, 1, 3]])
        assert store.keys() == [1, 3, 5]
        store.close()

    def test_real_file_on_disk(self, tmp_path):
        store = make_store(tmp_path)
        store.build(build_chunks(10))
        path = os.path.join(store.directory, "mrbg.dat")
        assert os.path.getsize(path) == store.file_size > 0
        store.close()

    def test_contains(self, tmp_path):
        store = make_store(tmp_path)
        store.build(build_chunks(3))
        assert 1 in store
        assert 99 not in store
        store.close()


class TestMergeDelta:
    def test_merge_updates_and_deletes(self, tmp_path):
        store = make_store(tmp_path)
        store.build(build_chunks(5))
        delta = [
            (1, [DeltaEdge(0, 999.0, Op.INSERT)]),
            (2, [DeltaEdge(mk, None, Op.DELETE) for mk in range(3)]),
        ]
        merged = dict(store.merge_delta(delta))
        assert merged[1][0] == Edge(0, 999.0)
        assert merged[2] == []
        assert store.get_chunk(2) is None
        assert store.get_chunk(1)[0].value == 999.0
        store.close()

    def test_merge_creates_new_chunk(self, tmp_path):
        store = make_store(tmp_path)
        store.build(build_chunks(2))
        list(store.merge_delta([(77, [DeltaEdge(1, "new", Op.INSERT)])]))
        assert store.get_chunk(77) == [Edge(1, "new")]
        store.close()

    def test_each_merge_appends_a_batch(self, tmp_path):
        store = make_store(tmp_path)
        store.build(build_chunks(10))
        assert store.num_batches == 1
        for generation in range(3):
            list(store.merge_delta(
                [(k, [DeltaEdge(0, float(generation), Op.INSERT)])
                 for k in range(0, 10, 2)]
            ))
        assert store.num_batches == 4
        # Old versions remain until compaction: file exceeds live bytes.
        assert store.file_size > store.live_bytes()
        store.close()

    def test_latest_version_wins_across_batches(self, tmp_path):
        store = make_store(tmp_path)
        store.build(build_chunks(4))
        list(store.merge_delta([(1, [DeltaEdge(0, "v2", Op.INSERT)])]))
        list(store.merge_delta([(1, [DeltaEdge(0, "v3", Op.INSERT)])]))
        assert store.get_chunk(1)[0].value == "v3"
        store.close()

    def test_nested_session_raises(self, tmp_path):
        store = make_store(tmp_path)
        store.build(build_chunks(2))
        store.begin_merge([0])
        with pytest.raises(StoreError):
            store.begin_merge([1])
        store.end_merge()
        store.close()

    def test_put_outside_session_raises(self, tmp_path):
        store = make_store(tmp_path)
        with pytest.raises(StoreError):
            store.put_chunk(1, [])
        store.close()


class TestWindowPolicies:
    @pytest.mark.parametrize(
        "policy_factory",
        [
            IndexOnlyPolicy,
            lambda: SingleFixedWindowPolicy(window_size=4096),
            lambda: MultiFixedWindowPolicy(window_size=2048),
            MultiDynamicWindowPolicy,
        ],
    )
    def test_all_policies_read_correctly(self, tmp_path, policy_factory):
        store = make_store(tmp_path, policy=policy_factory())
        store.build(build_chunks(50))
        list(store.merge_delta(
            [(k, [DeltaEdge(0, -1.0, Op.INSERT)]) for k in range(0, 50, 3)]
        ))
        # Every chunk readable and correct regardless of policy.
        for k in range(50):
            chunk = store.get_chunk(k)
            expected_first = -1.0 if k % 3 == 0 else float(k * 10)
            assert chunk[0].value == expected_first
        store.close()

    def test_index_only_issues_most_reads(self, tmp_path):
        def count_reads(policy):
            store = MRBGStore(str(tmp_path / repr(policy.__class__.__name__)),
                              policy=policy)
            store.build(build_chunks(200))
            keys = list(range(0, 200, 2))
            store.begin_merge(keys)
            for k in keys:
                store.get_chunk(k)
            store.end_merge()
            reads = store.metrics.io_reads
            store.close()
            return reads

        assert count_reads(IndexOnlyPolicy()) > count_reads(
            MultiDynamicWindowPolicy()
        )

    def test_dynamic_window_prefetch_hits_cache(self, tmp_path):
        store = make_store(tmp_path, policy=MultiDynamicWindowPolicy())
        store.build(build_chunks(100))
        keys = list(range(100))
        store.begin_merge(keys)
        for k in keys:
            store.get_chunk(k)
        store.end_merge()
        assert store.metrics.cache_hits > store.metrics.cache_misses
        store.close()


class TestPersistence:
    def test_save_and_reopen(self, tmp_path):
        store = make_store(tmp_path)
        store.build(build_chunks(10))
        list(store.merge_delta([(3, [DeltaEdge(0, "updated", Op.INSERT)])]))
        store.save_index()
        store.close()

        reopened = MRBGStore.open(str(tmp_path / "store"))
        assert len(reopened) == 10
        assert reopened.get_chunk(3)[0].value == "updated"
        assert reopened.num_batches == 2
        reopened.close()

    def test_closed_store_raises(self, tmp_path):
        store = make_store(tmp_path)
        store.build(build_chunks(2))
        store.close()
        with pytest.raises(StoreClosedError):
            store.get_chunk(1)
        store.close()  # second close is a no-op


class TestCompaction:
    def test_compact_preserves_content(self, tmp_path):
        store = make_store(tmp_path)
        store.build(build_chunks(30))
        for generation in range(4):
            list(store.merge_delta(
                [(k, [DeltaEdge(0, float(generation), Op.INSERT)])
                 for k in range(0, 30, 2)]
            ))
        before = {k: store.get_chunk(k) for k in store.keys()}
        old_size = store.file_size
        store.compact()
        assert store.num_batches == 1
        assert store.file_size < old_size
        assert store.file_size == store.live_bytes()
        after = {k: store.get_chunk(k) for k in store.keys()}
        assert before == after
        store.close()

    def test_compact_during_session_raises(self, tmp_path):
        store = make_store(tmp_path)
        store.build(build_chunks(2))
        store.begin_merge([0])
        with pytest.raises(StoreError):
            store.compact()
        store.end_merge()
        store.close()

    def test_compact_tracked_separately(self, tmp_path):
        store = make_store(tmp_path)
        store.build(build_chunks(10))
        read_before = store.metrics.read_time_s
        store.compact()
        assert store.metrics.compactions == 1
        assert store.metrics.compact_time_s > 0
        # Compaction time never leaks into read/write time.
        assert store.metrics.read_time_s == read_before
        store.close()


class TestMetrics:
    def test_bytes_read_measured(self, tmp_path):
        store = make_store(tmp_path, policy=IndexOnlyPolicy())
        store.build(build_chunks(10))
        store.metrics.reset()
        store.begin_merge([4])
        chunk_bytes = chunk_size(4, store.get_chunk(4))
        store.end_merge()
        assert store.metrics.bytes_read == chunk_bytes
        assert store.metrics.io_reads == 1
        store.close()

    def test_snapshot_since(self, tmp_path):
        store = make_store(tmp_path)
        store.build(build_chunks(10))
        snap = store.metrics.snapshot()
        list(store.merge_delta([(1, [DeltaEdge(0, 1.0, Op.INSERT)])]))
        delta = store.metrics.since(snap)
        assert delta.io_reads >= 1
        assert delta.bytes_written > 0
        store.close()


# Property test: an arbitrary interleaving of merges matches a dict model.
_delta_ops = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=9),   # k2
        st.integers(min_value=0, max_value=4),   # mk
        st.integers(min_value=-100, max_value=100),  # value
        st.booleans(),  # delete?
    ),
    min_size=1,
    max_size=30,
)


class TestStoreModelProperty:
    @given(st.lists(_delta_ops, min_size=1, max_size=4))
    @settings(max_examples=50, deadline=None)
    def test_merges_match_dict_model(self, tmp_path_factory, batches):
        tmp = tmp_path_factory.mktemp("store-prop")
        store = MRBGStore(str(tmp))
        store.build([(k, [Edge(0, 0)]) for k in range(10)])
        model = {k: {0: 0} for k in range(10)}

        for batch in batches:
            grouped = {}
            for k2, mk, value, is_delete in batch:
                grouped.setdefault(k2, []).append(
                    DeltaEdge(mk, None if is_delete else value,
                              Op.DELETE if is_delete else Op.INSERT)
                )
                chunk = model.setdefault(k2, {})
                if is_delete:
                    chunk.pop(mk, None)
                else:
                    chunk[mk] = value
            list(store.merge_delta(sorted(grouped.items())))

        for k in range(10):
            expected = model.get(k, {})
            actual = store.get_chunk(k)
            if not expected:
                assert actual is None or actual == []
            else:
                assert actual == [Edge(mk, expected[mk]) for mk in sorted(expected)]
        store.close()


GOLDEN_STORE = os.path.join(os.path.dirname(__file__), "golden", "mrbg_store")


class TestGoldenStore:
    """A store written by the pre-overhaul codec (legacy index layout and
    generic chunk encodings) must reopen and decode identically."""

    def test_golden_store_decodes_identically(self):
        store = MRBGStore.open(GOLDEN_STORE)
        try:
            assert store.num_batches == 2
            assert store.get_chunk(1) == [Edge(0, 0.5), Edge(1, -9.75), Edge(2, 2.5)]
            assert store.get_chunk(2) == [Edge(8, 8.125)]
            assert store.get_chunk(5) == [Edge(3, "text-value"), Edge(9, b"\x00\xffbin")]
            assert store.get_chunk("alpha") == [Edge(11, [1, 2, {"a": None}])]
            assert store.get_chunk(("t", 3)) == [Edge(1, (True, False, 2.25))]
        finally:
            store.close()

    def test_golden_reencode_is_byte_identical(self, tmp_path):
        """Re-writing the golden chunks produces the same chunk bytes."""
        source = MRBGStore.open(GOLDEN_STORE)
        clone = make_store(tmp_path)
        try:
            chunks = [(key, source.get_chunk(key)) for key in source.keys()]
            clone.build(chunks)
            for key, entries in chunks:
                assert clone.get_chunk(key) == entries
                assert clone._index[key].length == source._index[key].length
        finally:
            source.close()
            clone.close()


class TestIndexAccounting:
    def test_save_index_charges_metrics(self, tmp_path):
        store = make_store(tmp_path)
        store.build(build_chunks(10))
        writes_before = store.metrics.io_writes
        bytes_before = store.metrics.bytes_written
        time_before = store.metrics.write_time_s
        nbytes = store.save_index()
        assert nbytes > 0
        assert store.metrics.io_writes == writes_before + 1
        assert store.metrics.bytes_written == bytes_before + nbytes
        assert store.metrics.write_time_s > time_before
        store.close()

    def test_open_charges_index_read(self, tmp_path):
        store = make_store(tmp_path)
        store.build(build_chunks(10))
        nbytes = store.save_index()
        store.close()
        reopened = MRBGStore.open(str(tmp_path / "store"))
        assert reopened.metrics.io_reads == 1
        assert reopened.metrics.bytes_read == nbytes
        assert reopened.metrics.read_time_s > 0
        reopened.close()

    def test_index_roundtrips_through_stream_format(self, tmp_path):
        store = make_store(tmp_path)
        store.build([(k, [Edge(0, 1.0)]) for k in [3, ("t", 1), "s"]])
        list(store.merge_delta([(3, [DeltaEdge(1, 1.0, Op.INSERT)])]))
        store.save_index()
        index_before = dict(store._index)
        batches_before = store.num_batches
        store.close()
        reopened = MRBGStore.open(str(tmp_path / "store"))
        assert reopened._index == index_before
        assert reopened.num_batches == batches_before
        reopened.close()


class TestStreamingCompaction:
    def test_compact_multi_batch_streams_to_same_content(self, tmp_path):
        # Tiny append buffer: compaction must flush in many small batches
        # instead of holding the file in memory, with identical results.
        store = make_store(tmp_path, append_buffer_size=64)
        store.build(build_chunks(40))
        for generation in range(3):
            list(store.merge_delta(
                [(k, [DeltaEdge(0, float(generation), Op.INSERT)])
                 for k in range(0, 40, 3)]
            ))
        before = {k: store.get_chunk(k) for k in store.keys()}
        live = store.live_bytes()
        store.compact()
        assert store.file_size == live
        assert store.num_batches == 1
        assert {k: store.get_chunk(k) for k in store.keys()} == before
        # The compacted file is immediately reusable for further merges.
        list(store.merge_delta([(1, [DeltaEdge(9, 99.0, Op.INSERT)])]))
        assert Edge(9, 99.0) in store.get_chunk(1)
        store.close()

    def test_compact_leaves_no_temp_file(self, tmp_path):
        store = make_store(tmp_path)
        store.build(build_chunks(5))
        store.compact()
        assert not [f for f in os.listdir(store.directory) if f.endswith(".compact")]
        store.close()

    def test_compact_empty_store(self, tmp_path):
        store = make_store(tmp_path)
        store.build([])
        store.compact()
        assert store.file_size == 0
        assert store.num_batches == 0
        store.close()


class TestPrefetchLookahead:
    def test_default_comes_from_config(self, tmp_path):
        from repro.common import config
        store = make_store(tmp_path)
        assert store.prefetch_lookahead == config.DEFAULT_PREFETCH_LOOKAHEAD
        store.close()

    def test_lookahead_bounds_upcoming(self, tmp_path):
        store = make_store(tmp_path, prefetch_lookahead=2)
        store.build(build_chunks(10))
        keys = list(range(10))
        store.begin_merge(keys)
        loc = store._index[0]
        upcoming = store._upcoming_in_batch(0, loc)
        assert len(upcoming) == 2
        store.end_merge()
        store.close()


class TestEncodeOnce:
    def test_put_chunk_index_length_matches_single_encoding(self, tmp_path):
        store = make_store(tmp_path)
        entries = [Edge(0, 1.0), Edge(1, 2.0)]
        store.begin_merge([])
        store.put_chunk(42, entries)
        store.end_merge()
        assert store.get_chunk(42) == entries
        assert store._index[42].length == len(encode_chunk(42, entries))
        assert store._index[42].length == chunk_size(42, entries)
        store.close()

    def test_chunk_size_no_longer_encodes(self):
        # chunk_size must agree with the encoder for every value shape.
        cases = [
            (1, [Edge(0, 1.5), Edge(1, 2.5), Edge(2, 3.5), Edge(3, 4.5)]),
            ("k", [Edge(0, "ünïcode"), Edge(1, b"raw")]),
            ((1, "t"), [Edge(5, [1, {"a": (None, True)}])]),
            (0, []),
        ]
        for k2, entries in cases:
            assert chunk_size(k2, entries) == len(encode_chunk(k2, entries))
