"""Fault-injection durability suite for the crash-safe MRBG-Store.

The contract under test (docs/store.md, "Durability & recovery"): a
store killed at *any* crash point reopens — via write-ahead-log replay —
at a state byte-identical to either the moment before the interrupted
operation or the moment after it, never a third state.  The crash matrix
drives every named crash site on a single and a sharded store; a
Hypothesis property test interleaves random mutations with a crash at a
random WAL byte offset; golden files pin the journal's wire format and
the sharded manifest layout.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.config import DEFAULT_NUM_SHARDS
from repro.common.errors import WALCorruptError
from repro.common.kvpair import Op, delete, insert
from repro.common.serialization import encode_many
from repro.faults import (
    CrashPoint,
    FaultContext,
    FaultInjector,
    FaultSpec,
    InjectedCrash,
)
from repro.incremental.api import SumReducer, delta_to_dfs_records
from repro.incremental.engine import IncrMREngine
from repro.mapreduce.api import Mapper
from repro.mapreduce.engine import MapReduceEngine
from repro.mapreduce.job import JobConf
from repro.mrbgraph.graph import DeltaEdge, Edge
from repro.mrbgraph.sharding import HashShardRouter, ShardedMRBGStore
from repro.mrbgraph.store import MRBGStore, decode_index, encode_index_entries
from repro.mrbgraph.wal import (
    OP_BEGIN,
    OP_CHECKPOINT,
    OP_COMMIT,
    OP_COMPACT_BEGIN,
    OP_COMPACT_COMMIT,
    OP_DELETE,
    OP_PUT,
    WriteAheadLog,
    atomic_write,
    decode_wal_record,
    encode_put_record,
    encode_wal_record,
    fsync_directory,
)
from repro.mrbgraph.windows import ChunkLocation

from tests.conftest import fresh_cluster

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "wal_records.json")

NUM_SHARDS = 4


# --------------------------------------------------------------------- #
# helpers                                                               #
# --------------------------------------------------------------------- #


def new_store(directory, kind, fault_hook=None):
    """A fresh store of the requested kind (serial backend)."""
    if kind == "single":
        return MRBGStore(str(directory), fault_hook=fault_hook)
    return ShardedMRBGStore(
        str(directory),
        num_shards=NUM_SHARDS,
        executor="serial",
        fault_hook=fault_hook,
    )


def reopen_store(directory, kind, fault_hook=None):
    """Reopen a persisted store directory (recovery runs here)."""
    if kind == "single":
        return MRBGStore.open(str(directory), fault_hook=fault_hook)
    return ShardedMRBGStore.open(str(directory), executor="serial", fault_hook=fault_hook)


def store_units(directory, kind):
    """Per-shard directories (one unit for a single store)."""
    if kind == "single":
        return {0: str(directory)}
    return {
        sid: os.path.join(str(directory), "shard-%04d" % sid)
        for sid in range(NUM_SHARDS)
    }


def unit_digest(unit_dir):
    """Digest of one shard directory's durable bytes (data + index).

    The WAL is deliberately excluded: it is a redo log, reset on every
    index flush, not part of the store's logical state.
    """
    h = hashlib.sha256()
    for name in ("mrbg.dat", "mrbg.idx"):
        path = os.path.join(unit_dir, name)
        data = open(path, "rb").read() if os.path.exists(path) else b"<absent>"
        h.update(name.encode())
        h.update(len(data).to_bytes(8, "little"))
        h.update(data)
    return h.hexdigest()


def digests(directory, kind):
    return {sid: unit_digest(d) for sid, d in store_units(directory, kind).items()}


def assert_no_stray_files(directory):
    """Recovery must leave no temp/compact droppings anywhere."""
    for root, _dirs, files in os.walk(str(directory)):
        for name in files:
            assert not name.endswith(".tmp"), os.path.join(root, name)
            assert not name.endswith(".compact"), os.path.join(root, name)


def seed_chunks(keys):
    return [(k, [Edge(mk, k * 100.0 + mk) for mk in range(3)]) for k in sorted(keys)]


SEED_KEYS = list(range(24))


def build_pre_state(directory, kind):
    """Seed + one committed merge + save: the 'pre' golden state.

    The merge leaves a second batch and dead bytes behind, so the
    compaction scenarios have real work to do.
    """
    store = new_store(directory, kind)
    store.build(seed_chunks(SEED_KEYS))
    store.begin_merge(sorted(SEED_KEYS))
    for k in sorted(SEED_KEYS)[:8]:
        store.put_chunk(k, [Edge(0, k + 0.5), Edge(9, 9.0)])
    store.end_merge()
    store.save_index()
    store.close()


def scenario_merge(store):
    """The interrupted operation for the merge-path crash points."""
    keys = sorted(SEED_KEYS)
    deletes = keys[::5]
    updates = [k for k in keys if k not in deletes]
    store.begin_merge(keys)
    for k in updates:
        store.put_chunk(k, [Edge(0, k - 0.25), Edge(7, 7.0)])
    for k in deletes:
        store.delete_chunk(k)
    for k in range(100, 104):
        store.put_chunk(k, [Edge(1, 1.25)])
    store.end_merge()
    store.save_index()


def scenario_compact(store):
    """The interrupted operation for the compaction crash points."""
    store.compact()
    store.save_index()


#: crash point -> (scenario, expected state of the crashed shard,
#: expected state of every *other* shard).  "pre"/"post" name the golden
#: states around the interrupted operation; a maintenance round under a
#: crash hook stops at the crashed shard before any sibling commits, so
#: siblings land on "pre" except for the merge commit path, where every
#: shard's session committed before the index swap crashed.
CRASH_SCENARIOS = {
    "wal-append": (scenario_merge, "pre", "pre"),
    "pre-index-swap": (scenario_merge, "post", "post"),
    "pre-dir-fsync": (scenario_merge, "post", "post"),
    "mid-compact-write": (scenario_compact, "pre", "pre"),
    "post-compact-pre-swap": (scenario_compact, "post", "pre"),
}

#: occurrence of the (point, shard 0) hit that crashes: the second
#: journal append (OP_BEGIN is the first) for wal-append, the first hit
#: for the single-shot sites.
CRASH_OCCURRENCE = {
    "wal-append": 1,
    "pre-index-swap": 0,
    "pre-dir-fsync": 0,
    "mid-compact-write": 0,
    "post-compact-pre-swap": 0,
}


def crash_context(point, occurrence=None, byte_offset=None):
    ctx = FaultContext(
        FaultInjector(
            [
                FaultSpec(
                    iteration=(
                        CRASH_OCCURRENCE[point] if occurrence is None else occurrence
                    ),
                    stage="store",
                    task_index=0,
                    crash_point=point,
                    byte_offset=byte_offset,
                )
            ]
        )
    )
    return ctx


def run_crash_and_recover(tmp_path, kind, point, occurrence=None, byte_offset=None):
    """Build pre/post goldens, crash at ``point``, recover; return digests."""
    pre_dir = tmp_path / "pre"
    build_pre_state(pre_dir, kind)
    pre = digests(pre_dir, kind)

    scenario, expect_crashed, expect_other = CRASH_SCENARIOS[point]

    post_dir = tmp_path / "post"
    shutil.copytree(pre_dir, post_dir)
    golden = reopen_store(post_dir, kind)
    scenario(golden)
    golden.close()
    post = digests(post_dir, kind)

    crash_dir = tmp_path / "crash"
    shutil.copytree(pre_dir, crash_dir)

    def wal_bytes(directory):
        path = os.path.join(store_units(directory, kind)[0], "mrbg.wal")
        return open(path, "rb").read() if os.path.exists(path) else b""

    ctx = crash_context(point, occurrence=occurrence, byte_offset=byte_offset)
    store = reopen_store(crash_dir, kind, fault_hook=ctx.store_hook())
    with pytest.raises(InjectedCrash) as excinfo:
        scenario(store)
    assert excinfo.value.point == point
    assert excinfo.value.shard == 0
    assert store.crashed
    store.abandon()  # whole-node kill: siblings drop unflushed work too
    assert ctx.store_crash_log and ctx.store_crash_log[0][0] == point

    # A crash that flushed nothing new leaves the journal at its pre-state
    # checkpoint — reopening then has nothing to repair.
    journal_changed = wal_bytes(crash_dir) != wal_bytes(pre_dir)

    recovered = reopen_store(crash_dir, kind)
    shards = recovered.shards if kind == "sharded" else (recovered,)
    # The crashed shard's reopen must have run a recovery iff the crash
    # left any flushed evidence behind.
    assert (shards[0].metrics.recoveries >= 1) == journal_changed
    for shard in shards:  # every chunk must be readable post-recovery
        for key in shard.keys():
            assert shard.get_chunk(key) is not None
    recovered.save_index()
    recovered.close()
    after = digests(crash_dir, kind)
    assert_no_stray_files(crash_dir)

    return pre, post, after, expect_crashed, expect_other


#: Every crash point × {single, sharded}.  The ``-full`` id suffix names
#: the store's one compaction rule, full offline reconstruction.
MATRIX = [
    pytest.param(point, kind, id=f"{point}-{kind}-full")
    for point in CRASH_SCENARIOS
    for kind in ("single", "sharded")
]


class TestCrashMatrix:
    """Every crash point × {single, sharded} store."""

    @pytest.mark.parametrize("point,kind", MATRIX)
    def test_recovery_is_byte_identical(self, tmp_path, point, kind):
        pre, post, after, expect_crashed, expect_other = run_crash_and_recover(
            tmp_path, kind, point
        )
        golden = {"pre": pre, "post": post}
        assert after[0] == golden[expect_crashed][0]
        for sid in after:
            if sid == 0:
                continue
            assert after[sid] == golden[expect_other][sid]
            # ...and in particular never some third, merged state:
            assert after[sid] in (pre[sid], post[sid])

    @pytest.mark.parametrize(
        "occurrence,byte_offset",
        [(0, None), (1, 0), (1, 1), (1, 7), (1, 8), (1, 20), (2, 10_000)],
        ids=["begin", "none", "in-len", "in-crc", "post-header", "mid-payload",
             "full-record"],
    )
    def test_torn_wal_append_rolls_back(self, tmp_path, occurrence, byte_offset):
        """A merge append torn at any byte offset rolls back to 'pre'.

        Even a *fully* written put record (offset past the record length)
        rolls back: the session's commit record never made it.
        """
        pre, post, after, _, _ = run_crash_and_recover(
            tmp_path, "single", "wal-append",
            occurrence=occurrence, byte_offset=byte_offset,
        )
        assert after[0] == pre[0]
        assert after[0] != post[0]

    def test_recovery_is_idempotent(self, tmp_path):
        """A second reopen after recovery replays only a checkpoint."""
        run_crash_and_recover(tmp_path, "single", "pre-index-swap")
        again = reopen_store(tmp_path / "crash", "single")
        assert again.metrics.recoveries == 0
        again.close()

    def test_clean_lifecycle_never_recovers(self, tmp_path):
        """No faults, no crash: reopen charges zero recoveries."""
        build_pre_state(tmp_path / "s", "single")
        store = reopen_store(tmp_path / "s", "single")
        assert store.metrics.recoveries == 0
        assert store.metrics.wal_bytes_replayed > 0  # the checkpoint record
        store.close()


# --------------------------------------------------------------------- #
# random interleavings (property test)                                  #
# --------------------------------------------------------------------- #


KEYS = st.integers(min_value=0, max_value=7)
MERGE_OPS = st.lists(
    st.tuples(KEYS, st.one_of(st.none(), st.floats(allow_nan=False,
                                                   allow_infinity=False))),
    min_size=0,
    max_size=6,
)


def _apply_mirror(mirror, ops):
    out = dict(mirror)
    for key, value in ops:
        if value is None:
            out.pop(key, None)
        else:
            out[key] = [Edge(0, value)]
    return out


def _logical_state(store):
    return {k: store.get_chunk(k) for k in store.keys()}


class TestRandomInterleavings:
    """Random put/delete/save interleavings with a random torn append."""

    @settings(max_examples=30, deadline=None)
    @given(
        merges=st.lists(st.tuples(MERGE_OPS, st.booleans()), min_size=1, max_size=4),
        crash_hit=st.integers(min_value=0, max_value=24),
        byte_offset=st.one_of(st.none(), st.integers(min_value=0, max_value=64)),
    )
    def test_recovers_to_adjacent_state(self, merges, crash_hit, byte_offset):
        """The recovered store always equals a pre- or post-merge mirror."""
        root = tempfile.mkdtemp(prefix="durability-prop-")
        try:
            ctx = crash_context("wal-append", occurrence=crash_hit,
                                byte_offset=byte_offset)
            store = new_store(os.path.join(root, "s"), "single",
                              fault_hook=ctx.store_hook())
            mirrors = [{}]
            crashed_during = None
            for i, (ops, save_after) in enumerate(merges):
                mirrors.append(_apply_mirror(mirrors[-1], ops))
                try:
                    store.begin_merge(sorted({k for k, _ in ops}))
                    for key, value in ops:
                        if value is None:
                            store.delete_chunk(key)
                        else:
                            store.put_chunk(key, [Edge(0, value)])
                    store.end_merge()
                    if save_after:
                        store.save_index()
                except InjectedCrash:
                    crashed_during = i
                    break
            if crashed_during is None:
                store.save_index()
                store.close()
                expected = [mirrors[-1]]
            else:
                # Never a third state: the merge either vanished whole or
                # committed whole.  (A torn *commit* record rolls back; a
                # fully-flushed one rolls forward.)
                expected = [mirrors[crashed_during], mirrors[crashed_during + 1]]

            recovered = MRBGStore.open(os.path.join(root, "s"))
            assert _logical_state(recovered) in expected
            recovered.save_index()
            recovered.close()

            again = MRBGStore.open(os.path.join(root, "s"))
            assert again.metrics.recoveries == 0  # recovery converged
            assert _logical_state(again) in expected
            again.close()
        finally:
            shutil.rmtree(root, ignore_errors=True)


# --------------------------------------------------------------------- #
# engine-level recovery                                                 #
# --------------------------------------------------------------------- #


class TokenMapper(Mapper):
    def map(self, key, text, ctx):
        for word in text.split():
            ctx.emit(word, 1)


class InEdgeMapper(Mapper):
    """The paper's Fig 3 application: in-edge weight sums."""

    def map(self, i, value, ctx):
        for j, w in value:
            ctx.emit(j, w)


def run_scratch(records, mapper, reducer, num_reducers=2):
    cluster, dfs = fresh_cluster()
    dfs.write("/in", sorted(records.items()))
    MapReduceEngine(cluster, dfs).run(
        JobConf(name="scratch", mapper=mapper, reducer=reducer,
                inputs=["/in"], output="/out", num_reducers=num_reducers)
    )
    return dict(dfs.read_all("/out"))


class TestEngineRecovery:
    """A crashed incremental run completes identically after recovery."""

    def _crash_and_rerun(self, base, delta, new_input, mapper, point):
        cluster, dfs = fresh_cluster()
        dfs.write("/in", sorted(base.items()))
        engine = IncrMREngine(cluster, dfs)
        conf = JobConf(name="job", mapper=mapper, reducer=SumReducer,
                       inputs=["/in"], output="/out", num_reducers=2)
        _, state = engine.run_initial(conf)
        state.close()  # persist indexes; stores reopen lazily below

        dfs.write("/d", delta_to_dfs_records(delta))
        ctx = crash_context(point, occurrence=0)
        state._fault_hook = ctx.store_hook()
        with pytest.raises(InjectedCrash):
            engine.run_incremental(conf, "/d", state)
        assert ctx.store_crash_log

        # The process "restarts": drop every in-memory store unflushed,
        # clear the injection, and re-run the same incremental job.
        state._fault_hook = None
        state.reset_stores()
        result = engine.run_incremental(conf, "/d", state)
        refreshed = dict(dfs.read_all(result.output))
        state.cleanup()

        assert refreshed == run_scratch(new_input, mapper, SumReducer)

    def test_wordcount_recovers_after_merge_crash(self):
        base = {0: "a b a", 1: "b c", 2: "c c d"}
        delta = [delete(1, "b c"), insert(1, "b b e"), insert(3, "a e")]
        new_input = {0: "a b a", 1: "b b e", 2: "c c d", 3: "a e"}
        self._crash_and_rerun(base, delta, new_input, TokenMapper, "wal-append")

    def test_inedge_recovers_after_index_swap_crash(self):
        base = {
            0: ((1, 0.3), (2, 0.3)),
            1: ((2, 0.4),),
            2: ((0, 0.5), (1, 0.5)),
        }
        delta = [
            delete(0, ((1, 0.3), (2, 0.3))),
            insert(0, ((2, 0.6),)),
            insert(3, ((0, 0.1),)),
        ]
        new_input = {
            0: ((2, 0.6),),
            1: ((2, 0.4),),
            2: ((0, 0.5), (1, 0.5)),
            3: ((0, 0.1),),
        }
        self._crash_and_rerun(base, delta, new_input, InEdgeMapper,
                              "pre-index-swap")


# --------------------------------------------------------------------- #
# golden wire formats                                                   #
# --------------------------------------------------------------------- #


#: name -> the exact (op, *fields) each golden record was encoded from.
GOLDEN_RECORD_ARGS = {
    "checkpoint": (OP_CHECKPOINT, 4096, 3),
    "begin": (OP_BEGIN, 1024, 2),
    "put": (OP_PUT, "key", b"\x00\x01\xff"),
    "delete": (OP_DELETE, "gone"),
    "commit": (OP_COMMIT, 2048, 3),
    "compact-begin": (OP_COMPACT_BEGIN,),
    "compact-commit": (OP_COMPACT_COMMIT, [("k", 0, 10)], 10),
}


def golden_rows(keys, width):
    """Deterministic ``(key, offset, length[, batch])`` rows for the row goldens.

    Offsets are contiguous, lengths vary and, at ``width`` 4, batches
    cycle through 0..2 — the shapes compaction commits and ``mrbg.idx``
    carry.
    """
    rows, offset = [], 0
    for i, key in enumerate(keys):
        length = 23 + (i * 37) % 211
        rows.append((key, offset, length, i % 3)[:width])
        offset += length
    return rows


#: 80 int keys: both i64 edges, -1, 0, then a spread of negatives and positives.
GOLDEN_INT_KEYS = [-(1 << 63), (1 << 63) - 1, -1, 0] + [
    k * 7919 - 300_000 for k in range(76)
]

#: name -> (rows, num_batches) each pinned ``encode_index_entries`` stream encodes.
GOLDEN_INDEX_ARGS = {
    "int-keys": (golden_rows(GOLDEN_INT_KEYS, 4), 3),
    "str-keys": (golden_rows([f"key-{i:03d}" for i in range(70)], 4), 3),
}

#: name -> the (op, *fields) of each pinned fixed-width-row WAL record.
GOLDEN_ROW_RECORD_ARGS = {
    "compact-commit-int-rows": (
        OP_COMPACT_COMMIT,
        golden_rows(GOLDEN_INT_KEYS, 3),
        sum(length for _, _, length in golden_rows(GOLDEN_INT_KEYS, 3)),
    ),
}


class TestGoldenFormats:
    """The WAL record framing and manifest layout are pinned byte-for-byte."""

    @pytest.fixture(scope="class")
    def golden(self):
        with open(GOLDEN) as fh:
            return json.load(fh)

    def test_every_opcode_is_pinned(self, golden):
        assert {r["name"] for r in golden["records"]} == set(GOLDEN_RECORD_ARGS)

    def test_record_encodings_match_golden(self, golden):
        for rec in golden["records"]:
            op, *fields = GOLDEN_RECORD_ARGS[rec["name"]]
            assert encode_wal_record(op, *fields).hex() == rec["hex"], rec["name"]

    def test_staged_records_match_golden(self, golden, tmp_path):
        # WriteAheadLog.append frames OP_PUT directly, every other opcode
        # through the codec: both must stage the pinned bytes.
        wal = WriteAheadLog(str(tmp_path / "mrbg.wal"))
        for rec in golden["records"]:
            op, *fields = GOLDEN_RECORD_ARGS[rec["name"]]
            assert wal.append(op, *fields) == len(rec["hex"]) // 2
        wal.close()
        with open(tmp_path / "mrbg.wal", "rb") as fh:
            assert fh.read().hex() == golden["stream"]

    def test_records_decode_roundtrip(self, golden):
        for rec in golden["records"]:
            raw = bytes.fromhex(rec["hex"])
            op, *fields = GOLDEN_RECORD_ARGS[rec["name"]]
            value, consumed = decode_wal_record(raw)
            assert consumed == len(raw)
            assert value == (op, *fields)

    def test_stream_replays_in_order(self, golden):
        raw = bytes.fromhex(golden["stream"])
        replay = WriteAheadLog.replay_bytes(raw)
        assert not replay.truncated
        assert replay.valid_bytes == replay.total_bytes == len(raw)
        names = [r["name"] for r in golden["records"]]
        assert [rec[0] for rec in replay.records] == [
            GOLDEN_RECORD_ARGS[name][0] for name in names
        ]

    def test_torn_tail_stops_replay(self, golden):
        raw = bytes.fromhex(golden["stream"])
        replay = WriteAheadLog.replay_bytes(raw[:-1])
        assert replay.truncated
        assert len(replay.records) == len(golden["records"]) - 1
        assert replay.valid_bytes < replay.total_bytes

    def test_corrupt_byte_fails_loudly(self, golden):
        # Mid-log corruption of a fully contained record is NOT a torn
        # tail: silently dropping the suffix could resurrect stale
        # preserved state, so replay raises the typed error instead.
        raw = bytearray(bytes.fromhex(golden["stream"]))
        first_len = len(bytes.fromhex(golden["records"][0]["hex"]))
        raw[first_len + 10] ^= 0xFF  # flip a byte inside record #2
        with pytest.raises(WALCorruptError) as excinfo:
            WriteAheadLog.replay_bytes(bytes(raw))
        assert excinfo.value.offset == first_len
        assert "checksum" in excinfo.value.reason

    def test_torn_vs_corrupt_are_distinguishable(self, golden):
        raw = bytes.fromhex(golden["stream"])
        # Every prefix cut (what a crash can produce) is tolerated...
        for cut in (1, 5, len(raw) - 3):
            replay = WriteAheadLog.replay_bytes(raw[:-cut])
            assert replay.truncated
        # ...while a contained-record corruption in the same stream is not
        # (byte 9 sits inside the first record's payload, past its 8-byte
        # length+crc header, so the record stays fully contained).
        flipped = bytearray(raw)
        flipped[9] ^= 0x01
        with pytest.raises(WALCorruptError):
            WriteAheadLog.replay_bytes(bytes(flipped))

    def test_manifest_layout_matches_golden(self, golden, tmp_path):
        spec = golden["manifest"]
        router = HashShardRouter(spec["num_shards"])
        raw = encode_many([{"router": router.spec()}])
        assert raw.hex() == spec["hex"]
        store = new_store(tmp_path / "s", "sharded")
        store.close()
        with open(tmp_path / "s" / "mrbg.shards", "rb") as fh:
            assert fh.read().hex() == spec["hex"]

    def test_row_records_match_golden(self, golden, tmp_path):
        records = golden["row_tables"]["records"]
        assert {r["name"] for r in records} == set(GOLDEN_ROW_RECORD_ARGS)
        wal = WriteAheadLog(str(tmp_path / "mrbg.wal"))
        for rec in records:
            op, *fields = GOLDEN_ROW_RECORD_ARGS[rec["name"]]
            raw = bytes.fromhex(rec["hex"])
            assert encode_wal_record(op, *fields) == raw, rec["name"]
            assert wal.append(op, *fields) == len(raw)
            assert decode_wal_record(raw) == ((op, *fields), len(raw))
        wal.close()
        with open(tmp_path / "mrbg.wal", "rb") as fh:
            assert fh.read() == b"".join(bytes.fromhex(r["hex"]) for r in records)

    def test_index_streams_match_golden(self, golden):
        streams = golden["row_tables"]["index"]
        assert {s["name"] for s in streams} == set(GOLDEN_INDEX_ARGS)
        for stream in streams:
            rows, num_batches = GOLDEN_INDEX_ARGS[stream["name"]]
            raw = bytes.fromhex(stream["hex"])
            assert encode_index_entries(rows, num_batches) == raw, stream["name"]
            index, batches = decode_index(raw)
            assert batches == num_batches
            assert index == {
                key: ChunkLocation(offset, length, batch)
                for key, offset, length, batch in rows
            }


_codec_keys = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(min_value=-(1 << 63), max_value=(1 << 63) - 1),
        st.floats(allow_nan=True, allow_infinity=True),
        st.sampled_from([float("nan"), -0.0]),
        st.text(max_size=6),
        st.binary(max_size=6),
    ),
    lambda inner: st.one_of(
        st.tuples(inner, inner),
        st.lists(inner, max_size=3),
        st.dictionaries(st.text(max_size=2), inner, max_size=2),
    ),
    max_leaves=6,
)


class TestDirectPutFrame:
    """``OP_PUT`` records skip the codec for the chunk, not for the bytes."""

    @given(key=_codec_keys, chunk=st.binary(max_size=300))
    @settings(max_examples=300, deadline=None)
    def test_direct_frame_is_the_codec_frame(self, key, chunk):
        assert encode_put_record(key, chunk) == encode_wal_record(OP_PUT, key, chunk)
        record, end = decode_wal_record(encode_put_record(key, chunk))
        assert end == len(encode_put_record(key, chunk))
        assert record[0] == OP_PUT and record[2] == chunk

    def test_append_takes_the_direct_path_only_for_bytes(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path / "mrbg.wal"))
        for key, chunk in (("k", b""), ((1, "x"), b"\x00" * 40), (2, "not bytes")):
            wal.append(OP_PUT, key, chunk)
        wal.close()
        with open(tmp_path / "mrbg.wal", "rb") as fh:
            replay = WriteAheadLog.replay_bytes(fh.read())
        assert [rec[1:] for rec in replay.records] == [
            ("k", b""), ((1, "x"), b"\x00" * 40), (2, "not bytes")]


class TestAtomicWrite:
    """The temp + fsync + rename swap behind every index/manifest write."""

    def test_success_leaves_no_temp(self, tmp_path):
        target = tmp_path / "f.bin"
        atomic_write(str(target), b"one")
        atomic_write(str(target), b"two")
        assert target.read_bytes() == b"two"
        assert not os.path.exists(str(target) + ".tmp")

    def test_crash_before_replace_keeps_old_bytes(self, tmp_path):
        target = tmp_path / "f.bin"
        atomic_write(str(target), b"old")

        def boom():
            raise InjectedCrash("pre-index-swap", 0, 0)

        with pytest.raises(InjectedCrash):
            atomic_write(str(target), b"new", pre_replace=boom)
        # Old bytes intact beside a complete temp file — exactly the
        # wreckage recovery then sweeps up.
        assert target.read_bytes() == b"old"
        assert open(str(target) + ".tmp", "rb").read() == b"new"

    def test_crash_before_dir_fsync_keeps_new_bytes(self, tmp_path):
        # The rename already happened when pre-dir-fsync fires: readers
        # see the new bytes and no temp file is left behind.
        target = tmp_path / "f.bin"
        atomic_write(str(target), b"old")

        def boom():
            raise InjectedCrash("pre-dir-fsync", 0, 0)

        with pytest.raises(InjectedCrash):
            atomic_write(str(target), b"new", pre_dir_sync=boom)
        assert target.read_bytes() == b"new"
        assert not os.path.exists(str(target) + ".tmp")

    def test_directory_fsync_tolerates_missing_directory(self, tmp_path):
        fsync_directory(str(tmp_path))  # plain success
        fsync_directory(str(tmp_path / "vanished"))  # silently tolerated


# --------------------------------------------------------------------- #
# configuration plumbing                                                #
# --------------------------------------------------------------------- #


class TestConfigPlumbing:
    def test_fault_spec_store_stage_validation(self):
        with pytest.raises(ValueError):
            FaultSpec(iteration=0, stage="store", task_index=0)  # no crash_point
        with pytest.raises(ValueError):
            FaultSpec(iteration=0, stage="map", task_index=0,
                      crash_point="wal-append")
        with pytest.raises(ValueError):
            CrashPoint(point="not-a-site")

    def test_default_shard_count_is_pinned(self):
        # The durability matrix assumes engine states default to single
        # stores; a default change must revisit the engine tests here.
        assert DEFAULT_NUM_SHARDS == 1


# --------------------------------------------------------------------- #
# idle-time compaction                                                  #
# --------------------------------------------------------------------- #


class TestCompactionPolicies:
    """The one idle-time rule: compact on a second batch or dead bytes."""

    def test_full_fires_on_second_batch_or_dead_bytes(self, tmp_path):
        store = new_store(tmp_path / "s", "single")
        store.build(seed_chunks(range(4)))
        assert store.num_batches == 1 and store.file_size == store.live_bytes()
        assert not store.maybe_compact()
        # A merge stacks a second batch and supersedes the old versions.
        store.begin_merge([1])
        store.put_chunk(1, [Edge(0, 1.5)])
        store.end_merge()
        assert store.num_batches == 2
        assert store.maybe_compact()
        # Dead bytes alone fire too: a delete leaves the batch stack at one.
        store.begin_merge([2])
        store.delete_chunk(2)
        store.end_merge()
        assert store.num_batches == 1 and store.file_size > store.live_bytes()
        assert store.maybe_compact()
        assert store.file_size == store.live_bytes()
        store.close()

    def test_maybe_compact_is_policy_gated(self, tmp_path):
        build_pre_state(tmp_path / "s", "single")
        store = reopen_store(tmp_path / "s", "single")
        # The pre state's second batch fires the rule...
        assert store.maybe_compact()
        assert store.num_batches == 1
        assert store.file_size == store.live_bytes()
        # ...and the compacted store no longer does.
        assert not store.maybe_compact()
        assert store.metrics.compactions == 1
        store.close()

    def test_delta_edge_ops_survive_merge(self, tmp_path):
        """Sanity: Op-tagged delta edges drive the same WAL-backed path."""
        store = new_store(tmp_path / "s", "single")
        store.build(seed_chunks(range(4)))
        merged = dict(
            store.merge_delta(
                [
                    (1, [DeltaEdge(0, -1.0, Op.INSERT)]),
                    (2, [DeltaEdge(mk, 0.0, Op.DELETE) for mk in range(3)]),
                ]
            )
        )
        assert merged[1][0] == Edge(0, -1.0)
        assert merged[2] == []
        assert 2 not in store
        store.save_index()
        store.close()
