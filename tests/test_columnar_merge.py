"""Differential tests of the columnar MRBG-Store merge.

The store merges a delta into a chunk through ``get_chunk`` →
``apply_delta`` → ``put_chunk``; the chunk travels between them as a
:class:`~repro.mrbgraph.chunk.ColumnarEdges`, and a replace-only delta is
patched straight into the chunk's encoded bytes.  This module keeps the
``List[Edge]`` merge path that design replaced as a *reference* —
``reference_decode_chunk`` / ``reference_apply_delta`` /
``reference_encode_chunk`` below — and requires that, for every input,
both write the same bytes to ``mrbg.dat`` and ``mrbg.wal`` and count the
same ``StoreMetrics``.

A store also keeps the columns of every chunk it put with a proven value
type resident, and ``get_chunk`` returns them instead of decoding when
the on-disk bytes at the indexed offset still equal their encoding.
``merge_path(reference=False, resident=False)`` turns that off, giving
a decode-every-time reference the resident store must match read for
read.
"""

from __future__ import annotations

import contextlib
import dataclasses
import os
import random
import shutil
import struct
import tempfile
from typing import Any, Dict, List, Tuple

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.mrbgraph.store as store_module
from repro.common.errors import (
    ChunkKeyMismatch,
    DuplicateChunkKey,
    SerializationError,
    StoreError,
)
from repro.common.kvpair import Op
from repro.common.serialization import (
    _TAG_FLOAT,
    _TAG_INT,
    _TAG_LIST,
    _TAG_TUPLE,
    _U32,
    as_view,
    decode,
    decode_record,
    encode_into,
)
from repro.faults.injection import CrashDirective, InjectedCrash
from repro.mrbgraph.chunk import ColumnarEdges, decode_chunk, encode_chunk
from repro.mrbgraph.graph import DeltaEdge, Edge, apply_delta
from repro.mrbgraph.sharding import ShardedMRBGStore
from repro.mrbgraph.store import MRBGStore
from repro.mrbgraph.windows import ChunkLocation

GOLDEN_STORE = os.path.join(os.path.dirname(__file__), "golden", "mrbg_store")


# --------------------------------------------------------------------- #
# the reference: the List[Edge] merge path as it was before the change  #
# --------------------------------------------------------------------- #


def _reference_encode_flat_edges(mks, values, value_tag: int, fmt: str) -> bytearray:
    n = len(mks)
    out = bytearray(23 * n)
    out[0::23] = bytes([_TAG_TUPLE]) * n
    out[1::23] = b"\x02" * n
    out[5::23] = bytes([_TAG_INT]) * n
    packed_mk = struct.pack("<%dq" % n, *mks)
    for i in range(8):
        out[6 + i :: 23] = packed_mk[i::8]
    out[14::23] = bytes([value_tag]) * n
    packed_v = struct.pack(fmt % n, *values)
    for i in range(8):
        out[15 + i :: 23] = packed_v[i::8]
    return out


def reference_encode_chunk(k2: Any, entries: List[Edge]) -> bytes:
    body = bytearray()
    body.append(_TAG_TUPLE)
    body += _U32.pack(2)
    encode_into(k2, body)
    body.append(_TAG_LIST)
    body += _U32.pack(len(entries))
    if len(entries) >= 4:
        mks, values = zip(*entries)
        if set(map(type, mks)) == {int}:
            value_types = set(map(type, values))
            try:
                if value_types == {float}:
                    body += _reference_encode_flat_edges(mks, values, _TAG_FLOAT, "<%dd")
                    return _U32.pack(len(body)) + bytes(body)
                if value_types == {int}:
                    body += _reference_encode_flat_edges(mks, values, _TAG_INT, "<%dq")
                    return _U32.pack(len(body)) + bytes(body)
            except struct.error:
                pass
    for entry in entries:
        encode_into(tuple(entry), body)
    return _U32.pack(len(body)) + bytes(body)


def _reference_decode_flat_edges(mv: memoryview, start: int, count: int):
    end = start + 23 * count
    for rel, expected in enumerate(bytes((_TAG_TUPLE, 2, 0, 0, 0, _TAG_INT))):
        if mv[start + rel : end : 23] != bytes([expected]) * count:
            return None
    value_tags = mv[start + 14 : end : 23]
    if value_tags == bytes([_TAG_FLOAT]) * count:
        flat = struct.unpack("<" + "6xq1xd" * count, mv[start:end])
    elif value_tags == bytes([_TAG_INT]) * count:
        flat = struct.unpack("<" + "6xq1xq" * count, mv[start:end])
    else:
        return None
    return list(map(Edge, flat[0::2], flat[1::2]))


def reference_decode_chunk(buf, offset: int = 0) -> Tuple[Any, List[Edge], int]:
    mv = as_view(buf)
    (length,) = _U32.unpack_from(mv, offset)
    body_start = offset + 4
    end = body_start + length
    if (
        end <= len(mv)
        and length >= 10
        and mv[body_start] == _TAG_TUPLE
        and _U32.unpack_from(mv, body_start + 1)[0] == 2
    ):
        k2, pos = decode(mv, body_start + 5)
        if pos + 5 <= end and mv[pos] == _TAG_LIST:
            (count,) = _U32.unpack_from(mv, pos + 1)
            payload_start = pos + 5
            if count and end - payload_start == 23 * count:
                entries = _reference_decode_flat_edges(mv, payload_start, count)
                if entries is not None:
                    return k2, entries, end
    k2, payload, next_offset = decode_record(mv, offset)
    return k2, [Edge(item[0], item[1]) for item in payload], next_offset


def reference_apply_delta(old_entries: List[Edge], delta_entries) -> List[Edge]:
    merged: Dict[int, Any] = {mk: value for mk, value in old_entries}
    for mk, value, op in delta_entries:
        if op is Op.DELETE:
            merged.pop(mk, None)
        else:
            merged[mk] = value
    return [Edge(mk, merged[mk]) for mk in sorted(merged)]


def _never_resident(entries, raw):
    return None


@contextlib.contextmanager
def merge_path(reference: bool, resident: bool = True):
    """Run ``MRBGStore`` on the reference ``List[Edge]`` functions.

    The store reaches the three functions through its module globals, so
    swapping those gives exactly the pre-change merge loop.  (A context
    manager rather than ``monkeypatch``: it is entered inside ``@given``.)
    The reference never keeps chunks resident; ``resident=False`` alone
    keeps the columnar codec but decodes every read.
    """
    swapped = {}
    if reference:
        swapped.update(
            decode_chunk=reference_decode_chunk,
            apply_delta=reference_apply_delta,
            encode_chunk=reference_encode_chunk,
        )
    if reference or not resident:
        swapped["decoded_columns"] = _never_resident
    saved = {name: getattr(store_module, name) for name in swapped}
    for name, fn in swapped.items():
        setattr(store_module, name, fn)
    try:
        yield
    finally:
        for name, fn in saved.items():
            setattr(store_module, name, fn)


# --------------------------------------------------------------------- #
# inputs                                                                #
# --------------------------------------------------------------------- #

_I64_MAX = (1 << 63) - 1

_floats = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([float("nan"), -0.0, 0.0, float("inf"), float("-inf")]),
)
_ints = st.integers(min_value=-(1 << 63), max_value=_I64_MAX)
_huge_ints = st.sampled_from([1 << 63, -(1 << 63) - 1, 1 << 70])
_bools = st.booleans()

#: value strategies by chunk flavour.
_VALUES = {
    "float": _floats,
    "int": _ints,
    "mixed": st.one_of(_floats, _ints),
    "bool": _bools,
    "text": st.one_of(st.text(max_size=4), st.none(), _floats),
}

_mks = st.integers(min_value=0, max_value=40)
_k2s = st.one_of(
    st.integers(min_value=-5, max_value=500),
    st.text(min_size=1, max_size=3),
    st.tuples(st.integers(min_value=0, max_value=9), st.text(max_size=2)),
)


@st.composite
def chunk_edges(draw, flavour=None) -> List[Edge]:
    """One chunk's edge list: any flavour, any order, duplicates allowed."""
    flavour = flavour or draw(st.sampled_from(sorted(_VALUES)))
    shape = draw(st.sampled_from(["sorted", "sorted", "sorted", "shuffled", "duplicates"]))
    size = draw(st.sampled_from([1, 2, 3, 4, 5, 9, 20]))
    mks = draw(st.lists(_mks, min_size=size, max_size=size, unique=shape != "duplicates"))
    if shape == "sorted":
        mks.sort()
    values = draw(st.lists(_VALUES[flavour], min_size=len(mks), max_size=len(mks)))
    return [Edge(mk, value) for mk, value in zip(mks, values)]


@st.composite
def delta_edges(draw, old: List[Edge]) -> List[DeltaEdge]:
    """A delta against ``old``: replace, insert, delete, absent, repeated,
    wrong-typed and out-of-range edges in any mix."""
    present = [mk for mk, _ in old] or [0]
    some_value = st.one_of(_floats, _ints, _bools, _huge_ints, st.text(max_size=2))
    like_old = st.sampled_from([type(value) for _, value in old] or [float]).flatmap(
        lambda cls: {float: _floats, int: _ints, bool: _bools}.get(cls, some_value)
    )
    edge = st.one_of(
        # replace the value of an MK the chunk holds, keeping its type
        st.builds(DeltaEdge, st.sampled_from(present), like_old, st.just(Op.INSERT)),
        st.builds(DeltaEdge, st.sampled_from(present), like_old, st.just(Op.INSERT)),
        # any value (other types, beyond i64) under a held or a new MK
        st.builds(DeltaEdge, st.sampled_from(present), some_value, st.just(Op.INSERT)),
        st.builds(DeltaEdge, _mks, like_old, st.just(Op.INSERT)),
        st.builds(DeltaEdge, _mks, some_value, st.just(Op.INSERT)),
        # delete a held MK / an MK that may be absent
        st.builds(DeltaEdge, st.sampled_from(present), st.none(), st.just(Op.DELETE)),
        st.builds(DeltaEdge, _mks, st.none(), st.just(Op.DELETE)),
    )
    kind = draw(st.sampled_from(["replace-only", "any", "any"]))
    if kind == "replace-only":
        edge = st.builds(DeltaEdge, st.sampled_from(present), like_old, st.just(Op.INSERT))
    return draw(st.lists(edge, min_size=1, max_size=6))


@st.composite
def chunk_and_delta(draw):
    k2 = draw(_k2s)
    old = draw(chunk_edges())
    return k2, old, draw(delta_edges(old))


@st.composite
def store_scenario(draw):
    """Initial chunks plus a few rounds of sorted deltas over them."""
    keys = draw(st.lists(st.integers(0, 30), min_size=1, max_size=8, unique=True))
    chunks = {key: draw(chunk_edges()) for key in sorted(keys)}
    rounds = []
    current = {key: list(edges) for key, edges in chunks.items()}
    for _ in range(draw(st.integers(1, 3))):
        touched = draw(st.lists(st.sampled_from(sorted(keys) + [99, 100]), min_size=1,
                                max_size=5, unique=True))
        delta = []
        for key in sorted(touched):
            edges = draw(delta_edges(current.get(key, [])))
            delta.append((key, edges))
            current[key] = reference_apply_delta(current.get(key, []), edges)
        rounds.append(delta)
    return chunks, rounds


_HISTORY_OPS = ["merge", "merge", "merge", "read", "compact", "save_index", "reopen",
                "tamper"]


@st.composite
def store_history(draw):
    """Initial chunks plus a random history of store operations.

    Besides merges (replace-only, structural, deletes, wrong-typed and
    out-of-range edges), a history reads every chunk, compacts, flushes
    the index, kills and reopens the store, or overwrites a byte of one
    chunk's values on disk behind the store's back.
    """
    keys = draw(st.lists(st.integers(0, 30), min_size=1, max_size=8, unique=True))
    flavours = st.sampled_from(["float", "float", "int", "int"] + sorted(_VALUES))
    chunks = {key: draw(chunk_edges(draw(flavours))) for key in sorted(keys)}
    current = {key: list(edges) for key, edges in chunks.items()}
    ops: List[Tuple[Any, ...]] = []
    for _ in range(draw(st.integers(1, 7))):
        kind = draw(st.sampled_from(_HISTORY_OPS))
        if kind == "merge":
            touched = draw(st.lists(st.sampled_from(sorted(keys) + [99, 100]), min_size=1,
                                    max_size=5, unique=True))
            delta = []
            for key in sorted(touched):
                old = current.get(key, [])
                if old and draw(st.integers(0, 3)) == 0:  # empty the chunk: a delete
                    edges = [DeltaEdge(mk, None, Op.DELETE) for mk, _ in old]
                else:
                    edges = draw(delta_edges(old))
                delta.append((key, edges))
                current[key] = reference_apply_delta(old, edges)
            ops.append(("merge", delta))
        elif kind == "tamper":
            ops.append(("tamper", draw(st.integers(0, 99)), draw(st.integers(0, 7)),
                        draw(st.integers(1, 255))))
        else:
            ops.append((kind,))
    return chunks, ops


# --------------------------------------------------------------------- #
# helpers                                                               #
# --------------------------------------------------------------------- #


def _read(path: str) -> bytes:
    if not os.path.exists(path):
        return b"<absent>"
    with open(path, "rb") as fh:
        return fh.read()


def _store_bytes(directory: str) -> Dict[str, bytes]:
    """Every durable byte under a store directory, by relative path."""
    out = {}
    for root, _dirs, files in os.walk(directory):
        for name in files:
            path = os.path.join(root, name)
            out[os.path.relpath(path, directory)] = _read(path)
    return out


def _run_single(directory: str, chunks, rounds, wal_enabled: bool = True):
    """Build + merge every round on a fresh ``MRBGStore``.

    Returns everything observable: what each merge yielded (or the error
    that ended it), the bytes on disk before the final index flush (so
    the journal still holds every record), and the metrics.
    """
    store = MRBGStore(directory, wal_enabled=wal_enabled, append_buffer_size=256)
    observed: List[Any] = []
    try:
        store.build(sorted(chunks.items()))
        for delta in rounds:
            try:
                observed.append(repr([(k2, list(entries)) for k2, entries in
                                      store.merge_delta(delta)]))
            except SerializationError:  # an int beyond i64 reached the encoder
                observed.append("SerializationError")
        store._wal_flush()
        on_disk = _store_bytes(directory)
        metrics = dataclasses.asdict(store.metrics)
        contents = repr([(key, list(store.get_chunk(key))) for key in store.keys()])
    finally:
        store.close()
    return observed, on_disk, metrics, contents


def _columns(entries) -> Tuple[str, str, Any, Any]:
    """Everything a read returned: both columns, the bytes and the proof."""
    return (repr(entries.mks), repr(entries.values), entries.raw, entries.value_type)


def _tamper(store: MRBGStore, pick: int, back: int, mask: int) -> None:
    """XOR ``mask`` into one of the last eight bytes of a live chunk on disk.

    The chunk is one of the newest batch — the ones a store keeps
    resident, if their type was proven.  The bytes are those of its last
    value (or, in a generic chunk, of its last edge), so the key and the
    framing stay intact.  The write goes through the store's own file
    handle, so its next physical read sees it rather than a stale
    read-ahead buffer.
    """
    newest = max((loc.batch for loc in store._index.values()), default=0)
    keys = [key for key in store.keys() if store._index[key].batch == newest]
    if not keys:
        return
    loc = store._index[keys[pick % len(keys)]]
    position = loc.offset + loc.length - 1 - min(back, loc.length - 1)
    fh = store._fh
    fh.seek(position)
    byte = fh.read(1)[0]
    fh.seek(position)
    fh.write(bytes([byte ^ mask]))
    fh.flush()


def _assert_resident_is_live(store: MRBGStore) -> None:
    """Resident columns exist only for live chunks, at their indexed offset."""
    for key, (offset, columns) in store._resident.items():
        assert key in store._index, key
        assert store._index[key].offset == offset, key
        assert columns.value_type is not None and columns.raw is not None
    assert not store._pending_resident


def _attempt(fn) -> Any:
    try:
        return fn()
    except (SerializationError, StoreError) as exc:
        return f"{type(exc).__name__}: {exc}"


def _run_history(directory: str, chunks, ops, wal_enabled: bool):
    """Replay a :func:`store_history` on a fresh store; returns what it saw."""
    store = MRBGStore(directory, wal_enabled=wal_enabled, append_buffer_size=256)
    observed: List[Any] = []

    def read_all():
        return [(key, _columns(store.get_chunk(key))) for key in store.keys()]

    try:
        store.build(sorted(chunks.items()))
        for op in ops:
            if op[0] == "merge":
                observed.append(_attempt(lambda: [
                    (k2, repr(list(entries))) for k2, entries in store.merge_delta(op[1])
                ]))
            elif op[0] == "read":
                observed.append(_attempt(read_all))
            elif op[0] == "compact":
                store.compact()
            elif op[0] == "save_index":
                store.save_index()
            elif op[0] == "reopen":
                store.abandon()
                store = MRBGStore.open(directory, wal_enabled=wal_enabled)
                store.append_buffer_size = 256
                assert not store._resident
            else:
                _tamper(store, *op[1:])
                observed.append(_attempt(read_all))
            _assert_resident_is_live(store)
        observed.append(_attempt(read_all))
        store._wal_flush()
        on_disk = _store_bytes(directory)
        metrics = dataclasses.asdict(store.metrics)
    finally:
        store.close()
    assert not store._resident  # closing forgets the columns
    return observed, on_disk, metrics


# --------------------------------------------------------------------- #
# codec level: one chunk, one delta                                     #
# --------------------------------------------------------------------- #


class TestColumnarEdges:
    def test_behaves_like_the_list_it_replaced(self):
        edges = [Edge(1, 0.5), Edge(4, 1.5), Edge(9, -2.0)]
        _, columns, _ = decode_chunk(encode_chunk(7, edges))
        assert isinstance(columns, ColumnarEdges)
        assert len(columns) == 3 and columns
        assert list(columns) == edges
        assert columns[0] == Edge(1, 0.5) and columns[-1].value == -2.0
        assert columns[1:] == edges[1:]
        assert columns == edges and edges == columns
        assert columns != edges[:2] and edges[:2] != columns
        assert Edge(4, 1.5) in columns
        assert [mk for mk, _ in columns] == [1, 4, 9]
        assert not ColumnarEdges() and ColumnarEdges() == []

    def test_columns_do_not_pin_the_buffer_they_were_read_from(self):
        window = bytearray(encode_chunk(7, [Edge(i, float(i)) for i in range(6)]))
        view = memoryview(window)
        _, columns, _ = decode_chunk(view)
        view.release()
        window.clear()  # raises BufferError while any export is alive
        assert columns[5] == Edge(5, 5.0)
        assert encode_chunk(7, columns) == encode_chunk(7, list(columns))

    def test_encoded_bytes_are_reused_only_for_the_key_they_encode(self):
        edges = [Edge(i, float(i)) for i in range(5)]
        raw = encode_chunk(7, edges)
        _, columns, _ = decode_chunk(raw)
        assert encode_chunk(7, columns) is columns.raw
        for other in (8, 7.0, True, "7", (7,)):
            assert encode_chunk(other, columns) == reference_encode_chunk(other, edges)

    def test_replace_only_delta_patches_the_encoded_bytes(self):
        edges = [Edge(i, float(i)) for i in range(6)]
        _, columns, _ = decode_chunk(encode_chunk(3, edges))
        merged = apply_delta(columns, [DeltaEdge(2, 9.5, Op.INSERT),
                                       DeltaEdge(4, 1.0, Op.INSERT),
                                       DeltaEdge(2, 7.5, Op.INSERT)])
        assert merged.raw is not None and merged.mks is columns.mks
        assert merged == [Edge(0, 0.0), Edge(1, 1.0), Edge(2, 7.5), Edge(3, 3.0),
                          Edge(4, 1.0), Edge(5, 5.0)]
        assert encode_chunk(3, merged) is merged.raw
        assert merged.raw == reference_encode_chunk(3, list(merged))
        assert columns == edges  # the input is not written to

    @pytest.mark.parametrize("delta", [
        [DeltaEdge(2, 1, Op.INSERT)],             # an int into a float chunk
        [DeltaEdge(2, True, Op.INSERT)],
        [DeltaEdge(7, 1.0, Op.INSERT)],           # a new MK
        [DeltaEdge(2, None, Op.DELETE)],
        [DeltaEdge(7, None, Op.DELETE)],          # delete of an absent MK
    ], ids=["int-value", "bool-value", "insert", "delete", "delete-absent"])
    def test_other_deltas_merge_on_the_columns(self, delta):
        edges = [Edge(i, float(i)) for i in range(6)]
        _, columns, _ = decode_chunk(encode_chunk(3, edges))
        merged = apply_delta(columns, delta)
        assert merged.raw is None
        assert merged == reference_apply_delta(edges, delta)
        assert encode_chunk(3, merged) == reference_encode_chunk(3, list(merged))

    def test_unsorted_or_duplicate_chunks_are_never_patched(self):
        for edges in ([Edge(3, 1.0), Edge(1, 2.0), Edge(2, 3.0), Edge(0, 4.0)],
                      [Edge(1, 1.0), Edge(1, 2.0), Edge(2, 3.0), Edge(3, 4.0)]):
            _, columns, _ = decode_chunk(reference_encode_chunk(5, edges))
            assert columns.raw is not None
            delta = [DeltaEdge(1, 8.0, Op.INSERT)]
            merged = apply_delta(columns, delta)
            assert merged.raw is None
            assert merged == reference_apply_delta(edges, delta)

    def test_int_beyond_i64_fails_the_same_way(self):
        edges = [Edge(i, i) for i in range(5)]
        _, columns, _ = decode_chunk(encode_chunk(3, edges))
        merged = apply_delta(columns, [DeltaEdge(2, 1 << 70, Op.INSERT)])
        assert merged == reference_apply_delta(edges, [DeltaEdge(2, 1 << 70, Op.INSERT)])
        with pytest.raises(SerializationError):
            reference_encode_chunk(3, list(merged))
        with pytest.raises(SerializationError):
            encode_chunk(3, merged)

    @given(chunk_and_delta())
    @settings(max_examples=400, deadline=None)
    def test_merge_writes_the_reference_bytes(self, case):
        k2, old, delta = case
        raw = reference_encode_chunk(k2, old)
        assert encode_chunk(k2, old) == raw
        ref_k2, ref_old, ref_end = reference_decode_chunk(raw)
        new_k2, new_old, new_end = decode_chunk(raw)
        assert (repr(new_k2), new_end) == (repr(ref_k2), ref_end)
        assert repr(list(new_old)) == repr(ref_old)
        assert encode_chunk(k2, new_old) == raw
        expected = reference_apply_delta(ref_old, delta)
        merged = apply_delta(new_old, delta)
        assert repr(list(merged)) == repr(expected)
        try:
            expected_raw = reference_encode_chunk(k2, expected)
        except SerializationError:
            with pytest.raises(SerializationError):
                encode_chunk(k2, merged)
            return
        assert encode_chunk(k2, merged) == expected_raw
        # and once more from the merged chunk, as the next refresh would
        _, again, _ = decode_chunk(expected_raw)
        assert encode_chunk(k2, apply_delta(again, [])) == reference_encode_chunk(
            k2, reference_apply_delta(expected, [])
        )


# --------------------------------------------------------------------- #
# store level: data file, journal, metrics                              #
# --------------------------------------------------------------------- #


class TestStoreDifferential:
    @pytest.mark.parametrize("wal_enabled", [True, False], ids=["wal", "no-wal"])
    @given(scenario=store_scenario())
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture,
                                     HealthCheck.too_slow])
    def test_same_chunk_bytes_wal_bytes_and_metrics(self, wal_enabled, scenario):
        chunks, rounds = scenario
        with tempfile.TemporaryDirectory() as tmp:
            with merge_path(reference=True):
                expected = _run_single(os.path.join(tmp, "ref"), chunks, rounds, wal_enabled)
            actual = _run_single(os.path.join(tmp, "new"), chunks, rounds, wal_enabled)
        for got, want in zip(actual, expected):
            assert got == want
        if wal_enabled:
            assert "mrbg.wal" in actual[1]

    def test_reference_path_really_is_the_list_path(self, tmp_path):
        store = MRBGStore(str(tmp_path / "s"))
        store.build([(1, [Edge(i, float(i)) for i in range(5)])])
        with merge_path(reference=True):
            assert type(store.get_chunk(1)) is list
        assert type(store.get_chunk(1)) is ColumnarEdges
        store.close()

    def test_patched_put_appends_the_patched_bytes_unchanged(self, tmp_path):
        store = MRBGStore(str(tmp_path / "s"))
        store.build([(k, [Edge(i, float(i)) for i in range(8)]) for k in range(4)])
        seen = []
        original = store_module.encode_chunk

        def spy(key, entries):
            raw = original(key, entries)
            seen.append(raw is getattr(entries, "raw", None))
            return raw

        store_module.encode_chunk = spy
        try:
            list(store.merge_delta([(1, [DeltaEdge(3, 0.25, Op.INSERT)]),
                                    (2, [DeltaEdge(9, 0.25, Op.INSERT)])]))
        finally:
            store_module.encode_chunk = original
        assert seen == [True, False]
        assert store.get_chunk(1)[3] == Edge(3, 0.25)
        assert store.get_chunk(2)[-1] == Edge(9, 0.25)
        store.close()


class TestResidentColumns:
    @pytest.mark.parametrize("wal_enabled", [True, False], ids=["wal", "no-wal"])
    @given(history=store_history())
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture,
                                     HealthCheck.too_slow])
    def test_resident_reads_equal_decoded_reads(self, wal_enabled, history):
        chunks, ops = history
        with tempfile.TemporaryDirectory() as tmp:
            with merge_path(reference=False, resident=False):
                expected = _run_history(os.path.join(tmp, "decoded"), chunks, ops,
                                        wal_enabled)
            actual = _run_history(os.path.join(tmp, "resident"), chunks, ops, wal_enabled)
        for got, want in zip(actual, expected):
            assert got == want

    def test_merged_chunks_are_served_resident(self, tmp_path):
        store = MRBGStore(str(tmp_path / "s"))
        store.build([(k, [Edge(i, float(i)) for i in range(6)]) for k in range(3)])
        assert not store._resident  # a list-of-edges build proves nothing
        merged = dict(store.merge_delta([
            (0, [DeltaEdge(2, 0.5, Op.INSERT)]),               # replace-only
            (1, [DeltaEdge(9, 0.5, Op.INSERT)]),               # structural
            (2, [DeltaEdge(3, "x", Op.INSERT)]),               # unproven
        ]))
        assert set(store._resident) == {0, 1}
        assert store.get_chunk(0) is merged[0]  # the patched columns themselves
        assert store.get_chunk(1) is store._resident[1][1]
        assert store.get_chunk(1) == merged[1] and store.get_chunk(1).raw is not None
        assert store.get_chunk(2) is not merged[2] and store.get_chunk(2) == merged[2]
        list(store.merge_delta([(0, [DeltaEdge(i, None, Op.DELETE) for i in range(6)]),
                                (1, [DeltaEdge(9, 1, Op.INSERT)])]))
        assert not store._resident  # a delete and an unproven put evict
        store.close()

    def test_compaction_moves_resident_columns_with_their_chunks(self, tmp_path):
        store = MRBGStore(str(tmp_path / "s"))
        store.build([(k, [Edge(i, float(i)) for i in range(6)]) for k in range(4)])
        merged = dict(store.merge_delta([(k, [DeltaEdge(1, -1.0, Op.INSERT)])
                                         for k in (1, 3)]))
        store.compact()
        assert {key: offset for key, (offset, _) in store._resident.items()} == {
            key: store._index[key].offset for key in (1, 3)}
        assert store.get_chunk(3) is merged[3]
        store.close()

    def test_a_killed_store_reopens_with_nothing_resident(self, tmp_path):
        directory = str(tmp_path / "s")
        store = MRBGStore(directory)
        store.build([(1, [Edge(i, float(i)) for i in range(6)])])
        merged = dict(store.merge_delta([(1, [DeltaEdge(1, -1.0, Op.INSERT)])]))
        store.save_index()
        assert 1 in store._resident
        store.abandon()
        assert not store._resident
        reopened = MRBGStore.open(directory)
        assert not reopened._resident
        assert reopened.get_chunk(1) == merged[1]
        reopened.close()


class TestDuplicateKeyInOneSession:
    @pytest.mark.parametrize("num_shards", [1, 4])
    def test_a_repeated_key_is_refused_before_anything_is_journaled(self, tmp_path,
                                                                    num_shards):
        directory = str(tmp_path / "s")
        store = ShardedMRBGStore(directory, num_shards=num_shards)
        store.build([(1, [Edge(10, 1.0), Edge(11, 2.0)]), (2, [Edge(10, 1.0)])])
        store.save_index()
        before = _store_bytes(directory)
        delta = [(1, [DeltaEdge(12, 1.0, Op.INSERT)]),
                 (2, [DeltaEdge(12, 1.0, Op.INSERT)]),
                 (1, [DeltaEdge(13, 1.0, Op.INSERT)])]
        with pytest.raises(DuplicateChunkKey) as err:
            list(store.merge_delta(delta))
        assert isinstance(err.value, StoreError) and err.value.key == 1
        with pytest.raises(DuplicateChunkKey):
            store.begin_merge([1, 2, 1])
        for shard in store.shards:
            shard._wal_flush()
        assert _store_bytes(directory) == before
        # nothing was lost either: merging the groups one session each works
        for group in delta:
            list(store.merge_delta([group]))
        assert store.get_chunk(1) == [Edge(10, 1.0), Edge(11, 2.0), Edge(12, 1.0),
                                      Edge(13, 1.0)]
        store.close()

    def test_the_plain_store_refuses_it_too(self, tmp_path):
        store = MRBGStore(str(tmp_path / "s"))
        store.build([(1, [Edge(10, 1.0), Edge(11, 2.0)])])
        appends = store.metrics.wal_appends
        with pytest.raises(DuplicateChunkKey):
            list(store.merge_delta([(1, [DeltaEdge(12, 1.0, Op.INSERT)]),
                                    (1, [DeltaEdge(13, 1.0, Op.INSERT)])]))
        assert store.metrics.wal_appends == appends and not store._in_session
        store.close()


class TestMisindexedChunk:
    def test_a_chunk_of_another_key_is_refused(self, tmp_path):
        store = MRBGStore(str(tmp_path / "s"))
        store.build([(k, [Edge(i, float(k)) for i in range(5)]) for k in (1, 2)])
        # hand-corrupt the index: key 1 now points at key 2's chunk
        wrong = store._index[2]
        store._index[1] = ChunkLocation(wrong.offset, wrong.length, wrong.batch)
        with pytest.raises(ChunkKeyMismatch) as err:
            store.get_chunk(1)
        assert isinstance(err.value, StoreError)
        assert (err.value.requested, err.value.found) == (1, 2)
        size_before = store.file_size
        with pytest.raises(ChunkKeyMismatch):
            list(store.merge_delta([(1, [DeltaEdge(0, 9.0, Op.INSERT)])]))
        assert store.file_size == size_before  # nothing of key 2 was merged under key 1
        assert store.get_chunk(2) == [Edge(i, 2.0) for i in range(5)]
        store.close()

    def _resident_pair(self, tmp_path) -> MRBGStore:
        store = MRBGStore(str(tmp_path / "s"))
        store.build([(k, [Edge(i, float(k)) for i in range(5)]) for k in (1, 2)])
        list(store.merge_delta([(k, [DeltaEdge(0, float(k), Op.INSERT)]) for k in (1, 2)]))
        assert set(store._resident) == {1, 2}
        return store

    def test_a_chunk_of_another_key_is_refused_while_both_are_resident(self, tmp_path):
        store = self._resident_pair(tmp_path)
        wrong = store._index[2]
        store._index[1] = ChunkLocation(wrong.offset, wrong.length, wrong.batch)
        with pytest.raises(ChunkKeyMismatch) as err:
            store.get_chunk(1)
        assert (err.value.requested, err.value.found) == (1, 2)
        size_before = store.file_size
        with pytest.raises(ChunkKeyMismatch):
            list(store.merge_delta([(1, [DeltaEdge(0, 9.0, Op.INSERT)])]))
        assert store.file_size == size_before
        assert store.get_chunk(2) == [Edge(i, 2.0) for i in range(5)]
        store.close()

    @pytest.mark.parametrize("overwrite", ["value", "other-key"])
    def test_bytes_overwritten_on_disk_are_read_not_the_resident_columns(self, tmp_path,
                                                                         overwrite):
        store = self._resident_pair(tmp_path)
        one, two = store._index[1], store._index[2]
        with open(os.path.join(store.directory, "mrbg.dat"), "r+b") as fh:
            if overwrite == "value":  # the last edge's value
                fh.seek(one.offset + one.length - 8)
                fh.write(struct.pack("<d", 7.5))
            else:  # key 2's chunk where key 1's was
                fh.seek(two.offset)
                chunk_two = fh.read(two.length)
                fh.seek(one.offset)
                fh.write(chunk_two)
        if overwrite == "value":
            assert store.get_chunk(1) == [Edge(i, 1.0) for i in range(4)] + [Edge(4, 7.5)]
        else:
            with pytest.raises(ChunkKeyMismatch):
                store.get_chunk(1)
        store.close()

    def test_equal_keys_of_different_types_still_read(self, tmp_path):
        store = MRBGStore(str(tmp_path / "s"))
        store.build([(1, [Edge(0, 1.0)])])
        assert store.get_chunk(True) == store.get_chunk(1.0) == [Edge(0, 1.0)]
        store.close()


# --------------------------------------------------------------------- #
# a crash while a patched chunk is being journaled                      #
# --------------------------------------------------------------------- #


def _crash_on_wal_append(occurrence: int, byte_offset):
    hits = {"n": 0}

    def hook(point, shard_id, nbytes):
        if point != "wal-append":
            return None
        hits["n"] += 1
        if hits["n"] - 1 == occurrence:
            return CrashDirective(byte_offset=byte_offset, occurrence=occurrence)
        return None

    return hook


class TestCrashDuringPatchedPut:
    KEYS = list(range(6))

    def _seed(self, directory):
        store = MRBGStore(directory, wal_enabled=True)
        store.build([(k, [Edge(i, k + i / 8) for i in range(8)]) for k in self.KEYS])
        store.save_index()
        store.close()

    def _delta(self):
        return [(k, [DeltaEdge(2, -1.0 - k, Op.INSERT), DeltaEdge(5, 0.5, Op.INSERT)])
                for k in self.KEYS]

    def _contents(self, directory):
        store = MRBGStore.open(directory, wal_enabled=True)
        try:
            return {k: list(store.get_chunk(k)) for k in store.keys()}, store.file_size
        finally:
            store.close()

    # occurrence 0 is OP_BEGIN, 1.. are the puts of the patched chunks
    @pytest.mark.parametrize("occurrence", [1, 3, 6])
    @pytest.mark.parametrize("byte_offset", [None, 0, 5, 40, 10_000])
    def test_recovers_to_the_pre_state(self, tmp_path, occurrence, byte_offset):
        pre_dir, post_dir, crash_dir = (str(tmp_path / n) for n in ("pre", "post", "crash"))
        self._seed(pre_dir)
        shutil.copytree(pre_dir, post_dir)
        shutil.copytree(pre_dir, crash_dir)
        pre = self._contents(pre_dir)

        done = MRBGStore.open(post_dir, wal_enabled=True)
        list(done.merge_delta(self._delta()))
        done.save_index()
        done.close()
        post = self._contents(post_dir)
        assert post != pre

        crashing = MRBGStore.open(
            crash_dir, wal_enabled=True,
            fault_hook=_crash_on_wal_append(occurrence, byte_offset),
        )
        with pytest.raises(InjectedCrash):
            list(crashing.merge_delta(self._delta()))
        assert crashing.crashed

        # the session never committed: recovery rolls it back, and the
        # same delta then applies cleanly and lands on the post state
        assert self._contents(crash_dir) == pre
        retry = MRBGStore.open(crash_dir, wal_enabled=True)
        list(retry.merge_delta(self._delta()))
        retry.save_index()
        retry.close()
        assert self._contents(crash_dir) == post
        assert _read(os.path.join(crash_dir, "mrbg.dat")) == _read(
            os.path.join(post_dir, "mrbg.dat"))

    def test_crash_after_the_commit_record_recovers_to_the_post_state(self, tmp_path):
        pre_dir, post_dir, crash_dir = (str(tmp_path / n) for n in ("pre", "post", "crash"))
        self._seed(pre_dir)
        shutil.copytree(pre_dir, post_dir)
        shutil.copytree(pre_dir, crash_dir)
        done = MRBGStore.open(post_dir, wal_enabled=True)
        list(done.merge_delta(self._delta()))
        done.close()  # no save_index: the journal alone carries the session
        post = self._contents(post_dir)

        def hook(point, shard_id, nbytes):
            return CrashDirective() if point == "pre-index-swap" else None

        crashing = MRBGStore.open(crash_dir, wal_enabled=True, fault_hook=hook)
        list(crashing.merge_delta(self._delta()))
        with pytest.raises(InjectedCrash):
            crashing.save_index()
        assert self._contents(crash_dir) == post

    def test_hook_sees_the_framed_length_of_each_record_once(self, tmp_path):
        seen = []

        def hook(point, shard_id, nbytes):
            if point == "wal-append":
                seen.append(nbytes)
            return None

        directory = str(tmp_path / "s")
        store = MRBGStore(directory, wal_enabled=True, fault_hook=hook)
        store.build([(1, [Edge(i, float(i)) for i in range(8)])])
        list(store.merge_delta([(1, [DeltaEdge(3, 0.25, Op.INSERT)])]))
        store._wal_flush()
        assert sum(seen) == len(_read(os.path.join(directory, "mrbg.wal")))
        assert store.metrics.wal_appends == len(seen)
        store.close()


# --------------------------------------------------------------------- #
# shards × backends                                                     #
# --------------------------------------------------------------------- #


def _seeded_workload(seed: int):
    """``(initial chunks, delta rounds, expected final chunks)``: float, int
    and mixed chunks of 1–40 edges; mostly replace-only deltas."""
    rng = random.Random(seed)
    initial = {}
    for key in range(60):
        mks = sorted(rng.sample(range(200), rng.choice([1, 2, 3, 5, 8, 13, 40])))
        if key % 3 == 0:
            initial[key] = [Edge(mk, rng.randrange(-50, 50)) for mk in mks]
        elif key % 7 == 0:
            initial[key] = [Edge(mk, rng.choice([1, 2.5, "x"])) for mk in mks]
        else:
            initial[key] = [Edge(mk, rng.random()) for mk in mks]
    final = dict(initial)
    rounds = []
    for _ in range(3):
        delta = []
        for key in sorted(rng.sample(range(66), 25)):
            old = final.get(key, [])
            edges = []
            for mk, value in rng.sample(old, min(len(old), 3)):
                action = rng.random()
                if action < 0.7:
                    fresh = rng.random() if type(value) is float else rng.randrange(99)
                    edges.append(DeltaEdge(mk, fresh, Op.INSERT))
                elif action < 0.85:
                    edges.append(DeltaEdge(mk, None, Op.DELETE))
            if rng.random() < 0.3 or not edges:
                edges.append(DeltaEdge(rng.randrange(200, 260), rng.random(), Op.INSERT))
            delta.append((key, edges))
            final[key] = reference_apply_delta(old, edges)
        rounds.append(delta)
    return initial, rounds, {key: edges for key, edges in final.items() if edges}


def _run_sharded(directory: str, num_shards: int, executor: str, initial, rounds):
    store = ShardedMRBGStore(directory, num_shards=num_shards, executor=executor)
    try:
        store.build(sorted(initial.items()))
        yielded = [
            [(k2, list(entries)) for k2, entries in store.merge_delta(delta)]
            for delta in rounds
        ]
        for shard in store.shards:
            shard._wal_flush()
        on_disk = _store_bytes(directory)
        metrics = [dataclasses.asdict(m) for m in store.shard_metrics()]
        contents = {key: list(store.get_chunk(key)) for key in store.keys()}
    finally:
        store.close()
    return yielded, on_disk, metrics, contents


class TestShardsAndBackends:
    @pytest.mark.parametrize("num_shards", [1, 4])
    def test_backends_agree_and_match_the_reference(self, tmp_path, num_shards):
        initial, rounds, final = _seeded_workload(11)
        runs = {
            executor: _run_sharded(str(tmp_path / executor), num_shards, executor,
                                   initial, rounds)
            for executor in ("serial", "thread", "process")
        }
        with merge_path(reference=True):
            reference = _run_sharded(str(tmp_path / "reference"), num_shards, "serial",
                                     initial, rounds)
        for executor, run in runs.items():
            for got, want in zip(run, reference):
                assert got == want, executor
        assert runs["serial"][3] == final

    def test_shard_counts_yield_the_same_merge_results(self, tmp_path):
        initial, rounds, _ = _seeded_workload(12)
        one = _run_sharded(str(tmp_path / "one"), 1, "serial", initial, rounds)
        four = _run_sharded(str(tmp_path / "four"), 4, "serial", initial, rounds)
        assert one[0] == four[0] and one[3] == four[3]


# --------------------------------------------------------------------- #
# the golden on-disk store                                              #
# --------------------------------------------------------------------- #


class TestGoldenStoreUnchanged:
    def test_golden_chunks_reencode_to_their_on_disk_bytes(self):
        data = _read(os.path.join(GOLDEN_STORE, "mrbg.dat"))
        store = MRBGStore.open(GOLDEN_STORE)
        try:
            for key in store.keys():
                loc = store._index[key]
                on_disk = data[loc.offset : loc.offset + loc.length]
                chunk = store.get_chunk(key)
                assert encode_chunk(key, chunk) == on_disk
                assert reference_encode_chunk(key, list(chunk)) == on_disk
                assert repr(list(chunk)) == repr(reference_decode_chunk(on_disk)[1])
        finally:
            store.close()
        assert _read(os.path.join(GOLDEN_STORE, "mrbg.dat")) == data

    def test_merging_into_a_copy_of_the_golden_store_matches_the_reference(self, tmp_path):
        delta = [(1, [DeltaEdge(1, 4.25, Op.INSERT)]),
                 (2, [DeltaEdge(8, 1, Op.INSERT)]),
                 (5, [DeltaEdge(3, None, Op.DELETE)]),
                 ("alpha", [DeltaEdge(12, 0.5, Op.INSERT)])]
        outcomes = []
        for name in ("new", "reference"):
            directory = str(tmp_path / name)
            shutil.copytree(GOLDEN_STORE, directory)
            with merge_path(reference=name == "reference"):
                store = MRBGStore.open(directory)
                yielded = repr([(k2, list(e)) for k2, e in store.merge_delta(delta)])
                store._wal_flush()
                outcomes.append((yielded, _store_bytes(directory),
                                 dataclasses.asdict(store.metrics)))
                store.close()
        assert outcomes[0] == outcomes[1]
