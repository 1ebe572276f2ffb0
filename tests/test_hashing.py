"""Tests for stable hashing, partitioning and Map-instance identity."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common import hashing
from repro.common.hashing import map_key, partition_for, stable_hash
from repro.execution import ProcessBackend, ThreadBackend

from tests.test_kvpair import EDGE_KEYS, KEY_STYLES, _Id

_keys = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=False),
    st.text(max_size=20),
    st.binary(max_size=20),
    st.tuples(st.integers(), st.text(max_size=6)),
)


class TestStableHash:
    def test_deterministic_across_calls(self):
        assert stable_hash("hello") == stable_hash("hello")
        assert stable_hash((1, "a")) == stable_hash((1, "a"))

    def test_known_types(self):
        for key in [None, True, 0, -5, 3.14, "x", b"x", (1, 2), [1, 2]]:
            assert isinstance(stable_hash(key), int)

    def test_distinct_inputs_usually_differ(self):
        hashes = {stable_hash(i) for i in range(10_000)}
        assert len(hashes) == 10_000

    def test_fits_signed_int64(self):
        for key in range(1000):
            assert 0 <= stable_hash(key) < 2**63

    def test_unsupported_type_raises(self):
        with pytest.raises(TypeError):
            stable_hash({"a": 1})

    @given(_keys)
    @settings(max_examples=200)
    def test_hash_in_range_property(self, key):
        assert 0 <= stable_hash(key) < 2**63


class TestPartitionFor:
    def test_in_range(self):
        for key in range(100):
            assert 0 <= partition_for(key, 7) < 7

    def test_reasonably_balanced(self):
        counts = [0] * 8
        for key in range(8000):
            counts[partition_for(key, 8)] += 1
        assert min(counts) > 500  # perfect balance would be 1000

    def test_string_keys_balanced(self):
        counts = [0] * 4
        for i in range(4000):
            counts[partition_for(f"word-{i}", 4)] += 1
        assert min(counts) > 700

    def test_invalid_partition_count(self):
        with pytest.raises(ValueError):
            partition_for("k", 0)


def placement_keys():
    """Every key shape the shuffle suites use, plus the memo's corners:
    ``==``-equal keys of different classes, ``int``/``str`` subclasses,
    negative ints and ints past 64 bits."""
    rng = random.Random(5)
    keys = [KEY_STYLES[style](rng) for style in sorted(KEY_STYLES) for _ in range(40)]
    for name in sorted(EDGE_KEYS):
        keys.extend(EDGE_KEYS[name])
    keys += [1, 1.0, True, 0, 0.0, False, _Id(1), _Id(-3), _Str("w1"), "w1", ""]
    keys += [-1, -(2**63), 2**63, 2**64, 2**64 + 1, -(2**70) - 5, 10**30]
    return keys


class _Str(str):
    """A ``str`` subclass: equal to plain strings, hashed on every call."""


def _place(args):
    """Pool task: placements computed inside the worker."""
    keys, n = args
    return [partition_for(key, n) for key in keys]


def _expected(keys, n):
    return [stable_hash(key) % n for key in keys]


@pytest.fixture
def empty_memo():
    hashing._placement_memo.clear()
    yield hashing._placement_memo
    hashing._placement_memo.clear()


class TestPlacementMemo:
    """``partition_for`` keeps hashes of exact ``int``/``str`` keys; it must
    stay ``stable_hash(key) % n`` for every key, memoised or not."""

    @pytest.mark.parametrize("n", [1, 4, 7])
    def test_equals_stable_hash_mod_n(self, empty_memo, n):
        keys = placement_keys()
        assert [partition_for(key, n) for key in keys] == _expected(keys, n)
        # Second pass: int/str keys now come from the memo.
        assert [partition_for(key, n) for key in keys] == _expected(keys, n)
        # One hash serves every partition count.
        assert [partition_for(key, n + 2) for key in keys] == _expected(keys, n + 2)

    @pytest.mark.parametrize("first", [1, 1.0, True])
    def test_equal_keys_of_other_classes_never_share_a_slot(self, empty_memo, first):
        n = 1 << 40  # wide enough that three different hashes give three placements
        partition_for(first, n)
        for key in (1, 1.0, True, _Id(1)):
            assert partition_for(key, n) == stable_hash(key) % n
        assert len({partition_for(key, n) for key in (1, 1.0, True)}) == 3
        partition_for("w1", n), partition_for(_Str("w1"), n)
        assert all(key.__class__ in (int, str) for key in empty_memo)
        assert set(empty_memo) == {1, "w1"}

    def test_memo_is_capped_and_exact_after_it_refills(self, empty_memo, monkeypatch):
        monkeypatch.setattr(hashing, "PLACEMENT_MEMO_CAP", 64)
        keys = placement_keys()
        for i in range(1000, 1200):  # fills and clears the memo three times over
            assert partition_for(i, 5) == stable_hash(i) % 5
            assert len(empty_memo) <= 64
        assert [partition_for(key, 5) for key in keys] == _expected(keys, 5)
        assert len(empty_memo) <= 64

    def test_default_cap_bounds_the_memo(self, empty_memo):
        for i in range(hashing.PLACEMENT_MEMO_CAP + 10):
            partition_for(i, 3)
        assert len(empty_memo) == 10
        assert partition_for(3, 3) == stable_hash(3) % 3

    def test_invalid_count_raises_for_a_memoised_key_too(self, empty_memo):
        partition_for(11, 4)
        for bad in (0, -1):
            with pytest.raises(ValueError):
                partition_for(11, bad)
            with pytest.raises(ValueError):
                partition_for(1.5, bad)

    def test_threads_sharing_the_memo_always_read_the_right_hash(self, empty_memo, monkeypatch):
        """Six threads on two cores place overlapping keys while a tiny cap
        makes them clear the memo under each other: a placement must never
        come from another key's slot, and the memo must stay bounded."""
        import sys
        import threading

        monkeypatch.setattr(hashing, "PLACEMENT_MEMO_CAP", 32)
        workers, rounds = 6, 40
        keys = list(range(-50, 150)) + ["w%d" % i for i in range(100)]
        expected = {key: stable_hash(key) % 11 for key in keys}
        wrong, sizes = [], []

        def place(offset):
            for _ in range(rounds):
                for key in keys[offset:] + keys[:offset]:
                    if partition_for(key, 11) != expected[key]:
                        wrong.append(key)
                sizes.append(len(empty_memo))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=place, args=(17 * i,)) for i in range(workers)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []
        assert len(sizes) == workers * rounds
        # Each thread can slip one insert past a cap check it made earlier.
        assert max(sizes) <= 32 + workers

    def test_pool_workers_place_like_the_parent(self):
        keys = placement_keys()
        payloads = [(keys[i::3], 7) for i in range(3)]
        for backend in (ProcessBackend(max_workers=2), ThreadBackend(max_workers=3)):
            try:
                placed = backend.run_tasks(_place, payloads)
            finally:
                backend.close()
            assert placed == [_expected(chunk, 7) for chunk, _ in payloads]
            if backend.name == "process":
                assert backend.stats.inproc_fallbacks == 0


class TestMapKey:
    def test_same_record_same_mk(self):
        assert map_key(1, (2, 3)) == map_key(1, (2, 3))

    def test_different_value_different_mk(self):
        assert map_key(1, (2, 3)) != map_key(1, (2, 4))

    def test_dup_index_distinguishes(self):
        assert map_key(1, "v", 0) != map_key(1, "v", 1)

    def test_mk_fits_serializable_range(self):
        from repro.common.serialization import encode

        encode(map_key("key", ("value", 1.5)))  # must not raise
