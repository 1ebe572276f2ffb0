"""Tests for the kv-pair model: delta records, key ordering, grouping."""

from __future__ import annotations

import heapq
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.kvpair import (
    DeltaRecord,
    Op,
    delete,
    group_records,
    group_sorted,
    insert,
    merge_sorted_runs,
    record_sort_key,
    sort_key,
    sort_records,
    sorted_by_key,
    update,
)


class TestDeltaRecords:
    def test_insert_marker(self):
        rec = insert("k", "v")
        assert rec == DeltaRecord("k", "v", Op.INSERT)
        assert rec.op.value == "+"

    def test_delete_marker(self):
        rec = delete("k", "v")
        assert rec.op is Op.DELETE
        assert rec.op.value == "-"

    def test_update_is_delete_then_insert(self):
        first, second = update("k", "old", "new")
        assert first == delete("k", "old")
        assert second == insert("k", "new")


class TestSortKey:
    def test_numbers_order_naturally(self):
        keys = [3, 1.5, 2, -1]
        assert sorted(keys, key=sort_key) == [-1, 1.5, 2, 3]

    def test_strings_order_naturally(self):
        assert sorted(["b", "a", "c"], key=sort_key) == ["a", "b", "c"]

    def test_mixed_types_have_total_order(self):
        keys = ["b", 2, (1, 2), None, 1, "a", (1, 1)]
        ordered = sorted(keys, key=sort_key)
        # None < numbers < strings < tuples, each group internally sorted.
        assert ordered == [None, 1, 2, "a", "b", (1, 1), (1, 2)]

    def test_nested_tuples(self):
        keys = [(1, (2, 3)), (1, (2, 2))]
        assert sorted(keys, key=sort_key) == [(1, (2, 2)), (1, (2, 3))]

    def test_unsupported_type_raises(self):
        with pytest.raises(TypeError):
            sort_key({"a": 1})

    def test_bool_sorts_before_numbers(self):
        ordered = sorted([1, True, 0], key=sort_key)
        assert ordered[0] is True


class TestGroupSorted:
    def test_basic_grouping(self):
        pairs = [("a", 1), ("a", 2), ("b", 3)]
        assert list(group_sorted(pairs)) == [("a", [1, 2]), ("b", [3])]

    def test_empty(self):
        assert list(group_sorted([])) == []

    def test_single_group(self):
        assert list(group_sorted([("x", 1)])) == [("x", [1])]

    def test_values_keep_arrival_order(self):
        pairs = [("a", 3), ("a", 1), ("a", 2)]
        assert list(group_sorted(pairs)) == [("a", [3, 1, 2])]

    def test_sorted_by_key_then_group_covers_all(self):
        pairs = [(k, i) for i, k in enumerate("cabbagec")]
        grouped = dict(group_sorted(sorted_by_key(pairs)))
        assert sum(len(v) for v in grouped.values()) == len(pairs)


_keys = st.one_of(
    st.integers(),
    st.floats(allow_nan=False),
    st.text(max_size=16),
    st.tuples(st.integers(), st.text(max_size=4)),
)


class TestProperties:
    @given(st.lists(_keys, max_size=50))
    @settings(max_examples=100)
    def test_sort_key_is_total_order(self, keys):
        # Sorting must not raise and must be stable/deterministic.
        once = sorted(keys, key=sort_key)
        twice = sorted(list(reversed(keys)), key=sort_key)
        assert [sort_key(k) for k in once] == [sort_key(k) for k in twice]

    @given(st.lists(st.tuples(st.integers(min_value=0, max_value=9), st.integers()), max_size=60))
    @settings(max_examples=100)
    def test_group_sorted_partitions_input(self, pairs):
        ordered = sorted_by_key(pairs)
        grouped = list(group_sorted(ordered))
        # Keys strictly increase and every value is accounted for.
        keys = [k for k, _ in grouped]
        assert keys == sorted(set(keys))
        flat = [v for _, values in grouped for v in values]
        assert sorted(flat) == sorted(v for _, v in pairs)


#: Key generators covering every branch of the shuffle's type scans.
KEY_STYLES = {
    "ints": lambda rng: rng.randrange(20),
    "floats": lambda rng: rng.random(),
    "strings": lambda rng: "k%d" % rng.randrange(12),
    "mixed_scalars": lambda rng: rng.choice(
        [None, True, False, 3, 2.5, "s", b"b"]
    ),
    "tuples": lambda rng: (rng.randrange(5), "x%d" % rng.randrange(4)),
    "bool_int_mix": lambda rng: rng.choice([True, False, 0, 1, 2]),
    "nested_tuples": lambda rng: ((rng.randrange(3),), rng.random() < 0.5),
    "ragged_tuples": lambda rng: tuple(range(rng.randrange(3))),
}

class _Id(int):
    """An ``int`` subclass: equal to plain ints, but not provably so."""


_NAN = float("nan")

#: Hand-picked key lists where ``==``-equal keys are *not* interchangeable
#: (or nothing orders at all), plus the degenerate shapes.
EDGE_KEYS = {
    "signed_zeros": [0.0, -0.0, 1.0, -0.0, 0.0, -1.0],
    "int_float_bool_collisions": [1, 1.0, True, 0, False, 0.0, 1, True, 1.0],
    "tuple_int_vs_float": [(1, "a"), (1.0, "a"), (2, "b"), (1, "a"), (1.0, "a")],
    "duplicate_keys": ["b", "a", "b", "b", "c", "a", "b"],
    "bytes": [b"b", b"a", b"", b"b", b"ab"],
    "int_subclass": [_Id(2), _Id(1), _Id(2), _Id(0), _Id(1)],
    "empty": [],
    "single": ["only"],
}


def keyed_records(seed: int = 13, size: int = 200):
    """``(case name, [(key, value)])`` over every key style and edge list;
    values are the arrival index, so any reordering of one key's values
    shows."""
    cases = []
    for style in sorted(KEY_STYLES):
        rng = random.Random(seed)
        cases.append((style, [(KEY_STYLES[style](rng), i) for i in range(size)]))
    for name, keys in sorted(EDGE_KEYS.items()):
        cases.append((name, [(key, i) for i, key in enumerate(keys)]))
    return cases


def exact(value) -> str:
    """A form under which ``1``, ``1.0``, ``True``, ``-0.0`` and ``0.0``
    differ (``==`` on the lists themselves would conflate them) and dict
    insertion order counts."""
    return repr(value)


def reference_merge(runs):
    """The merge the library used to run: a heap keyed by ``sort_key``."""
    return list(heapq.merge(*runs, key=lambda rec: sort_key(rec[0])))


class TestSortHelpers:
    """The shuffle's sort/merge helpers must order exactly like the
    reference ``sort_key``-keyed implementations, for every key mix."""

    KEY_STYLES = KEY_STYLES

    @pytest.mark.parametrize("style", sorted(KEY_STYLES))
    def test_sort_records_matches_reference(self, style):
        import random
        rng = random.Random(13)
        make = self.KEY_STYLES[style]
        records = [(make(rng), i) for i in range(200)]
        reference = sorted(records, key=lambda rec: sort_key(rec[0]))
        assert sort_records(records) == reference

    @pytest.mark.parametrize("style", sorted(KEY_STYLES))
    def test_merge_sorted_runs_matches_reference(self, style):
        import heapq
        import random
        rng = random.Random(29)
        make = self.KEY_STYLES[style]
        records = [(make(rng), i) for i in range(200)]
        runs = [sort_records(records[i::4]) for i in range(4)]
        reference = list(heapq.merge(*runs, key=lambda rec: sort_key(rec[0])))
        assert merge_sorted_runs(runs) == reference

    @pytest.mark.parametrize("case", [name for name, _ in keyed_records()])
    @pytest.mark.parametrize("num_runs", [1, 3, 7])
    def test_merge_is_the_heap_merge(self, case, num_runs):
        records = dict(keyed_records(seed=29))[case]
        runs = [sort_records(records[i::num_runs]) for i in range(num_runs)]
        merged = merge_sorted_runs(runs)
        assert merged == reference_merge(runs)
        assert exact(merged) == exact(reference_merge(runs))
        assert all(merged is not run for run in runs)

    def test_merge_of_nan_keys_is_the_stable_sort(self):
        # NaN compares false both ways, so no order exists and a heap and
        # a sort may legitimately disagree; the merge is then defined as
        # the stable sort of the concatenation and loses no record.
        runs = [[(2.0, 0), (_NAN, 1)], [(1.0, 2)], [(_NAN, 3), (0.5, 4)]]
        flat = [rec for run in runs for rec in run]
        merged = merge_sorted_runs(runs)
        assert exact(merged) == exact(sorted(flat, key=record_sort_key))
        assert sorted(v for _, v in merged) == [0, 1, 2, 3, 4]

    def test_merge_empty_and_single_run(self):
        assert merge_sorted_runs([]) == []
        assert merge_sorted_runs([[], []]) == []
        run = [(1, "a"), (2, "b")]
        merged = merge_sorted_runs([run, []])
        assert merged == run
        assert merged is not run  # caller owns the result

    def test_sort_records_stability(self):
        records = [(1, "first"), (1.0, "second"), (True, "bool"), (1, "third")]
        result = sort_records(records)
        # bool ranks below numbers; equal numeric keys keep input order.
        assert result == [(True, "bool"), (1, "first"), (1.0, "second"), (1, "third")]

    @pytest.mark.parametrize("case", [name for name, _ in keyed_records()])
    def test_group_records_only_groups_indistinguishable_keys(self, case):
        records = dict(keyed_records())[case]
        groups = group_records(records)
        provable = {"ints", "strings", "tuples", "duplicate_keys", "bytes", "single", "empty"}
        if case not in provable:
            assert groups is None
            return
        # first-arrival key order, arrival order within a key, nothing lost.
        first_seen = list(dict.fromkeys(key for key, _ in records))
        assert list(groups) == first_seen
        for key, members in groups.items():
            assert members == [rec for rec in records if rec[0] == key]
            assert {exact(rec[0]) for rec in members} == {exact(key)}

    def test_group_records_refuses_keys_a_dict_would_conflate(self):
        assert group_records([(0.0, "a"), (-0.0, "b")]) is None
        assert group_records([(_NAN, "a"), (_NAN, "b")]) is None
        assert group_records([(1, "a"), (True, "b")]) is None
        assert group_records([((1, "x"), "a"), ((1.0, "x"), "b")]) is None
        assert group_records([((1,), "a"), ((1, 2), "b")]) is None
        assert group_records([(None, "a")]) is None
        assert group_records([]) == {}

    def test_sorted_by_key_still_sorts_pairs(self):
        pairs = [("b", 2), ("a", 1), ("c", 3)]
        assert sorted_by_key(pairs) == [("a", 1), ("b", 2), ("c", 3)]

    def test_record_sort_key(self):
        assert record_sort_key(("k", 1)) == sort_key("k")
