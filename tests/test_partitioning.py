"""Tests for dependency-aware data partitioning (§4.3)."""

from __future__ import annotations

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from repro.algorithms.pagerank import PageRank
from repro.algorithms.kmeans import Kmeans, STATE_KEY
from repro.common.hashing import map_key, partition_for
from repro.common.kvpair import delete, insert
from repro.common.sizeof import record_size
from repro.datasets.graphs import powerlaw_web_graph
from repro.datasets.points import gaussian_points
from repro.iterative.partitioning import (
    partition_job_cost,
    partition_structure,
    state_bytes_by_partition,
)
from repro.cluster.costmodel import CostModel


@pytest.fixture
def pagerank_parts():
    graph = powerlaw_web_graph(120, 4, seed=2)
    algorithm = PageRank()
    records = algorithm.structure_records(graph)
    return algorithm, records, partition_structure(algorithm, records, 4)


class TestCoPartitioning:
    def test_interdependent_pairs_colocated(self, pagerank_parts):
        algorithm, records, parts = pagerank_parts
        # Structure pair (SK, SV) lives in hash(project(SK)) — the same
        # partition as its state kv-pair hash(DK).
        for p in range(4):
            for dk, pairs in parts.iter_groups(p):
                assert partition_for(dk, 4) == p
                for sk, *_ in pairs:
                    assert algorithm.project(sk) == dk

    def test_all_pairs_present(self, pagerank_parts):
        _, records, parts = pagerank_parts
        assert parts.total_pairs() == len(records)

    def test_groups_sorted_by_dk(self, pagerank_parts):
        _, _, parts = pagerank_parts
        for p in range(4):
            dks = [dk for dk, _ in parts.iter_groups(p)]
            assert dks == sorted(dks)

    def test_bytes_tracked(self, pagerank_parts):
        _, records, parts = pagerank_parts
        from repro.common.sizeof import records_size

        assert sum(parts.structure_bytes) == records_size(records)


class TestAllToOne:
    def test_replicated_flag(self):
        points = gaussian_points(60, dim=3, k=3, seed=1)
        algorithm = Kmeans(k=3, dim=3)
        parts = partition_structure(
            algorithm, algorithm.structure_records(points), 4
        )
        assert parts.replicated_state
        # Every partition's single group is the unique state key.
        for p in range(4):
            for dk, _ in parts.iter_groups(p):
                assert dk == STATE_KEY

    def test_points_spread_across_partitions(self):
        points = gaussian_points(200, dim=3, k=3, seed=1)
        algorithm = Kmeans(k=3, dim=3)
        parts = partition_structure(
            algorithm, algorithm.structure_records(points), 4
        )
        assert min(parts.num_pairs) > 20

    def test_state_bytes_replicated(self):
        sizes = state_bytes_by_partition({1: "abc"}, 3, replicated=True)
        assert len(set(sizes)) == 1
        assert sizes[0] > 0


class TestMutation:
    def test_insert_then_delete_roundtrip(self, pagerank_parts):
        algorithm, _, parts = pagerank_parts
        before_pairs = parts.total_pairs()
        before_bytes = sum(parts.structure_bytes)
        p = parts.insert_pair(algorithm, 999, ((1, 2), ""))
        assert parts.total_pairs() == before_pairs + 1
        assert sum(parts.structure_bytes) > before_bytes
        q = parts.delete_pair(algorithm, 999, ((1, 2), ""))
        assert p == q
        assert parts.total_pairs() == before_pairs
        assert sum(parts.structure_bytes) == before_bytes

    def test_delete_missing_raises(self, pagerank_parts):
        algorithm, _, parts = pagerank_parts
        with pytest.raises(KeyError):
            parts.delete_pair(algorithm, 424242, ((1,), ""))

    def test_delete_matches_value(self, pagerank_parts):
        algorithm, records, parts = pagerank_parts
        sk, sv = records[0]
        with pytest.raises(KeyError):
            parts.delete_pair(algorithm, sk, ((123456,), "wrong"))
        parts.delete_pair(algorithm, sk, sv)  # correct value succeeds


    def test_delete_returns_the_record_insert_cached(self, pagerank_parts):
        algorithm, _, parts = pagerank_parts
        sv = ((1, 2), "")
        record = parts.insert_pair(algorithm, 999, sv)
        assert record == (999, sv, map_key(999, sv), record_size(999, sv))
        assert parts.delete_pair(algorithm, 999, sv) is record


class TestCheckDelta:
    """``check_delta`` replays a delta on copies: it sees the delta's own
    earlier records and never touches the structure."""

    def test_accepts_update_and_refuses_absent_without_mutation(self, pagerank_parts):
        algorithm, records, parts = pagerank_parts
        (sk, sv), (other_sk, other_sv) = records[0], records[1]
        new_sv = ((7, 8, 9), "")
        before = pickle.dumps(parts)
        good = [
            delete(sk, sv), insert(sk, new_sv),          # an update
            insert(5000, sv), delete(5000, sv),          # insert, then delete it again
            delete(sk, new_sv), insert(sk, sv),          # and back
        ]
        parts.check_delta(algorithm, good)
        bad_deltas = [
            [delete(4242, sv)],                          # never existed
            [delete(sk, new_sv)],                        # key exists, value does not
            [delete(sk, sv), delete(sk, sv)],            # present once, deleted twice
            [delete(other_sk, other_sv), insert(sk, new_sv), delete(sk, sv), delete(sk, sv)],
        ]
        for delta in bad_deltas:
            with pytest.raises(KeyError):
                parts.check_delta(algorithm, delta)
        assert pickle.dumps(parts) == before

    def test_duplicates_count(self, pagerank_parts):
        algorithm, records, parts = pagerank_parts
        sk, sv = records[0]
        parts.insert_pair(algorithm, sk, sv)  # now present twice
        parts.check_delta(algorithm, [delete(sk, sv), delete(sk, sv)])
        with pytest.raises(KeyError):
            parts.check_delta(algorithm, [delete(sk, sv)] * 3)


_PAIRS = st.tuples(
    st.integers(min_value=0, max_value=9),
    st.sampled_from([((1, 2), ""), ((3,), ""), (0.5, 1.5), "v"]),
)


class _StructureCacheMachine(RuleBasedStateMachine):
    """Random ``insert_pair``/``delete_pair`` against a plain record list:
    the cache must stay what a from-scratch partitioning would build."""

    algorithm = None
    NUM_PARTITIONS = 3

    def __init__(self):
        super().__init__()
        self.model = []
        self.parts = partition_structure(self.algorithm, [], self.NUM_PARTITIONS)

    @initialize(records=st.lists(_PAIRS, max_size=8))
    def start(self, records):
        self.model = list(records)
        self.parts = partition_structure(self.algorithm, records, self.NUM_PARTITIONS)

    @rule(pair=_PAIRS)
    def insert(self, pair):
        record = self.parts.insert_pair(self.algorithm, *pair)
        assert record[:2] == pair
        self.model.append(pair)

    @rule(pair=_PAIRS)
    def delete(self, pair):
        """Mostly duplicates and re-deletes: the key space is tiny."""
        if pair in self.model:
            record = self.parts.delete_pair(self.algorithm, *pair)
            assert record[:2] == pair
            self.model.remove(pair)
        else:
            with pytest.raises(KeyError):
                self.parts.delete_pair(self.algorithm, *pair)

    @rule(data=st.data())
    def delete_a_survivor(self, data):
        """Drains groups to empty far more often than ``delete`` alone."""
        if self.model:
            pair = data.draw(st.sampled_from(self.model))
            self.parts.delete_pair(self.algorithm, *pair)
            self.model.remove(pair)

    @invariant()
    def cache_is_exact(self):
        parts = self.parts
        for groups in parts.groups:
            for dk, records in groups.items():
                assert records, "an emptied group must leave the dict"
                for sk, sv, mk, nbytes in records:
                    assert self.algorithm.project(sk) == dk
                    assert mk == map_key(sk, sv)
                    assert nbytes == record_size(sk, sv)
        scratch = partition_structure(self.algorithm, self.model, self.NUM_PARTITIONS)
        assert parts.structure_bytes == scratch.structure_bytes
        assert parts.num_pairs == scratch.num_pairs
        assert parts == scratch
        assert pickle.loads(pickle.dumps(parts)) == parts


class _OneToOneCache(_StructureCacheMachine):
    algorithm = PageRank()


class _AllToOneCache(_StructureCacheMachine):
    algorithm = Kmeans(k=3, dim=2)


_MACHINE_SETTINGS = settings(max_examples=60, stateful_step_count=30, deadline=None)
TestOneToOneStructureCache = _OneToOneCache.TestCase
TestOneToOneStructureCache.settings = _MACHINE_SETTINGS
TestAllToOneStructureCache = _AllToOneCache.TestCase
TestAllToOneStructureCache.settings = _MACHINE_SETTINGS


class TestPartitionJobCost:
    def test_positive_and_monotone(self):
        cost = CostModel()
        small = partition_job_cost(cost, 4, 10**6, 1000, 4)
        large = partition_job_cost(cost, 4, 10**8, 100_000, 4)
        assert 0 < small < large

    def test_more_workers_cheaper(self):
        cost = CostModel()
        few = partition_job_cost(cost, 2, 10**8, 100_000, 4)
        many = partition_job_cost(cost, 16, 10**8, 100_000, 4)
        assert many < few

    def test_invalid_workers(self):
        with pytest.raises(ValueError):
            partition_job_cost(CostModel(), 0, 100, 10, 4)


class TestStateBytes:
    def test_partitioned_sum_matches_total(self):
        from repro.common.sizeof import record_size

        state = {i: float(i) for i in range(50)}
        sizes = state_bytes_by_partition(state, 4, replicated=False)
        assert sum(sizes) == sum(record_size(k, v) for k, v in state.items())

    @given(st.dictionaries(st.integers(min_value=0, max_value=1000),
                           st.floats(allow_nan=False), max_size=40))
    @settings(max_examples=50)
    def test_every_key_lands_in_its_hash_partition(self, state):
        n = 5
        sizes = state_bytes_by_partition(state, n, replicated=False)
        assert len(sizes) == n
        # Rebuild per-partition sums independently.
        from repro.common.sizeof import record_size

        expected = [0] * n
        for dk, dv in state.items():
            expected[partition_for(dk, n)] += record_size(dk, dv)
        assert sizes == expected
