"""Tests for fine-grain incremental one-step processing (§3).

The central invariant: an incremental run's refreshed output is logically
identical to recomputing from scratch on the updated input (§3.1).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.common.errors import InvalidJobConf, JobError
from repro.common.kvpair import delete, insert
from repro.incremental.api import (
    AvgPartialReducer,
    MaxReducer,
    MinReducer,
    SumReducer,
    delta_to_dfs_records,
    dfs_records_to_delta,
)
from repro.incremental.engine import IncrMREngine
from repro.mapreduce.api import Mapper
from repro.mapreduce.engine import MapReduceEngine
from repro.mapreduce.job import JobConf

from tests.conftest import fresh_cluster


class InEdgeMapper(Mapper):
    """The paper's Fig 3 application: in-edge weight sums."""

    def map(self, i, value, ctx):
        for j, w in value:
            ctx.emit(j, w)


class TokenMapper(Mapper):
    def map(self, key, text, ctx):
        for word in text.split():
            ctx.emit(word, 1)


def run_scratch(records, mapper, reducer, num_reducers=2):
    cluster, dfs = fresh_cluster()
    dfs.write("/in", sorted(records.items()))
    MapReduceEngine(cluster, dfs).run(
        JobConf(name="scratch", mapper=mapper, reducer=reducer,
                inputs=["/in"], output="/out", num_reducers=num_reducers)
    )
    return dict(dfs.read_all("/out"))


class TestPaperFig3:
    """The worked example of Fig 3, end to end."""

    def setup_method(self):
        self.graph = {
            0: ((1, 0.3), (2, 0.3)),
            1: ((2, 0.4),),
            2: ((0, 0.5), (1, 0.5)),
        }
        self.delta = [
            delete(1, ((2, 0.4),)),
            insert(3, ((0, 0.1),)),
            delete(0, ((1, 0.3), (2, 0.3))),
            insert(0, ((2, 0.6),)),
        ]
        self.new_graph = {
            0: ((2, 0.6),),
            2: ((0, 0.5), (1, 0.5)),
            3: ((0, 0.1),),
        }

    def test_initial_results(self):
        cluster, dfs = fresh_cluster()
        dfs.write("/g", sorted(self.graph.items()))
        engine = IncrMREngine(cluster, dfs)
        conf = JobConf(name="inedge", mapper=InEdgeMapper, reducer=SumReducer,
                       inputs=["/g"], output="/out", num_reducers=2)
        _, state = engine.run_initial(conf)
        assert dict(dfs.read_all("/out")) == pytest.approx(
            {0: 0.5, 1: 0.8, 2: 0.7}
        )
        state.cleanup()

    def test_incremental_matches_fig3(self):
        cluster, dfs = fresh_cluster()
        dfs.write("/g", sorted(self.graph.items()))
        engine = IncrMREngine(cluster, dfs)
        conf = JobConf(name="inedge", mapper=InEdgeMapper, reducer=SumReducer,
                       inputs=["/g"], output="/out", num_reducers=2)
        _, state = engine.run_initial(conf)
        dfs.write("/d", delta_to_dfs_records(self.delta))
        engine.run_incremental(conf, "/d", state)
        assert dict(dfs.read_all("/out")) == pytest.approx(
            {0: 0.6, 1: 0.5, 2: 0.6}
        )
        state.cleanup()

    def test_equals_scratch_recompute(self):
        cluster, dfs = fresh_cluster()
        dfs.write("/g", sorted(self.graph.items()))
        engine = IncrMREngine(cluster, dfs)
        conf = JobConf(name="inedge", mapper=InEdgeMapper, reducer=SumReducer,
                       inputs=["/g"], output="/out", num_reducers=2)
        _, state = engine.run_initial(conf)
        dfs.write("/d", delta_to_dfs_records(self.delta))
        engine.run_incremental(conf, "/d", state)
        incremental = dict(dfs.read_all("/out"))
        scratch = run_scratch(self.new_graph, InEdgeMapper, SumReducer)
        assert incremental == pytest.approx(scratch)
        state.cleanup()


class TestRandomizedEquivalence:
    """Scratch-equivalence under seeded random graphs and deltas."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_graph_delta(self, seed):
        rng = np.random.RandomState(seed)
        n = 40
        graph = {
            i: tuple(
                (int(j), float(round(rng.uniform(0.1, 1.0), 3)))
                for j in rng.choice(n, size=rng.randint(1, 5), replace=False)
            )
            for i in range(n)
        }
        cluster, dfs = fresh_cluster(seed=seed)
        dfs.write("/g", sorted(graph.items()))
        engine = IncrMREngine(cluster, dfs)
        conf = JobConf(name="inedge", mapper=InEdgeMapper, reducer=SumReducer,
                       inputs=["/g"], output="/out", num_reducers=3)
        _, state = engine.run_initial(conf)

        new_graph = dict(graph)
        delta = []
        for i in list(rng.choice(n, size=8, replace=False)):
            i = int(i)
            delta.append(delete(i, graph[i]))
            if rng.rand() < 0.7:  # rewire; otherwise plain deletion
                new_links = tuple(
                    (int(j), float(round(rng.uniform(0.1, 1.0), 3)))
                    for j in rng.choice(n, size=rng.randint(1, 4), replace=False)
                )
                delta.append(insert(i, new_links))
                new_graph[i] = new_links
            else:
                del new_graph[i]

        dfs.write("/d", delta_to_dfs_records(delta))
        engine.run_incremental(conf, "/d", state)
        incremental = dict(dfs.read_all("/out"))
        scratch = run_scratch(new_graph, InEdgeMapper, SumReducer, num_reducers=3)
        assert incremental == pytest.approx(scratch)
        state.cleanup()


class TestAccumulatorPath:
    def test_wordcount_accumulator(self):
        cluster, dfs = fresh_cluster()
        dfs.write("/docs", [(0, "a b a"), (1, "b c")])
        engine = IncrMREngine(cluster, dfs)
        conf = JobConf(name="wc", mapper=TokenMapper, reducer=SumReducer,
                       inputs=["/docs"], output="/wc", num_reducers=2)
        _, state = engine.run_initial(conf, accumulator=True)
        dfs.write("/d", delta_to_dfs_records([insert(2, "a c c")]))
        result = engine.run_incremental(conf, "/d", state)
        assert dict(dfs.read_all("/wc")) == {"a": 3, "b": 2, "c": 3}
        # one affected Reduce instance per distinct delta K2 ("a" and "c").
        assert result.metrics.counters.get("affected_reduce_instances") == 2
        state.cleanup()

    def test_accumulator_requires_insert_only(self):
        cluster, dfs = fresh_cluster()
        dfs.write("/docs", [(0, "a")])
        engine = IncrMREngine(cluster, dfs)
        conf = JobConf(name="wc", mapper=TokenMapper, reducer=SumReducer,
                       inputs=["/docs"], output="/wc", num_reducers=2)
        _, state = engine.run_initial(conf, accumulator=True)
        # the delete comes after an insert: the job must still fail before
        # it stages or folds anything.
        dfs.write("/d", delta_to_dfs_records([insert(1, "a b"), delete(0, "a")]))
        before = dict(state.acc_outputs)
        with pytest.raises(JobError):
            engine.run_incremental(conf, "/d", state)
        assert state.acc_outputs == before
        assert not dfs.exists("/d.plain")
        state.cleanup()

    def test_accumulator_requires_accumulator_reducer(self):
        from repro.mapreduce.api import Reducer

        class PlainReducer(Reducer):
            def reduce(self, key, values, ctx):
                ctx.emit(key, len(values))

        cluster, dfs = fresh_cluster()
        dfs.write("/docs", [(0, "a")])
        engine = IncrMREngine(cluster, dfs)
        conf = JobConf(name="wc", mapper=TokenMapper, reducer=PlainReducer,
                       inputs=["/docs"], output="/wc", num_reducers=2)
        with pytest.raises(InvalidJobConf):
            engine.run_initial(conf, accumulator=True)

    def test_max_accumulator(self):
        class ValueMapper(Mapper):
            def map(self, key, value, ctx):
                ctx.emit(key % 2, value)

        cluster, dfs = fresh_cluster()
        dfs.write("/vals", [(i, i * 10) for i in range(6)])
        engine = IncrMREngine(cluster, dfs)
        conf = JobConf(name="max", mapper=ValueMapper, reducer=MaxReducer,
                       inputs=["/vals"], output="/out", num_reducers=2)
        _, state = engine.run_initial(conf, accumulator=True)
        dfs.write("/d", delta_to_dfs_records([insert(7, 999)]))
        engine.run_incremental(conf, "/d", state)
        out = dict(dfs.read_all("/out"))
        assert out[1] == 999
        assert out[0] == 40
        state.cleanup()


class TestAccumulatorHelpers:
    def test_min_reducer(self):
        from repro.mapreduce.api import Context

        ctx = Context()
        MinReducer().reduce("k", [5, 2, 9], ctx)
        assert ctx.take() == [("k", 2)]

    def test_avg_partial_reducer(self):
        from repro.mapreduce.api import Context

        ctx = Context()
        AvgPartialReducer().reduce("k", [(10.0, 2), (20.0, 3)], ctx)
        [(key, partial)] = ctx.take()
        assert AvgPartialReducer.finalize_average(partial) == pytest.approx(6.0)

    def test_avg_empty_raises(self):
        with pytest.raises(ValueError):
            AvgPartialReducer.finalize_average((0.0, 0))

    def test_delta_record_roundtrip(self):
        delta = [insert(1, "a"), delete(2, "b")]
        assert dfs_records_to_delta(delta_to_dfs_records(delta)) == delta


class TestStateManagement:
    def test_num_reducers_mismatch_rejected(self):
        cluster, dfs = fresh_cluster()
        dfs.write("/g", [(0, ((1, 1.0),))])
        engine = IncrMREngine(cluster, dfs)
        conf = JobConf(name="inedge", mapper=InEdgeMapper, reducer=SumReducer,
                       inputs=["/g"], output="/out", num_reducers=2)
        _, state = engine.run_initial(conf)
        bad = JobConf(name="inedge", mapper=InEdgeMapper, reducer=SumReducer,
                      inputs=["/g"], output="/out", num_reducers=5)
        dfs.write("/d", delta_to_dfs_records([insert(9, ((0, 1.0),))]))
        with pytest.raises(InvalidJobConf):
            engine.run_incremental(bad, "/d", state)
        state.cleanup()

    def test_incremental_cheaper_than_recompute(self):
        cluster, dfs = fresh_cluster()
        records = [(i, ((i + 1) % 200, 0.5),) for i in range(200)]
        graph = {i: (((i + 1) % 200, 0.5),) for i in range(200)}
        dfs.write("/g", sorted(graph.items()))
        engine = IncrMREngine(cluster, dfs)
        conf = JobConf(name="inedge", mapper=InEdgeMapper, reducer=SumReducer,
                       inputs=["/g"], output="/out", num_reducers=2)
        initial, state = engine.run_initial(conf)
        delta = [delete(0, graph[0]), insert(0, ((5, 0.9),))]
        dfs.write("/d", delta_to_dfs_records(delta))
        incr = engine.run_incremental(conf, "/d", state)
        # Same job startup, but the delta touches 2 records instead of 200.
        assert (
            incr.metrics.times.map + incr.metrics.times.shuffle
            < initial.metrics.times.map + initial.metrics.times.shuffle
        )
        state.cleanup()

    def test_sequential_deltas_accumulate(self):
        cluster, dfs = fresh_cluster()
        graph = {0: ((1, 1.0),), 1: ((0, 2.0),)}
        dfs.write("/g", sorted(graph.items()))
        engine = IncrMREngine(cluster, dfs)
        conf = JobConf(name="inedge", mapper=InEdgeMapper, reducer=SumReducer,
                       inputs=["/g"], output="/out", num_reducers=2)
        _, state = engine.run_initial(conf)

        dfs.write("/d1", delta_to_dfs_records([insert(2, ((0, 5.0),))]))
        engine.run_incremental(conf, "/d1", state)
        dfs.write("/d2", delta_to_dfs_records([insert(3, ((0, 7.0),))]))
        engine.run_incremental(conf, "/d2", state)

        scratch = run_scratch(
            {**graph, 2: ((0, 5.0),), 3: ((0, 7.0),)}, InEdgeMapper, SumReducer
        )
        assert dict(dfs.read_all("/out")) == pytest.approx(scratch)
        state.cleanup()
