"""Proof of workset (delta) iteration: differential equivalence with the
full-sweep engine across backends, shard counts and algorithms, plus
property tests of the frontier and its routing.

The differential harness is the exactness contract of
:mod:`repro.iterative.workset` made executable: a workset run must leave
the *same* converged state, after the *same* number of iterations, as
the default full-sweep engine — while scheduling strictly less work as
the computation converges.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.kmeans import Kmeans
from repro.algorithms.pagerank import PageRank
from repro.algorithms.sssp import SSSP
from repro.common.errors import InvalidJobConf
from repro.common.hashing import partition_for
from repro.datasets.graphs import WebGraph, powerlaw_web_graph, weighted_graph_from
from repro.datasets.points import gaussian_points
from repro.iterative.api import IterativeJob
from repro.iterative.engine import IterMREngine, run_full_iteration
from repro.iterative.partitioning import partition_structure
from repro.iterative.workset import WorksetRunner, workset_task_specs

from tests.conftest import fresh_cluster


# --------------------------------------------------------------------- #
# differential harness: workset == full sweep                           #
# --------------------------------------------------------------------- #


def _pagerank_case():
    graph = powerlaw_web_graph(80, 4, seed=4)
    return PageRank(), graph, dict(max_iterations=6), "exact"


def _sssp_case():
    graph = weighted_graph_from(powerlaw_web_graph(90, 4, seed=9), seed=1)
    return SSSP(source=0), graph, dict(max_iterations=12, epsilon=0.0), "exact"


def _kmeans_case():
    points = gaussian_points(90, dim=3, k=3, seed=3)
    # K-means re-sums member points when clusters change; summation order
    # may differ between the edge cache and a fresh shuffle, so the
    # harness compares with a float tolerance instead of bitwise.
    return Kmeans(k=3, dim=3), points, dict(max_iterations=4), "close"


CASES = {
    "pagerank": _pagerank_case,
    "sssp": _sssp_case,
    "kmeans": _kmeans_case,
}


def _run(algorithm, dataset, num_partitions, executor, workset, knobs):
    cluster, dfs = fresh_cluster()
    return IterMREngine(cluster, dfs).run(
        IterativeJob(
            algorithm,
            dataset,
            num_partitions=num_partitions,
            executor=executor,
            workset=workset,
            **knobs,
        )
    )


class TestDifferential:
    @pytest.mark.parametrize("executor", ["serial", "thread", "process"])
    @pytest.mark.parametrize("num_partitions", [1, 4])
    @pytest.mark.parametrize("name", sorted(CASES))
    def test_workset_equals_full_sweep(self, name, num_partitions, executor):
        algorithm, dataset, knobs, mode = CASES[name]()
        full = _run(algorithm, dataset, num_partitions, executor, False, knobs)
        ws = _run(algorithm, dataset, num_partitions, executor, True, knobs)
        assert set(ws.state) == set(full.state)
        if mode == "exact":
            assert ws.iterations == full.iterations
            assert ws.converged == full.converged
            assert ws.state == full.state
        else:
            # K-means may certify its fixpoint (empty workset) before the
            # fixed iteration budget the epsilon-less full sweep burns;
            # the converged states must still agree to float tolerance.
            assert ws.iterations <= full.iterations
            for dk in full.state:
                assert algorithm.difference(ws.state[dk], full.state[dk]) < 1e-9

    def test_full_sweep_is_the_default(self):
        algorithm, dataset, knobs, _ = _pagerank_case()
        result = _run(algorithm, dataset, 4, "serial", None, knobs)
        # workset=None defers to REPRO_WORKSET, which defaults off.
        assert result.metrics.counters.get("workset_map_tasks") == 0
        for stats in result.per_iteration:
            assert stats.scheduled_map_tasks == 4
            assert stats.scheduled_reduce_tasks == 4

    def test_env_default_enables_workset(self, monkeypatch):
        from repro.common import config

        monkeypatch.setattr(config, "DEFAULT_WORKSET", True)
        algorithm, dataset, knobs, _ = _sssp_case()
        result = _run(algorithm, dataset, 4, "serial", None, knobs)
        assert result.metrics.counters.get("workset_map_tasks") > 0
        assert result.converged

    def test_negative_workset_threshold_rejected(self):
        job = IterativeJob(
            PageRank(), powerlaw_web_graph(10, 2, seed=1),
            workset_threshold=-0.5,
        )
        with pytest.raises(InvalidJobConf):
            job.validate()


class TestCollapse:
    def test_scheduled_tasks_collapse_as_sssp_converges(self):
        algorithm, dataset, knobs, _ = _sssp_case()
        result = _run(algorithm, dataset, 4, "serial", True, knobs)
        assert result.converged
        series = [s.scheduled_map_tasks for s in result.per_iteration]
        # Superstep 0 is the priming full sweep over every partition;
        # the frontier then shrinks below the partition count before
        # the run terminates.
        assert series[0] == 4
        assert min(series) < 4
        assert result.per_iteration[-1].workset_size == 0

    def test_empty_workset_terminates_without_epsilon(self):
        algorithm, dataset, _, _ = _sssp_case()
        ws = _run(algorithm, dataset, 4, "serial", True,
                  dict(max_iterations=50))
        assert ws.converged
        assert ws.iterations < 50
        full = _run(algorithm, dataset, 4, "serial", False,
                    dict(max_iterations=50, epsilon=0.0))
        assert ws.state == full.state

    def test_touched_vertices_shrink_below_full_sweep(self):
        algorithm, dataset, knobs, _ = _sssp_case()
        result = _run(algorithm, dataset, 4, "serial", True, knobs)
        seed_touched = result.per_iteration[0].touched_vertices
        assert seed_touched > 0
        later = [s.touched_vertices for s in result.per_iteration[1:]]
        assert later and min(later) < seed_touched
        # Over the whole run the frontier saves work against a full sweep.
        full = _run(algorithm, dataset, 4, "serial", False, knobs)

        def totals(run):
            return (
                sum(s.scheduled_map_tasks for s in run.per_iteration),
                sum(s.touched_vertices for s in run.per_iteration),
            )

        (ws_tasks, ws_touched), (full_tasks, full_touched) = totals(result), totals(full)
        assert ws_tasks <= full_tasks
        assert ws_touched < full_touched

    def test_cascade_dag_collapses_strictly_to_zero(self):
        depth = 12
        result = _run(PageRank(), _cascade_graph(depth), depth, "serial", True,
                      dict(max_iterations=depth + 4))
        assert result.converged
        # Superstep 0 is the priming full sweep; the delta supersteps
        # after it schedule one task per still-dirty level.  The run stops
        # on an empty workset, so each series closes with the 0 no
        # further superstep scheduled.
        map_series = [s.scheduled_map_tasks for s in result.per_iteration[1:]] + [0]
        touched_series = [s.touched_vertices for s in result.per_iteration[1:]] + [0]
        assert map_series[0] == depth
        assert all(a > b for a, b in zip(map_series, map_series[1:])), map_series
        assert all(a > b for a, b in zip(touched_series, touched_series[1:])), (
            touched_series
        )
        assert result.per_iteration[-1].workset_size == 0


def _cascade_graph(depth: int) -> WebGraph:
    """A transitive-tournament DAG, one prime-task partition per vertex.

    Vertex ``i`` links to every later vertex, so rank ``i`` reaches its
    fixpoint exactly one superstep after ranks ``0..i-1`` do — the dirty
    frontier loses exactly one vertex per superstep.  Vertex ids are
    chosen so ``partition_for(id, depth)`` enumerates all ``depth``
    residues: every level is its own partition, and the scheduled-task
    series reads directly as "levels still dirty".
    """
    ids, seen = [], set()
    candidate = 0
    while len(ids) < depth:
        shard = partition_for(candidate, depth)
        if shard not in seen:
            seen.add(shard)
            ids.append(candidate)
        candidate += 1
    return WebGraph({ids[i]: tuple(ids[i + 1:]) for i in range(depth)})


# --------------------------------------------------------------------- #
# hypothesis: the frontier never drops a dirty vertex & always drains   #
# --------------------------------------------------------------------- #


def _sssp_runner(n, deg, seed, num_partitions=4):
    graph = weighted_graph_from(powerlaw_web_graph(n, deg, seed=seed),
                                seed=seed)
    algorithm = SSSP(source=0)
    cluster, _ = fresh_cluster()
    parts = partition_structure(
        algorithm, algorithm.structure_records(graph), num_partitions
    )
    state = dict(algorithm.initial_state(graph))
    return algorithm, parts, cluster, WorksetRunner(
        algorithm, parts, state, cluster
    )


class TestFrontierProperties:
    @given(
        st.integers(min_value=20, max_value=60),
        st.integers(min_value=2, max_value=4),
        st.integers(min_value=0, max_value=9999),
    )
    @settings(max_examples=12, deadline=None)
    def test_reaches_empty_workset_fixpoint(self, n, deg, seed):
        algorithm, parts, cluster, runner = _sssp_runner(n, deg, seed)
        runner.seed()
        steps = 0
        while runner.workset:
            runner.step()
            steps += 1
            assert steps <= n + 5, "workset failed to drain"
        # An empty workset certifies the fixpoint: one more *full* sweep
        # over the final state must change nothing.
        check = run_full_iteration(algorithm, parts, dict(runner.state), cluster)
        assert check.new_state == runner.state

    @given(
        st.integers(min_value=20, max_value=50),
        st.integers(min_value=2, max_value=4),
        st.integers(min_value=0, max_value=9999),
    )
    @settings(max_examples=10, deadline=None)
    def test_never_drops_a_dirty_vertex(self, n, deg, seed):
        algorithm, _, _, runner = _sssp_runner(n, deg, seed)
        prev = dict(runner.state)
        runner.seed()
        guard = 0
        while True:
            changed = {
                dk
                for dk, dv in runner.state.items()
                if dk not in prev or algorithm.difference(dv, prev[dk]) > 0.0
            }
            # With threshold=None every changed key must stay dirty —
            # nothing is allowed to fall out of the frontier.
            assert changed <= set(runner.workset.keys())
            if not runner.workset:
                break
            prev = dict(runner.state)
            runner.step()
            guard += 1
            assert guard <= n + 5

    def test_step_on_empty_workset_is_safe(self):
        _, _, _, runner = _sssp_runner(20, 2, 1)
        stats = runner.step()  # never seeded: frontier is empty
        assert stats.scheduled_map_tasks == 0
        assert stats.scheduled_reduce_tasks == 0
        assert stats.touched_vertices == 0
        assert not runner.workset


# --------------------------------------------------------------------- #
# routing properties: dirty vertex partition == scheduled task          #
# --------------------------------------------------------------------- #


class TestRouting:
    @given(
        st.sets(st.integers(min_value=0, max_value=40), max_size=12),
        st.sampled_from(["map", "reduce"]),
        st.integers(min_value=0, max_value=9),
    )
    @settings(max_examples=40, deadline=None)
    def test_one_task_spec_per_dirty_partition(self, partitions, stage, iteration):
        costs = {p: float(p) for p in partitions if p % 2}
        specs = workset_task_specs(partitions, costs, {}, stage, iteration)
        assert [spec.shard_id for spec in specs] == sorted(partitions)
        assert [spec.cost_s for spec in specs] == [
            costs.get(p, 0.0) for p in sorted(partitions)
        ]
        assert len({spec.task_id for spec in specs}) == len(partitions)

    def test_dirty_vertex_routes_to_its_scheduled_task(self):
        _, parts, _, runner = _sssp_runner(40, 3, 7)
        runner.seed()
        assert runner.workset
        n = parts.num_partitions
        dirty = runner.workset.keys()
        held = parts.partitions_holding(dirty)
        for p, members in held.items():
            assert all(partition_for(dk, n) == p for dk in members)
            assert all(dk in parts.groups[p] for dk in members)
        routed = [dk for members in held.values() for dk in members]
        # Dirty keys no structure pair depends on have nothing to re-map.
        assert sorted(routed) == sorted(
            dk for dk in dirty if dk in parts.groups[partition_for(dk, n)]
        )
        stats = runner.step()
        assert stats.scheduled_map_tasks == len(held)
        assert stats.touched_vertices == len(routed)
