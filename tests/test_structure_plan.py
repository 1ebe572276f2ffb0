"""The structure cache must be invisible: a full sweep, a workset
superstep and an incremental refresh that read each pair's cached ``MK``
and size produce exactly what the same run produces when every map loop
re-derives them from ``(SK, SV)`` — the loops this library used to run,
kept here as the reference.
"""

from __future__ import annotations

import pytest

from repro.algorithms.kmeans import Kmeans
from repro.algorithms.pagerank import PageRank
from repro.common.hashing import map_key, stable_hash
from repro.common.kvpair import Op
from repro.common.sizeof import record_size
from repro.datasets.graphs import mutate_web_graph, powerlaw_web_graph
from repro.datasets.points import gaussian_points
from repro.inciter import engine as inciter_engine
from repro.inciter.engine import DeltaStateMapRun, I2MREngine, I2MROptions
from repro.iterative import engine as iter_engine
from repro.iterative import workset as workset_module
from repro.iterative.api import Dependency, IterativeJob
from repro.iterative.engine import MK_BYTES, IterMapRun, run_full_iteration
from repro.iterative.partitioning import PartitionedStructure
from repro.iterative.workset import WorksetMapRun, WorksetRunner
from repro.mrbgraph.graph import DeltaEdge

from tests.conftest import fresh_cluster

_OP_BYTES = 2


# ---------------------------------------------------------------------- #
# reference map loops: hash, size and place per pair, per iteration      #
# ---------------------------------------------------------------------- #


def reference_iter_map_task(payload):
    algorithm, n = payload.algorithm, payload.num_partitions
    per_q, bytes_per_q = {}, {}
    emitted = emitted_bytes = 0
    for dk, records in payload.groups:
        dv = payload.state_slice.get(dk)
        if dv is None:
            dv = algorithm.init_state_value(dk)
        for sk, sv, *_ in records:
            mk = map_key(sk, sv) if payload.capture_chunks else 0
            for k2, v2 in algorithm.map_instance(sk, sv, dk, dv):
                q = stable_hash(k2) % n
                nbytes = record_size(k2, v2) + (MK_BYTES if payload.capture_chunks else 0)
                per_q.setdefault(q, []).append((k2, mk, v2))
                bytes_per_q[q] = bytes_per_q.get(q, 0) + nbytes
                emitted += 1
                emitted_bytes += nbytes
    return IterMapRun(payload.partition, per_q, bytes_per_q, emitted, emitted_bytes)


def reference_workset_map_task(payload):
    algorithm = payload.algorithm
    per_source = []
    emitted = emitted_bytes = read_bytes = pairs_done = 0
    for dk, dv, records in payload.groups:
        if dv is None:
            dv = algorithm.init_state_value(dk)
        read_bytes += record_size(dk, dv)
        emissions = []
        for sk, sv, *_ in records:
            mk = map_key(sk, sv)
            read_bytes += record_size(sk, sv)
            pairs_done += 1
            for k2, v2 in algorithm.map_instance(sk, sv, dk, dv):
                emissions.append((k2, mk, v2))
                emitted += 1
                emitted_bytes += record_size(k2, v2)
        per_source.append((dk, emissions))
    return WorksetMapRun(
        payload.partition, per_source, emitted, emitted_bytes, read_bytes, pairs_done
    )


def reference_delta_state_map_task(payload):
    algorithm, n = payload.algorithm, payload.num_partitions
    per_q, edge_bytes_per_q = {}, {}
    read_bytes = emitted = emitted_bytes = pairs_done = 0
    for dk, dv, records in payload.groups:
        read_bytes += record_size(dk, dv)
        for sk, sv, *_ in records:
            read_bytes += record_size(sk, sv)
            mk = map_key(sk, sv)
            pairs_done += 1
            for k2, v2 in algorithm.map_instance(sk, sv, dk, dv):
                q = stable_hash(k2) % n
                per_q.setdefault(q, []).append((k2, DeltaEdge(mk, v2, Op.INSERT)))
                nbytes = record_size(k2, v2) + MK_BYTES + _OP_BYTES
                edge_bytes_per_q[q] = edge_bytes_per_q.get(q, 0) + nbytes
                emitted += 1
                emitted_bytes += nbytes
    return DeltaStateMapRun(
        payload.partition, per_q, edge_bytes_per_q, read_bytes, emitted,
        emitted_bytes, pairs_done,
    )


def use_reference_loops(monkeypatch):
    """Swap the three task functions for the references (the engines call
    them through their module globals, which is also how ``bench/`` traces
    them)."""
    monkeypatch.setattr(iter_engine, "execute_iter_map_task", reference_iter_map_task)
    monkeypatch.setattr(
        workset_module, "execute_workset_map_task", reference_workset_map_task
    )
    monkeypatch.setattr(
        inciter_engine, "execute_delta_state_map_task", reference_delta_state_map_task
    )


# ---------------------------------------------------------------------- #
# hand-built structure                                                   #
# ---------------------------------------------------------------------- #


def hand_built_parts(algorithm, records, n, mk_of=map_key):
    """A ``PartitionedStructure`` assembled record by record in the test,
    the cached fields included (``mk_of`` lets a test plant wrong ones)."""
    replicated = algorithm.dependency is Dependency.ALL_TO_ONE
    parts = PartitionedStructure(
        num_partitions=n,
        replicated_state=replicated,
        groups=[{} for _ in range(n)],
        structure_bytes=[0] * n,
        num_pairs=[0] * n,
    )
    for sk, sv in records:
        dk = algorithm.project(sk)
        p = stable_hash(sk if replicated else dk) % n
        nbytes = record_size(sk, sv)
        parts.groups[p].setdefault(dk, []).append((sk, sv, mk_of(sk, sv), nbytes))
        parts.structure_bytes[p] += nbytes
        parts.num_pairs[p] += 1
    return parts


def _pagerank():
    graph = powerlaw_web_graph(150, 5.0, seed=4)
    algorithm = PageRank()
    return algorithm, algorithm.structure_records(graph), algorithm.initial_state(graph)


def _kmeans():
    points = gaussian_points(90, dim=3, k=3, seed=2)
    algorithm = Kmeans(k=3, dim=3)
    return algorithm, algorithm.structure_records(points), algorithm.initial_state(points)


WORKLOADS = {"pagerank": _pagerank, "kmeans": _kmeans}


def _sweep_view(result):
    return (
        result.new_state,
        result.outputs,
        result.times,
        result.counters.as_dict(),
        result.total_difference,
        result.chunks,
    )


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("capture_chunks", [False, True])
def test_full_sweep_equals_recomputing_loops(monkeypatch, workload, capture_chunks):
    algorithm, records, state = WORKLOADS[workload]()
    cluster, _ = fresh_cluster()

    def two_sweeps():
        parts = hand_built_parts(algorithm, records, 4)
        first = run_full_iteration(
            algorithm, parts, dict(state), cluster, capture_chunks=capture_chunks
        )
        second = run_full_iteration(
            algorithm, parts, first.new_state, cluster, capture_chunks=capture_chunks
        )
        return _sweep_view(first), _sweep_view(second)

    cached = two_sweeps()
    use_reference_loops(monkeypatch)
    assert two_sweeps() == cached
    assert cached[0][3]["shuffle_bytes"] > 0


def test_map_run_sizes_each_reduce_partition_once():
    """``bytes_per_q`` is the shuffle volume: per reduce partition, the sum
    of ``record_size`` (+ the MK with ``capture_chunks``) of its records."""
    algorithm, records, state = _pagerank()
    parts = hand_built_parts(algorithm, records, 4)
    for capture_chunks in (False, True):
        payload = iter_engine.IterMapPayload(
            partition=1,
            groups=list(parts.iter_groups(1)),
            state_slice=dict(state),
            algorithm=algorithm,
            num_partitions=4,
            capture_chunks=capture_chunks,
        )
        run = iter_engine.execute_iter_map_task(payload)
        assert run == reference_iter_map_task(payload)
        assert sorted(run.bytes_per_q) == sorted(run.per_q)
        assert run.emitted_bytes == sum(run.bytes_per_q.values())


def test_loops_read_the_cache_instead_of_rehashing():
    """Plant a wrong MK in every record: it must surface in the chunks."""
    algorithm, records, state = _pagerank()
    cluster, _ = fresh_cluster()
    parts = hand_built_parts(algorithm, records, 4, mk_of=lambda sk, sv: 7)
    result = run_full_iteration(algorithm, parts, dict(state), cluster, capture_chunks=True)
    mks = {mk for chunk_list in result.chunks for _, entries in chunk_list for mk, _ in entries}
    assert mks == {7}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_workset_supersteps_equal_recomputing_loops(monkeypatch, workload):
    algorithm, records, state = WORKLOADS[workload]()
    cluster, _ = fresh_cluster()

    def supersteps():
        parts = hand_built_parts(algorithm, records, 4)
        runner = WorksetRunner(algorithm, parts, dict(state), cluster)
        stats = [runner.seed(), runner.step(), runner.step()]
        return stats, runner.state, runner.counters.as_dict(), sorted(runner.workset.keys())

    cached = supersteps()
    use_reference_loops(monkeypatch)
    assert supersteps() == cached
    assert cached[0][1].touched_vertices > 0


@pytest.mark.parametrize("workset", [False, True])
def test_incremental_refresh_equals_recomputing_loops(monkeypatch, workset):
    graph = powerlaw_web_graph(150, 5.0, seed=4)
    delta = mutate_web_graph(graph, 0.08, seed=9)

    def refresh():
        cluster, dfs = fresh_cluster()
        engine = I2MREngine(cluster, dfs)
        job = IterativeJob(PageRank(), graph, num_partitions=4,
                           max_iterations=40, epsilon=1e-7)
        initial, prev = engine.run_initial(job)
        # P-delta passes 0.5 in the second iteration: with ``workset`` the
        # refresh maps one delta-state round and finishes on the fallback
        # path; without, it stays on the MRBGraph to the end.
        options = I2MROptions(
            filter_threshold=1e-6, max_iterations=30, workset=workset,
            pdelta_threshold=0.5 if workset else 1.1, epsilon=1e-7,
        )
        result = engine.run_incremental(job, delta.records, prev, options)
        view = (
            initial.state, initial.metrics.times, initial.metrics.counters.as_dict(),
            result.state, result.per_iteration, result.metrics.times,
            result.metrics.counters.as_dict(), result.mrbg_disabled_at,
            prev.parts, prev.stores.store_metrics(),
        )
        prev.cleanup()
        engine.close()
        return view

    cached = refresh()
    use_reference_loops(monkeypatch)
    assert refresh() == cached
    assert cached[6]["delta_map_instances"] > len(delta.records)
    assert (cached[7] is not None) == workset
    assert (cached[6].get("workset_map_tasks", 0) > 0) == workset
