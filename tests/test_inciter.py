"""Tests for incremental iterative processing (§5).

The core invariant: an incremental run converges to the same fixpoint as
recomputing from scratch on the updated input.
"""

from __future__ import annotations

import pickle

import pytest

from repro.algorithms.gimv import GIMV
from repro.algorithms.kmeans import Kmeans
from repro.algorithms.pagerank import PageRank
from repro.algorithms.sssp import SSSP
from repro.common.errors import InvalidJobConf, JobError
from repro.common.kvpair import delete, insert
from repro.datasets.graphs import (
    mutate_web_graph,
    mutate_weighted_graph,
    powerlaw_web_graph,
    weighted_graph_from,
)
from repro.datasets.matrices import block_matrix, mutate_matrix
from repro.datasets.points import gaussian_points, mutate_points
from repro.inciter.engine import I2MREngine, I2MROptions
from repro.iterative.api import IterativeJob
from repro.iterative.engine import IterMREngine

from tests.conftest import fresh_cluster


def pagerank_setup(n=400, seed=3, fraction=0.1):
    graph = powerlaw_web_graph(n, 5, seed=seed)
    algorithm = PageRank()
    cluster, dfs = fresh_cluster(seed=seed)
    engine = I2MREngine(cluster, dfs)
    job = IterativeJob(algorithm, graph, num_partitions=4,
                       max_iterations=40, epsilon=1e-7)
    initial, preserved = engine.run_initial(job)
    delta = mutate_web_graph(graph, fraction, seed=seed + 1)
    return algorithm, graph, engine, job, initial, preserved, delta


class TestInitialRun:
    def test_initial_converges_and_preserves(self):
        algorithm, graph, engine, job, initial, preserved, _ = pagerank_setup()
        assert initial.converged
        reference = algorithm.reference(graph, 200)
        assert max(
            abs(preserved.state[k] - reference[k]) for k in reference
        ) < 1e-4
        # MRBGraph preserved: chunks exist for vertices with in-edges.
        total_chunks = sum(len(s) for s in preserved.stores.stores.values())
        assert total_chunks > 0
        preserved.cleanup()

    def test_initial_charges_store_build(self):
        _, _, _, _, initial, preserved, _ = pagerank_setup(n=150)
        assert initial.metrics.times.merge > 0
        preserved.cleanup()


class TestIncrementalCorrectness:
    def test_pagerank_matches_scratch_fixpoint(self):
        algorithm, _, engine, job, _, preserved, delta = pagerank_setup()
        result = engine.run_incremental(
            job, delta.records, preserved,
            I2MROptions(filter_threshold=1e-10, max_iterations=80),
        )
        reference = algorithm.reference_from(delta.new_graph, {}, 200)
        assert set(result.state) == set(reference)
        assert max(
            abs(result.state[k] - reference[k]) for k in reference
        ) < 1e-4
        preserved.cleanup()

    def test_sssp_exact_with_zero_threshold(self):
        base = powerlaw_web_graph(300, 5, seed=11)
        graph = weighted_graph_from(base, seed=2)
        algorithm = SSSP(source=0)
        cluster, dfs = fresh_cluster(seed=11)
        engine = I2MREngine(cluster, dfs)
        job = IterativeJob(algorithm, graph, num_partitions=4,
                           max_iterations=40, epsilon=0.0)
        _, preserved = engine.run_initial(job)
        delta = mutate_weighted_graph(graph, 0.1, seed=5)
        result = engine.run_incremental(
            job, delta.records, preserved,
            I2MROptions(filter_threshold=0.0, max_iterations=60),
        )
        reference = algorithm.reference(delta.new_graph, 60)
        for k, expected in reference.items():
            got = result.state.get(k)
            assert got == expected or abs(got - expected) < 1e-9
        preserved.cleanup()

    def test_gimv_converges_close(self):
        matrix = block_matrix(num_blocks=10, block_size=12, density=0.05, seed=6)
        algorithm = GIMV(block_size=12)
        cluster, dfs = fresh_cluster(seed=6)
        engine = I2MREngine(cluster, dfs)
        job = IterativeJob(algorithm, matrix, num_partitions=4,
                           max_iterations=60, epsilon=1e-10)
        _, preserved = engine.run_initial(job)
        delta = mutate_matrix(matrix, 0.08, seed=7)
        result = engine.run_incremental(
            job, delta.records, preserved,
            I2MROptions(filter_threshold=1e-12, max_iterations=80),
        )
        reference = algorithm.reference(delta.new_dataset, 150)
        worst = max(
            max(abs(a - b) for a, b in zip(result.state[j], reference[j]))
            for j in reference
        )
        # Bounded by the geometric convergence tail of the damped iteration.
        assert worst < 1e-3
        preserved.cleanup()

    def test_empty_delta_converges_immediately(self):
        _, _, engine, job, _, preserved, _ = pagerank_setup(n=100)
        result = engine.run_incremental(
            job, [], preserved, I2MROptions(max_iterations=10)
        )
        assert result.converged
        assert result.iterations == 1
        preserved.cleanup()

    def test_vertex_insertion_and_deletion(self):
        algorithm, graph, engine, job, _, preserved, delta = pagerank_setup(
            n=200, fraction=0.2
        )
        result = engine.run_incremental(
            job, delta.records, preserved,
            I2MROptions(filter_threshold=1e-10, max_iterations=60),
        )
        # State keys exactly track the updated graph's vertex set.
        assert set(result.state) == set(delta.new_graph.out_links)
        preserved.cleanup()


class TestCPCBehaviour:
    def test_cpc_reduces_propagation(self):
        algorithm, _, engine, job, _, preserved, delta = pagerank_setup()
        loose = engine.run_incremental(
            job, delta.records, preserved,
            I2MROptions(filter_threshold=0.5, max_iterations=10),
        )
        preserved.cleanup()

        _, _, engine2, job2, _, preserved2, delta2 = pagerank_setup()
        tight = engine2.run_incremental(
            job2, delta2.records, preserved2,
            I2MROptions(filter_threshold=None, max_iterations=10),
        )
        preserved2.cleanup()

        loose_prop = sum(s.propagated_kv_pairs for s in loose.per_iteration)
        tight_prop = sum(s.propagated_kv_pairs for s in tight.per_iteration)
        assert loose_prop < tight_prop
        assert loose.total_time < tight.total_time

    def test_cpc_result_stays_close_to_exact(self):
        algorithm, _, engine, job, _, preserved, delta = pagerank_setup()
        result = engine.run_incremental(
            job, delta.records, preserved,
            I2MROptions(filter_threshold=0.05, max_iterations=20),
        )
        reference = algorithm.reference_from(delta.new_graph, {}, 200)
        errors = [
            abs(result.state[k] - reference[k]) / abs(reference[k])
            for k in reference
        ]
        assert sum(errors) / len(errors) < 0.05
        preserved.cleanup()

    def test_state_history_recording(self):
        _, _, engine, job, _, preserved, delta = pagerank_setup(n=100)
        result = engine.run_incremental(
            job, delta.records, preserved,
            I2MROptions(filter_threshold=0.1, max_iterations=5,
                        record_states=True),
        )
        assert len(result.state_history) == result.iterations
        assert result.state_history[-1] == result.state
        preserved.cleanup()


class TestAutoOff:
    def test_kmeans_falls_back(self):
        points = gaussian_points(200, dim=3, k=3, seed=8)
        algorithm = Kmeans(k=3, dim=3)
        cluster, dfs = fresh_cluster(seed=8)
        engine = I2MREngine(cluster, dfs)
        job = IterativeJob(algorithm, points, num_partitions=4,
                           max_iterations=15, epsilon=1e-5)
        _, preserved = engine.run_initial(job)
        delta = mutate_points(points, 0.1, seed=9)
        result = engine.run_incremental(
            job, delta.records, preserved,
            I2MROptions(max_iterations=15, epsilon=1e-5),
        )
        assert result.fell_back
        assert result.mrbg_disabled_at == 1
        assert not preserved.stores_valid
        # The fallback still converges to the right clustering.
        reference = algorithm.reference_from(
            delta.new_dataset, {1: preserved.state[1]}, result.iterations - 1
        )
        preserved.cleanup()

    def test_mrbg_disabled_option(self):
        _, _, engine, job, _, preserved, delta = pagerank_setup(n=100)
        result = engine.run_incremental(
            job, delta.records, preserved,
            I2MROptions(mrbg_enabled=False, max_iterations=5),
        )
        assert result.mrbg_disabled_at == 0
        assert all(not s.mrbg_maintained for s in result.per_iteration)
        preserved.cleanup()

    def test_pdelta_threshold_configurable(self):
        _, _, engine, job, _, preserved, delta = pagerank_setup(fraction=0.3)
        result = engine.run_incremental(
            job, delta.records, preserved,
            I2MROptions(filter_threshold=None, pdelta_threshold=0.01,
                        max_iterations=6),
        )
        assert result.fell_back
        preserved.cleanup()


class TestStoreLifecycle:
    def test_batches_accumulate_per_iteration(self):
        _, _, engine, job, _, preserved, delta = pagerank_setup()
        engine.run_incremental(
            job, delta.records, preserved,
            I2MROptions(filter_threshold=0.01, max_iterations=6),
        )
        batches = [s.num_batches for s in preserved.stores.stores.values()]
        assert max(batches) >= 3  # initial build + several merge batches
        preserved.cleanup()

    def test_checkpoint_option_charges_time(self):
        _, _, engine, job, _, preserved, delta = pagerank_setup(n=150)
        result = engine.run_incremental(
            job, delta.records, preserved,
            I2MROptions(filter_threshold=0.01, max_iterations=4,
                        checkpoint=True),
        )
        assert result.metrics.times.checkpoint > 0
        preserved.cleanup()

    def test_consecutive_jobs_reuse_state(self):
        algorithm, graph, engine, job, _, preserved, delta = pagerank_setup()
        engine.run_incremental(
            job, delta.records, preserved,
            I2MROptions(filter_threshold=1e-10, max_iterations=60),
        )
        # A second evolution step continues from the refreshed state.
        delta2 = mutate_web_graph(delta.new_graph, 0.05, seed=99)
        result2 = engine.run_incremental(
            IterativeJob(algorithm, delta2.new_graph, num_partitions=4,
                         max_iterations=60),
            delta2.records,
            preserved,
            I2MROptions(filter_threshold=1e-10, max_iterations=80),
        )
        reference = algorithm.reference_from(delta2.new_graph, {}, 250)
        assert max(
            abs(result2.state[k] - reference[k]) for k in reference
        ) < 1e-3
        preserved.cleanup()


def poisoned_delta(parts, algorithm):
    """``[delete(v0), insert(v0'), delete(absent)]``: a valid update of a
    live vertex, then a deletion — in another partition, so it is reached
    after the update — of a pair the structure never held."""
    home = 0
    sk, sv, _, _ = next(iter(parts.groups[home].values()))[0]
    absent = next(
        key for key in range(10**6, 10**6 + 50)
        if parts.partition_of(algorithm, key) != home
    )
    return [delete(sk, sv), insert(sk, ((1, 2, 3), "")), delete(absent, ((1,), ""))], absent


class TestRefusedDelta:
    """A delta the engine refuses must leave the structure, the state and
    the MRBG-Store as they were, on the fine-grain path and on the
    recompute fallback alike."""

    @pytest.mark.parametrize("mrbg_enabled", [True, False])
    def test_poisoned_delta_changes_nothing(self, mrbg_enabled):
        algorithm, _, engine, job, _, preserved, delta = pagerank_setup(n=150)
        _, _, twin_engine, twin_job, _, twin, _ = pagerank_setup(n=150)
        options = I2MROptions(
            filter_threshold=1e-8, max_iterations=30, mrbg_enabled=mrbg_enabled,
            epsilon=1e-7,
        )
        poison, absent = poisoned_delta(preserved.parts, algorithm)
        groups = pickle.dumps(preserved.parts.groups)
        state = dict(preserved.state)
        store_metrics = preserved.stores.store_metrics()

        for _ in range(2):  # the retry fails on the same record, not another
            with pytest.raises(JobError, match=f"bad delta.*{absent}"):
                engine.run_incremental(job, poison, preserved, options)
            assert pickle.dumps(preserved.parts.groups) == groups
            assert preserved.parts == twin.parts
            assert preserved.state == state
            assert preserved.stores.store_metrics() == store_metrics

        # The next good batch is exactly a twin engine's that never saw it.
        got = engine.run_incremental(job, delta.records, preserved, options)
        want = twin_engine.run_incremental(twin_job, delta.records, twin, options)
        assert got.state == want.state
        assert got.per_iteration == want.per_iteration
        assert got.metrics.times == want.metrics.times
        assert got.metrics.counters.as_dict() == want.metrics.counters.as_dict()
        assert preserved.parts == twin.parts
        assert preserved.stores.store_metrics() == twin.stores.store_metrics()
        preserved.cleanup()
        twin.cleanup()

    def test_delete_then_insert_of_one_key_is_still_an_update(self):
        algorithm, _, engine, job, _, preserved, _ = pagerank_setup(n=150)
        sk, sv, _, _ = next(iter(preserved.parts.groups[1].values()))[0]
        new_sv = ((4, 5), "")
        update = [delete(sk, sv), insert(sk, new_sv), delete(sk, new_sv), insert(sk, sv)]
        engine.run_incremental(job, update, preserved, I2MROptions(max_iterations=5))
        assert [rec[:2] for rec in preserved.parts.groups[1][sk]] == [(sk, sv)]
        preserved.cleanup()


class TestStaleStores:
    def test_refresh_without_mrbgraph_invalidates_the_stores(self):
        """A refresh that applies a structure delta without maintaining
        the MRBGraph (here: by option) leaves the preserved MRBGraph
        describing the *old* structure — the next refresh must not merge
        into it, whatever its options say."""
        algorithm, _, engine, job, _, preserved, delta1 = pagerank_setup()
        engine.run_incremental(
            job, delta1.records, preserved,
            I2MROptions(mrbg_enabled=False, max_iterations=80, epsilon=1e-9),
        )
        assert not preserved.stores_valid
        delta2 = mutate_web_graph(delta1.new_graph, 0.1, seed=99)
        result = engine.run_incremental(
            job, delta2.records, preserved,
            I2MROptions(pdelta_threshold=2.0, max_iterations=80, epsilon=1e-9),
        )
        assert result.fell_back
        reference = algorithm.reference_from(delta2.new_graph, {}, 300)
        assert set(result.state) == set(reference)
        assert max(abs(result.state[k] - reference[k]) for k in reference) < 1e-6
        preserved.cleanup()


class TestOptionsValidation:
    @pytest.mark.parametrize(
        "bad",
        [
            dict(max_iterations=0),
            dict(max_iterations=-3),
            dict(pdelta_threshold=-1.0),
            dict(epsilon=-1e-9),
            dict(filter_threshold=-0.5),
        ],
        ids=lambda bad: "-".join(f"{k}={v}" for k, v in bad.items()),
    )
    def test_bad_option_raises_before_anything_is_touched(self, bad):
        _, _, engine, job, _, preserved, delta = pagerank_setup(n=100)
        groups = pickle.dumps(preserved.parts.groups)
        state = dict(preserved.state)
        store_metrics = preserved.stores.store_metrics()
        with pytest.raises(InvalidJobConf, match=next(iter(bad))):
            engine.run_incremental(job, delta.records, preserved, I2MROptions(**bad))
        assert pickle.dumps(preserved.parts.groups) == groups
        assert preserved.state == state
        assert preserved.stores.store_metrics() == store_metrics
        assert preserved.stores_valid
        preserved.cleanup()

    def test_defaults_and_boundaries_are_valid(self):
        I2MROptions().validate()
        I2MROptions(max_iterations=1, pdelta_threshold=0.0, epsilon=0.0,
                    filter_threshold=0.0).validate()


def _pagerank_job(workset):
    graph = powerlaw_web_graph(150, 5, seed=3)
    job = IterativeJob(PageRank(), graph, num_partitions=4, max_iterations=40,
                       epsilon=1e-7, workset=workset)
    return job, mutate_web_graph(graph, 0.1, seed=4).records


def _kmeans_job(workset):
    points = gaussian_points(120, dim=3, k=3, seed=8)
    job = IterativeJob(Kmeans(k=3, dim=3), points, num_partitions=4,
                       max_iterations=15, epsilon=1e-5, workset=workset)
    return job, mutate_points(points, 0.3, seed=9).records


def _same_run(got, want, exact):
    """Two runs of the one driver: same stop, same trajectory, same state."""
    assert got.iterations == want.iterations
    assert got.converged == want.converged
    series = [s.total_difference for s in got.per_iteration]
    expected = [s.total_difference for s in want.per_iteration]
    if exact:
        assert series == expected
        assert got.state == want.state
    else:
        # K-means re-sums members in edge-cache order under workset.
        assert series == pytest.approx(expected, abs=1e-9)
        assert set(got.state) == set(want.state)


@pytest.mark.parametrize("workset", [False, True])
@pytest.mark.parametrize("make_job", [_pagerank_job, _kmeans_job])
class TestOneDriver:
    """``run_initial``, ``IterMREngine.run`` and the recompute fallback are
    one loop: same inputs, same iterations, same state."""

    def test_run_initial_is_an_itermr_run(self, make_job, workset):
        job, _ = make_job(workset)
        initial, preserved = I2MREngine(*fresh_cluster()).run_initial(job)
        plain = IterMREngine(*fresh_cluster()).run(job)
        # run_initial always sweeps in full (it captures the MRBGraph);
        # a workset run follows the same trajectory to the same fixpoint.
        _same_run(initial, plain, exact=not (workset and job.algorithm.name == "kmeans"))
        assert initial.preprocess_s == plain.preprocess_s
        assert all(s.mrbg_maintained for s in initial.per_iteration)
        assert all(s.scheduled_map_tasks == 4 for s in initial.per_iteration)
        preserved.cleanup()

    def test_fallback_from_the_start_is_an_itermr_run(self, make_job, workset):
        job, delta = make_job(workset)
        algorithm = job.algorithm
        engine = I2MREngine(*fresh_cluster())
        _, preserved = engine.run_initial(job)
        before = dict(preserved.state)
        options = I2MROptions(mrbg_enabled=False, max_iterations=25,
                              epsilon=1e-6, workset=workset)
        result = engine.run_incremental(job, delta, preserved, options)
        assert result.mrbg_disabled_at == 0

        # The same start the fallback took: the delta applied to the
        # structure, the state keys reconciled with it (one-to-one only).
        start = dict(before)
        if not preserved.parts.replicated_state:
            live = {dk for group in preserved.parts.groups for dk in group}
            start = {dk: before.get(dk, algorithm.init_state_value(dk)) for dk in live}
        plain = IterMREngine(*fresh_cluster()).run(
            IterativeJob(algorithm, job.dataset, num_partitions=4, max_iterations=25,
                         epsilon=1e-6, workset=workset),
            parts=preserved.parts, initial_state=start,
        )
        _same_run(result, plain, exact=True)
        assert [s.times for s in result.per_iteration] == [
            s.times for s in plain.per_iteration
        ]
        assert [s.iteration for s in result.per_iteration] == list(
            range(result.iterations)
        )
        preserved.cleanup()
