"""Tests for fault injection, recovery timing and timelines (§6)."""

from __future__ import annotations

import pytest

from repro.algorithms.pagerank import PageRank
from repro.cluster.cluster import Cluster
from repro.cluster.metrics import StageTimes
from repro.datasets.graphs import powerlaw_web_graph
from repro.faults.context import FaultContext
from repro.faults.injection import FaultInjector, FaultSpec
from repro.faults.timeline import TaskEvent, Timeline
from repro.iterative.api import IterativeJob
from repro.iterative.engine import IterMREngine

from tests.conftest import fresh_cluster


class TestFaultSpec:
    def test_valid(self):
        FaultSpec(iteration=0, stage="map", task_index=3, at_fraction=0.5)

    def test_invalid_stage(self):
        with pytest.raises(ValueError):
            FaultSpec(iteration=0, stage="combine", task_index=0)

    def test_invalid_fraction(self):
        with pytest.raises(ValueError):
            FaultSpec(iteration=0, stage="map", task_index=0, at_fraction=1.5)

    def test_negative_indices(self):
        with pytest.raises(ValueError):
            FaultSpec(iteration=-1, stage="map", task_index=0)


class TestInjector:
    def test_lookup(self):
        injector = FaultInjector([FaultSpec(2, "map", 7)])
        assert injector.fault_for(2, "map", 7) is not None
        assert injector.fault_for(2, "map", 8) is None
        assert injector.fault_for(3, "map", 7) is None
        assert injector.num_faults() == 1

    def test_worker_failure_expands(self):
        # §6.1 case (iii): a worker failure kills both co-located tasks.
        injector = FaultInjector([FaultSpec(1, "worker", 4)])
        assert injector.fault_for(1, "map", 4) is not None
        assert injector.fault_for(1, "reduce", 4) is not None
        assert injector.num_faults() == 2

    def test_random_generator_deterministic(self):
        a = FaultInjector.random(5, num_iterations=8, num_tasks=16, seed=3)
        b = FaultInjector.random(5, num_iterations=8, num_tasks=16, seed=3)
        assert a.num_faults() == b.num_faults()
        for it in range(8):
            for stage in ("map", "reduce"):
                for task in range(16):
                    fa = a.fault_for(it, stage, task)
                    fb = b.fault_for(it, stage, task)
                    assert (fa is None) == (fb is None)


class TestRecoveryTiming:
    def test_detection_on_heartbeat_boundary(self):
        cluster = Cluster(num_workers=2)
        injector = FaultInjector([FaultSpec(0, "map", 0, at_fraction=0.5)])
        context = FaultContext(injector, checkpoint_reload_s=2.0)
        times = context.apply(
            map_task_costs=[10.0, 10.0],
            reduce_task_costs=[1.0, 1.0],
            times=StageTimes(map=10.0, reduce=1.0),
            cluster=cluster,
        )
        [event] = context.timeline.failures()
        # Fails at 5.0; next 3 s heartbeat is 6.0; +2 s reload.
        assert event.failed_at == pytest.approx(5.0)
        assert event.recovered_at == pytest.approx(8.0)
        assert event.recovery_time == pytest.approx(3.0)
        # The task re-executes fully after recovery.
        assert event.end == pytest.approx(18.0)
        assert times.map == pytest.approx(18.0)

    def test_unaffected_stages_unchanged(self):
        cluster = Cluster(num_workers=2)
        context = FaultContext(FaultInjector([]))
        base = StageTimes(map=4.0, shuffle=1.0, sort=0.5, reduce=2.0)
        times = context.apply([4.0, 4.0], [2.0, 2.0], base, cluster)
        assert times.shuffle == pytest.approx(1.0)
        assert times.sort == pytest.approx(0.5)
        assert times.map == pytest.approx(4.0)

    def test_clock_advances_across_iterations(self):
        cluster = Cluster(num_workers=2)
        context = FaultContext(FaultInjector([]))
        base = StageTimes(map=2.0, reduce=1.0)
        context.apply([2.0], [1.0], base, cluster)
        first_end = context.clock
        context.apply([2.0], [1.0], base, cluster)
        assert context.clock > first_end
        assert context.iteration == 2


class TestTimeline:
    def test_rows_and_stats(self):
        timeline = Timeline()
        timeline.add(TaskEvent("map-0", "map", 0, 0, 0.0, 5.0))
        timeline.add(
            TaskEvent("map-1", "map", 0, 1, 0.0, 12.0,
                      failed_at=3.0, recovered_at=6.0)
        )
        assert len(timeline.failures()) == 1
        assert timeline.max_recovery_time() == pytest.approx(3.0)
        assert timeline.duration() == pytest.approx(12.0)

    def test_empty_timeline(self):
        timeline = Timeline()
        assert timeline.failures() == []
        assert timeline.max_recovery_time() == 0.0
        assert timeline.duration() == 0.0


class TestEngineIntegration:
    def _run(self, injector):
        graph = powerlaw_web_graph(150, 4, seed=2)
        cluster, dfs = fresh_cluster(seed=2)
        context = FaultContext(injector) if injector else None
        result = IterMREngine(cluster, dfs).run(
            IterativeJob(PageRank(), graph, num_partitions=8, max_iterations=4),
            fault_context=context,
        )
        return result, context

    def test_failures_do_not_change_results(self):
        clean, _ = self._run(None)
        injector = FaultInjector([
            FaultSpec(1, "map", 2, at_fraction=0.5),
            FaultSpec(2, "reduce", 5, at_fraction=0.3),
        ])
        faulted, context = self._run(injector)
        assert faulted.state == clean.state
        assert len(context.timeline.failures()) == 2

    def test_failures_add_time(self):
        clean, _ = self._run(None)
        injector = FaultInjector([FaultSpec(1, "map", 2, at_fraction=0.9)])
        faulted, _ = self._run(injector)
        assert faulted.total_time > clean.total_time

    def test_recovery_within_heartbeat_plus_reload(self):
        injector = FaultInjector([
            FaultSpec(0, "map", 1, at_fraction=0.4),
            FaultSpec(2, "reduce", 3, at_fraction=0.7),
        ])
        _, context = self._run(injector)
        heartbeat = 3.0
        for event in context.timeline.failures():
            assert event.recovery_time <= heartbeat + 2.0 + 1e-9

    def test_timeline_covers_all_tasks(self):
        injector = FaultInjector([])
        _, context = self._run(injector)
        # 8 map + 8 reduce tasks per iteration, 4 iterations.
        assert len(context.timeline.events) == 8 * 2 * 4


class TestStoreHookEdgeCases:
    """Edge cases of the durability crash hook (`FaultContext.store_hook`)."""

    def _context(self, *crashes):
        from repro.faults.injection import CrashPoint

        injector = FaultInjector()
        for crash in crashes:
            injector.add_crash_point(CrashPoint(**crash))
        return FaultContext(injector)

    def test_nbytes_none_still_tears(self):
        # nbytes is advisory (the store reports what it was writing);
        # a tearing directive must fire whether or not it is known.
        ctx = self._context(dict(point="wal-append", occurrence=0, byte_offset=7))
        hook = ctx.store_hook()
        directive = hook("wal-append", 0, None)
        assert directive is not None
        assert directive.byte_offset == 7
        assert ctx.store_crash_log == [("wal-append", 0, 0)]

    def test_multiple_directives_on_same_point(self):
        ctx = self._context(
            dict(point="wal-append", occurrence=0),
            dict(point="wal-append", occurrence=2, byte_offset=3),
        )
        hook = ctx.store_hook()
        first = hook("wal-append", 0, 64)
        second = hook("wal-append", 0, 64)
        third = hook("wal-append", 0, 64)
        assert first is not None and first.byte_offset is None
        assert second is None
        assert third is not None and third.byte_offset == 3
        assert ctx.store_crash_log == [
            ("wal-append", 0, 0),
            ("wal-append", 0, 2),
        ]

    def test_shards_count_independently(self):
        ctx = self._context(dict(point="pre-index-swap", shard=1, occurrence=0))
        hook = ctx.store_hook()
        assert hook("pre-index-swap", 0, 10) is None
        assert hook("pre-index-swap", 1, 10) is not None

    def test_hook_reuse_across_reset_stores(self):
        ctx = self._context(dict(point="wal-append", occurrence=0))
        hook = ctx.store_hook()
        assert hook("wal-append", 0, 16) is not None
        assert hook("wal-append", 0, 16) is None
        # A new crash/recover cycle: counters restart, the same hook
        # object fires again, and the log keeps the full history.
        ctx.reset_stores()
        assert hook("wal-append", 0, 16) is not None
        assert ctx.store_crash_log == [("wal-append", 0, 0), ("wal-append", 0, 0)]


class TestTaskHook:
    """The executor-side fault hook (`FaultContext.task_hook`)."""

    def _context(self, *faults):
        from repro.faults.injection import TaskFault

        injector = FaultInjector()
        for fault in faults:
            injector.add_task_fault(TaskFault(**fault))
        return FaultContext(injector)

    def test_occurrence_counting_and_log(self):
        ctx = self._context(
            dict(kind="transient", task_index=1, occurrence=1),
            dict(kind="worker-kill", task_index=2, occurrence=0),
        )
        hook = ctx.task_hook()
        assert hook(1) is None                       # occurrence 0: clean
        retry = hook(1)                              # occurrence 1: faults
        assert retry is not None and retry.kind == "transient"
        kill = hook(2)
        assert kill is not None and kill.kind == "worker-kill"
        assert hook(0) is None
        assert ctx.task_fault_log == [(1, 1, "transient"), (2, 0, "worker-kill")]

    def test_task_and_store_channels_are_independent(self):
        from repro.faults.injection import CrashPoint, TaskFault

        injector = FaultInjector()
        injector.add_crash_point(CrashPoint(point="wal-append", occurrence=0))
        injector.add_task_fault(TaskFault("transient", task_index=0, occurrence=0))
        ctx = FaultContext(injector)
        assert ctx.task_hook()(0) is not None
        assert ctx.store_hook()("wal-append", 0, 8) is not None
        assert injector.num_faults() == 2

    def test_invalid_task_fault_specs_rejected(self):
        from repro.faults.injection import TaskFault

        with pytest.raises(ValueError, match="kind"):
            TaskFault("melt", task_index=0)
        with pytest.raises(ValueError, match="non-negative"):
            TaskFault("transient", task_index=-1)
        with pytest.raises(ValueError, match="task_kind"):
            FaultSpec(0, "task", 0)
        with pytest.raises(ValueError, match="task stage only"):
            FaultSpec(0, "map", 0, task_kind="transient")
