"""Task-level fault tolerance: the resilient executor and its wiring.

The contract under test is the robustness analogue of the executor
contract: injected task faults (transient failures, worker deaths) may cost
retries, simulated backoff and degraded backends,
but they must never change what a run *computes* — outputs, counters
and simulated stage times stay byte-identical to the fault-free run,
across the serial/thread/process backends and across engines.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.cluster import Cluster
from repro.cluster.costmodel import CostModel
from repro.common import config
from repro.common.errors import RetriesExhausted
from repro.common.hashing import stable_hash
from repro.dfs.filesystem import DistributedFS
from repro.execution import (
    ExecutorSelector,
    ProcessBackend,
    SerialBackend,
    ThreadBackend,
)
from repro.faults import FaultContext, FaultInjector, FaultSpec, TaskFault
from repro.faults.injection import TaskFaultDirective
from repro.incremental.api import SumReducer
from repro.mapreduce.api import Mapper
from repro.mapreduce.engine import MapReduceEngine
from repro.mapreduce.job import JobConf
from repro.resilience import ResilientExecutor

BACKEND_NAMES = ("serial", "thread", "process")
FAULT_KINDS = ("transient", "worker-kill")


@pytest.fixture(autouse=True)
def _no_ambient_chaos(monkeypatch):
    """Pin chaos mode off so exact-stat assertions hold under the CI
    chaos job (chaos behaviour itself is tested in TestChaosMode)."""
    monkeypatch.setattr(config, "CHAOS_SEED", None)


def _square(x: int) -> int:
    return x * x


def _boom(x: int) -> int:
    if x == 3:
        raise ValueError("task 3 always fails")
    return x


class TokenMapper(Mapper):
    """Emit ``(word, 1)`` per whitespace token."""

    def map(self, key, text, ctx):
        for word in text.split():
            ctx.emit(word, 1)


def _hook_for(*faults: TaskFault):
    """A fresh :meth:`FaultContext.task_hook` over the given faults."""
    injector = FaultInjector()
    for fault in faults:
        injector.add_task_fault(fault)
    return FaultContext(injector).task_hook()


def _rate_hook(rate: float, seed: int = 1234):
    """Transient faults on a deterministic ~``rate`` share of tasks, each
    failing only its first attempt (so the retry always succeeds)."""
    threshold = int(rate * 1_000_000)
    seen: set = set()

    def hook(task_index: int):
        first = task_index not in seen
        seen.add(task_index)
        if first and stable_hash((seed, task_index)) % 1_000_000 < threshold:
            return TaskFaultDirective(kind="transient", occurrence=0)
        return None

    return hook


# ---------------------------------------------------------------------- #
# executor unit behaviour                                                #
# ---------------------------------------------------------------------- #


class TestResilientExecutor:
    def test_passthrough_when_nothing_to_enforce(self):
        wrapper = ResilientExecutor(SerialBackend(), max_retries=0)
        try:
            assert wrapper.run_tasks(_square, range(10)) == [x * x for x in range(10)]
            assert wrapper.stats.retries == 0
            assert wrapper.stats.sim_backoff_s == 0.0
        finally:
            wrapper.close()

    def test_transient_fault_is_retried(self):
        ctx_hook = _hook_for(TaskFault("transient", task_index=3, occurrence=0))
        wrapper = ResilientExecutor(
            SerialBackend(), max_retries=2, fault_hook=ctx_hook
        )
        try:
            assert wrapper.run_tasks(_square, range(8)) == [x * x for x in range(8)]
            assert wrapper.stats.task_failures == 1
            assert wrapper.stats.retries == 1
            assert wrapper.stats.sim_backoff_s > 0.0
        finally:
            wrapper.close()

    def test_retries_exhausted_raises_typed_error(self):
        faults = [
            TaskFault("transient", task_index=1, occurrence=occ) for occ in range(3)
        ]
        wrapper = ResilientExecutor(
            SerialBackend(), max_retries=2, fault_hook=_hook_for(*faults)
        )
        try:
            with pytest.raises(RetriesExhausted) as excinfo:
                wrapper.run_tasks(_square, range(4))
            assert excinfo.value.task_index == 1
            assert excinfo.value.attempts == 3
        finally:
            wrapper.close()

    def test_real_exception_retried_then_exhausted_for_pure_batches(self):
        wrapper = ResilientExecutor(SerialBackend(), max_retries=1)
        try:
            with pytest.raises(RetriesExhausted) as excinfo:
                wrapper.run_tasks(_boom, range(5), picklable=True)
            assert "ValueError" in excinfo.value.cause
            assert wrapper.stats.task_failures == 2
        finally:
            wrapper.close()

    def test_real_exception_propagates_for_impure_batches(self):
        wrapper = ResilientExecutor(SerialBackend(), max_retries=2)
        try:
            with pytest.raises(ValueError, match="task 3 always fails"):
                wrapper.run_tasks(_boom, range(5), picklable=False)
        finally:
            wrapper.close()

    def test_backoff_is_deterministic_and_capped(self):
        def charged(seed_faults):
            wrapper = ResilientExecutor(
                SerialBackend(),
                max_retries=4,
                fault_hook=_hook_for(*seed_faults),
            )
            try:
                wrapper.run_tasks(_square, range(6))
            finally:
                wrapper.close()
            return wrapper.stats.sim_backoff_s

        faults = [
            TaskFault("transient", task_index=2, occurrence=occ) for occ in range(4)
        ]
        first = charged(faults)
        second = charged(faults)
        assert first == second
        assert 0.0 < first <= 4 * CostModel().retry_backoff_cap_s

    def test_sim_backoff_follows_the_fault_rate(self):
        def stats_at(rate):
            wrapper = ResilientExecutor(
                SerialBackend(), max_retries=3,
                fault_hook=_rate_hook(rate),
            )
            try:
                values = wrapper.run_tasks(_square, range(400), picklable=True)
            finally:
                wrapper.close()
            assert values == [x * x for x in range(400)], rate
            return wrapper.stats.retries, wrapper.stats.sim_backoff_s

        assert stats_at(0.0) == (0, 0.0)
        low_retries, low_backoff = stats_at(0.01)
        high_retries, high_backoff = stats_at(0.20)
        assert 0 < low_retries < high_retries
        assert 0.0 < low_backoff < high_backoff

    @pytest.mark.parametrize(
        "backend_cls,expected_next",
        [(ProcessBackend, "thread"), (ThreadBackend, "serial")],
    )
    def test_worker_kill_degrades_one_rung(self, backend_cls, expected_next):
        inner = backend_cls(max_workers=2)
        wrapper = ResilientExecutor(
            inner,
            max_retries=2,
            fault_hook=_hook_for(TaskFault("worker-kill", task_index=1, occurrence=0)),
        )
        try:
            values = wrapper.run_tasks(_square, range(8), picklable=True)
            assert values == [x * x for x in range(8)]
            assert wrapper.stats.degraded_batches == 1
            assert wrapper.current_backend().name == expected_next
            # Later batches keep using the degraded rung and stay correct.
            assert wrapper.run_tasks(_square, range(4)) == [0, 1, 4, 9]
        finally:
            wrapper.close()
            inner.close()

    def test_worker_kill_on_serial_is_a_whole_round_failure(self):
        wrapper = ResilientExecutor(
            SerialBackend(),
            max_retries=2,
            fault_hook=_hook_for(TaskFault("worker-kill", task_index=0, occurrence=0)),
        )
        try:
            assert wrapper.run_tasks(_square, range(4), picklable=True) == [0, 1, 4, 9]
            # Serial has no rung below it: the round redispatches on the
            # same backend and every task is charged one failed attempt.
            assert wrapper.stats.degraded_batches == 0
            assert wrapper.stats.task_failures == 4
            assert wrapper.stats.retries == 4
        finally:
            wrapper.close()

    def test_repeated_kills_cascade_down_the_full_ladder(self):
        faults = [
            TaskFault("worker-kill", task_index=0, occurrence=occ) for occ in range(2)
        ]
        inner = ProcessBackend(max_workers=2)
        wrapper = ResilientExecutor(
            inner, max_retries=2, fault_hook=_hook_for(*faults)
        )
        try:
            assert wrapper.run_tasks(_square, range(6), picklable=True) == [
                x * x for x in range(6)
            ]
            assert wrapper.stats.degraded_batches == 2
            assert wrapper.current_backend().name == "serial"
        finally:
            wrapper.close()
            inner.close()

    def test_worker_kill_downgraded_to_transient_for_impure_batches(self):
        wrapper = ResilientExecutor(
            SerialBackend(),
            max_retries=2,
            fault_hook=_hook_for(TaskFault("worker-kill", task_index=1, occurrence=0)),
        )
        try:
            assert wrapper.run_tasks(_square, range(4), picklable=False) == [0, 1, 4, 9]
            # Only the faulted task retried — a whole-round redispatch
            # would have re-applied the impure batch's completed tasks.
            assert wrapper.stats.task_failures == 1
            assert wrapper.stats.degraded_batches == 0
        finally:
            wrapper.close()

    def test_values_identical_across_backends_under_same_faults(self):
        faults = (
            TaskFault("transient", task_index=0, occurrence=0),
            TaskFault("transient", task_index=5, occurrence=0),
            TaskFault("transient", task_index=5, occurrence=1),
        )
        reference = None
        backoffs = set()
        for name in BACKEND_NAMES:
            selector = ExecutorSelector(name)
            selector.task_fault_hook = _hook_for(*faults)
            wrapper = selector.get(max_retries=2)
            values = wrapper.run_tasks(_square, range(12), picklable=True)
            if reference is None:
                reference = values
            assert values == reference, name
            backoffs.add(wrapper.stats.sim_backoff_s)
            selector.close()
        # Simulated backoff is part of the determinism contract too.
        assert len(backoffs) == 1


# ---------------------------------------------------------------------- #
# retry accounting pinned to recorded values                             #
# ---------------------------------------------------------------------- #

#: A fixed task-fault schedule: task 2 fails its first two attempts, task
#: 0 its second consult; worker kills strike task 5's first and task 7's
#: second consult.  Three batches of eight tasks run through it.
_PINNED_FAULTS = (
    TaskFault("transient", task_index=2, occurrence=0),
    TaskFault("transient", task_index=2, occurrence=1),
    TaskFault("worker-kill", task_index=5, occurrence=0),
    TaskFault("transient", task_index=0, occurrence=1),
    TaskFault("worker-kill", task_index=7, occurrence=1),
)

#: ``(retries, task_failures, degraded_batches, sim_backoff_s)`` per
#: backend under :data:`_PINNED_FAULTS`.  Serial has no rung below it, so
#: each kill there charges the whole round; thread and process degrade
#: instead, and a real process death names no task to charge.
_PINNED_ACCOUNTING = {
    SerialBackend: (16, 16, 0, 19.7822265625),
    ThreadBackend: (9, 9, 1, 7.8037109375),
    ProcessBackend: (2, 2, 2, 1.32421875),
}


class TestRetryAccountingPinned:
    @pytest.mark.parametrize(
        "backend_cls", list(_PINNED_ACCOUNTING), ids=lambda cls: cls.name
    )
    def test_fixed_schedule_accounting(self, backend_cls):
        inner = backend_cls(max_workers=2)
        wrapper = ResilientExecutor(
            inner, max_retries=2, fault_hook=_hook_for(*_PINNED_FAULTS)
        )
        try:
            for _ in range(3):
                assert wrapper.run_tasks(_square, range(8)) == [
                    x * x for x in range(8)
                ]
            stats = wrapper.stats
            assert (
                stats.retries,
                stats.task_failures,
                stats.degraded_batches,
                stats.sim_backoff_s,
            ) == _PINNED_ACCOUNTING[backend_cls]
            assert wrapper.current_backend().name == "serial"
        finally:
            wrapper.close()
            inner.close()


# ---------------------------------------------------------------------- #
# selector wiring                                                        #
# ---------------------------------------------------------------------- #


class TestSelectorWiring:
    def test_selector_wraps_and_caches_by_policy(self):
        selector = ExecutorSelector("serial")
        a = selector.get(max_retries=2)
        b = selector.get(max_retries=2)
        assert a is b
        assert isinstance(a, ResilientExecutor)
        assert a.inner is selector.get()
        assert selector.get(max_retries=None) is a.inner
        other = selector.get(max_retries=7)
        assert other is not a
        selector.close()

    def test_selector_refreshes_fault_hook(self):
        selector = ExecutorSelector("serial")
        wrapper = selector.get(max_retries=2)
        assert wrapper.fault_hook is None
        hook = _hook_for(TaskFault("transient", task_index=0, occurrence=0))
        selector.task_fault_hook = hook
        assert selector.get(max_retries=2).fault_hook is hook
        selector.close()

    def test_provided_backend_instances_are_not_wrapped(self):
        selector = ExecutorSelector("serial")
        provided = SerialBackend()
        assert selector.get(provided, max_retries=2) is provided
        selector.close()


# ---------------------------------------------------------------------- #
# engine-level fault matrix: outputs never change                        #
# ---------------------------------------------------------------------- #


def _wordcount_run(executor, faults=()):
    cluster = Cluster(num_workers=4, seed=7)
    dfs = DistributedFS(cluster, block_size=1024)
    docs = [(i, f"w{i % 11} w{(i * 3) % 7} common") for i in range(120)]
    dfs.write("/docs", docs)
    engine = MapReduceEngine(cluster, dfs, executor=executor)
    if faults:
        engine.executors.task_fault_hook = _hook_for(*faults)
    conf = JobConf("wc", TokenMapper, SumReducer, inputs=["/docs"],
                   output="/counts", num_reducers=4, task_retries=3)
    result = engine.run(conf)
    output = list(dfs.read("/counts"))
    engine.close()
    return {
        "output": output,
        "times": result.metrics.times.as_dict(),
        "counters": result.metrics.counters.as_dict(),
    }


def _i2mr_run(executor, faults=()):
    from repro.algorithms.pagerank import PageRank
    from repro.datasets.graphs import mutate_web_graph, powerlaw_web_graph
    from repro.inciter.engine import I2MREngine, I2MROptions
    from repro.iterative.api import IterativeJob

    cluster = Cluster(num_workers=4, seed=7)
    dfs = DistributedFS(cluster, block_size=2048)
    graph = powerlaw_web_graph(120, 6.0, seed=3)
    delta = mutate_web_graph(graph, 0.1, seed=4)
    engine = I2MREngine(cluster, dfs, executor=executor)
    if faults:
        engine.executors.task_fault_hook = _hook_for(*faults)
    job = IterativeJob(PageRank(), graph, num_partitions=4,
                       max_iterations=5, epsilon=1e-6, task_retries=3)
    _, preserved = engine.run_initial(job)
    incr = engine.run_incremental(
        job, delta.records, preserved,
        I2MROptions(max_iterations=4, epsilon=1e-6),
    )
    summary = {
        "state": incr.state,
        "times": incr.metrics.times.as_dict(),
        "counters": incr.metrics.counters.as_dict(),
    }
    preserved.cleanup()
    engine.close()
    return summary


def _schedule(kind):
    """One engine-level fault schedule per fault kind."""
    return (
        TaskFault(kind, task_index=0, occurrence=0),
        TaskFault("transient", task_index=2, occurrence=1),
    )


class TestEngineFaultMatrix:
    @pytest.mark.parametrize("backend", BACKEND_NAMES)
    @pytest.mark.parametrize("kind", FAULT_KINDS)
    def test_mapreduce_outputs_survive_faults(self, backend, kind):
        reference = _wordcount_run("serial")
        assert _wordcount_run(backend, _schedule(kind)) == reference

    @pytest.mark.parametrize("backend", BACKEND_NAMES)
    @pytest.mark.parametrize("kind", FAULT_KINDS)
    def test_i2mr_outputs_survive_faults(self, backend, kind):
        reference = _i2mr_run("serial")
        assert _i2mr_run(backend, _schedule(kind)) == reference

    def test_process_pool_death_completes_via_degradation(self):
        faults = (TaskFault("worker-kill", task_index=0, occurrence=0),)
        reference = _wordcount_run("serial")
        cluster = Cluster(num_workers=4, seed=7)
        dfs = DistributedFS(cluster, block_size=1024)
        docs = [(i, f"w{i % 11} w{(i * 3) % 7} common") for i in range(120)]
        dfs.write("/docs", docs)
        engine = MapReduceEngine(cluster, dfs, executor="process")
        engine.executors.task_fault_hook = _hook_for(*faults)
        conf = JobConf("wc", TokenMapper, SumReducer, inputs=["/docs"],
                       output="/counts", num_reducers=4, task_retries=3)
        result = engine.run(conf)
        wrapper = engine.backend_for(conf)
        assert wrapper.stats.degraded_batches >= 1
        assert wrapper.current_backend().name != "process"
        summary = {
            "output": list(dfs.read("/counts")),
            "times": result.metrics.times.as_dict(),
            "counters": result.metrics.counters.as_dict(),
        }
        engine.close()
        assert summary == reference


# ---------------------------------------------------------------------- #
# property: random fault schedules never change the digest               #
# ---------------------------------------------------------------------- #


_fault_entries = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=5),
        st.integers(min_value=0, max_value=1),
        st.sampled_from(["transient", "worker-kill"]),
    ),
    max_size=5,
    unique_by=lambda entry: (entry[0], entry[1]),
)


class TestRandomFaultSchedules:
    @settings(max_examples=8, deadline=None)
    @given(entries=_fault_entries)
    def test_wordcount_digest_invariant(self, entries):
        faults = []
        for index, occurrence, kind in entries:
            if kind == "worker-kill" and occurrence != 0:
                # Bound whole-round charges so the (deliberately small)
                # retry budget cannot be exhausted by the schedule shape.
                kind = "transient"
            faults.append(TaskFault(kind, task_index=index, occurrence=occurrence))
        assert _wordcount_run("serial", tuple(faults)) == _wordcount_run("serial")


# ---------------------------------------------------------------------- #
# chaos mode                                                             #
# ---------------------------------------------------------------------- #


class TestChaosMode:
    def test_chaos_injects_deterministically_and_preserves_values(self, monkeypatch):
        monkeypatch.setattr(config, "CHAOS_SEED", 1234)
        monkeypatch.setattr(config, "CHAOS_RATE", 0.5)

        def run():
            wrapper = ResilientExecutor(SerialBackend(), max_retries=4)
            try:
                values = wrapper.run_tasks(_square, range(40), picklable=True)
            finally:
                wrapper.close()
            return values, wrapper.stats.task_failures, wrapper.stats.sim_backoff_s

        values, failures, backoff = run()
        assert values == [x * x for x in range(40)]
        # At a 50% rate over 40 tasks some attempts must have failed,
        # and the same seed must fail exactly the same attempts.
        assert failures > 0
        assert run() == (values, failures, backoff)

    def test_chaos_respects_zero_rate(self, monkeypatch):
        monkeypatch.setattr(config, "CHAOS_SEED", 1234)
        monkeypatch.setattr(config, "CHAOS_RATE", 0.0)
        wrapper = ResilientExecutor(SerialBackend(), max_retries=2)
        try:
            assert wrapper.run_tasks(_square, range(20)) == [
                x * x for x in range(20)
            ]
            assert wrapper.stats.task_failures == 0
        finally:
            wrapper.close()

    def test_chaos_outputs_identical_across_backends(self, monkeypatch):
        monkeypatch.setattr(config, "CHAOS_SEED", 99)
        monkeypatch.setattr(config, "CHAOS_RATE", 0.25)
        reference = _wordcount_run("serial")
        for backend in ("thread", "process"):
            assert _wordcount_run(backend) == reference, backend


# ---------------------------------------------------------------------- #
# spec plumbing                                                          #
# ---------------------------------------------------------------------- #


class TestTaskFaultSpecs:
    def test_fault_spec_task_stage_roundtrip(self):
        spec = FaultSpec(iteration=1, stage="task", task_index=3,
                         task_kind="worker-kill")
        fault = spec.as_task_fault()
        assert fault == TaskFault("worker-kill", task_index=3, occurrence=1)
        directive = fault.directive()
        assert directive == TaskFaultDirective(kind="worker-kill", occurrence=1)

    def test_injector_routes_task_stage(self):
        injector = FaultInjector([
            FaultSpec(iteration=0, stage="task", task_index=2,
                      task_kind="transient"),
        ])
        assert injector.task_fault_for(2, 0).kind == "transient"
        assert injector.task_fault_for(2, 1) is None
        assert injector.num_faults() == 1

    def test_jobconf_validates_resilience_knobs(self):
        from repro.common.errors import InvalidJobConf

        conf = JobConf("j", TokenMapper, SumReducer, inputs=["/x"], output="/y",
                       task_retries=-1)
        with pytest.raises(InvalidJobConf):
            conf.validate()

    def test_retry_policy_for_job_reads_knobs(self):
        selector = ExecutorSelector("serial")
        conf = JobConf("j", TokenMapper, SumReducer, inputs=["/x"], output="/y",
                       task_retries=5)
        assert selector.for_job(conf).max_retries == 5
        # A job that sets no budget gets the REPRO_TASK_RETRIES default.
        conf = JobConf("j", TokenMapper, SumReducer, inputs=["/x"], output="/y")
        assert selector.for_job(conf).max_retries == config.DEFAULT_TASK_RETRIES
        selector.close()

    def test_retry_policy_validation(self):
        with pytest.raises(ValueError):
            ResilientExecutor(SerialBackend(), max_retries=-1)
