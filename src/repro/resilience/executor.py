"""The resilient executor: retries with backoff, and degradation.

:class:`ResilientExecutor` wraps any
:class:`repro.execution.base.ExecutionBackend` and gives engine task
batches the MapReduce fault-tolerance contract:

- **retry with backoff** — a failed attempt is re-executed up to
  ``max_retries`` times; each retry charges capped
  exponential backoff with deterministic jitter to the *simulated* clock
  (:meth:`repro.cluster.costmodel.CostModel.task_retry_backoff_time`),
  accumulated in the dedicated ``ExecutorStats.sim_backoff_s`` account
  so the paper's stage times stay byte-identical under faults;
- **graceful degradation** — a worker death mid-batch (a genuine
  ``BrokenProcessPool`` or an injected
  :class:`~repro.faults.injection.InjectedWorkerDeath`) moves the batch
  down the ladder process → thread → serial and redispatches, so the
  run completes instead of raising.

Every fault pathway is provable under injection: the executor consults
its ``fault_hook`` (see :meth:`repro.faults.context.FaultContext.task_hook`)
in the *parent* process once per dispatched attempt and embeds the
resulting plain-data directive in the guarded payload.  Directives fire
*before* the user function runs, so a faulted attempt leaves no partial
side effects and retrying is safe even for impure (non-picklable)
batches.  Real exceptions are only retried for picklable batches — the
engines' purity contract — and propagate unchanged otherwise.

The guard never changes task *results*: under any fault schedule the
values returned by :meth:`ResilientExecutor.run_tasks` are byte-identical
to a fault-free run, which is the invariant ``tests/test_resilience.py``
proves across backends and engines.
"""

from __future__ import annotations

import os
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any, Callable, List, Optional

from repro.cluster.costmodel import CostModel
from repro.common import config
from repro.common.errors import RetriesExhausted
from repro.common.hashing import stable_hash
from repro.execution.base import ExecutionBackend
from repro.execution.serial import SerialBackend
from repro.execution.threads import ThreadBackend
from repro.faults.injection import (
    InjectedTaskFault,
    InjectedWorkerDeath,
    TaskFaultDirective,
)


@dataclass(frozen=True)
class GuardedPayload:
    """One task attempt as shipped to the inner backend.

    Plain data plus the (picklable, module-level) task function, so the
    guarded batch crosses a process boundary whenever the original batch
    could.

    Attributes:
        fn: the engine's task function.
        payload: the engine's task argument.
        index: task index within the submitted batch.
        directive: injected fault to apply before running, or ``None``.
        parent_pid: pid of the dispatching process — lets a
            ``worker-kill`` directive distinguish a real pool child
            (``os._exit``) from in-process execution (raise
            :class:`~repro.faults.injection.InjectedWorkerDeath`).
        capture: whether real exceptions are captured into the attempt
            result (pure picklable batches) or propagate unchanged
            (impure batches keep their status-quo error behavior).
    """

    fn: Callable[[Any], Any]
    payload: Any
    index: int
    directive: Optional[TaskFaultDirective] = None
    parent_pid: int = 0
    capture: bool = True


@dataclass
class TaskAttempt:
    """Outcome of one guarded task attempt."""

    #: Task index within the submitted batch.
    index: int
    #: Whether the attempt produced a value.
    ok: bool
    #: The task function's return value (``None`` on failure).
    value: Any = None
    #: ``"Type: message"`` description of the failure (``None`` on success).
    error: Optional[str] = None


def _run_guarded(gp: GuardedPayload) -> TaskAttempt:
    """Execute one guarded attempt; always returns a :class:`TaskAttempt`.

    Injected directives fire *before* ``gp.fn`` runs.  ``worker-kill``
    takes the process down (``os._exit`` in a real pool child, otherwise
    :class:`~repro.faults.injection.InjectedWorkerDeath` escapes to the
    resilient executor); every other failure is either captured into the
    attempt result or — real exceptions of impure batches — re-raised.
    """
    directive = gp.directive
    try:
        if directive is not None:
            if directive.kind == "worker-kill":
                if gp.parent_pid and os.getpid() != gp.parent_pid:
                    os._exit(1)
                raise InjectedWorkerDeath(gp.index, directive.occurrence)
            if directive.kind == "transient":
                raise InjectedTaskFault(gp.index, directive.occurrence)
        value = gp.fn(gp.payload)
    except InjectedWorkerDeath:
        raise
    except InjectedTaskFault as exc:
        # Injected faults are captured even for impure batches: they fire
        # before the task function, so a retry cannot repeat side effects.
        return TaskAttempt(
            index=gp.index, ok=False, error=f"{type(exc).__name__}: {exc}"
        )
    except Exception as exc:
        if not gp.capture:
            raise
        return TaskAttempt(
            index=gp.index, ok=False, error=f"{type(exc).__name__}: {exc}"
        )
    return TaskAttempt(index=gp.index, ok=True, value=value)


class ResilientExecutor(ExecutionBackend):
    """Fault-tolerant wrapper around any execution backend.

    Attributes:
        inner: the wrapped backend (top rung of the degradation ladder).
        max_retries: failed attempts re-executed per task before the
            failure propagates as
            :class:`~repro.common.errors.RetriesExhausted`.
        cost_model: charges simulated retry backoff
            (:attr:`~repro.execution.base.ExecutorStats.sim_backoff_s`).
        fault_hook: parent-side injection hook, consulted once per
            dispatched attempt with the task index (see
            :meth:`repro.faults.context.FaultContext.task_hook`).
    """

    def __init__(
        self,
        inner: ExecutionBackend,
        max_retries: int = config.DEFAULT_TASK_RETRIES,
        cost_model: Optional[CostModel] = None,
        fault_hook: Optional[Callable[[int], Optional[TaskFaultDirective]]] = None,
    ) -> None:
        super().__init__()
        self.inner = inner
        self.name = inner.name
        if max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        self.max_retries = max_retries
        self.cost_model = cost_model or CostModel()
        self.fault_hook = fault_hook
        #: Chaos-mode configuration (see ``REPRO_CHAOS_SEED`` in config).
        self.chaos_seed = config.CHAOS_SEED
        self.chaos_rate = config.CHAOS_RATE
        self._ladder: List[ExecutionBackend] = [inner]
        self._owned: List[ExecutionBackend] = []
        self._rung = 0

    # ------------------------------------------------------------------ #
    # plumbing                                                           #
    # ------------------------------------------------------------------ #

    @property
    def max_workers(self) -> int:
        """Worker cap of the wrapped backend."""
        return getattr(self.inner, "max_workers", 1)

    def current_backend(self) -> ExecutionBackend:
        """The ladder rung batches currently dispatch to."""
        return self._ladder[self._rung]

    def close(self) -> None:
        """Shut down ladder rungs this wrapper created (not ``inner``)."""
        for backend in self._owned:
            backend.close()

    def _degrade(self) -> bool:
        """Move one rung down the ladder; False when already at serial."""
        current = self._ladder[self._rung]
        if self._rung + 1 < len(self._ladder):
            self._rung += 1
            return True
        if current.name == "serial":
            return False
        if current.name == "process":
            nxt: ExecutionBackend = ThreadBackend(
                max_workers=getattr(current, "max_workers", None)
            )
        else:
            nxt = SerialBackend()
        self._ladder.append(nxt)
        self._owned.append(nxt)
        self._rung += 1
        return True

    # ------------------------------------------------------------------ #
    # fault consultation                                                  #
    # ------------------------------------------------------------------ #

    def _consult(
        self, index: int, attempt: int, picklable: bool
    ) -> Optional[TaskFaultDirective]:
        """Injected directive for this attempt (parent-side), or None."""
        directive = None
        if self.fault_hook is not None:
            directive = self.fault_hook(index)
        if directive is None and self.chaos_seed is not None and attempt == 0:
            token = stable_hash(
                (int(self.chaos_seed), int(self.stats.batches), int(index))
            )
            if (token % 1_000_000) < int(self.chaos_rate * 1_000_000):
                directive = TaskFaultDirective(kind="transient", occurrence=0)
        if (
            directive is not None
            and directive.kind == "worker-kill"
            and not picklable
        ):
            # A worker death forces the whole round to redispatch, which
            # would re-apply the completed tasks of an impure batch —
            # downgrade to a (pre-execution, side-effect-free) transient.
            directive = TaskFaultDirective(
                kind="transient", occurrence=directive.occurrence
            )
        return directive

    def _charge_failure(
        self, index: int, cause: str, batch_ordinal: int, failures: List[int]
    ) -> None:
        """Record one failed attempt; raises when the budget is gone."""
        failures[index] += 1
        self.stats.task_failures += 1
        if failures[index] > self.max_retries:
            raise RetriesExhausted(index, failures[index], cause)
        token = stable_hash((batch_ordinal, index, failures[index]))
        self.stats.sim_backoff_s += self.cost_model.task_retry_backoff_time(
            failures[index] - 1, token
        )
        self.stats.retries += 1

    # ------------------------------------------------------------------ #
    # the batch loop                                                      #
    # ------------------------------------------------------------------ #

    def _run_batch(
        self,
        fn: Callable[[Any], Any],
        payloads: List[Any],
        picklable: bool,
    ) -> List[Any]:
        if (
            not self.max_retries
            and self.fault_hook is None
            and self.chaos_seed is None
        ):
            # Nothing to enforce: zero-overhead passthrough.
            return self.current_backend().run_tasks(fn, payloads, picklable)

        n = len(payloads)
        batch_ordinal = self.stats.batches
        parent_pid = os.getpid()
        values: List[Any] = [None] * n
        attempts = [0] * n
        failures = [0] * n
        pending = list(range(n))

        while pending:
            gps: List[GuardedPayload] = []
            for index in pending:
                directive = self._consult(index, attempts[index], picklable)
                gps.append(
                    GuardedPayload(
                        fn=fn,
                        payload=payloads[index],
                        index=index,
                        directive=directive,
                        parent_pid=parent_pid,
                        capture=picklable,
                    )
                )
                attempts[index] += 1

            try:
                results = self.current_backend().run_tasks(
                    _run_guarded, gps, picklable
                )
            except (InjectedWorkerDeath, BrokenProcessPool) as death:
                moved = self._degrade()
                if moved:
                    self.stats.degraded_batches += 1
                killed = getattr(death, "task_index", None)
                if moved:
                    # The round redispatches one rung down; only the task
                    # the death struck is charged a failed attempt.
                    charge = [killed] if killed in pending else []
                else:
                    # Already at serial: a worker death is a whole-round
                    # failure, bounded by each task's retry budget.
                    charge = pending
                for index in charge:
                    self._charge_failure(
                        index, str(death), batch_ordinal, failures
                    )
                continue

            next_pending: List[int] = []
            for result in results:
                index = result.index
                if result.ok:
                    values[index] = result.value
                else:
                    self._charge_failure(
                        index, result.error or "task failed", batch_ordinal, failures
                    )
                    next_pending.append(index)
            pending = next_pending

        return values
