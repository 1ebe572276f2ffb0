"""Executor abstraction: how task batches run on the *host* machine.

Every engine in this library separates two notions of time:

- **simulated cluster time** — what the paper measures; derived from the
  cost model and the physical work each task performs; and
- **host wall-clock time** — how long the Python process takes to
  execute the real user map/reduce functions.

An :class:`ExecutionBackend` only affects the second.  Engines hand a
batch of *independent, side-effect-free* task payloads to
:meth:`ExecutionBackend.run_tasks` and merge the returned results in
task-index order, so simulated times, counters and outputs are
byte-identical no matter which backend executed the batch — the
invariant ``tests/test_executors.py`` checks on every engine.

Backends are selected by name (``"serial"``, ``"thread"``,
``"process"``) via :func:`repro.execution.resolve_executor`, usually
through ``JobConf(executor=..., max_workers=...)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, List, Sequence


@dataclass
class ExecutorStats:
    """Host-side execution statistics of one backend instance."""

    #: Total tasks executed through :meth:`ExecutionBackend.run_tasks`.
    tasks_run: int = 0
    #: Number of ``run_tasks`` batches dispatched.
    batches: int = 0
    #: Batches a parallel backend executed in-process instead (payloads
    #: not picklable, or the caller flagged them as in-process only).
    inproc_fallbacks: int = 0
    #: Task attempts that ended in failure (injected or real); maintained
    #: by :class:`repro.resilience.ResilientExecutor`.
    task_failures: int = 0
    #: Failed attempts that were re-executed (each charged simulated
    #: backoff into :attr:`sim_backoff_s`).
    retries: int = 0
    #: Batches completed on a lower rung of the degradation ladder
    #: (process → thread → serial) after a pool died mid-batch.
    degraded_batches: int = 0
    #: Total *simulated* seconds of retry backoff — a dedicated account,
    #: never folded into the paper's stage times (fault-free metrics stay
    #: byte-identical under any fault schedule).
    sim_backoff_s: float = 0.0


class ExecutionBackend:
    """Runs a batch of independent task functions; results stay ordered.

    Subclasses override :meth:`_run_batch`; the public :meth:`run_tasks`
    handles statistics and the (backend-specific) fallback rules.
    """

    #: Registry name of the backend (``"serial"`` / ``"thread"`` / ...).
    name: str = "abstract"

    def __init__(self) -> None:
        self.stats = ExecutorStats()

    # ------------------------------------------------------------------ #
    # public API                                                         #
    # ------------------------------------------------------------------ #

    def run_tasks(
        self,
        fn: Callable[[Any], Any],
        payloads: Sequence[Any],
        picklable: bool = True,
    ) -> List[Any]:
        """Execute ``fn(payload)`` for every payload; results in order.

        Args:
            fn: a top-level (importable) function; must be free of side
                effects on shared state for parallel backends.
            payloads: one argument object per task.
            picklable: whether ``fn`` and the payloads can cross a
                process boundary.  Backends that need pickling run the
                batch in-process when this is False.

        Returns:
            ``[fn(p) for p in payloads]`` — the i-th result always
            corresponds to the i-th payload, whatever the completion
            order was.
        """
        payloads = list(payloads)
        self.stats.batches += 1
        self.stats.tasks_run += len(payloads)
        if not payloads:
            return []
        return self._run_batch(fn, payloads, picklable)

    def close(self) -> None:
        """Release any host resources (pools); idempotent."""

    def __enter__(self) -> "ExecutionBackend":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} name={self.name!r}>"

    # ------------------------------------------------------------------ #
    # subclass hook                                                      #
    # ------------------------------------------------------------------ #

    def _run_batch(
        self,
        fn: Callable[[Any], Any],
        payloads: List[Any],
        picklable: bool,
    ) -> List[Any]:
        raise NotImplementedError

    # Shared helper: the in-process path every backend can fall back to.
    @staticmethod
    def _run_inline(fn: Callable[[Any], Any], payloads: List[Any]) -> List[Any]:
        return [fn(payload) for payload in payloads]
