"""Iterative MapReduce API (§4.2, Table 2).

i2MapReduce separates loop-invariant **structure** kv-pairs ``(SK, SV)``
from loop-variant **state** kv-pairs ``(DK, DV)``.  The enhanced Map
function takes both::

    map(SK, SV, DK, DV) -> [(K2, V2)]

and a new ``project(SK) -> DK`` function declares which state kv-pair each
structure kv-pair depends on.  After the Fig 5 regrouping transformation,
every structure kv-pair depends on exactly one state kv-pair, so only
one-to-one, many-to-one and all-to-one dependencies remain.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.common.errors import InvalidJobConf
from repro.execution import BACKENDS, EXECUTOR_NAMES, ExecutionBackend, ExecutorSpec


class Dependency(enum.Enum):
    """Dependency type between structure and state kv-pairs (Fig 5)."""

    ONE_TO_ONE = "one-to-one"
    MANY_TO_ONE = "many-to-one"
    #: Special case of many-to-one where every structure kv-pair depends
    #: on a single state kv-pair (Kmeans); the engine replicates the state
    #: to every partition instead of co-partitioning (§4.3).
    ALL_TO_ONE = "all-to-one"


def regroup_keys(
    pairs: List[Tuple[Any, Any]],
    group_of: Callable[[Any], Any],
) -> List[Tuple[Any, Any]]:
    """The Fig 5 transformation: convert one-to-many / many-to-many
    dependencies into one-to-one / many-to-one by merging the state
    kv-pairs that share a group into one composite state kv-pair.

    Args:
        pairs: state kv-pairs ``(DK, DV)``.
        group_of: maps each original DK to its group key.

    Returns:
        composite state kv-pairs ``(group_key, {DK: DV})``.
    """
    groups: Dict[Any, Dict[Any, Any]] = {}
    for dk, dv in pairs:
        groups.setdefault(group_of(dk), {})[dk] = dv
    return sorted(groups.items(), key=lambda item: repr(item[0]))


@dataclass
class IterativeJob:
    """Runtime configuration of one iterative computation.

    Attributes:
        algorithm: an :class:`repro.algorithms.base.IterativeAlgorithm`
            supplying project / map / reduce / difference.
        dataset: the algorithm-specific dataset object.
        num_partitions: number of prime Map (= prime Reduce) tasks.
        max_iterations: iteration budget.
        epsilon: optional convergence threshold on the summed state
            difference; ``None`` runs exactly ``max_iterations``.
        executor: host execution backend for prime Map/Reduce task
            batches (``"serial"`` / ``"thread"`` / ``"process"``, a
            backend instance, or ``None`` for the engine default); see
            :mod:`repro.execution`.  Never changes results or simulated
            times, only host wall-clock.
        max_workers: worker cap for pool backends.
        task_retries: failed task attempts transparently re-executed
            before the failure propagates (``None`` = the
            ``REPRO_TASK_RETRIES`` default).
        workset: run workset-driven delta iterations
            (:mod:`repro.iterative.workset`) — each superstep re-maps
            only the dirty frontier and the run terminates on an empty
            workset.  ``None`` defers to the ``REPRO_WORKSET``
            environment default (off: full sweeps).
        workset_threshold: CPC filter threshold applied to the workset
            frontier (``None`` keeps the exact fixpoint — every non-zero
            change stays dirty).
    """

    algorithm: Any
    dataset: Any
    num_partitions: int = 8
    max_iterations: int = 10
    epsilon: Optional[float] = None
    executor: ExecutorSpec = None
    max_workers: Optional[int] = None
    task_retries: Optional[int] = None
    workset: Optional[bool] = None
    workset_threshold: Optional[float] = None

    def validate(self) -> None:
        """Raise :class:`InvalidJobConf` on an unusable configuration."""
        if self.num_partitions <= 0:
            raise InvalidJobConf("num_partitions must be positive")
        if self.max_iterations <= 0:
            raise InvalidJobConf("max_iterations must be positive")
        if self.epsilon is not None and self.epsilon < 0:
            raise InvalidJobConf("epsilon must be non-negative")
        for attr in ("project", "map_instance", "reduce_instance", "difference"):
            if not callable(getattr(self.algorithm, attr, None)):
                raise InvalidJobConf(f"algorithm lacks required method {attr}")
        if self.executor is not None and not isinstance(self.executor, ExecutionBackend):
            if self.executor not in BACKENDS:
                raise InvalidJobConf(
                    f"unknown executor {self.executor!r}; "
                    f"expected one of {EXECUTOR_NAMES}"
                )
        if self.max_workers is not None and self.max_workers <= 0:
            raise InvalidJobConf("max_workers must be positive")
        if self.task_retries is not None and self.task_retries < 0:
            raise InvalidJobConf("task_retries must be non-negative")
        if self.workset_threshold is not None and self.workset_threshold < 0:
            raise InvalidJobConf("workset_threshold must be non-negative")


@dataclass
class IterationStats:
    """Per-iteration record kept by the iterative engines.

    The last four fields describe the superstep's *execution footprint*:
    how many map/reduce tasks the scheduler actually materialized, how
    many state vertices the map stage touched, and how many keys stayed
    dirty afterwards.  Full sweeps fill them with the constant
    partition-wide counts; workset supersteps show them collapsing as
    the computation converges (the series ``TestCollapse`` in
    ``tests/test_workset.py`` asserts).
    """

    iteration: int
    times: "StageTimes"
    changed_keys: int = 0
    propagated_kv_pairs: int = 0
    total_difference: float = 0.0
    mrbg_maintained: bool = False
    scheduled_map_tasks: int = 0
    scheduled_reduce_tasks: int = 0
    touched_vertices: int = 0
    workset_size: int = 0


# Imported late to avoid a cycle with repro.cluster.metrics type hints.
from repro.cluster.metrics import StageTimes  # noqa: E402  (documented order)
