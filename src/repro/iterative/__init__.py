"""General-purpose iterative MapReduce support (paper §4)."""

from repro.iterative.api import Dependency, IterationStats, IterativeJob, regroup_keys
from repro.iterative.engine import (
    FullIterationResult,
    IterMREngine,
    IterMRResult,
    run_full_iteration,
)
from repro.iterative.partitioning import PartitionedStructure, partition_structure

# Imported after the engine: repro.iterative.workset pulls in
# repro.inciter.cpc, whose package imports the inciter engine, which
# imports the iterative modules above.
from repro.iterative.workset import Workset, WorksetRunner  # noqa: E402  (documented order)

__all__ = [
    "Dependency",
    "IterationStats",
    "IterativeJob",
    "regroup_keys",
    "FullIterationResult",
    "IterMREngine",
    "IterMRResult",
    "run_full_iteration",
    "PartitionedStructure",
    "partition_structure",
    "Workset",
    "WorksetRunner",
]
