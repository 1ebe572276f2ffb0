"""Simulated cluster: cost model, scheduler, metrics."""

from repro.cluster.cluster import Cluster
from repro.cluster.costmodel import CostModel, zero_overhead_model
from repro.cluster.metrics import Counters, JobMetrics, StageTimes

__all__ = [
    "Cluster",
    "CostModel",
    "zero_overhead_model",
    "Counters",
    "JobMetrics",
    "StageTimes",
]
