"""Shared plumbing for the §8 experiment reproductions.

Every experiment module exposes a ``run_*`` function returning an
:class:`ExperimentResult` (headers + rows + notes) and a ``main`` that
prints it, so the same code backs the golden-pinned figure tests
(``tests/test_sim_goldens.py``), docs/experiments.md and ad-hoc
command-line runs (``python -m repro.experiments.fig8_overall``).

Scale presets keep wall-clock time laptop-friendly: ``test`` for the test
suite, ``small`` for benchmarks (the default), ``medium`` for
closer-to-paper shapes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.cluster.cluster import Cluster
from repro.cluster.costmodel import CostModel
from repro.common import config
from repro.dfs.filesystem import DistributedFS


@dataclass
class ExperimentResult:
    """A reproduced table or figure, in tabular form."""

    name: str
    headers: Sequence[str]
    rows: List[Sequence[Any]]
    notes: str = ""

    def to_text(self) -> str:
        """Render as an aligned text table."""
        return format_table(self.name, self.headers, self.rows, self.notes)

    def column(self, header: str) -> List[Any]:
        """Extract one column by header name."""
        idx = list(self.headers).index(header)
        return [row[idx] for row in self.rows]


def format_table(
    name: str,
    headers: Sequence[str],
    rows: List[Sequence[Any]],
    notes: str = "",
) -> str:
    """Plain-text table rendering used by every experiment's ``main``."""
    cells = [[_fmt(h) for h in headers]] + [[_fmt(c) for c in row] for row in rows]
    widths = [max(len(row[i]) for row in cells) for i in range(len(headers))]
    lines = [f"== {name} =="]
    lines.append("  ".join(h.ljust(w) for h, w in zip(cells[0], widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in cells[1:]:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    if notes:
        lines.append(f"note: {notes}")
    return "\n".join(lines)


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 100:
            return f"{value:.0f}"
        if abs(value) >= 1:
            return f"{value:.2f}"
        return f"{value:.4f}"
    return str(value)


def make_cluster(
    num_workers: int = 8,
    seed: int = 42,
    block_size: int = 64 * config.KB,
    data_scale: float = 1.0,
    **cost_overrides: float,
) -> Tuple[Cluster, DistributedFS]:
    """A fresh cluster + DFS pair (one per solution, to isolate paths).

    ``data_scale`` calibrates the cost model to the *paper's* data scale:
    our synthetic datasets are F times smaller than the paper's (e.g.
    ClueWeb's 20M pages vs a 4k-vertex graph), so every data-proportional
    rate — bandwidths, per-record CPU, per-request seek — is scaled by F
    while fixed costs (job startup, heartbeats) stay put.  Simulated
    runtimes then land at paper-like magnitudes and, more importantly,
    with paper-like *proportions* between startup and data movement.
    """
    base = CostModel(data_scale=data_scale)
    if cost_overrides:
        base = base.scaled(**cost_overrides)
    cluster = Cluster(num_workers=num_workers, cost_model=base, seed=seed)
    dfs = DistributedFS(cluster, block_size=block_size)
    return cluster, dfs


#: Paper dataset sizes (Table 3), used to derive ``data_scale`` factors.
PAPER_SIZES = {
    "pagerank": 20_000_000,  # ClueWeb pages
    "sssp": 20_000_000,  # ClueWeb2 pages
    "kmeans": 46_481_200,  # BigCross points
    "gimv": 100_000,  # WikiTalk rows
    "apriori": 52_233_372,  # tweets
}


def data_scale_for(workload: str, our_size: int) -> float:
    """Paper-size over our-size calibration factor for ``workload``."""
    if our_size <= 0:
        raise ValueError("our_size must be positive")
    return PAPER_SIZES[workload] / our_size


#: Scale presets: dataset sizes per workload.
SCALES: Dict[str, Dict[str, Any]] = {
    "test": {
        "pagerank_vertices": 600,
        "sssp_vertices": 600,
        "kmeans_points": 400,
        "kmeans_dim": 4,
        "kmeans_k": 4,
        "gimv_blocks": 8,
        "gimv_block_size": 16,
        "tweets": 800,
        "iterations": 5,
        "num_partitions": 4,
        "num_workers": 4,
    },
    "small": {
        "pagerank_vertices": 4000,
        "sssp_vertices": 4000,
        "kmeans_points": 3000,
        "kmeans_dim": 8,
        "kmeans_k": 8,
        "gimv_blocks": 16,
        "gimv_block_size": 24,
        "tweets": 6000,
        "iterations": 10,
        "num_partitions": 8,
        "num_workers": 8,
    },
    "medium": {
        "pagerank_vertices": 20000,
        "sssp_vertices": 20000,
        "kmeans_points": 12000,
        "kmeans_dim": 12,
        "kmeans_k": 16,
        "gimv_blocks": 24,
        "gimv_block_size": 32,
        "tweets": 30000,
        "iterations": 10,
        "num_partitions": 16,
        "num_workers": 16,
    },
}


def scale_params(scale: str) -> Dict[str, Any]:
    """Look up a scale preset.

    Raises:
        KeyError: for unknown scale names.
    """
    if scale not in SCALES:
        raise KeyError(f"unknown scale {scale!r}; expected one of {sorted(SCALES)}")
    return dict(SCALES[scale])
