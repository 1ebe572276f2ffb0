"""Query-mix description and latency percentiles for serving benchmarks.

:class:`QueryMix` holds the relative weights of point gets, multi-gets,
top-k queries and range scans a benchmark issues against a
:class:`~repro.serving.server.QueryServer`; :func:`percentile` is the
nearest-rank quantile the serving numbers are reported with.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence


@dataclass(frozen=True)
class QueryMix:
    """Relative weights of the query kinds a benchmark issues."""

    #: weight of single-key point lookups.
    point: float = 0.6
    #: weight of batched multi-gets.
    multi: float = 0.15
    #: weight of top-k queries.
    top_k: float = 0.15
    #: weight of range scans.
    range_scan: float = 0.1
    #: keys per multi-get.
    multi_size: int = 8
    #: ``k`` for top-k queries.
    k: int = 10
    #: keys spanned by a range scan (by sorted-key distance).
    range_span: int = 16

    def __post_init__(self) -> None:
        total = self.point + self.multi + self.top_k + self.range_scan
        if total <= 0:
            raise ValueError("query mix weights must sum to a positive value")


def percentile(samples: Sequence[float], q: float) -> float:
    """The ``q``-quantile (0..1) of ``samples`` by nearest-rank."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = min(len(ordered) - 1, max(0, int(q * len(ordered))))
    return ordered[rank]


__all__ = ["QueryMix", "percentile"]
