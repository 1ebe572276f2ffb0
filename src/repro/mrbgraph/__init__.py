"""MRBGraph abstraction and the on-disk MRBG-Store (paper §3.2–3.4, §5.2)."""

from repro.mrbgraph.graph import DeltaEdge, Edge, apply_delta, group_delta_by_key
from repro.mrbgraph.sharding import HashShardRouter, ShardedMRBGStore, StoreLike
from repro.mrbgraph.store import MRBGStore, StoreMetrics
from repro.mrbgraph.wal import RecoveredState, WALReplay, WriteAheadLog
from repro.mrbgraph.windows import (
    ChunkLocation,
    IndexOnlyPolicy,
    MultiDynamicWindowPolicy,
    MultiFixedWindowPolicy,
    SingleFixedWindowPolicy,
    WindowPolicy,
    policy_by_name,
)

__all__ = [
    "DeltaEdge",
    "Edge",
    "apply_delta",
    "group_delta_by_key",
    "MRBGStore",
    "StoreMetrics",
    "RecoveredState",
    "WALReplay",
    "WriteAheadLog",
    "HashShardRouter",
    "ShardedMRBGStore",
    "StoreLike",
    "ChunkLocation",
    "IndexOnlyPolicy",
    "MultiDynamicWindowPolicy",
    "MultiFixedWindowPolicy",
    "SingleFixedWindowPolicy",
    "WindowPolicy",
    "policy_by_name",
]
