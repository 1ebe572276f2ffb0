#!/usr/bin/env python3
"""A tour of the MRBG-Store (§3.4, §5.2): the on-disk engine that makes
fine-grain incremental processing affordable.

Builds a store, applies a delta merge, inspects the multi-batch file
layout, compares the four read-window policies on the same access
pattern, runs an offline compaction — then replays the workload on a
sharded store to show parallel maintenance and locality-aware placement
(docs/store.md walks through the output).

Run:  python examples/mrbgstore_tour.py
"""

import shutil
import tempfile

from repro.common.kvpair import Op
from repro.mrbgraph import (
    DeltaEdge,
    Edge,
    IndexOnlyPolicy,
    MRBGStore,
    MultiDynamicWindowPolicy,
    MultiFixedWindowPolicy,
    ShardedMRBGStore,
    SingleFixedWindowPolicy,
)


def build_store(directory, policy):
    """A store holding 2000 chunks, then three delta-merge batches."""
    store = MRBGStore(directory, policy=policy)
    store.build(
        (k2, [Edge(mk, float(k2 + mk)) for mk in range(4)])
        for k2 in range(2000)
    )
    for generation in range(1, 4):
        delta = [
            (k2, [DeltaEdge(0, float(generation), Op.INSERT)])
            for k2 in range(0, 2000, 3 + generation)
        ]
        for _ in store.merge_delta(delta):
            pass
    return store


def sharded_tour() -> None:
    """The same workload across 4 shards: parallel maintenance."""
    directory = tempfile.mkdtemp(prefix="mrbg-sharded-")
    store = ShardedMRBGStore(directory, num_shards=4, executor="thread")
    store.build(
        (k2, [Edge(mk, float(k2 + mk)) for mk in range(4)])
        for k2 in range(2000)
    )
    for generation in range(1, 4):
        delta = [
            (k2, [DeltaEdge(0, float(generation), Op.INSERT)])
            for k2 in range(0, 2000, 3 + generation)
        ]
        for _ in store.merge_delta(delta):
            pass

    m = store.metrics
    print(
        f"sharded store ({store.num_shards} hash-routed shards): "
        f"{len(store)} chunks, "
        f"file {store.file_size} bytes, merged metrics: "
        f"{m.io_reads} reads / {m.io_writes} writes"
    )
    per_shard = ", ".join(
        f"shard {sid}: {len(shard)} chunks"
        for sid, shard in enumerate(store.shards)
    )
    print(f"  chunk balance: {per_shard}")

    schedule = store.compact()  # all shards compact in parallel
    print(
        f"  parallel compaction: stage elapsed {schedule.elapsed_s:.4f} "
        f"simulated s, locality {schedule.locality_hits} hits / "
        f"{schedule.locality_misses} misses"
    )
    for task_id, worker in sorted(schedule.assignment.items()):
        print(f"    {task_id} -> worker {worker}")
    store.close()
    shutil.rmtree(directory, ignore_errors=True)


def main() -> None:
    policies = [
        ("index-only", IndexOnlyPolicy()),
        ("single-fix-window", SingleFixedWindowPolicy(window_size=64 * 1024)),
        ("multi-fix-window", MultiFixedWindowPolicy(window_size=32 * 1024)),
        ("multi-dynamic-window", MultiDynamicWindowPolicy()),
    ]
    print(f"{'policy':22} {'reads':>7} {'bytes read':>12} {'cache hits':>11}")
    for name, policy in policies:
        directory = tempfile.mkdtemp(prefix=f"mrbg-{name}-")
        store = build_store(directory, policy)
        store.metrics.reset()

        # Query every third chunk, in sorted order (the shuffle guarantees
        # sorted access, which is what the windows exploit).
        keys = list(range(0, 2000, 3))
        store.begin_merge(keys)
        for k2 in keys:
            store.get_chunk(k2)
        store.end_merge()
        m = store.metrics
        print(f"{name:22} {m.io_reads:>7} {m.bytes_read:>12} {m.cache_hits:>11}")

        if name == "multi-dynamic-window":
            print(
                f"\n  multi-batch layout: {store.num_batches} sorted batches, "
                f"file {store.file_size} bytes, live {store.live_bytes()} bytes"
            )
            store.compact()
            print(
                f"  after offline compaction: {store.num_batches} batch, "
                f"file {store.file_size} bytes\n"
            )
        store.close()
        shutil.rmtree(directory, ignore_errors=True)

    sharded_tour()


if __name__ == "__main__":
    main()
