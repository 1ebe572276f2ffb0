"""Benchmark — hot paths: codec MB/s, store merge ops/s, shuffle records/s
(distinct tuple keys, and duplicate-heavy string keys through the grouped
map-side spill), iterMR full sweeps/s, and fig8 end-to-end host wall-clock.

This is the perf-regression harness started by the hot-path overhaul PR:
it writes ``BENCH_hotpaths.json`` at the repository root so the perf
trajectory is tracked from that PR forward.  Two kinds of baselines are
recorded alongside the current numbers:

- the **legacy codec** (the original recursive, if-chain implementation)
  is carried inside this module as a reference and measured in the same
  run, so the codec speedup is host-independent and asserted (≥ 2×);
- end-to-end numbers are compared against
  ``benchmarks/baseline_hotpaths.json``, measured on the pre-PR tree —
  both numbers land in ``BENCH_hotpaths.json``, the comparison is
  informational when the host differs from the one that measured the
  baseline.

Run it alone with::

    REPRO_BENCH_SCALE=test python -m pytest benchmarks/test_bench_hotpaths.py -s
"""

from __future__ import annotations

import json
import os
import platform
import random
import struct
import sys
import tempfile
import time

from benchmarks.conftest import bench_out_path, run_once
from repro.algorithms.pagerank import PageRank
from repro.cluster.cluster import Cluster
from repro.cluster.metrics import Counters
from repro.common.hashing import partition_for
from repro.common.kvpair import Op, merge_sorted_runs, sort_records
from repro.common.sizeof import records_size
from repro.datasets.graphs import powerlaw_web_graph
from repro.experiments.fig8_overall import run_workload
from repro.iterative.engine import run_full_iteration
from repro.iterative.partitioning import partition_structure
from repro.mapreduce.engine import partition_and_sort
from repro.mrbgraph.chunk import decode_chunk, encode_chunk
from repro.mrbgraph.graph import DeltaEdge, Edge
from repro.mrbgraph.store import MRBGStore

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_OUT_NAME = "BENCH_hotpaths.json"
_BASELINE_PATH = os.path.join(_ROOT, "benchmarks", "baseline_hotpaths.json")


def _record(section: str, payload: dict) -> None:
    """Merge one section into ``BENCH_hotpaths.json``."""
    out_path = bench_out_path(_OUT_NAME)
    doc = {}
    if os.path.exists(out_path):
        with open(out_path) as fh:
            doc = json.load(fh)
    doc.setdefault("schema", "bench-hotpaths/1")
    doc["host"] = {
        "python": sys.version.split()[0],
        "machine": platform.machine(),
        "bench_scale": os.environ.get("REPRO_BENCH_SCALE", "test"),
    }
    doc[section] = payload
    with open(out_path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _baseline(section: str) -> dict:
    if not os.path.exists(_BASELINE_PATH):
        return {}
    with open(_BASELINE_PATH) as fh:
        return json.load(fh).get(section, {})


# ---------------------------------------------------------------------- #
# legacy codec reference (the pre-overhaul implementation, verbatim)     #
# ---------------------------------------------------------------------- #

_U32 = struct.Struct("<I")
_I64 = struct.Struct("<q")
_F64 = struct.Struct("<d")


def _legacy_encode_into(value, out):
    if value is None:
        out.append(0x00)
    elif value is True:
        out.append(0x01)
    elif value is False:
        out.append(0x02)
    elif isinstance(value, int):
        out.append(0x03)
        out += _I64.pack(value)
    elif isinstance(value, float):
        out.append(0x04)
        out += _F64.pack(value)
    elif isinstance(value, str):
        raw = value.encode("utf-8")
        out.append(0x05)
        out += _U32.pack(len(raw))
        out += raw
    elif isinstance(value, bytes):
        out.append(0x06)
        out += _U32.pack(len(value))
        out += value
    elif isinstance(value, tuple):
        out.append(0x07)
        out += _U32.pack(len(value))
        for item in value:
            _legacy_encode_into(item, out)
    elif isinstance(value, list):
        out.append(0x08)
        out += _U32.pack(len(value))
        for item in value:
            _legacy_encode_into(item, out)


def _legacy_decode_at(buf, offset):
    tag = buf[offset]
    offset += 1
    if tag == 0x00:
        return None, offset
    if tag == 0x01:
        return True, offset
    if tag == 0x02:
        return False, offset
    if tag == 0x03:
        return _I64.unpack_from(buf, offset)[0], offset + 8
    if tag == 0x04:
        return _F64.unpack_from(buf, offset)[0], offset + 8
    if tag == 0x05:
        (length,) = _U32.unpack_from(buf, offset)
        offset += 4
        return buf[offset : offset + length].decode("utf-8"), offset + length
    if tag == 0x06:
        (length,) = _U32.unpack_from(buf, offset)
        offset += 4
        return bytes(buf[offset : offset + length]), offset + length
    if tag in (0x07, 0x08):
        (length,) = _U32.unpack_from(buf, offset)
        offset += 4
        items = []
        for _ in range(length):
            item, offset = _legacy_decode_at(buf, offset)
            items.append(item)
        return (tuple(items) if tag == 0x07 else items), offset
    raise ValueError(f"unknown tag 0x{tag:02x}")


def _legacy_encode_chunk(k2, entries):
    body = bytearray()
    _legacy_encode_into((k2, [(mk, v) for mk, v in entries]), body)
    return _U32.pack(len(body)) + bytes(body)


def _legacy_decode_chunk(raw):
    (length,) = _U32.unpack_from(raw, 0)
    pair, _ = _legacy_decode_at(raw, 4)
    k2, payload = pair
    return k2, [Edge(mk, v) for mk, v in payload], 4 + length


def _codec_workload():
    rng = random.Random(42)
    return [
        (k2, [Edge(mk, rng.random() * 100.0) for mk in range(64)])
        for k2 in range(400)
    ]


def _throughput(fn, reps: int = 5) -> float:
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def test_bench_codec(benchmark):
    chunks = _codec_workload()
    raws = [encode_chunk(k2, entries) for k2, entries in chunks]
    total_bytes = sum(len(raw) for raw in raws)
    for (k2, entries), raw in zip(chunks, raws):
        assert _legacy_encode_chunk(k2, entries) == raw
        assert _legacy_decode_chunk(raw)[:2] == decode_chunk(raw)[:2]

    def encode_all():
        for k2, entries in chunks:
            encode_chunk(k2, entries)

    def decode_all():
        for raw in raws:
            decode_chunk(raw)

    def legacy_encode_all():
        for k2, entries in chunks:
            _legacy_encode_chunk(k2, entries)

    def legacy_decode_all():
        for raw in raws:
            _legacy_decode_chunk(raw)

    enc_s = _throughput(encode_all)
    dec_s = _throughput(decode_all)
    legacy_enc_s = _throughput(legacy_encode_all)
    legacy_dec_s = _throughput(legacy_decode_all)
    run_once(benchmark, encode_all)

    payload = {
        "payload_bytes": total_bytes,
        "encode_MBps": round(total_bytes / enc_s / 1e6, 2),
        "decode_MBps": round(total_bytes / dec_s / 1e6, 2),
        "legacy_encode_MBps": round(total_bytes / legacy_enc_s / 1e6, 2),
        "legacy_decode_MBps": round(total_bytes / legacy_dec_s / 1e6, 2),
        "encode_speedup": round(legacy_enc_s / enc_s, 2),
        "decode_speedup": round(legacy_dec_s / dec_s, 2),
        "pre_pr_baseline": _baseline("codec"),
    }
    _record("codec", payload)
    benchmark.extra_info.update(payload)
    print(
        f"\ncodec: encode {payload['encode_MBps']} MB/s "
        f"(x{payload['encode_speedup']} vs legacy), "
        f"decode {payload['decode_MBps']} MB/s (x{payload['decode_speedup']})"
    )
    assert payload["encode_speedup"] >= 2.0, "codec encode lost its ≥2x win"
    assert payload["decode_speedup"] >= 2.0, "codec decode lost its ≥2x win"


def test_bench_store_merge(benchmark):
    with tempfile.TemporaryDirectory() as tmp:
        store = MRBGStore(tmp)
        store.build(
            (k2, [Edge(mk, float(mk)) for mk in range(32)]) for k2 in range(2000)
        )
        deltas = [
            (k2, [DeltaEdge(1, 9.9, Op.INSERT)]) for k2 in range(0, 2000, 2)
        ]

        def merge_all():
            count = 0
            for _ in store.merge_delta(deltas):
                count += 1
            return count

        ops = run_once(benchmark, merge_all)
        t0 = time.perf_counter()
        rounds = 3
        for _ in range(rounds):
            assert merge_all() == ops
        merge_s = time.perf_counter() - t0
        ops *= rounds
        t0 = time.perf_counter()
        store.compact()
        compact_s = time.perf_counter() - t0
        store.close()

    payload = {
        "ops_per_s": round(ops / merge_s, 1),
        "compact_s": round(compact_s, 4),
        "pre_pr_baseline": _baseline("store_merge"),
    }
    _record("store_merge", payload)
    benchmark.extra_info.update(payload)
    print(f"\nstore merge: {payload['ops_per_s']} ops/s, compact {compact_s:.4f}s")


def test_bench_shuffle(benchmark):
    rng = random.Random(42)
    keys = [
        (rng.randrange(500), "suffix-%d" % rng.randrange(50)) for _ in range(20000)
    ]
    records = [(key, i * 0.5) for i, key in enumerate(keys)]

    def shuffle_round():
        runs = [sort_records(records[i::8]) for i in range(8)]
        return merge_sorted_runs(runs)

    merged = run_once(benchmark, shuffle_round)
    assert len(merged) == len(records)
    best_s = _throughput(shuffle_round, reps=3)
    payload = {
        "records_per_s": round(len(records) / best_s, 1),
        "pre_pr_baseline": _baseline("shuffle"),
    }
    _record("shuffle", payload)
    benchmark.extra_info.update(payload)
    print(f"\nshuffle: {payload['records_per_s']} records/s")


def test_bench_shuffle_grouped(benchmark):
    """The WordCount shape: 200 k ``(word, 1)`` pairs over a 5 k-word
    Zipf vocabulary, spilled by 7 map tasks and merged by 4 reducers."""
    rng = random.Random(42)
    vocab = ["w%04d" % i for i in range(5000)]
    weights = [1.0 / (rank + 1) for rank in range(len(vocab))]
    words = rng.choices(vocab, weights, k=200_000)
    tasks = [[(word, 1) for word in words[i::7]] for i in range(7)]
    reducers = 4

    def shuffle_round():
        spills = [
            partition_and_sort(task, reducers, partition_for, None, Counters())
            for task in tasks
        ]
        merged = [
            merge_sorted_runs([parts[r] for parts, _ in spills if r in parts])
            for r in range(reducers)
        ]
        return spills, merged

    spills, merged = run_once(benchmark, shuffle_round)
    assert sum(map(len, merged)) == len(words)
    assert sum(sum(nbytes.values()) for _, nbytes in spills) == sum(map(records_size, merged))
    best_s = _throughput(shuffle_round, reps=3)
    payload = {
        "records": len(words),
        "distinct_keys": len(set(words)),
        "records_per_s": round(len(words) / best_s, 1),
        "pre_pr_baseline": _baseline("shuffle_grouped"),
    }
    _record("shuffle_grouped", payload)
    benchmark.extra_info.update(
        {k: v for k, v in payload.items() if not isinstance(v, dict)}
    )
    print(f"\nshuffle (grouped spill): {payload['records_per_s']} records/s")


def test_bench_iter_sweep(benchmark):
    """PageRank full sweeps over the 2 000-page power-law graph of
    ``bench/``'s ``pagerank_*`` workloads (4 partitions, serial): the loop
    the initial converged run, the recompute fallback and every iterative
    baseline of Fig 8 pay once per iteration."""
    graph = powerlaw_web_graph(2000, 6.0, seed=0)
    algorithm = PageRank()
    cluster = Cluster(num_workers=8)
    parts = partition_structure(algorithm, algorithm.structure_records(graph), 4)
    sweeps = 10

    def sweep_all(capture_chunks):
        state = dict(algorithm.initial_state(graph))
        for _ in range(sweeps):
            result = run_full_iteration(
                algorithm, parts, state, cluster, capture_chunks=capture_chunks
            )
            state = result.new_state
        return result

    last = run_once(benchmark, sweep_all, True)
    assert sum(len(chunk_list) for chunk_list in last.chunks) > 0
    payload = {
        "vertices": len(graph.out_links),
        "structure_pairs": parts.total_pairs(),
        "map_output_records": last.counters.get("map_output_records"),
        "sweeps_per_s": round(sweeps / _throughput(lambda: sweep_all(False), reps=3), 2),
        "capture_chunks_sweeps_per_s": round(
            sweeps / _throughput(lambda: sweep_all(True), reps=3), 2
        ),
        "pre_pr_baseline": _baseline("iter_sweep"),
    }
    _record("iter_sweep", payload)
    benchmark.extra_info.update(
        {k: v for k, v in payload.items() if not isinstance(v, dict)}
    )
    print(f"\niter sweep: {payload['sweeps_per_s']} sweeps/s, "
          f"{payload['capture_chunks_sweeps_per_s']} with capture_chunks")


def test_bench_fig8_end_to_end(benchmark, bench_scale):
    t0 = time.perf_counter()
    times = run_once(benchmark, run_workload, "pagerank", scale=bench_scale)
    wall_s = time.perf_counter() - t0
    baseline = _baseline("fig8")
    payload = {
        "workload": "pagerank",
        "scale": bench_scale,
        "wall_clock_s": round(wall_s, 3),
        "pre_pr_baseline": baseline,
        "simulated": {k: round(v, 2) for k, v in times.items()},
    }
    if baseline.get("wall_clock_s") and bench_scale == baseline.get("scale"):
        payload["speedup_vs_pre_pr"] = round(baseline["wall_clock_s"] / wall_s, 2)
        # Simulated times are the determinism contract — identical to the
        # pre-PR run modulo the (deterministic) new index-I/O accounting.
        assert payload["simulated"] == baseline.get("simulated", payload["simulated"])
    _record("fig8", payload)
    benchmark.extra_info.update(
        {k: v for k, v in payload.items() if not isinstance(v, dict)}
    )
    print(f"\nfig8 end-to-end: {wall_s:.3f}s wall-clock "
          f"(pre-PR baseline {baseline.get('wall_clock_s', 'n/a')}s)")
