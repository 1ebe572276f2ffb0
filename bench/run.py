"""The repo's benchmark: ``python3 bench/run.py --workload NAME --seed N``.

One run = set-up (three times, median reported) → measured units for
``--seconds`` → oracles → one JSON line.  ``--trace 0`` prints the
end-to-end metrics of ``BENCHMARK.json``, ``--trace 1`` the per-layer
ones: the first 40 % of a traced run's units run untraced, the rest
under :mod:`bench.trace`, and the difference between the two medians is
``trace.overhead_share``.  See ``bench/README.md``.

Also ``python -m bench.run`` (with ``PYTHONPATH=src``); without
``--workload`` every workload runs, each in its own process.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
for _path in (os.path.join(ROOT, "src"), ROOT):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from bench import drivers, workloads  # noqa: E402  (needs the path set-up above)
from bench.drivers import Driver, UnitSample  # noqa: E402
from bench.trace import Tracer  # noqa: E402
from repro.serving import percentile  # noqa: E402  (nearest-rank, as the serving bench)

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3

#: Share of a traced run's measured time spent untraced (overhead baseline).
UNTRACED_SHARE = 0.4

#: Seconds each micro-call loop runs for.
MICRO_SECONDS = 0.05

OUT_DIR = os.path.join(ROOT, "bench", "out")


def load_contract() -> Dict[str, Any]:
    """``BENCHMARK.json``: the registry of workloads, metrics, units, bounds."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


@contextlib.contextmanager
def scratch_dir() -> Iterator[str]:
    """A private directory under ``bench/out`` that also hosts ``tempfile``.

    ``repro`` keeps preserved state under ``tempfile.mkdtemp``; pointing
    ``tempfile`` here keeps every byte the run writes inside the checkout.
    """
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=OUT_DIR)
    previous = tempfile.tempdir
    tempfile.tempdir = workdir
    try:
        yield workdir
    finally:
        tempfile.tempdir = previous
        shutil.rmtree(workdir, ignore_errors=True)


def host_fingerprint() -> Dict[str, Any]:
    """Where the numbers were taken (recorded in every result)."""
    commit = "unknown"
    try:
        with open(os.path.join(ROOT, ".git", "HEAD")) as fh:
            head = fh.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", head[5:])) as fh:
                head = fh.read().strip()
        commit = head
    except OSError:
        pass  # not a git checkout (the driver's copy), or packed refs
    return {
        "nproc": os.cpu_count(),
        "loadavg_1m": os.getloadavg()[0],
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": commit,
    }


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest waited-for child."""
    kib = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    )
    return kib / 1024.0


# ---------------------------------------------------------------------- #
# micro-calls: layers too hot to wrap                                    #
# ---------------------------------------------------------------------- #


def _rate(work: Callable[[], Any], amount: float) -> float:
    """``amount`` per second of ``work()``, looped for MICRO_SECONDS."""
    rounds = 0
    started = time.perf_counter()
    while True:
        work()
        rounds += 1
        elapsed = time.perf_counter() - started
        if elapsed >= MICRO_SECONDS:
            return amount * rounds / elapsed


def micro_calls(driver: Driver) -> Dict[str, float]:
    """Throughput of the codec, hash, sizeof and sort on sampled inputs."""
    from repro.common.hashing import stable_hash
    from repro.common.kvpair import sort_records
    from repro.common.serialization import decode_many, encode_many
    from repro.common.sizeof import record_size
    from repro.mrbgraph.chunk import decode_chunk, encode_chunk

    out = dict.fromkeys(
        ("common.codec_encode_MBps", "common.codec_decode_MBps", "common.stable_hash_Mops",
         "common.record_size_Mops", "common.sort_records_Mrps",
         "mrbgraph.chunk_encode_MBps", "mrbgraph.chunk_decode_MBps"), 0.0)
    records = driver.sample_records()
    if records:
        raw = encode_many(records)
        keys = [key for key, _ in records]
        shuffled = records[::2] + records[1::2]
        out["common.codec_encode_MBps"] = _rate(lambda: encode_many(records), len(raw) / 1e6)
        out["common.codec_decode_MBps"] = _rate(lambda: decode_many(raw), len(raw) / 1e6)
        out["common.stable_hash_Mops"] = _rate(
            lambda: [stable_hash(key) for key in keys], len(keys) / 1e6)
        out["common.record_size_Mops"] = _rate(
            lambda: [record_size(k, v) for k, v in records], len(records) / 1e6)
        out["common.sort_records_Mrps"] = _rate(
            lambda: sort_records(shuffled), len(records) / 1e6)
    chunks = driver.sample_chunks()
    if chunks:
        encoded = [encode_chunk(key, edges) for key, edges in chunks]
        nbytes = sum(len(raw) for raw in encoded)
        out["mrbgraph.chunk_encode_MBps"] = _rate(
            lambda: [encode_chunk(key, edges) for key, edges in chunks], nbytes / 1e6)
        out["mrbgraph.chunk_decode_MBps"] = _rate(
            lambda: [decode_chunk(raw) for raw in encoded], nbytes / 1e6)
    return out


# ---------------------------------------------------------------------- #
# one run                                                                #
# ---------------------------------------------------------------------- #


def measure(
    driver: Driver,
    first_unit: int,
    budget_s: Optional[float],
    units: Optional[int],
    tracer: Optional[Tracer] = None,
) -> List[UnitSample]:
    """Run units until ``budget_s`` elapsed (at least 2) or ``units`` ran."""
    samples: List[UnitSample] = []
    started = time.perf_counter()
    while True:
        samples.append(driver.run_unit(first_unit + len(samples), tracer))
        if units is not None:
            if len(samples) >= units:
                return samples
        elif len(samples) >= 2 and time.perf_counter() - started >= budget_s:
            return samples


def end_to_end(setup_s: List[float], samples: List[UnitSample]) -> Dict[str, float]:
    """The metrics a user of the system sees (always from untraced units)."""
    refresh = [s.refresh_s for s in samples]
    return {
        "setup_s": statistics.median(setup_s),
        "refresh_p50_s": statistics.median(refresh),
        "throughput_rps": sum(s.records for s in samples) / sum(refresh),
        # median over bursts: one host hiccup must not move a pooled rate
        "query_qps": statistics.median(s.queries / s.burst_s for s in samples),
        "sim_refresh_s": statistics.fmean(s.sim_s for s in samples),
    }


#: per-layer metric -> trace span whose self time (per traced unit) it reports.
SPAN_METRICS = {
    "streaming.pipeline_self_s": "streaming.pipeline",
    "inciter.run_incremental_self_s": "inciter.run_incremental",
    "inciter.map_task_s": "inciter.map_task",
    "incremental.run_incremental_self_s": "incremental.run_incremental",
    "mapreduce.map_phase_self_s": "mapreduce.map_phase",
    "mapreduce.map_task_s": "mapreduce.map_task",
    "mapreduce.partition_and_sort_s": "mapreduce.partition_and_sort",
    "common.merge_sorted_runs_s": "common.merge_sorted_runs",
    "dfs.write_s": "dfs.write",
    "mrbgraph.shard_fanout_self_s": "mrbgraph.shard_fanout",
    "mrbgraph.merge_delta_self_s": "mrbgraph.merge_delta",
    "mrbgraph.begin_merge_s": "mrbgraph.begin_merge",
    "mrbgraph.get_chunk_s": "mrbgraph.get_chunk",
    "mrbgraph.put_chunk_s": "mrbgraph.put_chunk",
    "mrbgraph.apply_delta_s": "mrbgraph.apply_delta",
    "mrbgraph.end_merge_s": "mrbgraph.end_merge",
    "mrbgraph.wal_append_s": "mrbgraph.wal_append",
    "mrbgraph.compact_s": "mrbgraph.compact",
    "mrbgraph.save_index_s": "mrbgraph.save_index",
    "mrbgraph.recover_open_s": "mrbgraph.recover_open",
    "execution.run_tasks_self_s": "execution.run_tasks",
    "resilience.run_tasks_self_s": "resilience.run_tasks",
    "serving.publish_s": "serving.publish",
    "trace.observer_s": "trace.observer",
}


def per_layer(
    driver: Driver,
    tracer: Tracer,
    untraced: List[UnitSample],
    traced: List[UnitSample],
    counted: Dict[str, float],
) -> Dict[str, float]:
    """Per-layer numbers: trace self times, public stats, micro-calls.

    Times are *self* seconds per traced unit; counts are per measured
    unit unless the name says otherwise (see ``bench/README.md``).
    """
    n_traced, n_all = len(traced), len(untraced) + len(traced)
    out: Dict[str, float] = {}

    for metric, span in SPAN_METRICS.items():
        out[metric] = tracer.self_s.get(span, 0.0) / n_traced

    for name in (
        "streaming.records_in", "inciter.iterations", "mrbgraph.io_reads",
        "mrbgraph.bytes_read", "mrbgraph.bytes_written", "mrbgraph.wal_bytes",
        "mrbgraph.wal_bytes_replayed", "mrbgraph.compact_bytes_rewritten",
        "execution.batches", "execution.tasks_run", "execution.inproc_fallbacks",
        "serving.cache_invalidations",
    ):
        out[name] = counted.get(name, 0) / n_all
    for name in (
        "streaming.batches", "streaming.dead_lettered", "inciter.fell_back_batches",
        "resilience.retries", "resilience.task_failures", "resilience.degraded_batches",
        "serving.topk_rebuilds", "serving.timeouts",
    ):
        out[name] = counted.get(name, 0)
    for name in (
        "inciter.propagated_kv_pairs", "mapreduce.map_output_records",
        "execution.payload_pickle_bytes", "execution.payload_pickle_s",
        "execution.result_pickle_bytes", "serving.publish_touched_keys",
    ):
        out[name] = driver.observed.get(name, 0) / n_traced

    def ratio(top: float, bottom: float) -> float:
        return top / bottom if bottom else 0.0

    hits, misses = counted.get("mrbgraph.window_hits", 0), counted.get("mrbgraph.window_misses", 0)
    out["mrbgraph.window_hit_rate"] = ratio(hits, hits + misses)
    hits, misses = counted.get("serving.cache_hits", 0), counted.get("serving.cache_misses", 0)
    out["serving.cache_hit_rate"] = ratio(hits, hits + misses)
    out["mrbgraph.write_amp"] = ratio(
        counted.get("mrbgraph.bytes_written", 0) + counted.get("mrbgraph.wal_bytes", 0),
        counted.get("mrbgraph.delta_bytes", 0),
    )
    out["mrbgraph.space_amp"] = statistics.fmean(driver.space_amp or [0.0])
    out["mrbgraph.shard_skew"] = counted.get("mrbgraph.shard_skew", 0.0)

    by_kind: Dict[str, List[float]] = {}
    for sample in traced:
        for kind, seconds in sample.latencies:
            by_kind.setdefault(kind, []).append(seconds)
    everything = [s for kind, seconds in by_kind.items() if kind != "get_chunk" for s in seconds]
    out["serving.query_p50_us"] = percentile(everything, 0.5) * 1e6
    out["serving.query_p99_us"] = percentile(everything, 0.99) * 1e6
    for kind in ("get", "multi_get", "top_k", "range_scan"):
        out[f"serving.{kind}_p50_us"] = percentile(by_kind.get(kind, []), 0.5) * 1e6
    out["mrbgraph.point_read_p50_us"] = percentile(by_kind.get("get_chunk", []), 0.5) * 1e6
    out["serving.publish_p50_ms"] = percentile(
        tracer.durations.get("serving.publish", []), 0.5) * 1e3

    out.update(micro_calls(driver))

    traced_refresh = sum(s.refresh_s for s in traced)
    out["trace.overhead_share"] = (
        statistics.median(s.refresh_s for s in traced)
        / statistics.median(s.refresh_s for s in untraced)
        - 1.0
    )
    out["trace.accounted_share"] = ratio(
        sum(v for k, v in tracer.self_s.items() if k != "trace.observer"), traced_refresh
    )
    out["trace.spans"] = tracer.num_spans / n_traced
    return out


def run_workload(
    name: str,
    seed: int,
    size: str = "full",
    seconds: float = 10.0,
    units: Optional[int] = None,
    trace: bool = False,
    setup_repeats: int = SETUP_REPEATS,
) -> Dict[str, Any]:
    """One complete run of one workload; returns the full result document."""
    if name not in drivers.DRIVERS:
        raise SystemExit(f"unknown workload {name!r}; expected one of {list(drivers.DRIVERS)}")
    if trace and units is not None and units < 2:
        raise SystemExit("--trace 1 needs --units >= 2 (one untraced, one traced)")
    host = host_fingerprint()
    with scratch_dir():
        setup_s: List[float] = []
        for attempt in range(setup_repeats):
            driver = drivers.DRIVERS[name](name, workloads.SIZES[size], seed)
            started = time.perf_counter()
            driver.setup()
            setup_s.append(time.perf_counter() - started)
            if attempt < setup_repeats - 1:
                driver.close()  # only the last instance is measured
        try:
            before = driver.counters()
            shard_before = driver.shard_loads()
            tracer: Optional[Tracer] = None
            first = workloads.WARMUP_UNITS
            if not trace:
                untraced = measure(driver, first, seconds, units)
                traced: List[UnitSample] = []
            else:
                head = None if units is None else max(1, int(units * UNTRACED_SHARE))
                untraced = measure(driver, first, seconds * UNTRACED_SHARE, head)
                tracer = Tracer()
                with tracer.installed(driver.trace_targets()):
                    traced = measure(
                        driver, first + len(untraced), seconds * (1 - UNTRACED_SHARE),
                        None if units is None else units - len(untraced), tracer,
                    )
            counted = {k: v - before.get(k, 0) for k, v in driver.counters().items()}
            loads = [b - a for a, b in zip(shard_before, driver.shard_loads())]
            # busiest shard over the mean shard, for the measured units
            counted["mrbgraph.shard_skew"] = (
                max(loads) * len(loads) / sum(loads) if sum(loads) else 0.0
            )
            driver.verify()
            layer = per_layer(driver, tracer, untraced, traced, counted) if tracer else {}
        finally:
            driver.close()
    samples = untraced + traced
    metrics = layer if trace else {**end_to_end(setup_s, untraced), "peak_rss_mb": peak_rss_mb()}
    host["loadavg_1m_end"] = os.getloadavg()[0]
    result = {
        "workload": name,
        "seed": seed,
        "size": size,
        "trace": int(trace),
        "correct": driver.failed == 0,
        "attempted": driver.attempted,
        "failed": driver.failed,
        "failed_ops_share": driver.failed / driver.attempted,
        "units": len(samples),
        "metrics": metrics,
        "samples": {
            "setup_s": setup_s,
            "refresh_s": [s.refresh_s for s in samples],
            "burst_s": [s.burst_s for s in samples],
            "sim_s": [s.sim_s for s in samples],
            "records": [s.records for s in samples],
        },
        "digests": [s.digest for s in samples],
        "host": host,
        # +1: back-to-back runs of this benchmark keep one core busy themselves
        "noisy": host["loadavg_1m"] > 0.5 * (host["nproc"] or 1) + 1,
    }
    if tracer is not None:
        result["trace_report"] = tracer.report()
        result["spans"] = tracer.spans
    return result


# ---------------------------------------------------------------------- #
# command line                                                           #
# ---------------------------------------------------------------------- #


def contract_line(result: Dict[str, Any], contract: Dict[str, Any]) -> str:
    """The driver's result line: exactly the metrics BENCHMARK.json names."""
    declared = contract["per_layer" if result["trace"] else "end_to_end"]
    return json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            m["name"]: {"value": result["metrics"][m["name"]], "unit": m["unit"]}
            for m in declared
        },
    })


def print_report(result: Dict[str, Any], contract: Dict[str, Any]) -> None:
    """Every metric by name with its unit, then the contract's JSON line."""
    units = {m["name"]: m["unit"] for m in contract["end_to_end"] + contract["per_layer"]}
    print(f"# {result['workload']} seed={result['seed']} size={result['size']} "
          f"trace={result['trace']} units={result['units']} "
          f"failed={result['failed']}/{result['attempted']}"
          f"{' NOISY-HOST' if result['noisy'] else ''}")
    for name, value in result["metrics"].items():
        print(f"{name:40s} {value:16.6f} {units.get(name, '')}")
    print(contract_line(result, contract), flush=True)


def run_in_subprocess(
    args: argparse.Namespace, name: str, seed: int, trace: int
) -> Dict[str, Any]:
    """One run in a process of its own (clean peak RSS); returns its result."""
    os.makedirs(OUT_DIR, exist_ok=True)
    fd, path = tempfile.mkstemp(prefix="result-", suffix=".json", dir=OUT_DIR)
    os.close(fd)
    command = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(seed), "--seconds", str(args.seconds), "--size", args.size,
               "--trace", str(trace), "--out", path]
    if args.units is not None:
        command += ["--units", str(args.units)]
    try:
        subprocess.run(command)  # a failed run still wrote its result
        with open(path) as fh:
            return json.load(fh)
    finally:
        os.unlink(path)


def main(argv: Optional[Sequence[str]] = None) -> int:
    contract = load_contract()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(drivers.DRIVERS),
                        help="default: all, each in its own process")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=contract["run_seconds"],
                        help="how long the measured units run for")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="1: print per-layer metrics from a traced run")
    parser.add_argument("--size", choices=list(workloads.SIZES), default="full")
    parser.add_argument("--units", type=int,
                        help="run exactly this many measured units instead of --seconds")
    parser.add_argument("--repeat", type=int, default=1,
                        help="runs per workload, seeds seed .. seed+repeat-1")
    parser.add_argument("--out", help="write the full result document(s) here")
    parser.add_argument("--update-baseline", action="store_true",
                        help="run untraced and traced, rewrite bench/baseline.json from them")
    args = parser.parse_args(argv)

    if args.workload and args.repeat == 1 and not args.update_baseline:
        result = run_workload(args.workload, args.seed, args.size, args.seconds,
                              args.units, bool(args.trace))
        if args.out:
            with open(args.out, "w") as fh:
                json.dump(result, fh)
        print_report(result, contract)
        return 0 if result["correct"] else 1

    names = [args.workload] if args.workload else list(drivers.DRIVERS)
    modes = (0, 1) if args.update_baseline else (args.trace,)
    runs = [run_in_subprocess(args, name, args.seed + i, trace)
            for trace in modes for i in range(args.repeat) for name in names]
    document = {"runs": [{k: v for k, v in run.items() if k != "spans"} for run in runs]}
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(document, fh)
    if args.update_baseline:
        from bench.compare import write_baseline

        write_baseline(document, os.path.join(ROOT, "bench", "baseline.json"))
    return 0 if all(run["correct"] for run in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
