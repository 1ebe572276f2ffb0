#!/usr/bin/env python3
"""Render (and optionally regenerate) the perf reports.

``BENCH_hotpaths.json`` at the repository root is the perf trajectory
file emitted by ``benchmarks/test_bench_hotpaths.py``; this tool prints
it as a table and compares every section against the pre-PR baseline in
``benchmarks/baseline_hotpaths.json``.  ``BENCH_sharding.json`` (from
``benchmarks/test_bench_sharding.py``) is rendered alongside when
present: host wall-clock per backend plus the deterministic simulated
merge/compact stage elapsed per shard count.  ``BENCH_resilience.json``
(from ``benchmarks/test_bench_resilience.py``) adds the resilient
executor's throughput and simulated retry-backoff overhead at injected
failure rates of 0/1/5/20% per backend.  ``BENCH_serving.json`` (from
``benchmarks/test_bench_serving.py``) reports the online query server
under concurrent streaming ingestion: queries/s, p50/p99 host latency,
cache hit rate and epochs served per serving-shard count.
``BENCH_workset.json`` (from ``benchmarks/test_bench_workset.py``)
shows workset (delta) iteration collapsing its per-superstep scheduled
map tasks to zero on a converging PageRank, plus the frontier's
touched-vertex savings vs full sweeps on SSSP.

Usage::

    python tools/bench_report.py            # print the report(s)
    python tools/bench_report.py --run      # run the benches first, then print
    python tools/bench_report.py --check    # exit 1 unless codec ≥2x and
                                            # fig8 improved vs the baseline

CI runs ``--run`` at ``REPRO_BENCH_SCALE=test`` and uploads both JSON
files as artifacts.

The repo-root ``BENCH_*.json`` files are only (re)written when
``REPRO_BENCH_WRITE=1`` (``--run`` sets it, as does the CI bench-smoke
job); a plain ``pytest`` sweep writes to ``.bench_scratch/`` instead so
a test run on a busy host cannot silently overwrite the committed perf
record with noisy numbers.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_PATH = os.path.join(ROOT, "BENCH_hotpaths.json")
SHARDING_PATH = os.path.join(ROOT, "BENCH_sharding.json")
RESILIENCE_PATH = os.path.join(ROOT, "BENCH_resilience.json")
SERVING_PATH = os.path.join(ROOT, "BENCH_serving.json")
WORKSET_PATH = os.path.join(ROOT, "BENCH_workset.json")
BASELINE_PATH = os.path.join(ROOT, "benchmarks", "baseline_hotpaths.json")


def run_bench() -> int:
    env = dict(os.environ)
    env.setdefault("REPRO_BENCH_SCALE", "test")
    # --run is the explicit "refresh the committed perf record" path;
    # without this knob the bench modules write to .bench_scratch/ so
    # ordinary pytest runs can't clobber the repo-root artifacts.
    env["REPRO_BENCH_WRITE"] = "1"
    env["PYTHONPATH"] = os.path.join(ROOT, "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return subprocess.call(
        [
            sys.executable,
            "-m",
            "pytest",
            os.path.join(ROOT, "benchmarks", "test_bench_hotpaths.py"),
            os.path.join(ROOT, "benchmarks", "test_bench_sharding.py"),
            os.path.join(ROOT, "benchmarks", "test_bench_resilience.py"),
            os.path.join(ROOT, "benchmarks", "test_bench_serving.py"),
            os.path.join(ROOT, "benchmarks", "test_bench_workset.py"),
            "-q",
        ],
        env=env,
        cwd=ROOT,
    )


def load(path: str) -> dict:
    if not os.path.exists(path):
        return {}
    with open(path) as fh:
        return json.load(fh)


def fmt_row(label: str, current, baseline, unit: str) -> str:
    ratio = ""
    if isinstance(current, (int, float)) and isinstance(baseline, (int, float)):
        if baseline:
            ratio = f"  ({current / baseline:.2f}x)"
    base = f"{baseline}" if baseline is not None else "n/a"
    return f"  {label:<28} {current:>12} {unit:<10} baseline {base}{ratio}"


def print_report(doc: dict, baseline: dict) -> None:
    host = doc.get("host", {})
    print(
        f"Hot-path perf report  (python {host.get('python', '?')}, "
        f"scale={host.get('bench_scale', '?')})"
    )
    codec = doc.get("codec", {})
    if codec:
        print("codec (chunk encode/decode):")
        print(fmt_row("encode", codec.get("encode_MBps"),
                      baseline.get("codec", {}).get("encode_MBps"), "MB/s"))
        print(fmt_row("decode", codec.get("decode_MBps"),
                      baseline.get("codec", {}).get("decode_MBps"), "MB/s"))
        print(f"  vs in-run legacy codec:      encode x{codec.get('encode_speedup')}"
              f", decode x{codec.get('decode_speedup')}")
    store = doc.get("store_merge", {})
    if store:
        print("store merge:")
        print(fmt_row("merge_delta", store.get("ops_per_s"),
                      baseline.get("store_merge", {}).get("ops_per_s"), "ops/s"))
        print(fmt_row("compact", store.get("compact_s"),
                      baseline.get("store_merge", {}).get("compact_s"), "s"))
    shuffle = doc.get("shuffle", {})
    if shuffle:
        print("shuffle (sort + run merge):")
        print(fmt_row("records", shuffle.get("records_per_s"),
                      baseline.get("shuffle", {}).get("records_per_s"), "rec/s"))
    grouped = doc.get("shuffle_grouped", {})
    if grouped:
        print(f"shuffle, grouped spill + run merge ({grouped.get('records')} records "
              f"over {grouped.get('distinct_keys')} string keys):")
        print(fmt_row("records", grouped.get("records_per_s"),
                      baseline.get("shuffle_grouped", {}).get("records_per_s"), "rec/s"))
    sweep = doc.get("iter_sweep", {})
    if sweep:
        print(f"iterMR full sweep (pagerank, {sweep.get('vertices')} vertices, "
              f"{sweep.get('map_output_records')} map output records):")
        base_sweep = baseline.get("iter_sweep", {})
        print(fmt_row("sweeps", sweep.get("sweeps_per_s"),
                      base_sweep.get("sweeps_per_s"), "sweeps/s"))
        print(fmt_row("sweeps, capture_chunks", sweep.get("capture_chunks_sweeps_per_s"),
                      base_sweep.get("capture_chunks_sweeps_per_s"), "sweeps/s"))
    fig8 = doc.get("fig8", {})
    if fig8:
        print("fig8 end-to-end (pagerank):")
        base_wall = baseline.get("fig8", {}).get("wall_clock_s")
        print(f"  wall-clock {fig8.get('wall_clock_s')} s, "
              f"pre-PR baseline {base_wall} s"
              + (f" -> x{fig8['speedup_vs_pre_pr']}" if "speedup_vs_pre_pr" in fig8 else ""))


def print_sharding_report(doc: dict) -> None:
    host = doc.get("host", {})
    print(
        f"\nSharded-store perf report  (python {host.get('python', '?')}, "
        f"scale={host.get('bench_scale', '?')})"
    )
    section = doc.get("shard_maintenance", {})
    if section:
        shard_counts = section.get("shard_counts", [])
        print("store maintenance, simulated stage elapsed (backend-invariant):")
        simulated = section.get("simulated", {})
        for shards in shard_counts:
            row = simulated.get(str(shards), {})
            print(
                f"  {shards:>2} shard(s): merge {row.get('merge_elapsed_s')} s, "
                f"compact {row.get('compact_elapsed_s')} s "
                f"(x{row.get('compact_parallel_speedup')} vs serial placement)"
            )
        print("store maintenance, host wall-clock per backend:")
        for backend, rows in sorted(section.get("wall_clock", {}).items()):
            cells = ", ".join(
                f"{shards}sh {rows[str(shards)]['merge_ops_per_s']} ops/s"
                for shards in shard_counts
                if str(shards) in rows
            )
            print(f"  {backend:<8} {cells}")
    rounds = doc.get("incremental_round", {})
    if rounds:
        print(f"incremental pagerank round ({rounds.get('vertices')} vertices):")
        for backend, rows in sorted(rounds.get("backends", {}).items()):
            cells = ", ".join(
                f"{shards}sh {row['round_s']} s" for shards, row in sorted(rows.items())
            )
            print(f"  {backend:<8} {cells}")


def print_resilience_report(doc: dict) -> None:
    host = doc.get("host", {})
    print(
        f"\nResilience perf report  (python {host.get('python', '?')}, "
        f"scale={host.get('bench_scale', '?')})"
    )
    section = doc.get("task_resilience", {})
    if not section:
        return
    rates = section.get("failure_rates", [])
    print(
        f"resilient executor ({section.get('num_tasks')} tasks, "
        f"max_retries={section.get('max_retries')}), per injected fault rate:"
    )
    for backend, rows in sorted(section.get("backends", {}).items()):
        cells = ", ".join(
            f"{float(rate):.0%} {rows[rate]['tasks_per_s']} t/s"
            f" (+{rows[rate]['sim_backoff_s']}s sim backoff,"
            f" {rows[rate]['retries']} retries)"
            for rate in rates
            if rate in rows
        )
        print(f"  {backend:<8} {cells}")


def print_serving_report(doc: dict) -> None:
    host = doc.get("host", {})
    print(
        f"\nServing perf report  (python {host.get('python', '?')}, "
        f"scale={host.get('bench_scale', '?')})"
    )
    section = doc.get("serving_load", {})
    if not section:
        return
    mix = section.get("mix", {})
    mix_cells = "/".join(f"{kind} {weight:.0%}" for kind, weight in sorted(mix.items()))
    print(f"query server under concurrent ingestion (mix: {mix_cells}):")
    for shards in section.get("shard_counts", []):
        row = section.get("per_shards", {}).get(str(shards), {})
        print(
            f"  {shards:>2} shard(s): {row.get('qps')} q/s, "
            f"p50 {row.get('p50_ms')} ms, p99 {row.get('p99_ms')} ms, "
            f"hit rate {row.get('cache_hit_rate')}, "
            f"{row.get('epochs_served')} epochs served, "
            f"{row.get('timeouts')} timeouts "
            f"({row.get('ingested_batches')} batches ingested)"
        )


def print_workset_report(doc: dict) -> None:
    host = doc.get("host", {})
    print(
        f"\nWorkset perf report  (python {host.get('python', '?')}, "
        f"scale={host.get('bench_scale', '?')})"
    )
    collapse = doc.get("superstep_collapse", {})
    if collapse:
        series = collapse.get("map_tasks_per_superstep", [])
        print(
            f"superstep collapse (pagerank cascade, depth "
            f"{collapse.get('depth')}):"
        )
        print(
            f"  scheduled map tasks per superstep: {series} "
            f"(full sweep: constant "
            f"{collapse.get('full_sweep_map_tasks_per_superstep')})"
        )
    savings = doc.get("frontier_savings", {})
    if savings:
        full = savings.get("full_sweep", {})
        workset = savings.get("workset", {})
        print(f"frontier savings (sssp, {savings.get('vertices')} vertices):")
        print(
            f"  touched vertices {workset.get('touched_vertices')} vs "
            f"{full.get('touched_vertices')} full-sweep "
            f"({savings.get('touched_savings', 0) * 100:.0f}% saved), "
            f"map tasks {workset.get('map_tasks')} vs {full.get('map_tasks')}"
        )


def check(doc: dict, baseline: dict) -> int:
    failures = []
    codec = doc.get("codec", {})
    if codec.get("encode_speedup", 0) < 2.0 or codec.get("decode_speedup", 0) < 2.0:
        failures.append("codec speedup below 2x vs legacy codec")
    fig8 = doc.get("fig8", {})
    base_wall = baseline.get("fig8", {}).get("wall_clock_s")
    if base_wall and fig8.get("wall_clock_s") and fig8["wall_clock_s"] >= base_wall:
        failures.append(
            f"fig8 wall-clock {fig8['wall_clock_s']}s not better than "
            f"pre-PR baseline {base_wall}s"
        )
    for failure in failures:
        print(f"CHECK FAILED: {failure}", file=sys.stderr)
    return 1 if failures else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--run", action="store_true",
                        help="run benchmarks/test_bench_hotpaths.py first")
    parser.add_argument("--check", action="store_true",
                        help="fail unless the acceptance thresholds hold")
    args = parser.parse_args()

    if args.run:
        status = run_bench()
        if status != 0:
            return status
    doc = load(OUT_PATH)
    if not doc:
        print(f"no {os.path.basename(OUT_PATH)} found; run with --run first",
              file=sys.stderr)
        return 2
    baseline = load(BASELINE_PATH)
    print_report(doc, baseline)
    sharding = load(SHARDING_PATH)
    if sharding:
        print_sharding_report(sharding)
    resilience = load(RESILIENCE_PATH)
    if resilience:
        print_resilience_report(resilience)
    serving = load(SERVING_PATH)
    if serving:
        print_serving_report(serving)
    workset = load(WORKSET_PATH)
    if workset:
        print_workset_report(workset)
    if args.check:
        return check(doc, baseline)
    return 0


if __name__ == "__main__":
    sys.exit(main())
