"""Compare two sets of benchmark runs: ``python3 bench/compare.py A.json B.json``.

``A`` and ``B`` are documents written by ``bench/run.py --repeat N --out``
(A = the parent commit, B = the change).  One row per (end-to-end metric,
workload): both medians, the ratio ``B/A`` with its base, the bound from
``BENCHMARK.json`` and a verdict:

- ``worse``        B's median is worse than A's by more than the bound;
- ``unresolved``   a side's run-to-run spread (IQR / median) is wider than
                   the bound and the runs of B and A overlap;
- ``better``       B's median is better by more than A's own spread and B
                   wins at least nine tenths of the same-seed pairs;
- ``within-bound`` anything else.

Digests and simulated times of runs with the same (workload, seed, units)
must be identical, and no run may have failed operations; either breach is
reported as ``worse``.  Exits non-zero on any ``worse``.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
from typing import Any, Dict, List, Sequence, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Per-layer metrics that can explain pagerank_par - pagerank_e2e.
GAP_CARRIERS = (
    "execution.run_tasks_self_s", "inciter.map_task_s", "mrbgraph.shard_fanout_self_s",
    "resilience.run_tasks_self_s", "execution.payload_pickle_bytes",
    "execution.result_pickle_bytes", "execution.inproc_fallbacks", "mrbgraph.shard_skew",
)


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)`` the way the driver takes them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def collect(document: Dict[str, Any]) -> Dict[str, Dict[str, List[float]]]:
    """``workload -> metric -> [value per run]``."""
    grouped: Dict[str, Dict[str, List[float]]] = {}
    for run in document["runs"]:
        metrics = grouped.setdefault(run["workload"], {})
        for name, value in run["metrics"].items():
            metrics.setdefault(name, []).append(value)
    return grouped


def summarize(document: Dict[str, Any]) -> Dict[str, Dict[str, Dict[str, float]]]:
    """``workload -> metric -> {n, q1, median, q3, spread}`` over the runs."""
    summary: Dict[str, Dict[str, Dict[str, float]]] = {}
    for workload, metrics in collect(document).items():
        summary[workload] = {}
        for name, values in metrics.items():
            q1, median, q3 = quartiles(values)
            summary[workload][name] = {
                "n": len(values),
                "q1": q1,
                "median": median,
                "q3": q3,
                "spread": (q3 - q1) / abs(median) if median else 0.0,
            }
    return summary


def _by_seed(document: Dict[str, Any]) -> Dict[Tuple[str, int], Dict[str, float]]:
    """``(workload, seed) -> metrics`` of the untraced runs."""
    return {
        (run["workload"], run["seed"]): run["metrics"]
        for run in document["runs"] if not run["trace"]
    }


def _wins(seeded_a: Dict, seeded_b: Dict, workload: str, name: str, higher: bool) -> bool:
    """Whether B beats A in at least nine tenths of the same-seed pairs."""
    pairs = [
        (seeded_a[key][name], seeded_b[key][name])
        for key in seeded_a if key[0] == workload and key in seeded_b
    ]
    wins = sum(1 for va, vb in pairs if (vb > va if higher else vb < va))
    return bool(pairs) and wins >= 0.9 * len(pairs)


def _exact(document: Dict[str, Any]) -> Dict[Tuple, Tuple]:
    """What must repeat exactly, keyed by (workload, seed, units, trace)."""
    return {
        (run["workload"], run["seed"], run["units"], run["trace"]):
            (run["digests"], run["samples"]["sim_s"], run["samples"]["records"])
        for run in document["runs"]
    }


def compare(
    a: Dict[str, Any], b: Dict[str, Any], contract: Dict[str, Any]
) -> List[Dict[str, Any]]:
    """The verdict rows (see module docstring)."""
    rows: List[Dict[str, Any]] = []
    sum_a, sum_b = summarize(a), summarize(b)
    raw_a, raw_b = collect(a), collect(b)
    seeded_a, seeded_b = _by_seed(a), _by_seed(b)
    for metric in contract["end_to_end"]:
        name, bound, higher = metric["name"], metric["bound"], metric["better"] == "higher"
        for workload in sum_a:
            if name not in sum_a[workload] or name not in sum_b.get(workload, {}):
                continue
            sa, sb = sum_a[workload][name], sum_b[workload][name]
            ratio = sb["median"] / sa["median"]
            worsening = (1 / ratio if higher else ratio) - 1.0  # > 0: B is worse
            runs_a, runs_b = raw_a[workload][name], raw_b[workload][name]
            b_wins_all = (
                min(runs_b) > max(runs_a) if higher else max(runs_b) < min(runs_a)
            )
            if worsening > bound:
                verdict = "worse"
            elif max(sa["spread"], sb["spread"]) > bound and not b_wins_all:
                verdict = "unresolved"
            elif -worsening > sa["spread"] and _wins(
                seeded_a, seeded_b, workload, name, higher
            ):
                verdict = "better"
            else:
                verdict = "within-bound"
            rows.append({
                "metric": name, "workload": workload, "unit": metric["unit"],
                "a_median": sa["median"], "b_median": sb["median"],
                "a_spread": sa["spread"], "b_spread": sb["spread"],
                "ratio": ratio, "bound": bound, "verdict": verdict,
            })
    exact_a, exact_b = _exact(a), _exact(b)
    for key in sorted(set(exact_a) & set(exact_b)):
        same = exact_a[key] == exact_b[key]
        rows.append({
            "metric": "digests+sim+counts", "workload": key[0], "unit": "exact",
            "a_median": 0.0, "b_median": 0.0, "a_spread": 0.0, "b_spread": 0.0,
            "ratio": 1.0, "bound": 0.0,
            "verdict": "within-bound" if same else "worse",
            "note": f"seed {key[1]}, {key[2]} units",
        })
    for side, doc in (("A", a), ("B", b)):
        for run in doc["runs"]:
            if run["failed"]:
                rows.append({
                    "metric": "failed_ops_share", "workload": run["workload"], "unit": "ratio",
                    "a_median": 0.0, "b_median": run["failed_ops_share"], "a_spread": 0.0,
                    "b_spread": 0.0, "ratio": 0.0, "bound": 0.0, "verdict": "worse",
                    "note": f"side {side}, seed {run['seed']}",
                })
    return rows


def write_baseline(document: Dict[str, Any], path: str) -> None:
    """Freeze ``document``'s medians and quartiles as the committed baseline."""
    summary = summarize(document)
    baseline: Dict[str, Any] = {
        "about": "medians and quartiles over seeds of `bench/run.py --repeat N "
                 "--update-baseline`; rewritten only on request",
        "host": document["runs"][0]["host"],
        "noisy_runs": sum(1 for run in document["runs"] if run["noisy"]),
        "size": document["runs"][0]["size"],
        "seeds": sorted({run["seed"] for run in document["runs"]}),
        "units_per_run": {
            workload: statistics.median(
                run["units"] for run in document["runs"] if run["workload"] == workload
            )
            for workload in summary
        },
        "workloads": summary,
    }
    serial = summary.get("pagerank_e2e", {}).get("refresh_p50_s")
    parallel = summary.get("pagerank_par", {}).get("refresh_p50_s")
    if serial and parallel:
        resolved = parallel["q1"] > serial["q3"] or parallel["q3"] < serial["q1"]
        baseline["pagerank_par_vs_e2e"] = {
            "refresh_p50_s_ratio": parallel["median"] / serial["median"],
            "base_s": serial["median"],
            "verdict": (
                ("pagerank_par is slower" if parallel["median"] > serial["median"]
                 else "pagerank_par is faster")
                if resolved else "inside the run-to-run spread"
            ),
            # medians (e2e, par) of the layers that can carry the gap
            "carried_by": {
                name: [summary[w][name]["median"] for w in ("pagerank_e2e", "pagerank_par")]
                for name in GAP_CARRIERS if name in summary["pagerank_par"]
            },
        }
    with open(path, "w") as fh:
        json.dump(baseline, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(argv: Sequence[str]) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        return 2
    documents = []
    for path in argv:
        with open(path) as fh:
            documents.append(json.load(fh))
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        contract = json.load(fh)
    rows = compare(documents[0], documents[1], contract)
    print(f"{'metric':20s} {'workload':16s} {'A median':>14s} {'B median':>14s} "
          f"{'B/A':>7s} {'spreadA':>8s} {'spreadB':>8s} {'bound':>6s}  verdict")
    for row in rows:
        print(f"{row['metric']:20s} {row['workload']:16s} {row['a_median']:14.6g} "
              f"{row['b_median']:14.6g} {row['ratio']:7.3f} {row['a_spread']:8.3f} "
              f"{row['b_spread']:8.3f} {row['bound']:6.2f}  {row['verdict']}"
              f"{'  (' + row['note'] + ')' if 'note' in row else ''}")
    return 1 if any(row["verdict"] == "worse" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
