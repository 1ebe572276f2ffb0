"""Golden pins of the simulated clock: every paper figure, to the digit.

The §8 reproductions run on the *simulated* cost-model clock, which is
pure arithmetic over deterministic inputs — so the numbers are pinned
exactly (``==``; floats round-trip through JSON) in
``tests/golden/sim_figures.json`` rather than timed on the host clock.
A refactor of the engines must leave that file
byte-identical; a deliberate cost-model change regenerates it::

    PYTHONPATH=src python -m tests.test_sim_goldens --regen

Two kinds of entry:

- the **figures** — Fig 8 (all five solutions × four workloads), Fig
  9–13, Tables 3–4, the Incoop ablation and one-step APriori at ``test``
  scale, each with the shape assertion the paper's claim needs;
- the **engine series** the figures do not reach — a workset
  ``IterMREngine.run``, ``I2MREngine.run_initial`` and the three ``I2MREngine.run_incremental``
  paths (fine-grain, ``mrbg_enabled=False``, the §5.2 auto-off at
  iteration 1 and 2), each with
  ``workset`` off and on: per-iteration ``StageTimes``, scheduling
  footprint, counters, ``mrbg_disabled_at``.
"""

from __future__ import annotations

import json
import os
import sys
from dataclasses import asdict
from typing import Any, Callable, Dict

import pytest

from repro.algorithms.kmeans import Kmeans
from repro.algorithms.pagerank import PageRank
from repro.algorithms.sssp import SSSP
from repro.datasets.graphs import (
    mutate_web_graph,
    powerlaw_web_graph,
    weighted_graph_from,
)
from repro.datasets.points import gaussian_points, mutate_points
from repro.experiments.ablation_incoop import run_ablation
from repro.experiments.fig8_overall import run_workload
from repro.experiments.fig9_stages import run_fig9
from repro.experiments.fig10_cpc import run_fig10
from repro.experiments.fig11_propagation import run_fig11
from repro.experiments.fig12_spark import run_fig12
from repro.experiments.fig13_faults import RECOVERY_BOUND_S, run_fig13
from repro.experiments.onestep_apriori import run_apriori_onestep
from repro.experiments.table3_datasets import run_table3
from repro.experiments.table4_mrbgstore import run_table4
from repro.inciter.engine import I2MREngine, I2MROptions
from repro.iterative.api import IterativeJob
from repro.iterative.engine import IterMREngine

from tests.conftest import fresh_cluster

pytestmark = pytest.mark.filterwarnings("ignore")

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden", "sim_figures.json")
SCALE = "test"
FIG8_WORKLOADS = ("pagerank", "sssp", "kmeans", "gimv")
SOLUTIONS = ("plainmr", "haloop", "itermr", "i2mr_nocpc", "i2mr_cpc")


# --------------------------------------------------------------------- #
# what is pinned                                                        #
# --------------------------------------------------------------------- #


def _table(result) -> Dict[str, Any]:
    return {"headers": list(result.headers), "rows": [list(r) for r in result.rows]}


#: ``IterationStats`` fields describing the scheduling footprint.
FOOTPRINT = ("scheduled_map_tasks", "scheduled_reduce_tasks", "touched_vertices")


def _run_series(result, footprint: bool = True) -> Dict[str, Any]:
    """Everything simulated an iterative run reports, per iteration.

    ``footprint=False`` leaves the scheduling footprint unpinned — for
    ``run_initial``, whose records did not carry one when the goldens
    were taken.
    """
    per_iteration = []
    for stats in result.per_iteration:
        record = asdict(stats)
        record["times"] = stats.times.as_dict()
        if not footprint:
            for name in FOOTPRINT:
                del record[name]
        per_iteration.append(record)
    return {
        "iterations": result.iterations,
        "converged": result.converged,
        "total_time": result.total_time,
        "times": result.metrics.times.as_dict(),
        "counters": dict(result.metrics.counters.items()),
        "mrbg_disabled_at": getattr(result, "mrbg_disabled_at", None),
        "per_iteration": per_iteration,
    }


def _itermr_workset() -> Dict[str, Any]:
    graph = weighted_graph_from(powerlaw_web_graph(120, 4, seed=9), seed=1)
    cluster, dfs = fresh_cluster()
    job = IterativeJob(SSSP(source=0), graph, num_partitions=4,
                       max_iterations=20, workset=True)
    return _run_series(IterMREngine(cluster, dfs).run(job))


def _pagerank_initial():
    graph = powerlaw_web_graph(200, 5, seed=3)
    cluster, dfs = fresh_cluster(seed=3)
    engine = I2MREngine(cluster, dfs)
    job = IterativeJob(PageRank(), graph, num_partitions=4,
                       max_iterations=40, epsilon=1e-7)
    delta = mutate_web_graph(graph, 0.1, seed=4)
    return engine, job, delta, engine.run_initial(job)


def _kmeans_initial():
    points = gaussian_points(200, dim=3, k=3, seed=8)
    cluster, dfs = fresh_cluster(seed=8)
    engine = I2MREngine(cluster, dfs)
    job = IterativeJob(Kmeans(k=3, dim=3), points, num_partitions=4,
                       max_iterations=15, epsilon=1e-5)
    delta = mutate_points(points, 0.3, seed=9)
    return engine, job, delta, engine.run_initial(job)


def _initial(setup) -> Dict[str, Any]:
    _, _, _, (initial, preserved) = setup()
    preserved.cleanup()
    return _run_series(initial, footprint=False)


def _refresh(setup, options: I2MROptions) -> Dict[str, Any]:
    engine, job, delta, (_, preserved) = setup()
    with preserved:
        return _run_series(
            engine.run_incremental(job, delta.records, preserved, options)
        )


def _kmeans_auto_off(workset: bool) -> Dict[str, Any]:
    return _refresh(
        _kmeans_initial,
        I2MROptions(max_iterations=15, epsilon=1e-5, workset=workset),
    )


def _fine_grain(workset: bool) -> Dict[str, Any]:
    return _refresh(
        _pagerank_initial,
        I2MROptions(filter_threshold=1e-4, max_iterations=12, workset=workset),
    )


def _mrbg_off(workset: bool) -> Dict[str, Any]:
    return _refresh(
        _pagerank_initial,
        I2MROptions(mrbg_enabled=False, max_iterations=60, epsilon=1e-4,
                    workset=workset),
    )


def _pagerank_auto_off(workset: bool) -> Dict[str, Any]:
    # Trips the auto-off after fine-grain iteration 1, then runs the
    # fallback until the budget (not epsilon) stops it.
    return _refresh(
        _pagerank_initial,
        I2MROptions(filter_threshold=None, pdelta_threshold=0.4,
                    max_iterations=14, epsilon=1e-6, workset=workset),
    )


SECTIONS: Dict[str, Callable[[], Any]] = {
    **{
        f"fig8_{name}": (lambda name=name: run_workload(name, scale=SCALE))
        for name in FIG8_WORKLOADS
    },
    "fig9": lambda: _table(run_fig9(scale=SCALE)),
    "fig10": lambda: _table(run_fig10(scale=SCALE)),
    "fig11": lambda: _table(run_fig11(scale=SCALE)),
    "fig12": lambda: _table(run_fig12(scale=SCALE)),
    "fig13": lambda: _table(run_fig13(scale=SCALE)),
    "table3": lambda: _table(run_table3(scale=SCALE)),
    "table4": lambda: _table(run_table4(scale=SCALE)),
    "ablation": lambda: _table(run_ablation(scale=SCALE)),
    "apriori": lambda: _table(run_apriori_onestep(scale=SCALE)),
    "itermr_workset": _itermr_workset,
    "run_initial_pagerank": lambda: _initial(_pagerank_initial),
    "run_initial_kmeans": lambda: _initial(_kmeans_initial),
    **{
        f"{label}_workset_{'on' if ws else 'off'}": (lambda fn=fn, ws=ws: fn(ws))
        for label, fn in (
            ("fine_grain", _fine_grain),
            ("mrbg_off", _mrbg_off),
            ("kmeans_auto_off", _kmeans_auto_off),
            ("pagerank_auto_off", _pagerank_auto_off),
        )
        for ws in (False, True)
    },
}


def _jsonable(value: Any) -> Any:
    """``value`` as it reads back from JSON (tuples → lists; floats exact)."""
    return json.loads(json.dumps(value))


_computed: Dict[str, Any] = {}


def computed(section: str) -> Any:
    """Run ``section`` once per process and keep its JSON form."""
    if section not in _computed:
        _computed[section] = _jsonable(SECTIONS[section]())
    return _computed[section]


def golden() -> Dict[str, Any]:
    with open(GOLDEN_PATH, "r", encoding="utf-8") as fh:
        return json.load(fh)


def check(section: str) -> Any:
    """Assert ``section`` equals its golden, digit for digit; return it."""
    got = computed(section)
    assert got == golden()[section], (
        f"simulated numbers of {section!r} moved; if intended, regenerate with "
        "`PYTHONPATH=src python -m tests.test_sim_goldens --regen`"
    )
    return got


def test_golden_file_names_every_section():
    assert sorted(golden()) == sorted(SECTIONS)


# --------------------------------------------------------------------- #
# the figures, each with the shape its paper claim needs               #
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("workload", FIG8_WORKLOADS)
def test_fig8(workload):
    times = check(f"fig8_{workload}")
    assert sorted(times) == sorted(SOLUTIONS)
    assert times["i2mr_cpc"] < times["plainmr"]


def test_fig9_stages():
    rows = {row[0]: row for row in check("fig9")["rows"]}
    assert rows["reduce"][3] > rows["reduce"][2]  # store cost shows up


def test_fig10_cpc():
    final = {}
    for ft, _iteration, cumulative, error, _ in check("fig10")["rows"]:
        final[ft] = (cumulative, error)
    # Larger threshold -> faster (the Fig 10a ordering).
    assert final[1.0][0] <= final[0.1][0]


def test_fig11_propagation():
    series: Dict[str, list] = {}
    for variant, _iteration, propagated, _time_s in check("fig11")["rows"]:
        series.setdefault(variant, []).append(propagated)
    # Without CPC the change set keeps growing (the Fig 11a blow-up).
    assert series["w/o CPC"][-1] >= series["w/o CPC"][0]


def test_fig12_spark():
    rows = {row[0]: row for row in check("fig12")["rows"]}
    assert rows["clueweb-xs"][4] < rows["clueweb-xs"][3]  # Spark wins small
    assert rows["clueweb-l"][5] != "0%"  # Spark spills at the top end


def test_fig13_faults():
    failures = check("fig13")["rows"][:-1]
    assert max(row[3] for row in failures) <= RECOVERY_BOUND_S


def test_table3_datasets():
    assert len(check("table3")["rows"]) == 5


def test_table4_store():
    rows = check("table4")["rows"]
    by_name = {row[0]: row for row in rows}
    assert by_name["index-only"][1] == max(r[1] for r in rows)
    assert by_name["multi-dynamic-window"][3] <= by_name["single-fix-window"][3]


def test_ablation_incoop():
    rows = {(row[0], row[1]): row for row in check("ablation")["rows"]}
    assert (
        rows[("incoop", "scattered-updates")][2]
        > rows[("incoop", "append-only")][2]
    )


def test_apriori_onestep():
    assert check("apriori")["rows"][1][2] > 4.0


# --------------------------------------------------------------------- #
# the engine series the figures do not reach                            #
# --------------------------------------------------------------------- #


def test_itermr_workset_series():
    series = check("itermr_workset")
    assert series["converged"]
    assert series["counters"]["workset_map_tasks"] > 0
    assert series["per_iteration"][-1]["workset_size"] == 0


@pytest.mark.parametrize("algorithm", ["pagerank", "kmeans"])
def test_run_initial_series(algorithm):
    initial = check(f"run_initial_{algorithm}")
    assert initial["converged"]
    assert all(s["mrbg_maintained"] for s in initial["per_iteration"])
    assert initial["counters"]["mrbg_bytes_written"] > 0


@pytest.mark.parametrize("workset", ["off", "on"])
def test_fine_grain_series(workset):
    refresh = check(f"fine_grain_workset_{workset}")
    assert refresh["mrbg_disabled_at"] is None
    assert all(s["mrbg_maintained"] for s in refresh["per_iteration"])


@pytest.mark.parametrize("workset", ["off", "on"])
def test_mrbg_off_series(workset):
    refresh = check(f"mrbg_off_workset_{workset}")
    assert refresh["mrbg_disabled_at"] == 0
    assert [s["iteration"] for s in refresh["per_iteration"]] == list(
        range(refresh["iterations"])
    )


@pytest.mark.parametrize("workset", ["off", "on"])
@pytest.mark.parametrize("case, disabled_at", [("kmeans", 1), ("pagerank", 2)])
def test_auto_off_series(case, disabled_at, workset):
    refresh = check(f"{case}_auto_off_workset_{workset}")
    assert refresh["mrbg_disabled_at"] == disabled_at
    assert refresh["iterations"] > disabled_at + 1
    flags = [s["mrbg_maintained"] for s in refresh["per_iteration"]]
    assert flags == [True] * disabled_at + [False] * (
        refresh["iterations"] - disabled_at
    )
    # The fallback continues the fine-grain run's iteration numbering.
    assert [s["iteration"] for s in refresh["per_iteration"]] == list(
        range(refresh["iterations"])
    )


if __name__ == "__main__":
    if sys.argv[1:] != ["--regen"]:
        sys.exit("usage: PYTHONPATH=src python -m tests.test_sim_goldens --regen")
    with open(GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump({name: computed(name) for name in sorted(SECTIONS)}, fh,
                  indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {GOLDEN_PATH}")
