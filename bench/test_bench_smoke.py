"""Tier-1 smoke test of the benchmark (collected by the repo's pytest run).

Runs every workload at ``--size smoke`` and checks what must hold on any
host: the contract of ``BENCHMARK.json``, the shape of a result, the
oracles, determinism under a seed, and that tracing attributes the
refresh and then leaves ``repro`` untouched.  No timing is asserted.
"""

from __future__ import annotations

import json
import re

import pytest

from bench import compare, drivers, run, workloads
from repro.mrbgraph import MRBGStore

CONTRACT = run.load_contract()
E2E = [m["name"] for m in CONTRACT["end_to_end"]]
LAYER = [m["name"] for m in CONTRACT["per_layer"]]
UNITS = 3

_cache = {}


def result(name: str, seed: int = 3, trace: bool = False, again: bool = False):
    """One smoke run per distinct request (``again`` forces a second run)."""
    key = (name, seed, trace, again)
    if key not in _cache:
        _cache[key] = run.run_workload(
            name, seed, size="smoke", units=UNITS, trace=trace, setup_repeats=1
        )
    return _cache[key]


def test_contract_file_is_well_formed():
    assert set(CONTRACT) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert CONTRACT["paths"] == ["bench"]
    assert 1 <= CONTRACT["run_seconds"] <= 60
    assert [w["name"] for w in CONTRACT["workloads"]] == list(drivers.DRIVERS)
    assert {w["name"]: w["why"] for w in CONTRACT["workloads"]} == workloads.WORKLOADS
    assert 2 <= len(CONTRACT["workloads"]) <= 8
    assert 1 <= len(E2E) <= 16 and 1 <= len(LAYER) <= 128
    names = E2E + LAYER + list(drivers.DRIVERS)
    assert len(set(names)) == len(names)
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name
    for metric in CONTRACT["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in CONTRACT["end_to_end"] + CONTRACT["per_layer"]:
        assert metric["better"] in ("higher", "lower")
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", metric["unit"]), metric
    for metric in CONTRACT["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    setup = next(m for m in CONTRACT["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")


@pytest.mark.parametrize("name", list(drivers.DRIVERS))
def test_workload_is_correct_and_deterministic(name):
    first, second = result(name), result(name, again=True)
    assert first["correct"] and first["failed"] == 0 and first["attempted"] >= 1
    assert first["units"] == UNITS
    assert sorted(first["metrics"]) == sorted(E2E)
    assert all(value > 0 for value in first["metrics"].values())
    for field in ("digests", "attempted"):
        assert first[field] == second[field]
    for field in ("sim_s", "records"):
        assert first["samples"][field] == second["samples"][field]
    assert first["metrics"]["sim_refresh_s"] == second["metrics"]["sim_refresh_s"]
    assert result(name, seed=4)["digests"] != first["digests"]


def test_parallel_pagerank_reaches_the_serial_state():
    assert result("pagerank_par")["digests"] == result("pagerank_e2e")["digests"]


@pytest.mark.parametrize("name", list(drivers.DRIVERS))
def test_traced_run_reports_every_layer(name):
    original = MRBGStore.get_chunk
    traced = result(name, trace=True)
    assert MRBGStore.get_chunk is original  # every patch undone
    assert traced["correct"]
    metrics = traced["metrics"]
    assert sorted(metrics) == sorted(LAYER)
    assert metrics["trace.accounted_share"] >= 0.9
    assert metrics["trace.spans"] > 0
    store_times = [k for k in LAYER if k.startswith("mrbgraph.") and k.endswith("_s")]
    if name == "wordcount_accum":  # the accumulator path never opens a store
        assert all(metrics[k] == 0 for k in store_times)
        assert metrics["mapreduce.partition_and_sort_s"] > 0
    else:
        assert metrics["mrbgraph.get_chunk_s"] > 0
    if name == "store_maintain":
        assert all(metrics[k] == 0 for k in LAYER if k.startswith(("mapreduce.", "serving.")))
        assert metrics["mrbgraph.recover_open_s"] > 0 and metrics["mrbgraph.write_amp"] > 1
    if name == "pagerank_par":
        assert metrics["execution.payload_pickle_bytes"] > 0


def test_command_line_prints_the_contract_line(capsys):
    code = run.main(["--workload", "store_maintain", "--seed", "5", "--size", "smoke",
                     "--units", "2", "--trace", "0"])
    assert code == 0
    line = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    units = {m["name"]: m["unit"] for m in CONTRACT["end_to_end"]}
    assert {k: v["unit"] for k, v in line["metrics"].items()} == units


def test_compare_flags_a_regression_and_accepts_noise():
    def runs(scale):
        return {"runs": [
            dict(result("store_maintain"), seed=seed, metrics={
                k: v * (1 + 0.01 * seed) * (scale if k == "refresh_p50_s" else 1.0)
                for k, v in result("store_maintain")["metrics"].items()
            })
            for seed in range(4)
        ]}

    rows = {
        scale: {r["metric"]: r["verdict"] for r in compare.compare(runs(1.0), runs(scale), CONTRACT)}
        for scale in (1.0, 1.5, 0.5)
    }
    assert rows[1.0]["refresh_p50_s"] == "within-bound"
    assert rows[1.5]["refresh_p50_s"] == "worse"
    assert rows[0.5]["refresh_p50_s"] == "better"
    assert rows[1.5]["query_qps"] == "within-bound"
