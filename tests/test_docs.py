"""Documentation stays truthful: the docs-link check runs in the suite.

The same script CI runs (``tools/check_docs_links.py``) is executed
here, so a rename that orphans a reference in ``README.md`` or
``docs/*.md`` fails locally before it fails in CI.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def test_docs_exist():
    assert (ROOT / "README.md").is_file()
    assert (ROOT / "docs" / "architecture.md").is_file()
    assert (ROOT / "docs" / "experiments.md").is_file()
    assert (ROOT / "docs" / "store.md").is_file()
    assert (ROOT / "docs" / "serving.md").is_file()
    assert (ROOT / "docs" / "api.md").is_file()


def test_no_tracked_pycache():
    """Compiled bytecode must never be tracked under ``src/`` (CI gate)."""
    proc = subprocess.run(
        ["git", "ls-files", "--", "src"],
        capture_output=True,
        text=True,
        cwd=ROOT,
    )
    if proc.returncode != 0:
        pytest.skip("not a git checkout")
    offenders = [
        line
        for line in proc.stdout.splitlines()
        if "__pycache__" in line or line.endswith(".pyc")
    ]
    assert offenders == [], f"tracked bytecode under src/: {offenders}"


def test_docs_links_resolve():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "check_docs_links.py")],
        capture_output=True,
        text=True,
        cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_readme_names_real_commands():
    """The README's test command must match ROADMAP's tier-1 line."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    assert "python -m pytest -x -q" in readme
    assert "pip install -e ." in readme


def test_readme_documents_env_knobs():
    """README documents exactly the REPRO_* knobs the library reads.

    The knobs are the ``"REPRO_*"`` names in ``common/config.py`` (every
    override is read there), so a retired knob cannot stay documented.
    """
    config_py = (ROOT / "src" / "repro" / "common" / "config.py").read_text(
        encoding="utf-8"
    )
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    knobs = set(re.findall(r'"(REPRO_[A-Z_]+)"', config_py))
    assert "REPRO_SHARDS" in knobs  # the pattern still finds the knobs
    assert set(re.findall(r"REPRO_[A-Z][A-Z_]*", readme)) == knobs


def test_architecture_covers_fault_tolerance():
    """The resilience subsystem has its architecture section."""
    arch = (ROOT / "docs" / "architecture.md").read_text(encoding="utf-8")
    assert "## Fault tolerance & recovery" in arch
    for term in (
        "ResilientExecutor",
        "task_retries",
        "sim_backoff_s",
        "degradation ladder",
        "dead-letter",
        "REPRO_CHAOS_SEED",
    ):
        assert term in arch


def test_architecture_covers_streaming():
    """The streaming subsystem has its architecture section."""
    arch = (ROOT / "docs" / "architecture.md").read_text(encoding="utf-8")
    assert "## Streaming & continuous pipelines" in arch
    for term in ("DeltaSource", "BatchPolicy", "ContinuousPipeline", "backlog"):
        assert term in arch


def test_architecture_covers_workset():
    """Workset (delta) iteration has its architecture section."""
    arch = (ROOT / "docs" / "architecture.md").read_text(encoding="utf-8")
    assert "## Workset & delta iteration" in arch
    for term in (
        "Workset",
        "partitions_holding",
        "empty workset",
        "REPRO_WORKSET",
        "map_tasks",
        "TestCollapse",
    ):
        assert term in arch


def test_experiments_registry_covers_stream_latency():
    experiments = (ROOT / "docs" / "experiments.md").read_text(encoding="utf-8")
    assert "stream_latency.py" in experiments


def test_experiments_documents_stream_latency_columns():
    """Every stream_latency output column is explained in the docs."""
    experiments = (ROOT / "docs" / "experiments.md").read_text(encoding="utf-8")
    for column in (
        "workload",
        "policy",
        "batches",
        "mean_batch",
        "mean_lat_s",
        "max_lat_s",
        "max_backlog",
        "fallback_batches",
    ):
        assert column in experiments, f"{column} not documented"


def test_store_doc_covers_sharding():
    """docs/store.md explains the store layer end to end."""
    store = (ROOT / "docs" / "store.md").read_text(encoding="utf-8")
    for term in (
        "mrbg.dat",
        "mrbg.idx",
        "mrbg.shards",
        "ShardedMRBGStore",
        "HashShardRouter",
        "compact",
        "mrbgstore_tour.py",
    ):
        assert term in store, f"{term} missing from docs/store.md"


def test_store_doc_covers_durability():
    """docs/store.md documents the WAL, recovery and compaction knobs."""
    store = (ROOT / "docs" / "store.md").read_text(encoding="utf-8")
    assert "## Durability & recovery" in store
    for term in (
        "mrbg.wal",
        "wal_records.json",
        "wal-append",
        "pre-index-swap",
        "mid-compact-write",
        "post-compact-pre-swap",
        "maybe_compact()",
        "num_batches > 1 or file_size > live_bytes()",
    ):
        assert term in store, f"{term} missing from docs/store.md"


def test_serving_doc_covers_the_contract():
    """docs/serving.md explains epochs, query APIs and invalidation."""
    serving = (ROOT / "docs" / "serving.md").read_text(encoding="utf-8")
    assert "## Epoch lifecycle" in serving
    assert "## Query APIs" in serving
    assert "## Cache-invalidation contract" in serving
    for term in (
        "EpochManager",
        "EpochSnapshot",
        "QueryServer",
        "ServingBridge",
        "ResultCache",
        "pinned",
        "touched",
        "top_k",
        "QueryTimeout",
        "EpochRetired",
        "serving_pagerank.py",
    ):
        assert term in serving, f"{term} missing from docs/serving.md"


def test_experiments_documents_serving_bench():
    """The docs name the ``bench/`` metrics that measure serving and the
    test that holds its correctness; every metric named is registered."""
    experiments = (ROOT / "docs" / "experiments.md").read_text(encoding="utf-8")
    assert "bench/run.py" in experiments
    assert "test_queries_during_ingestion_match_quiesced_replay" in experiments
    registry = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    registered = {m["name"] for m in registry["end_to_end"] + registry["per_layer"]}
    for metric in (
        "query_qps",
        "serving.query_p50_us",
        "serving.query_p99_us",
        "serving.cache_hit_rate",
        "serving.timeouts",
    ):
        assert metric in experiments, f"{metric} not documented"
        assert metric in registered, f"{metric} not in BENCHMARK.json"


def test_api_reference_is_fresh():
    """docs/api.md matches a fresh render of the docstrings (CI gate)."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "gen_api_docs.py"), "--check"],
        capture_output=True,
        text=True,
        cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_readme_quickstart_runs_and_prints_the_refresh():
    """The README quickstart block runs as written and reports the
    incremental refresh, not the initial run, as "refresh took"."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Quickstart", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    namespace: dict = {"__name__": "readme_quickstart"}
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            exec(compile(code, "README.md", "exec"), namespace)
    finally:
        if "state" in namespace:
            namespace["state"].cleanup()
        if "engine" in namespace:
            namespace["engine"].close()
    counts, timing = out.getvalue().splitlines()
    assert counts == "{'a': 2, 'b': 2, 'c': 3}"
    refresh = namespace["refresh"]
    assert "changed_output_bytes" in refresh.metrics.counters.as_dict()  # run_incremental's
    assert timing == f"refresh took {refresh.total_time:.1f} simulated s"
