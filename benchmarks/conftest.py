"""Benchmark configuration.

The files here time this reproduction's host-side hot paths (executors,
sharding, resilience, serving, workset) with ``pytest-benchmark``; run
``pytest benchmarks/ --benchmark-only -s`` to see their tables inline.
The paper's own figures are not here: they run on the simulated clock
and are pinned exactly by ``tests/test_sim_goldens.py``.  Scale defaults
to ``test`` so the full suite stays fast; set ``REPRO_BENCH_SCALE=small``
(or ``medium``) for closer-to-paper shapes.

Simulated runtimes land in ``benchmark.extra_info`` so the JSON export
carries the reproduced numbers alongside the wall-clock timings.
"""

from __future__ import annotations

import os

import pytest

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

_TRUTHY = ("1", "true", "yes", "on")


def bench_out_path(filename: str) -> str:
    """Where a ``BENCH_*.json`` perf artifact should be written.

    The repo-root artifacts are the committed performance record, so a
    plain ``pytest`` run (which collects ``benchmarks/`` alongside the
    tier-1 suite, usually on a busy machine) must not clobber them with
    noisy numbers.  The root path is returned only when
    ``REPRO_BENCH_WRITE`` is truthy — set by the CI bench-smoke job and
    by ``tools/bench_report.py --run``; otherwise artifacts land in the
    git-ignored ``.bench_scratch/`` directory.
    """
    if os.environ.get("REPRO_BENCH_WRITE", "0").lower() in _TRUTHY:
        return os.path.join(_ROOT, filename)
    scratch = os.path.join(_ROOT, ".bench_scratch")
    os.makedirs(scratch, exist_ok=True)
    return os.path.join(scratch, filename)


@pytest.fixture(scope="session")
def bench_scale() -> str:
    """Dataset scale preset for the benchmark suite."""
    return os.environ.get("REPRO_BENCH_SCALE", "test")


def run_once(benchmark, fn, *args, **kwargs):
    """Run an experiment exactly once under pytest-benchmark."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1,
                              iterations=1)
