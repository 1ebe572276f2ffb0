"""Differential tests of the fold-once accumulator refresh (§3.5).

An accumulator refresh (``IncrMREngine._run_incremental_accumulator``)
folds each map task's ``K2 -> [V2]`` spill straight into the preserved
outputs when the refresh's keys are one groupable class, and otherwise
keeps the sorted merge.  This module keeps the sort-merge refresh that
design replaced as a *reference* — :class:`ReferenceEngine` below — and
requires that, for every input, both leave the same ``acc_outputs`` (by
``repr``, in insertion order, so float sums must agree bit for bit), the
same counters and stage times, and the same DFS output blocks.
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import Any, List, Tuple
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.incremental.engine as engine_module
from repro.cluster.cluster import Cluster
from repro.cluster.metrics import JobMetrics
from repro.common.errors import InvalidJobConf, JobError
from repro.common.kvpair import Op, group_sorted, insert, merge_sorted_runs, sort_key
from repro.common.sizeof import record_size
from repro.dfs.filesystem import DistributedFS
from repro.incremental.api import (
    AccumulatorReducer,
    AvgPartialReducer,
    MaxReducer,
    MinReducer,
    SumReducer,
    delta_to_dfs_records,
)
from repro.incremental.engine import IncrMREngine
from repro.mapreduce.api import Mapper
from repro.mapreduce.job import JobConf, JobResult

# --------------------------------------------------------------------- #
# the reference: the sort-merge accumulator refresh                     #
# --------------------------------------------------------------------- #


class ReferenceEngine(IncrMREngine):
    """The accumulator refresh as a sorted merge, one group at a time."""

    def _run_incremental_accumulator(self, jobconf, delta_path, state):
        cost = self.cluster.cost_model
        if not isinstance(jobconf.reducer(), AccumulatorReducer):
            raise InvalidJobConf("preserved state is accumulator mode")
        plain_records: List[Tuple[Any, Any]] = []
        for k1, (v1, op) in self.dfs.read(delta_path):
            if op != Op.INSERT.value:
                raise JobError("insert-only delta")
            plain_records.append((k1, v1))
        staging = f"{delta_path}.plain"
        self.dfs.write(staging, plain_records, overwrite=True)
        splits = self.splits_for_inputs([staging])
        map_result = self.map_phase(replace(jobconf, inputs=[staging]), splits)

        metrics = JobMetrics()
        metrics.times.startup = cost.job_startup_s
        metrics.times.map = map_result.elapsed_s
        metrics.counters.merge(map_result.counters)
        workers = self.cluster.num_workers
        shuffle_loads = [0.0] * workers
        sort_loads = [0.0] * workers
        reduce_loads = [0.0] * workers
        changed_output_bytes = 0
        for part in range(jobconf.num_reducers):
            worker = self.reduce_worker(part)
            runs = []
            fetch_s = 0.0
            for task in map_result.tasks:
                pairs = task.partitions.get(part)
                if not pairs:
                    continue
                nbytes = task.partition_bytes.get(part, 0)
                if task.worker == worker:
                    fetch_s += cost.disk_read_time(nbytes)
                else:
                    fetch_s += cost.net_time(nbytes)
                    metrics.counters.add("shuffle_net_bytes", nbytes)
                metrics.counters.add("shuffle_bytes", nbytes)
                runs.append(pairs)
            shuffle_loads[worker] += fetch_s
            if not runs:
                continue
            merged = merge_sorted_runs(runs)
            sort_loads[worker] += cost.sort_time(len(merged))
            reducer = jobconf.reducer()
            groups = 0
            for k2, values in group_sorted(merged):
                acc = values[0]
                for value in values[1:]:
                    acc = reducer.accumulate(acc, value)
                old = state.acc_outputs.get(k2)
                new = acc if old is None else reducer.accumulate(old, acc)
                state.acc_outputs[k2] = new
                changed_output_bytes += record_size(k2, new)
                groups += 1
            metrics.counters.add("affected_reduce_instances", groups)
            reduce_loads[worker] += cost.cpu_time(len(merged), reducer.cpu_weight)
        metrics.times.shuffle = max(shuffle_loads)
        metrics.times.sort = max(sort_loads)
        metrics.times.reduce = max(reduce_loads) + cost.disk_write_time(changed_output_bytes)
        metrics.counters.add("changed_output_bytes", changed_output_bytes)
        output = sorted(state.acc_outputs.items(), key=lambda kv: sort_key(kv[0]))
        self.dfs.write(jobconf.output, output, overwrite=True)
        return JobResult(output=jobconf.output, metrics=metrics)


# --------------------------------------------------------------------- #
# workloads                                                             #
# --------------------------------------------------------------------- #


class PairsMapper(Mapper):
    """Emits every ``(K2, V2)`` of a record's value list as it stands."""

    def map(self, key, pairs, ctx):
        for k2, v2 in pairs:
            ctx.emit(k2, v2)


REDUCERS = {
    "sum": SumReducer,
    "max": MaxReducer,
    "min": MinReducer,
    "avg": AvgPartialReducer,
}

_FLOATS = st.floats(allow_nan=True, allow_infinity=False, width=64)


def _value(reducer: str):
    if reducer == "avg":
        return st.tuples(_FLOATS, st.integers(0, 3))
    if reducer == "sum":
        return _FLOATS
    # max/min compare; NaN is fine (the fold order is what is under test).
    return st.one_of(_FLOATS, st.sampled_from([math.nan, -0.0, 0.0]))


#: Key strategies whose refreshes fold.
FOLD_KEYS = {
    "str": st.text(max_size=3),
    "int": st.integers(-4, 4),
    "bytes": st.binary(max_size=2),
    "tuple": st.tuples(st.integers(0, 3), st.sampled_from(["a", "b", "é"])),
}

#: Key strategies whose refreshes keep the sorted merge (but an all-int draw folds).
FALLBACK_KEYS = {
    "float": st.sampled_from([0.0, -0.0, 1.5, 2.0, math.nan]),
    "mixed_numbers": st.sampled_from([1, 1.0, True, 0, False, 0.0]),
}


@st.composite
def scenario(draw, keys):
    """An initial input, one or two insert-only deltas, a reducer and sizes."""
    reducer = draw(st.sampled_from(sorted(REDUCERS)))
    pair = st.tuples(keys, _value(reducer))
    record = st.lists(pair, min_size=0, max_size=6)
    initial = draw(st.lists(record, min_size=1, max_size=12))
    deltas = draw(st.lists(st.lists(record, min_size=1, max_size=30), min_size=1, max_size=2))
    return {
        "reducer": reducer,
        "initial": initial,
        "deltas": deltas,
        "num_reducers": draw(st.sampled_from([1, 4])),
        # 1 byte: every record its own block (one map task per record).
        "block_size": draw(st.sampled_from([1, 96, 1 << 20])),
    }


def run_scenario(engine_cls, case, executor="serial", spy=None):
    """Initial run + every delta; everything a refresh leaves behind."""
    cluster = Cluster(num_workers=3, seed=11)
    dfs = DistributedFS(cluster, block_size=case["block_size"])
    engine = engine_cls(cluster, dfs)
    conf = JobConf(
        name="fold", mapper=PairsMapper, reducer=REDUCERS[case["reducer"]],
        inputs=["/in"], output="/out", num_reducers=case["num_reducers"],
        executor=executor, max_workers=2,
    )
    dfs.write("/in", list(enumerate(case["initial"])))
    _, state = engine.run_initial(conf, accumulator=True, num_shards=1)
    seen = []
    try:
        next_key = len(case["initial"])
        for delta in case["deltas"]:
            records = [insert(next_key + i, pairs) for i, pairs in enumerate(delta)]
            next_key += len(delta)
            dfs.write("/delta", delta_to_dfs_records(records), overwrite=True)
            result = engine.run_incremental(conf, "/delta", state)
            if spy is not None:
                spy.end_refresh()
            seen.append({
                "acc_outputs": repr(list(state.acc_outputs.items())),
                "times": repr(result.metrics.times.as_dict()),
                "counters": result.metrics.counters.as_dict(),
                "blocks": [
                    (b.block_id, repr(b.records), b.size_bytes, b.locations)
                    for path in ("/out", "/delta.plain")
                    for b in dfs.file(path).blocks
                ],
            })
    finally:
        state.cleanup()
        engine.close()
    return seen


class PathSpy:
    """Records which fold each refresh took (patched in, never with
    ``monkeypatch``: it is entered inside ``@given``)."""

    def __init__(self):
        self.refreshes = []
        self._current = set()

    def end_refresh(self):
        self.refreshes.append(self._current)
        self._current = set()

    def _spying(self, name, real):
        def spy(*args):
            self._current.add(name)
            return real(*args)

        return mock.patch.object(engine_module, name, spy)

    def __enter__(self):
        self._patches = [
            self._spying(name, getattr(engine_module, name))
            for name in ("_fold_groups", "_fold_sorted")
        ]
        for patch in self._patches:
            patch.start()
        return self

    def __exit__(self, *exc_info):
        for patch in self._patches:
            patch.stop()


def groupable(keys) -> bool:
    """The fold's precondition, restated: one class of ``int``/``str``/
    ``bytes``, or same-arity tuples whose positions are each groupable."""
    kinds = {type(key) for key in keys}
    if len(kinds) <= 1 and kinds <= {int, str, bytes}:
        return True
    if kinds == {tuple} and len({len(key) for key in keys}) == 1:
        return all(groupable([key[j] for key in keys]) for j in range(len(keys[0])))
    return False


def expected_paths(case):
    """Per refresh: the fold it must take (none for an empty map output)."""
    paths = []
    for delta in case["deltas"]:
        keys = [k2 for pairs in delta for k2, _ in pairs]
        if not keys:
            paths.append(set())
        else:
            paths.append({"_fold_groups" if groupable(keys) else "_fold_sorted"})
    return paths


def check(case, executor="serial"):
    """Refresh under both engines: same outputs, and the expected path."""
    expected = run_scenario(ReferenceEngine, case, executor)
    with PathSpy() as spy:
        actual = run_scenario(IncrMREngine, case, executor, spy)
    assert actual == expected
    assert spy.refreshes == expected_paths(case)
    return spy.refreshes


# --------------------------------------------------------------------- #
# the differential properties                                           #
# --------------------------------------------------------------------- #

_SETTINGS = dict(deadline=None, suppress_health_check=[HealthCheck.too_slow])


@pytest.mark.parametrize("kind", sorted(FOLD_KEYS))
@given(data=st.data())
@settings(max_examples=40, **_SETTINGS)
def test_fold_path_matches_the_sorted_merge(kind, data):
    check(data.draw(scenario(FOLD_KEYS[kind])))


@pytest.mark.parametrize("kind", sorted(FALLBACK_KEYS))
@given(data=st.data())
@settings(max_examples=40, **_SETTINGS)
def test_ungroupable_keys_keep_the_sorted_merge(kind, data):
    check(data.draw(scenario(FALLBACK_KEYS[kind])))


@given(case=scenario(st.one_of(st.integers(0, 3), st.sampled_from(["a", "b"]))))
@settings(max_examples=40, **_SETTINGS)
def test_mixed_class_refreshes_keep_the_sorted_merge(case):
    check(case)


def test_tasks_of_different_key_classes_fall_back_as_a_whole():
    """Every task's keys group on their own; together they do not."""
    case = {
        "reducer": "sum", "num_reducers": 4, "block_size": 1,
        "initial": [[("a", 0.1)]],
        "deltas": [[[(1, 0.25), (2, 0.5)], [("a", 0.1), ("b", 0.7)], [(1, 1e-17)]]],
    }
    assert check(case) == [{"_fold_sorted"}]


def test_float_sums_agree_bit_for_bit():
    """Values whose sum depends on the fold order (no compensated sum)."""
    case = {
        "reducer": "sum", "num_reducers": 1, "block_size": 1,
        "initial": [[("k", 1e16)]],
        "deltas": [[[("k", 1.0)], [("k", 1.0), ("k", -1e16)], [("k", 0.1)]]],
    }
    assert check(case) == [{"_fold_groups"}]


@pytest.mark.parametrize("executor", ["thread", "process"])
@given(data=st.data())
@settings(max_examples=6, **_SETTINGS)
def test_backends_match_the_sorted_merge(executor, data):
    kind = data.draw(st.sampled_from(sorted(FOLD_KEYS) + sorted(FALLBACK_KEYS)))
    keys = {**FOLD_KEYS, **FALLBACK_KEYS}[kind]
    check(data.draw(scenario(keys)), executor)
