"""Tests for the vanilla MapReduce engine."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.metrics import Counters
from repro.common.errors import InvalidJobConf, JobError, PartitionOutOfRange
from repro.common.hashing import partition_for
from repro.common.kvpair import group_sorted, merge_sorted_runs, sort_key, sort_records
from repro.common.sizeof import record_size
from repro.mapreduce.api import Context, IdentityMapper, IdentityReducer, Mapper, Reducer
from repro.mapreduce.engine import MapReduceEngine, partition_and_sort
from repro.mapreduce.job import JobConf
from tests.test_kvpair import exact, keyed_records, reference_merge


class TokenMapper(Mapper):
    def map(self, key, text, ctx):
        for word in text.split():
            ctx.emit(word, 1)


class SumRed(Reducer):
    def reduce(self, key, values, ctx):
        ctx.emit(key, sum(values))


def wordcount_conf(num_reducers=3, combiner=None):
    return JobConf(
        name="wc",
        mapper=TokenMapper,
        reducer=SumRed,
        inputs=["/in"],
        output="/out",
        num_reducers=num_reducers,
        combiner=combiner,
    )


class TestWordCount:
    def test_correct_counts(self, cluster, dfs):
        dfs.write("/in", [(i, "a b c a") for i in range(40)])
        result = MapReduceEngine(cluster, dfs).run(wordcount_conf())
        assert dict(dfs.read("/out")) == {"a": 80, "b": 40, "c": 40}
        assert result.total_time > 0

    def test_output_sorted_within_partitions(self, cluster, dfs):
        dfs.write("/in", [(0, "z y x w v u")])
        MapReduceEngine(cluster, dfs).run(wordcount_conf(num_reducers=1))
        keys = [k for k, _ in dfs.read("/out")]
        assert keys == sorted(keys)

    def test_multiple_inputs(self, cluster, dfs):
        dfs.write("/in", [(0, "a")])
        dfs.write("/in2", [(1, "a b")])
        conf = wordcount_conf()
        conf = JobConf(
            name="wc2", mapper=TokenMapper, reducer=SumRed,
            inputs=["/in", "/in2"], output="/out", num_reducers=2,
        )
        MapReduceEngine(cluster, dfs).run(conf)
        assert dict(dfs.read("/out")) == {"a": 2, "b": 1}

    def test_combiner_reduces_shuffle_volume(self, cluster, dfs):
        dfs.write("/in", [(i, "a a a a b") for i in range(50)])
        engine = MapReduceEngine(cluster, dfs)
        plain = engine.run(wordcount_conf())
        combined = engine.run(
            JobConf(name="wc-c", mapper=TokenMapper, reducer=SumRed,
                    inputs=["/in"], output="/out2", num_reducers=3,
                    combiner=SumRed)
        )
        assert dict(dfs.read("/out2")) == dict(dfs.read("/out"))
        assert combined.metrics.counters.get("shuffle_bytes") < (
            plain.metrics.counters.get("shuffle_bytes")
        )


class TestIdentityPipeline:
    def test_identity_preserves_multiset(self, cluster, dfs):
        records = [(i % 5, i) for i in range(30)]
        dfs.write("/in", records)
        conf = JobConf(name="id", mapper=IdentityMapper, reducer=IdentityReducer,
                       inputs=["/in"], output="/out", num_reducers=4)
        MapReduceEngine(cluster, dfs).run(conf)
        assert sorted(dfs.read_all("/out")) == sorted(records)


class TestMetrics:
    def test_stage_times_populated(self, cluster, dfs):
        dfs.write("/in", [(i, "a b") for i in range(100)])
        result = MapReduceEngine(cluster, dfs).run(wordcount_conf())
        times = result.metrics.times
        assert times.startup == pytest.approx(cluster.cost_model.job_startup_s)
        assert times.map > 0
        assert times.shuffle > 0
        assert times.reduce > 0

    def test_charge_startup_flag(self, cluster, dfs):
        dfs.write("/in", [(0, "a")])
        result = MapReduceEngine(cluster, dfs).run(
            wordcount_conf(), charge_startup=False
        )
        assert result.metrics.times.startup == 0.0

    def test_record_counters(self, cluster, dfs):
        dfs.write("/in", [(i, "a b c") for i in range(10)])
        result = MapReduceEngine(cluster, dfs).run(wordcount_conf())
        counters = result.metrics.counters
        assert counters.get("map_input_records") == 10
        assert counters.get("map_output_records") == 30
        assert counters.get("reduce_input_records") == 30
        assert counters.get("reduce_output_records") == 3

    def test_determinism(self, dfs, cluster):
        dfs.write("/in", [(i, "a b c a") for i in range(40)])
        engine = MapReduceEngine(cluster, dfs)
        t1 = engine.run(wordcount_conf()).total_time
        t2 = engine.run(wordcount_conf()).total_time
        assert t1 == pytest.approx(t2)


class TestContext:
    def test_take_drains(self):
        ctx = Context()
        ctx.emit("a", 1)
        assert ctx.take() == [("a", 1)]
        assert ctx.take() == []

    def test_counters_available(self):
        ctx = Context()
        ctx.counters.add("seen")
        assert ctx.counters.get("seen") == 1


class TestValidation:
    def test_empty_name(self):
        conf = wordcount_conf()
        conf.name = ""
        with pytest.raises(InvalidJobConf):
            conf.validate()

    def test_no_inputs(self):
        conf = wordcount_conf()
        conf.inputs = []
        with pytest.raises(InvalidJobConf):
            conf.validate()

    def test_bad_reducer_count(self):
        conf = wordcount_conf()
        conf.num_reducers = 0
        with pytest.raises(InvalidJobConf):
            conf.validate()

    def test_non_callable_mapper(self):
        conf = wordcount_conf()
        conf.mapper = "not-a-factory"
        with pytest.raises(InvalidJobConf):
            conf.validate()


class TestLocalityAccounting:
    def test_remote_reads_counted_when_unavoidable(self):
        from tests.conftest import fresh_cluster

        # One worker holds every replica: with several workers, some map
        # tasks must read remotely or queue; either way the job finishes
        # and counters stay consistent.
        cluster, dfs = fresh_cluster(num_workers=8, seed=3)
        dfs.write("/in", [(i, "word " * 20) for i in range(200)])
        result = MapReduceEngine(cluster, dfs).run(wordcount_conf())
        assert dict(dfs.read("/out"))["word"] == 4000


# ---------------------------------------------------------------------- #
# map-side spill: differential against the per-record reference          #
# ---------------------------------------------------------------------- #


class FirstAndCount(Reducer):
    """Combiner whose output shows the order values reached it in."""

    def reduce(self, key, values, ctx):
        ctx.emit(key, (values[0], len(values)))


def repr_partitioner(key, n):
    """Pure in ``(key, n)`` yet tells ``1``, ``1.0`` and ``True`` apart."""
    return len(repr(key)) % n


def reference_partition_and_sort(emitted, num_reducers, partitioner, combiner_factory, counters):
    """The spill as it ran before grouping: everything once per record."""
    partitions = {}
    for key, value in emitted:
        partitions.setdefault(partitioner(key, num_reducers), []).append((key, value))
    partition_bytes = {}
    for part, pairs in partitions.items():
        pairs = sorted(pairs, key=lambda rec: sort_key(rec[0]))
        if combiner_factory is not None:
            combiner, ctx = combiner_factory(), Context()
            for key, values in group_sorted(pairs):
                combiner.reduce(key, values, ctx)
            counters.add("combine_input_records", len(pairs))
            pairs = sorted(ctx.take(), key=lambda rec: sort_key(rec[0]))
            counters.add("combine_output_records", len(pairs))
        partitions[part] = pairs
        partition_bytes[part] = sum(record_size(k, v) for k, v in pairs)
    return partitions, partition_bytes


def assert_spill_matches_reference(emitted, num_reducers, partitioner, combiner):
    counters, ref_counters = Counters(), Counters()
    got = partition_and_sort(list(emitted), num_reducers, partitioner, combiner, counters)
    want = reference_partition_and_sort(
        emitted, num_reducers, partitioner, combiner, ref_counters
    )
    assert got == want
    # lists, partition order and byte counts, with 1 / 1.0 / True told apart.
    assert exact(got) == exact(want)
    assert counters.as_dict() == ref_counters.as_dict()
    return got


_NAN = float("nan")
SPILL_CASES = dict(keyed_records())
SPILL_CASES["nan_keys"] = [(key, i) for i, key in enumerate([_NAN, 1.0, _NAN, 0.5, _NAN])]
# a value mix no single scalar class covers, on groupable keys.
SPILL_CASES["mixed_values"] = [
    ("k%d" % (i % 5), value)
    for i, value in enumerate([1, 2.5, "text", None, True, (1, "t"), [1, 2], b"b", "é"] * 3)
]


class TestPartitionAndSort:
    @pytest.mark.parametrize("case", sorted(SPILL_CASES))
    @pytest.mark.parametrize("combiner", [None, FirstAndCount], ids=["plain", "combiner"])
    @pytest.mark.parametrize(
        "partitioner", [partition_for, repr_partitioner], ids=["hash", "custom"]
    )
    def test_matches_per_record_reference(self, case, combiner, partitioner):
        for num_reducers in (1, 4):
            assert_spill_matches_reference(
                SPILL_CASES[case], num_reducers, partitioner, combiner
            )

    def test_values_of_one_key_stay_in_arrival_order(self):
        emitted = [("a", 3), ("b", 0), ("a", 1), ("a", 2), ("b", 9)]
        partitions, _ = partition_and_sort(emitted, 1, partition_for, None, Counters())
        assert partitions == {0: [("a", 3), ("a", 1), ("a", 2), ("b", 0), ("b", 9)]}

    def test_spill_then_merge_is_the_heap_merge(self):
        records = SPILL_CASES["strings"]
        spills = [
            partition_and_sort(records[i::3], 2, partition_for, None, Counters())[0]
            for i in range(3)
        ]
        for part in range(2):
            runs = [spill[part] for spill in spills if part in spill]
            assert merge_sorted_runs(runs) == reference_merge(runs)

    @pytest.mark.parametrize("bad", [lambda key, n: n, lambda key, n: -1])
    def test_partitioner_outside_range_is_loud(self, bad):
        for emitted in ([("a", 1), ("b", 2)], [(0.5, 1), (None, 2)]):  # grouped, per record
            with pytest.raises(PartitionOutOfRange) as err:
                partition_and_sort(emitted, 3, bad, None, Counters())
            assert isinstance(err.value, JobError)
            assert err.value.key == emitted[0][0]
            assert err.value.partition == bad(None, 3)
            assert err.value.num_partitions == 3
            assert repr(emitted[0][0]) in str(err.value)

    def test_job_with_a_bad_partitioner_fails_instead_of_losing_records(self, cluster, dfs):
        dfs.write("/in", [(i, i) for i in range(10)])
        conf = JobConf(name="bad", mapper=IdentityMapper, reducer=IdentityReducer,
                       inputs=["/in"], output="/out", num_reducers=2,
                       partitioner=lambda key, n: n if key == 7 else key % n)
        with pytest.raises(JobError, match=r"PartitionOutOfRange.*key 7 .*partition 2"):
            MapReduceEngine(cluster, dfs).run(conf)


#: Key types with a total order (no NaN): both helpers must match exactly.
_ORDERED_KEYS = [
    st.integers(min_value=-3, max_value=3),
    st.text(alphabet="abé", max_size=2),
    st.binary(max_size=2),
    st.floats(allow_nan=False, width=16),
    st.one_of(st.integers(0, 2), st.floats(0, 2, width=16), st.booleans(), st.none()),
    st.tuples(st.integers(0, 2), st.text(alphabet="ab", max_size=1)),
    st.tuples(st.one_of(st.integers(0, 1), st.floats(0, 1, width=16)), st.just("a")),
    st.lists(st.integers(0, 1), max_size=2).map(tuple),
]
#: NaN keys take the spill's per-record path, which is the reference's sort.
_SPILL_KEYS = _ORDERED_KEYS + [st.floats(allow_nan=True, width=16)]


def _records_of(key_strategies):
    """Draw one key strategy, then a list of ``(key, value)`` from it."""
    return st.sampled_from(key_strategies).flatmap(
        lambda keys: st.lists(st.tuples(keys, st.integers(0, 99)), max_size=40)
    )


@given(
    emitted=_records_of(_SPILL_KEYS),
    num_reducers=st.integers(1, 4),
    combine=st.booleans(),
    custom=st.booleans(),
)
@settings(max_examples=150, deadline=None)
def test_spill_matches_reference_for_drawn_key_types(emitted, num_reducers, combine, custom):
    assert_spill_matches_reference(
        emitted,
        num_reducers,
        repr_partitioner if custom else partition_for,
        FirstAndCount if combine else None,
    )


@given(records=_records_of(_ORDERED_KEYS), num_runs=st.integers(1, 5))
@settings(max_examples=150, deadline=None)
def test_merge_matches_heap_for_drawn_key_types(records, num_runs):
    runs = [sort_records(records[i::num_runs]) for i in range(num_runs)]
    assert exact(merge_sorted_runs(runs)) == exact(reference_merge(runs))
