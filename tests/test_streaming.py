"""Tests for the continuous-pipeline subsystem (`repro.streaming`).

The load-bearing claim: a pipeline replaying a recorded delta stream in
micro-batches leaves *byte-identical* final state to the same chunks
applied by hand with sequential ``run_incremental`` calls — across all
host execution backends.  Everything else (sources, batchers, the
simulated clock, the experiment) is checked piecewise.
"""

from __future__ import annotations

import pytest

from repro.algorithms.pagerank import PageRank
from repro.algorithms.wordcount import WordCountMapper, WordCountReducer, reference_wordcount
from repro.common import serialization
from repro.common.errors import (
    DeltaDecodeError,
    ReproError,
    StreamError,
    StreamSourceError,
)
from repro.common.kvpair import delete, insert
from repro.datasets.graphs import mutate_web_graph, powerlaw_web_graph
from repro.datasets.text import zipf_tweets
from repro.incremental.api import delta_to_dfs_records, dfs_records_to_delta
from repro.inciter.engine import I2MREngine, I2MROptions
from repro.iterative.api import IterativeJob
from repro.mapreduce.job import JobConf
from repro.streaming import (
    ArrivedRecord,
    BackpressureBatcher,
    BatchOutcome,
    ByteBudgetBatcher,
    ContinuousPipeline,
    CountBatcher,
    DeltaSource,
    DFSTailSource,
    IterativeStreamConsumer,
    OneStepStreamConsumer,
    ReplaySource,
    StreamConsumer,
    SyntheticEvolvingSource,
    TimeWindowBatcher,
    delta_record_size,
    evolving_text_source,
    evolving_web_graph_source,
)
from repro.streaming.batching import BatchFeedback

from tests.conftest import fresh_cluster
from tests.test_inciter import poisoned_delta

# --------------------------------------------------------------------- #
# delta decoding (hardened error path)                                  #
# --------------------------------------------------------------------- #


class TestDeltaDecode:
    def test_roundtrip(self):
        delta = [insert(1, "a b"), insert(2, "c")]
        assert dfs_records_to_delta(delta_to_dfs_records(delta)) == delta

    def test_bad_op_tag_raises_library_error(self):
        with pytest.raises(DeltaDecodeError) as err:
            dfs_records_to_delta([(1, ("value", "!"))])
        assert "op tag" in str(err.value)
        assert err.value.record == (1, ("value", "!"))

    def test_bad_shape_raises_library_error(self):
        with pytest.raises(DeltaDecodeError):
            dfs_records_to_delta([(1, "not-a-pair-of-value-and-op")])
        with pytest.raises(DeltaDecodeError):
            dfs_records_to_delta([(1, ("value", "+", "extra"))])

    def test_decode_error_is_catchable_as_repro_error(self):
        with pytest.raises(ReproError):
            dfs_records_to_delta([(1, ("value", "insert"))])

    def test_two_char_string_payload_rejected(self):
        # 'a+' would unpack into ('a', '+') and fabricate a value.
        with pytest.raises(DeltaDecodeError):
            dfs_records_to_delta([(1, "a+")])


# --------------------------------------------------------------------- #
# sources                                                               #
# --------------------------------------------------------------------- #


class TestReplaySource:
    def test_arrivals_at_fixed_rate(self):
        records = [insert(i, i) for i in range(4)]
        events = list(ReplaySource(records, rate=2.0, start_s=10.0))
        assert [e.record for e in events] == records
        assert [e.arrival_s for e in events] == [10.0, 10.5, 11.0, 11.5]

    def test_bad_rate(self):
        with pytest.raises(StreamSourceError):
            ReplaySource([], rate=0.0)

    def test_yielded_records_are_released_and_the_schedule_continues(self):
        source = ReplaySource([insert(i, i) for i in range(3)], rate=2.0, start_s=10.0)
        first = list(source)
        assert [e.arrival_s for e in first] == [10.0, 10.5, 11.0]
        assert len(source.pending) == 0  # a drained source holds nothing
        assert list(source) == []  # and a new pass yields nothing twice

        source.extend([insert(i, i) for i in range(3, 5)])
        assert len(source.pending) == 2
        events = source.events()
        resumed = next(events)
        # record 3 arrives at start_s + 3 / rate: the index counts the
        # records already released, not the ones still held.
        assert (resumed.record, resumed.arrival_s) == (insert(3, 3), 11.5)
        assert len(source.pending) == 1  # released one by one, mid-pass too
        source.extend([insert(5, 5)])  # extending under an open pass
        assert [(e.record.key, e.arrival_s) for e in events] == [(4, 12.0), (5, 12.5)]
        assert len(source.pending) == 0


class TestDFSTailSource:
    def test_files_consumed_in_order_as_bursts(self):
        cluster, dfs = fresh_cluster()
        dfs.write("/d/b", delta_to_dfs_records([insert(2, "x")]))
        dfs.write("/d/a", delta_to_dfs_records([insert(1, "y"), insert(3, "z")]))
        source = DFSTailSource(dfs, "/d/", period_s=30.0, start_s=5.0)
        events = list(source)
        # path order: /d/a before /d/b, one burst per file.
        assert [e.record.key for e in events] == [1, 3, 2]
        assert [e.arrival_s for e in events] == [5.0, 5.0, 35.0]

    def test_tail_semantics_across_iterations(self):
        cluster, dfs = fresh_cluster()
        dfs.write("/d/0", delta_to_dfs_records([insert(0, "a")]))
        source = DFSTailSource(dfs, "/d/", period_s=10.0)
        assert [e.record.key for e in list(source)] == [0]
        dfs.write("/d/1", delta_to_dfs_records([insert(1, "b")]))
        assert [e.record.key for e in list(source)] == [1]  # only the new file

    def test_malformed_file_raises_decode_error(self):
        cluster, dfs = fresh_cluster()
        dfs.write("/d/bad", [(1, ("v", "?"))])
        with pytest.raises(DeltaDecodeError):
            list(DFSTailSource(dfs, "/d/"))


class TestSyntheticEvolvingSource:
    def test_generations_arrive_as_spaced_bursts(self):
        graph = powerlaw_web_graph(60, 4.0, seed=1)
        source = evolving_web_graph_source(
            graph, fraction=0.1, generations=3, period_s=50.0, seed=4
        )
        events = list(source)
        assert events, "mutation should produce records"
        arrivals = sorted({e.arrival_s for e in events})
        assert arrivals == [0.0, 50.0, 100.0]
        # The tracked dataset equals replaying the same seeded mutations.
        expected = graph
        for g in range(3):
            expected = mutate_web_graph(expected, 0.1, seed=4 + g).new_graph
        assert source.current_dataset.out_links == expected.out_links

    def test_mutator_without_new_dataset_attr_rejected(self):
        source = SyntheticEvolvingSource(
            dataset={}, mutate=lambda d, f, seed: object(),
            fraction=0.1, generations=1,
        )
        with pytest.raises(StreamSourceError):
            list(source)


# --------------------------------------------------------------------- #
# batching policies                                                     #
# --------------------------------------------------------------------- #


class TestBatchers:
    def test_count_batcher(self):
        policy = CountBatcher(3)
        assert not policy.should_close(2, 999, 0.0, 1.0, 10)
        assert policy.should_close(3, 0, 0.0, 1.0, 10)
        with pytest.raises(StreamError):
            CountBatcher(0)

    def test_byte_budget_batcher(self):
        policy = ByteBudgetBatcher(100)
        assert not policy.should_close(5, 60, 0.0, 1.0, 40)   # 60+40 == 100
        assert policy.should_close(5, 61, 0.0, 1.0, 40)       # would exceed

    def test_time_window_batcher(self):
        policy = TimeWindowBatcher(30.0)
        assert not policy.should_close(5, 0, 10.0, 39.9, 1)
        assert policy.should_close(5, 0, 10.0, 40.0, 1)

    def test_backpressure_grows_and_shrinks(self):
        policy = BackpressureBatcher(
            min_records=4, max_records=64, high_water=10, growth=2.0
        )
        assert policy.target == 4
        policy.observe(BatchFeedback(backlog_records=11, processing_s=1.0,
                                     num_records=4, latency_s=1.0))
        assert policy.target == 8
        policy.observe(BatchFeedback(backlog_records=50, processing_s=1.0,
                                     num_records=8, latency_s=1.0))
        assert policy.target == 16
        policy.observe(BatchFeedback(backlog_records=0, processing_s=1.0,
                                     num_records=16, latency_s=1.0))
        assert policy.target == 8
        # drained queues walk the target back down to the floor.
        for _ in range(5):
            policy.observe(BatchFeedback(backlog_records=0, processing_s=1.0,
                                         num_records=8, latency_s=1.0))
        assert policy.target == 4
        policy.reset()
        assert policy.target == 4

    def test_backpressure_respects_max(self):
        policy = BackpressureBatcher(min_records=4, max_records=10, high_water=0)
        for _ in range(5):
            policy.observe(BatchFeedback(backlog_records=1, processing_s=1.0,
                                         num_records=4, latency_s=1.0))
        assert policy.target == 10


# --------------------------------------------------------------------- #
# pipeline clock & metrics (stub consumer: exact arithmetic)            #
# --------------------------------------------------------------------- #


class _FixedCostConsumer(StreamConsumer):
    """Charges a fixed simulated processing time per batch."""

    def __init__(self, processing_s: float) -> None:
        self.processing_s = processing_s
        self.batches = []

    def process_batch(self, records):
        self.batches.append(list(records))
        return BatchOutcome(processing_s=self.processing_s)

    def state(self):
        return {}


class TestPipelineClock:
    def test_latency_wait_and_backlog_arithmetic(self):
        # 6 records, one per second from t=0; engine takes 2.5s per batch
        # of 2 -> it falls behind, later batches queue.
        records = [insert(i, i) for i in range(6)]
        source = ReplaySource(records, rate=1.0, start_s=0.0)
        consumer = _FixedCostConsumer(2.5)
        pipe = ContinuousPipeline(source, CountBatcher(2), consumer)
        result = pipe.run()

        assert [len(b) for b in consumer.batches] == [2, 2, 2]
        b0, b1, b2 = result.batches
        # Batch 0: records arrive at 0,1 -> starts at 1, done 3.5.
        assert (b0.ready_s, b0.start_s, b0.done_s) == (1.0, 1.0, 3.5)
        assert b0.wait_s == 0.0 and b0.latency_s == 3.5
        # At t=3.5 records 2,3 (t=2,3) already arrived -> backlog 2.
        assert b0.backlog_records == 2
        # Batch 1: ready at 3, engine free at 3.5 -> waits 0.5, done 6.0.
        assert (b1.ready_s, b1.start_s, b1.done_s) == (3.0, 3.5, 6.0)
        assert b1.wait_s == 0.5
        assert b1.latency_s == 6.0 - 2.0
        assert b1.backlog_records == 2  # records at t=4,5 arrived by 6.0
        # Batch 2 drains the stream.
        assert (b2.ready_s, b2.start_s, b2.done_s) == (5.0, 6.0, 8.5)
        assert b2.backlog_records == 0
        # Aggregates.
        assert result.num_batches == 3
        assert result.num_records == 6
        assert result.max_backlog == 2
        assert result.makespan_s == 8.5
        assert result.mean_latency_s == pytest.approx((3.5 + 4.0 + 4.5) / 3)

    def test_run_respects_max_batches_and_resumes(self):
        records = [insert(i, i) for i in range(6)]
        pipe = ContinuousPipeline(
            ReplaySource(records, rate=100.0), CountBatcher(2),
            _FixedCostConsumer(1.0),
        )
        first = pipe.run(max_batches=1)
        assert first.num_batches == 1
        total = pipe.run()
        assert total.num_batches == 3
        assert total is pipe.result

    def test_drained_replay_source_yields_no_duplicates(self):
        records = [insert(i, i) for i in range(4)]
        pipe = ContinuousPipeline(
            ReplaySource(records, rate=10.0), CountBatcher(2),
            _FixedCostConsumer(1.0),
        )
        assert pipe.run().num_batches == 2
        # A second run on the drained source must not replay anything.
        assert pipe.run().num_batches == 2
        # ...but records appended to the recording are picked up.
        pipe.source.extend([insert(9, 9)])
        assert pipe.run().num_batches == 3

    def test_tail_source_picks_up_files_between_runs(self):
        cluster, dfs = fresh_cluster()
        dfs.write("/d/0", delta_to_dfs_records([insert(0, "a"), insert(1, "b")]))
        consumer = _FixedCostConsumer(1.0)
        pipe = ContinuousPipeline(
            DFSTailSource(dfs, "/d/", period_s=10.0), CountBatcher(10), consumer
        )
        assert pipe.run().num_records == 2
        # A file written after the source drained reaches the next run.
        dfs.write("/d/1", delta_to_dfs_records([insert(2, "c")]))
        result = pipe.run()
        assert result.num_records == 3
        assert [r.key for r in consumer.batches[-1]] == [2]

    def test_byte_sizes_accounted(self):
        records = [insert(0, "abc"), insert(1, "defg")]
        pipe = ContinuousPipeline(
            ReplaySource(records, rate=1.0), CountBatcher(10),
            _FixedCostConsumer(1.0),
        )
        result = pipe.run()
        assert result.batches[0].num_bytes == sum(
            delta_record_size(r) for r in records
        )


# --------------------------------------------------------------------- #
# equivalence: micro-batched pipeline == sequential one-shot calls      #
# --------------------------------------------------------------------- #


def _recorded_web_deltas(graph, rounds=3, fraction=0.06, seed=50):
    records = []
    current = graph
    for g in range(rounds):
        delta = mutate_web_graph(current, fraction, seed=seed + g)
        records.extend(delta.records)
        current = delta.new_graph
    return records, current


def _pagerank_setup(executor=None):
    graph = powerlaw_web_graph(120, 5.0, seed=3)
    cluster, dfs = fresh_cluster()
    job = IterativeJob(PageRank(), graph, num_partitions=4,
                       max_iterations=60, epsilon=1e-6)
    options = I2MROptions(filter_threshold=0.001, max_iterations=25)
    consumer = IterativeStreamConsumer.from_initial(
        cluster, dfs, job, options, executor=executor
    )
    return graph, consumer, options


class TestPipelineEquivalence:
    BATCH = 9

    def _manual_state_bytes(self, graph, records):
        """Sequential one-shot run_incremental calls over the same chunks."""
        cluster, dfs = fresh_cluster()
        engine = I2MREngine(cluster, dfs)
        job = IterativeJob(PageRank(), graph, num_partitions=4,
                           max_iterations=60, epsilon=1e-6)
        _, prev = engine.run_initial(job)
        options = I2MROptions(filter_threshold=0.001, max_iterations=25)
        for i in range(0, len(records), self.BATCH):
            engine.run_incremental(
                IterativeJob(PageRank(), graph, num_partitions=4,
                             max_iterations=25),
                records[i:i + self.BATCH], prev, options,
            )
        encoded = serialization.encode(sorted(prev.state.items()))
        prev.cleanup()
        return encoded

    @pytest.mark.parametrize("executor", ["serial", "thread", "process"])
    def test_pagerank_byte_identical_across_executors(self, executor):
        graph, consumer, _ = _pagerank_setup(executor=executor)
        records, _ = _recorded_web_deltas(graph)
        expected = self._manual_state_bytes(graph, records)
        with ContinuousPipeline(
            ReplaySource(records, rate=2.0), CountBatcher(self.BATCH), consumer
        ) as pipe:
            result = pipe.run()
            streamed = serialization.encode(sorted(consumer.state().items()))
        assert streamed == expected
        assert result.num_records == len(records)

    def test_wordcount_one_step_pipeline(self):
        tweets = zipf_tweets(150, seed=5)
        cluster, dfs = fresh_cluster()
        dfs.write("/tweets", sorted(tweets.tweets.items()))
        conf = JobConf(name="wc", mapper=WordCountMapper,
                       reducer=WordCountReducer, inputs=["/tweets"],
                       output="/counts", num_reducers=3)
        consumer = OneStepStreamConsumer.from_initial(
            cluster, dfs, conf, accumulator=True
        )
        source = evolving_text_source(
            tweets, fraction=0.1, generations=3, period_s=60.0, seed=9
        )
        with ContinuousPipeline(source, CountBatcher(6), consumer) as pipe:
            pipe.run()
            streamed = consumer.state()
            final_docs = sorted(source.current_dataset.tweets.items())
            # The streamed accumulator equals a from-scratch recount.
            assert streamed == reference_wordcount(final_docs)
            # And the refreshed DFS output file agrees.
            assert dict(dfs.read_all("/counts")) == streamed
            # Per-batch staging files are scratch, not a leak.
            assert dfs.ls("/stream/delta") == []

    def test_dfs_tail_matches_replay(self):
        """Tailing staged delta files == replaying the recorded stream."""
        graph = powerlaw_web_graph(100, 5.0, seed=8)
        records, _ = _recorded_web_deltas(graph, rounds=2, seed=70)

        def run(source):
            cluster, dfs2 = fresh_cluster()
            job = IterativeJob(PageRank(), graph, num_partitions=4,
                               max_iterations=60, epsilon=1e-6)
            consumer = IterativeStreamConsumer.from_initial(
                cluster, dfs2, job, I2MROptions(max_iterations=25)
            )
            src = source(dfs2)
            with ContinuousPipeline(src, CountBatcher(11), consumer) as pipe:
                pipe.run()
                return serialization.encode(sorted(consumer.state().items()))

        def tail_source(dfs2):
            half = len(records) // 2
            dfs2.write("/deltas/0", delta_to_dfs_records(records[:half]))
            dfs2.write("/deltas/1", delta_to_dfs_records(records[half:]))
            return DFSTailSource(dfs2, "/deltas/")

        assert run(lambda dfs2: ReplaySource(records, rate=5.0)) == run(tail_source)


# --------------------------------------------------------------------- #
# fallback reporting (P-delta auto-off seen from the stream)            #
# --------------------------------------------------------------------- #


class TestFallbackReporting:
    def test_big_batch_trips_pdelta_autooff(self):
        graph = powerlaw_web_graph(80, 5.0, seed=2)
        cluster, dfs = fresh_cluster()
        job = IterativeJob(PageRank(), graph, num_partitions=4,
                           max_iterations=60, epsilon=1e-6)
        consumer = IterativeStreamConsumer.from_initial(
            cluster, dfs, job,
            I2MROptions(max_iterations=10, pdelta_threshold=0.05,
                        epsilon=1e-6),
        )
        # One huge batch touching most of the graph: P-delta explodes.
        delta = mutate_web_graph(graph, 0.9, seed=77)
        with ContinuousPipeline(
            ReplaySource(delta.records, rate=100.0),
            CountBatcher(10 ** 6), consumer,
        ) as pipe:
            result = pipe.run()
        assert result.num_batches == 1
        assert result.batches[0].fell_back
        assert result.num_fallbacks == 1


# --------------------------------------------------------------------- #
# the experiment                                                        #
# --------------------------------------------------------------------- #


class TestStreamLatencyExperiment:
    def test_full_sweep_shape(self):
        from repro.experiments.stream_latency import run_stream_latency

        result = run_stream_latency(scale="test")
        assert len(result.rows) == 12  # 3 workloads x 4 policies
        by_workload = {}
        for row in result.rows:
            by_workload.setdefault(row[0], []).append(row)
        assert set(by_workload) == {"pagerank", "kmeans", "wordcount"}
        # K-means replicates state: P-delta trips and batches fall back.
        assert all(row[7] > 0 for row in by_workload["kmeans"])
        # Fine-grain workloads never fall back at this change rate.
        assert all(row[7] == 0 for row in by_workload["pagerank"])
        assert all(row[7] == 0 for row in by_workload["wordcount"])
        # Latency is positive and batches cover the stream.
        assert all(row[4] > 0 for row in result.rows)

    def test_deterministic(self):
        from repro.experiments.stream_latency import run_stream_latency

        first = run_stream_latency(scale="test", workloads=("wordcount",))
        second = run_stream_latency(scale="test", workloads=("wordcount",))
        assert first.rows == second.rows


# --------------------------------------------------------------------- #
# misc API                                                              #
# --------------------------------------------------------------------- #


class TestMiscAPI:
    def test_delta_source_is_abstract(self):
        with pytest.raises(NotImplementedError):
            list(DeltaSource())

    def test_arrived_record_is_a_pair(self):
        item = ArrivedRecord(insert(1, "x"), 2.0)
        assert item.record.key == 1 and item.arrival_s == 2.0

    def test_top_level_exports(self):
        import repro

        assert repro.ContinuousPipeline is ContinuousPipeline
        assert repro.DFSTailSource is DFSTailSource


# --------------------------------------------------------------------- #
# resilience: retry-then-dead-letter                                    #
# --------------------------------------------------------------------- #


class _FlakyConsumer(StreamConsumer):
    """Fixed-cost consumer that fails scripted batches.

    ``fail_plan`` maps a batch ordinal (0-based, counting each distinct
    batch once) to how many attempts should fail before one succeeds;
    ``None`` means every attempt fails (a poison batch).
    """

    def __init__(self, processing_s: float, fail_plan: dict):
        self.processing_s = processing_s
        self.fail_plan = dict(fail_plan)
        self.batches = []
        self.attempts: dict = {}
        self._ordinal = -1
        self._last_key = None

    def process_batch(self, records):
        key = tuple(r.key for r in records)
        if key != self._last_key:
            self._last_key = key
            self._ordinal += 1
        ordinal = self._ordinal
        self.attempts[ordinal] = self.attempts.get(ordinal, 0) + 1
        budget = self.fail_plan.get(ordinal, 0)
        if budget is None or self.attempts[ordinal] <= budget:
            raise StreamError(f"batch {ordinal} attempt {self.attempts[ordinal]}")
        self.batches.append(list(records))
        return BatchOutcome(processing_s=self.processing_s)

    def state(self):
        return {}


class TestPipelineResilience:
    def _run(self, fail_plan, batch_retries, num_records=6):
        records = [insert(i, i) for i in range(num_records)]
        consumer = _FlakyConsumer(1.0, fail_plan)
        pipe = ContinuousPipeline(
            ReplaySource(records, rate=100.0),
            CountBatcher(2),
            consumer,
            batch_retries=batch_retries,
        )
        return pipe, pipe.run(), consumer

    def test_transient_consumer_failure_is_retried(self):
        pipe, result, consumer = self._run({1: 2}, batch_retries=3)
        assert [len(b) for b in consumer.batches] == [2, 2, 2]
        flaky = result.batches[1]
        assert flaky.retries == 2
        assert flaky.failures == 2
        assert not flaky.dead_lettered
        assert flaky.retry_backoff_s > 0.0
        assert flaky.done_s == flaky.start_s + flaky.retry_backoff_s + 1.0
        clean = result.batches[0]
        assert clean.retries == 0 and clean.retry_backoff_s == 0.0
        assert result.num_retries == 2
        assert result.num_failures == 2
        assert result.num_dead_lettered == 0
        assert pipe.dead_letters == []

    def test_poison_batch_is_dead_lettered_and_stream_survives(self):
        pipe, result, consumer = self._run({1: None}, batch_retries=2)
        # The poison batch was skipped; batches 0 and 2 still processed.
        assert [len(b) for b in consumer.batches] == [2, 2]
        poison = result.batches[1]
        assert poison.dead_lettered
        assert poison.processing_s == 0.0
        assert poison.failures == 3      # 1 first attempt + 2 retries
        assert poison.retries == 2
        assert poison.retry_backoff_s > 0.0
        assert len(pipe.dead_letters) == 1
        letter = pipe.dead_letters[0]
        assert letter.batch_index == 1
        assert letter.attempts == 3
        assert "StreamError" in letter.cause
        assert result.num_dead_lettered == 1
        # The stream's clock kept moving past the poison batch.
        assert result.batches[2].done_s > poison.done_s

    def test_fail_fast_without_retry_budget(self):
        with pytest.raises(StreamError, match="batch 1 attempt 1"):
            self._run({1: 1}, batch_retries=0)

    def test_fault_free_metrics_identical_with_and_without_budget(self):
        _, fail_fast, _ = self._run({}, batch_retries=0)
        _, resilient, _ = self._run({}, batch_retries=5)
        assert fail_fast.batches == resilient.batches

    def test_retry_backoff_is_deterministic(self):
        _, first, _ = self._run({0: 1, 2: 2}, batch_retries=3)
        _, second, _ = self._run({0: 1, 2: 2}, batch_retries=3)
        assert [b.retry_backoff_s for b in first.batches] == [
            b.retry_backoff_s for b in second.batches
        ]
        assert [b.done_s for b in first.batches] == [b.done_s for b in second.batches]

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError, match="batch_retries"):
            ContinuousPipeline(
                ReplaySource([], rate=1.0), CountBatcher(2),
                _FlakyConsumer(1.0, {}), batch_retries=-1,
            )


class TestPoisonStructureDelta:
    """A structure delta the engine refuses (it deletes an absent pair)
    is dead-lettered without having half-applied itself, so the batches
    behind it refresh exactly as if it had never arrived."""

    BATCH = 3

    def _stream(self, records, batch_retries):
        graph, consumer, _ = _pagerank_setup()
        pipe = ContinuousPipeline(
            ReplaySource(records, rate=50.0), CountBatcher(self.BATCH), consumer,
            batch_retries=batch_retries,
        )
        with pipe:
            result = pipe.run()
            state = serialization.encode(sorted(consumer.state().items()))
            parts = consumer.prev.parts
        return pipe, result, state, parts

    def test_poison_batch_is_dead_lettered_once_and_leaves_no_trace(self):
        graph, probe, _ = _pagerank_setup()
        poison, absent = poisoned_delta(probe.prev.parts, probe.job.algorithm)
        probe.close()
        good, _ = _recorded_web_deltas(graph, rounds=1)
        good = good[: 4 * self.BATCH]

        pipe, result, state, parts = self._stream(poison + good, batch_retries=2)
        _, clean, clean_state, clean_parts = self._stream(good, batch_retries=2)

        assert [b.dead_lettered for b in result.batches] == [True] + [False] * 4
        (letter,) = pipe.dead_letters
        assert letter.batch_index == 0 and letter.attempts == 3
        # Every attempt stopped at the poison record — none at a record an
        # earlier attempt had already applied.
        assert "JobError" in letter.cause and str(absent) in letter.cause
        assert state == clean_state
        assert parts == clean_parts
        assert [b.processing_s for b in result.batches[1:]] == [
            b.processing_s for b in clean.batches
        ]
        assert [b.iterations for b in result.batches[1:]] == [
            b.iterations for b in clean.batches
        ]


# --------------------------------------------------------------------- #
# map-task accounting: what each batch scheduled                        #
# --------------------------------------------------------------------- #


class TestDeltaNetting:
    def test_real_batch_reports_scheduled_map_tasks(self):
        graph, consumer, _ = _pagerank_setup()
        records, _ = _recorded_web_deltas(graph, rounds=1)
        with ContinuousPipeline(
            ReplaySource(records, rate=100.0),
            CountBatcher(len(records)),
            consumer,
        ) as pipe:
            result = pipe.run()
        assert result.num_batches == 1
        assert result.batches[0].map_tasks > 0
        assert result.total_map_tasks == result.batches[0].map_tasks

    def test_netting_off_by_default_still_processes_noop_batch(self):
        graph, consumer, _ = _pagerank_setup()
        noop = [insert(999, ((1,), "")), delete(999, ((1,), ""))]
        outcome = consumer.process_batch(noop)
        # The engine runs (and charges startup time) even though the
        # delta is a logical no-op.
        assert outcome.processing_s > 0.0
        consumer.close()
