"""Seeded, pure input generators and the frozen sizes of the four workloads.

Everything the system under test receives comes from here and is a pure
function of ``(size, seed, unit)``: the same seed gives the same graph,
deltas, tweets, key order and query stream; another seed changes all of
them together.  Nothing in this module touches the engines, the clock or
the filesystem.

A *unit* is one turn of the ROADMAP scenario — delta in → incremental
refresh → epoch publish → query burst.  Units ``0 .. warmup-1`` warm the
system up inside set-up; measured units follow.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Dict, List, Sequence, Tuple

import numpy as np

from repro.common.kvpair import DeltaRecord, Op, insert
from repro.datasets.graphs import GraphDelta, WebGraph, mutate_web_graph, powerlaw_web_graph
from repro.datasets.text import zipf_tweets
from repro.mrbgraph import DeltaEdge
from repro.serving import QueryMix

#: Warm-up units run (and timed) inside every set-up.
WARMUP_UNITS = 1

#: The workloads, in reporting order, and why each exists.
WORKLOADS: Dict[str, str] = {
    "pagerank_e2e": (
        "paper headline (Fig 8): streaming incremental PageRank, serial, 1 shard; "
        "MRBG-Store merge dominates the refresh; point-heavy queries on int keys"
    ),
    "pagerank_par": (
        "same inputs as pagerank_e2e on the process backend with 4 store shards; only "
        "workload where execution, resilience and shard fan-out do real work"
    ),
    "wordcount_accum": (
        "one-step accumulator path (paper 3.5) bypasses the MRBG-Store; shuffle, hash "
        "and sizeof dominate; scan-heavy queries on string keys"
    ),
    "store_maintain": (
        "sharded MRBG-Store alone: merge, kill, WAL recovery, compaction, index flush, "
        "random reads; engines and serving bypassed"
    ),
}


@dataclass(frozen=True)
class PageRankSize:
    """Sizing of the two PageRank workloads."""

    vertices: int
    avg_out_degree: float
    #: share of vertex records each unit's delta rewrites.
    fraction: float
    queries: int


@dataclass(frozen=True)
class WordCountSize:
    """Sizing of ``wordcount_accum``."""

    tweets: int
    vocab: int
    #: fresh tweets inserted per unit.
    batch: int
    queries: int


@dataclass(frozen=True)
class StoreSize:
    """Sizing of ``store_maintain``."""

    chunks: int
    #: ``merge_delta`` rounds per unit before the simulated kill.
    merges: int
    #: share of live chunks each merge touches.
    touched: float
    reads: int
    max_edges: int = 256


#: ``full`` is what BENCHMARK.json measures; ``smoke`` is for tier-1.
SIZES: Dict[str, Dict[str, Any]] = {
    "full": {
        "pagerank": PageRankSize(2000, 6.0, 0.02, 20000),
        "wordcount": WordCountSize(30000, 5000, 20000, 6000),
        "store": StoreSize(10000, 5, 0.10, 20000),
    },
    "smoke": {
        "pagerank": PageRankSize(400, 5.0, 0.01, 400),
        "wordcount": WordCountSize(600, 300, 300, 400),
        "store": StoreSize(400, 2, 0.10, 300),
    },
}

#: Query mixes: the serving default (point-heavy) and a scan-heavy one.
POINT_HEAVY = QueryMix()
SCAN_HEAVY = QueryMix(point=0.3, multi=0.1, top_k=0.2, range_scan=0.4, range_span=64)

#: One query: ``(QueryServer method name, positional arguments)``.
Query = Tuple[str, tuple]


def _subseed(seed: int, stream: int, unit: int = 0) -> int:
    """A 31-bit seed for one independent random stream of a run."""
    return (seed * 1_000_003 + stream * 7919 + unit * 104_729 + 12345) % (2**31 - 1)


# ---------------------------------------------------------------------- #
# PageRank                                                               #
# ---------------------------------------------------------------------- #


def web_graph(size: PageRankSize, seed: int) -> WebGraph:
    """The initial crawl — the same for every seed.

    Hub sizes are heavy-tailed: graphs drawn afresh per seed differed by
    30 % in refresh cost, and even one structure relabelled per seed by
    11 % (store layout follows key order), which would drown a change.
    The seed drives everything that *happens* to the graph instead: every
    delta, and with it the key universe, and the query stream.
    """
    return powerlaw_web_graph(size.vertices, size.avg_out_degree, seed=0)


def web_delta(graph: WebGraph, size: PageRankSize, seed: int, unit: int) -> GraphDelta:
    """Unit ``unit``'s recrawl of ``graph``: rewired and brand-new pages.

    No page is deleted outright: deleting a hub rewrites every page that
    linked to it (up to 1 264 records in one delta of the sizing runs),
    trips the engine's P-delta auto-off and leaves the rest of the stream
    on the recompute path — another workload, and a failed run.
    """
    return mutate_web_graph(
        graph, size.fraction, seed=_subseed(seed, 2, unit), delete_fraction=0.0
    )


# ---------------------------------------------------------------------- #
# WordCount                                                              #
# ---------------------------------------------------------------------- #


def tweets(size: WordCountSize, seed: int) -> List[Tuple[int, str]]:
    """The initial corpus as sorted ``(tweet id, text)`` records."""
    data = zipf_tweets(size.tweets, vocab_size=size.vocab, seed=_subseed(seed, 3))
    return sorted(data.tweets.items())


def tweet_batch(size: WordCountSize, seed: int, unit: int) -> List[DeltaRecord]:
    """Unit ``unit``'s insert-only delta of fresh tweets (ids never repeat)."""
    data = zipf_tweets(size.batch, vocab_size=size.vocab, seed=_subseed(seed, 4, unit))
    first_id = size.tweets + unit * size.batch
    return [insert(first_id + tid, text) for tid, text in sorted(data.tweets.items())]


# ---------------------------------------------------------------------- #
# queries                                                                #
# ---------------------------------------------------------------------- #


def query_stream(
    keys: Sequence[Any], mix: QueryMix, count: int, seed: int, unit: int
) -> List[Query]:
    """``count`` queries over the sorted key universe ``keys``.

    Same shape as :class:`repro.serving.LoadGenerator`: 70 % of point
    traffic hits the first 10 % of the sorted keys, multi-gets draw from
    that hot set, scans span ``mix.range_span`` keys.
    """
    rng = random.Random(_subseed(seed, 5, unit))
    hot = keys[: max(1, len(keys) // 10)]
    multi_pool = hot if len(hot) >= mix.multi_size else keys
    kinds = ["get", "multi_get", "top_k", "range_scan"]
    weights = [mix.point, mix.multi, mix.top_k, mix.range_scan]
    queries: List[Query] = []
    for kind in rng.choices(kinds, weights, k=count):
        if kind == "get":
            queries.append((kind, (rng.choice(hot if rng.random() < 0.7 else keys),)))
        elif kind == "multi_get":
            wanted = min(mix.multi_size, len(multi_pool))
            queries.append((kind, (sorted(rng.sample(multi_pool, wanted)),)))
        elif kind == "top_k":
            queries.append((kind, (mix.k,)))
        else:
            start = rng.randrange(len(keys))
            stop = min(len(keys) - 1, start + mix.range_span)
            queries.append((kind, (keys[start], keys[stop])))
    return queries


# ---------------------------------------------------------------------- #
# store maintenance                                                      #
# ---------------------------------------------------------------------- #

#: In-memory reference of a store: chunk key -> {MK: value}.
StoreModel = Dict[int, Dict[int, float]]

#: A sorted delta MRBGraph as ``merge_delta`` takes it.
StoreDelta = List[Tuple[int, List[DeltaEdge]]]


def _edge_counts(rng: np.random.RandomState, count: int, cap: int) -> np.ndarray:
    # Zipf(1.6) capped at 256 has a mean of about 16 edges per chunk.
    return np.minimum(rng.zipf(1.6, size=count), cap)


def _new_chunk(rng: np.random.RandomState, edges: int) -> Dict[int, float]:
    mks = rng.randint(0, 2**62, size=edges, dtype=np.int64)
    return {int(mk): float(v) for mk, v in zip(mks, rng.random_sample(edges))}


def store_chunks(size: StoreSize, seed: int) -> StoreModel:
    """The initial store content, keys ``0 .. chunks-1``."""
    rng = np.random.RandomState(_subseed(seed, 6))
    counts = _edge_counts(rng, size.chunks, size.max_edges)
    return {key: _new_chunk(rng, int(counts[key])) for key in range(size.chunks)}


def store_delta(
    model: StoreModel, size: StoreSize, seed: int, unit: int, merge: int
) -> StoreDelta:
    """One sorted delta over ``size.touched`` of the live chunks.

    Per touched chunk: 70 % upsert (a quarter of its edges rewritten plus
    a few new ones), 20 % delete a quarter of its edges, 10 % drop the
    whole chunk — and one brand-new chunk is added per dropped one, so
    chunk and edge counts stay level.  ``model`` is updated in place to
    the state the store must hold after the merge.
    """
    rng = np.random.RandomState(_subseed(seed, 7, unit * 64 + merge))
    live = sorted(model)
    picked = rng.choice(len(live), size=max(1, int(size.touched * len(live))), replace=False)
    delta: Dict[int, List[DeltaEdge]] = {}
    dropped = 0
    for index in sorted(picked):
        key = live[index]
        chunk = model[key]
        mks = sorted(chunk)
        action = rng.random_sample()
        some = [mks[i] for i in rng.choice(len(mks), size=max(1, len(mks) // 4), replace=False)]
        if action < 0.7:
            edges = [DeltaEdge(mk, float(rng.random_sample()), Op.INSERT) for mk in some]
            fresh = _new_chunk(rng, max(1, len(mks) // 14))
            edges += [DeltaEdge(mk, value, Op.INSERT) for mk, value in fresh.items()]
            chunk.update({mk: value for mk, value, _ in edges})
        elif action < 0.9 and len(mks) > 1:
            edges = [DeltaEdge(mk, None, Op.DELETE) for mk in some]
            for mk in some:
                del chunk[mk]
        else:
            edges = [DeltaEdge(mk, None, Op.DELETE) for mk in mks]
            del model[key]
            dropped += 1
        delta[key] = edges
    next_key = max(live) + 1
    for offset, edges in enumerate(_edge_counts(rng, dropped, size.max_edges)):
        chunk = _new_chunk(rng, int(edges))
        model[next_key + offset] = chunk
        delta[next_key + offset] = [
            DeltaEdge(mk, value, Op.INSERT) for mk, value in chunk.items()
        ]
    return sorted(delta.items())


def read_keys(model: StoreModel, size: StoreSize, seed: int, unit: int) -> List[int]:
    """Skewed point reads: 70 % go to a seeded 10 % of the live chunks.

    The same hot-set shape as the query streams.  (Zipf popularity over a
    random key order made the burst depend on whether the single most
    popular key happened to be a 2000-edge chunk.)
    """
    rng = np.random.RandomState(_subseed(seed, 8, unit))
    order = sorted(model)
    rng.shuffle(order)
    hot = max(1, len(order) // 10)
    picks = np.where(
        rng.random_sample(size.reads) < 0.7,
        rng.randint(0, hot, size=size.reads),
        rng.randint(0, len(order), size=size.reads),
    )
    return [order[index] for index in picks]
