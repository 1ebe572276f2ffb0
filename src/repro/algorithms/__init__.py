"""Mining algorithms evaluated by the paper (§8.1.3)."""

from repro.algorithms.apriori import APriori, APrioriMapper, APrioriReducer
from repro.algorithms.base import (
    HaLoopFormulation,
    IterativeAlgorithm,
    PlainFormulation,
)
from repro.algorithms.gimv import GIMV
from repro.algorithms.kmeans import Kmeans
from repro.algorithms.pagerank import PageRank
from repro.algorithms.sssp import SSSP
from repro.algorithms.wordcount import (
    WordCountMapper,
    WordCountReducer,
    reference_wordcount,
)

__all__ = [
    "APriori",
    "APrioriMapper",
    "APrioriReducer",
    "HaLoopFormulation",
    "IterativeAlgorithm",
    "PlainFormulation",
    "GIMV",
    "Kmeans",
    "PageRank",
    "SSSP",
    "WordCountMapper",
    "WordCountReducer",
    "reference_wordcount",
]
