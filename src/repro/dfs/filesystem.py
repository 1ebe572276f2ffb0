"""A block-structured distributed file system simulation (HDFS stand-in).

Files are sequences of ``(key, value)`` records split into blocks of a
configurable target byte size.  Each block is replicated on a set of
workers; the MapReduce scheduler consults block locations to run map
tasks data-locally (§2).  Record payloads are kept as Python objects for
speed; byte sizes come from the exact size estimator so simulated I/O
charges match what the real binary encoder would produce.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Any, Dict, Iterable, Iterator, List, Sequence, Tuple

from repro.cluster.cluster import Cluster
from repro.common import config
from repro.common.errors import FileAlreadyExists, FileNotFoundInDFS
from repro.common.sizeof import record_size_totals

_ITEM0 = itemgetter(0)
_ITEM1 = itemgetter(1)
_TUPLE_ONLY = frozenset((tuple,))
_PAIR_ONLY = frozenset((2,))


@dataclass
class Block:
    """One replicated block of a DFS file."""

    block_id: int
    records: List[Tuple[Any, Any]]
    size_bytes: int
    locations: List[int]

    @property
    def num_records(self) -> int:
        """Number of records in this block."""
        return len(self.records)


@dataclass
class DFSFile:
    """Metadata and contents of one DFS file."""

    path: str
    blocks: List[Block] = field(default_factory=list)

    @property
    def size_bytes(self) -> int:
        """Total simulated size of all blocks, in bytes."""
        return sum(block.size_bytes for block in self.blocks)

    @property
    def num_records(self) -> int:
        """Total record count across all blocks."""
        return sum(block.num_records for block in self.blocks)

    def records(self) -> Iterator[Tuple[Any, Any]]:
        """Iterate all records across blocks in file order."""
        for block in self.blocks:
            yield from block.records


class DistributedFS:
    """The namenode: path table plus block placement."""

    def __init__(
        self,
        cluster: Cluster,
        block_size: int = config.DEFAULT_BLOCK_SIZE,
        replication: int = config.DEFAULT_REPLICATION,
    ) -> None:
        if block_size <= 0:
            raise ValueError("block_size must be positive")
        if replication <= 0:
            raise ValueError("replication must be positive")
        self.cluster = cluster
        self.block_size = block_size
        self.replication = replication
        self._files: Dict[str, DFSFile] = {}
        self._next_block_id = 0

    def write(
        self,
        path: str,
        records: Iterable[Tuple[Any, Any]],
        overwrite: bool = False,
    ) -> DFSFile:
        """Write ``records`` to ``path``, splitting into placed blocks.

        A block is sealed as soon as its records reach ``block_size``
        bytes.  Records are sized column by column
        (:func:`~repro.common.sizeof.record_size_totals`, the bytes of
        :func:`~repro.common.sizeof.record_size`) and blocks are cut from
        the running totals, so no Python loop runs per record.

        Raises:
            FileAlreadyExists: if the path exists and ``overwrite`` is False.
        """
        if path in self._files and not overwrite:
            raise FileAlreadyExists(path)
        recs = records if type(records) is list else list(records)
        if set(map(type, recs)) - _TUPLE_ONLY or set(map(len, recs)) - _PAIR_ONLY:
            recs = [(key, value) for key, value in recs]
        ends = record_size_totals(list(map(_ITEM0, recs)), list(map(_ITEM1, recs)))
        dfs_file = DFSFile(path=path)
        start = 0
        base = 0
        while True:
            end = bisect_left(ends, base + self.block_size, start)
            if end == len(recs):
                break
            dfs_file.blocks.append(self._seal_block(recs[start:end + 1], ends[end] - base))
            base = ends[end]
            start = end + 1
        if start < len(recs) or not dfs_file.blocks:
            total = ends[-1] if ends else 0
            dfs_file.blocks.append(self._seal_block(recs[start:], total - base))
        self._files[path] = dfs_file
        return dfs_file

    def _seal_block(self, records: List[Tuple[Any, Any]], size: int) -> Block:
        block = Block(
            block_id=self._next_block_id,
            records=records,
            size_bytes=size,
            locations=self.cluster.pick_replica_workers(self.replication),
        )
        self._next_block_id += 1
        return block

    def file(self, path: str) -> DFSFile:
        """Look up file metadata.

        Raises:
            FileNotFoundInDFS: if the path does not exist.
        """
        try:
            return self._files[path]
        except KeyError:
            raise FileNotFoundInDFS(path) from None

    def read(self, path: str) -> Iterator[Tuple[Any, Any]]:
        """Iterate the records of ``path`` in file order."""
        return self.file(path).records()

    def read_all(self, path: str) -> List[Tuple[Any, Any]]:
        """Materialize all records of ``path`` as a list."""
        return list(self.read(path))

    def exists(self, path: str) -> bool:
        """Whether ``path`` exists."""
        return path in self._files

    def delete(self, path: str) -> None:
        """Remove ``path``.

        Raises:
            FileNotFoundInDFS: if the path does not exist.
        """
        if path not in self._files:
            raise FileNotFoundInDFS(path)
        del self._files[path]

    def ls(self, prefix: str = "") -> List[str]:
        """List paths starting with ``prefix``, sorted."""
        return sorted(p for p in self._files if p.startswith(prefix))

    def size(self, path: str) -> int:
        """Total byte size of ``path``."""
        return self.file(path).size_bytes
