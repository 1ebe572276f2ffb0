"""Dependency-aware data partitioning (§4.3).

Structure kv-pairs are partitioned by ``hash(project(SK))`` and state
kv-pairs by ``hash(DK)`` with the *same* hash function, so interdependent
pairs land in the same partition and the prime Map task can merge-join
them without network traffic.  All-to-one algorithms (Kmeans) partition
structure by ``hash(SK)`` instead and replicate the (small) state to every
partition.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, Iterator, List, Tuple

from repro.cluster.costmodel import CostModel
from repro.common.hashing import map_key, partition_for
from repro.common.kvpair import DeltaRecord, Op, sort_key
from repro.common.sizeof import record_size
from repro.iterative.api import Dependency

#: One cached structure kv-pair, ``(SK, SV, MK, encoded bytes)``: the
#: pair plus everything the map loops need that depends on it alone.
StructureRecord = Tuple[Any, Any, int, int]


def _absent(sk: Any) -> KeyError:
    return KeyError(f"structure pair ({sk!r}, ...) not found for deletion")


@dataclass
class PartitionedStructure:
    """Structure data split into prime-Map partitions — the structure cache.

    Each kv-pair is hashed (``MK``), sized and placed once, when it enters
    through :func:`partition_structure` or :meth:`insert_pair`; iterations
    read the cached record and :meth:`delete_pair` drops it.

    Attributes:
        num_partitions: partition (= prime task) count ``n``.
        replicated_state: True for all-to-one dependencies, where state is
            replicated instead of co-partitioned.
        groups: per partition, ``{DK: [(SK, SV, MK, nbytes), ...]}`` — the
            structure records grouped by their interdependent state key.
        structure_bytes: per-partition encoded byte size (maintained
            incrementally under delta mutations).
        num_pairs: per-partition structure kv-pair count.
    """

    num_partitions: int
    replicated_state: bool
    groups: List[Dict[Any, List[StructureRecord]]]
    structure_bytes: List[int]
    num_pairs: List[int]

    def iter_groups(self, partition: int) -> Iterator[Tuple[Any, List[StructureRecord]]]:
        """Iterate ``(DK, records)`` groups of a partition in DK-sorted order.

        The structure file is kept sorted by ``project(SK)`` (§4.3) so the
        prime Map matches structure and state in one sequential pass; the
        sorted iteration order reproduces that behaviour.
        """
        part = self.groups[partition]
        for dk in sorted(part, key=sort_key):
            yield dk, part[dk]

    def insert_pair(self, algorithm: Any, sk: Any, sv: Any) -> StructureRecord:
        """Insert one structure kv-pair; returns its cached record."""
        partition = self.partition_of(algorithm, sk)
        record = (sk, sv, map_key(sk, sv), record_size(sk, sv))
        self.groups[partition].setdefault(algorithm.project(sk), []).append(record)
        self.structure_bytes[partition] += record[3]
        self.num_pairs[partition] += 1
        return record

    def delete_pair(self, algorithm: Any, sk: Any, sv: Any) -> StructureRecord:
        """Delete one structure kv-pair (matched by key and value).

        Returns the record it dropped; raises ``KeyError`` when the pair
        is absent (a malformed delta input).
        """
        partition = self.partition_of(algorithm, sk)
        dk = algorithm.project(sk)
        records = self.groups[partition].get(dk, [])
        try:
            index = [record[:2] for record in records].index((sk, sv))
        except ValueError:
            raise _absent(sk) from None
        record = records.pop(index)
        if not records:
            self.groups[partition].pop(dk, None)
        self.structure_bytes[partition] -= record[3]
        self.num_pairs[partition] -= 1
        return record

    def check_delta(self, algorithm: Any, delta_records: Iterable[DeltaRecord]) -> None:
        """Raise ``KeyError`` unless every deletion of a delta finds its pair.

        Replays the delta on copies of the ``(partition, DK)`` groups it
        touches, so a deletion sees the earlier records of the same delta
        (an update is a deletion followed by an insertion, §3.1); the
        structure itself is not touched.
        """
        shadow: Dict[Tuple[int, Any], List[Tuple[Any, Any]]] = {}
        for rec in delta_records:
            partition = self.partition_of(algorithm, rec.key)
            dk = algorithm.project(rec.key)
            pairs = shadow.get((partition, dk))
            if pairs is None:
                pairs = shadow[(partition, dk)] = [
                    record[:2] for record in self.groups[partition].get(dk, ())
                ]
            if rec.op is not Op.DELETE:
                pairs.append((rec.key, rec.value))
                continue
            try:
                pairs.remove((rec.key, rec.value))
            except ValueError:
                raise _absent(rec.key) from None

    def partition_of(self, algorithm: Any, sk: Any) -> int:
        """Partition holding the structure kv-pair with key ``sk``."""
        if self.replicated_state:
            return partition_for(sk, self.num_partitions)
        return partition_for(algorithm.project(sk), self.num_partitions)

    def partitions_holding(self, dks: Iterable[Any]) -> Dict[int, List[Any]]:
        """Route changed state keys to the prime Map tasks that must re-run.

        ``{partition: [DK, ...]}`` (input order kept) for every partition
        whose structure cache holds a group for the key: its one home
        partition under co-partitioning, any number of them when the
        state is replicated; keys no structure depends on route nowhere.
        """
        n = self.num_partitions
        held: Dict[int, List[Any]] = {}
        for dk in dks:
            homes = range(n) if self.replicated_state else (partition_for(dk, n),)
            for p in homes:
                if dk in self.groups[p]:
                    held.setdefault(p, []).append(dk)
        return held

    def total_pairs(self) -> int:
        """Total structure kv-pairs across partitions."""
        return sum(self.num_pairs)


def partition_structure(
    algorithm: Any,
    records: List[Tuple[Any, Any]],
    num_partitions: int,
) -> PartitionedStructure:
    """Partition structure records per the §4.3 scheme."""
    parts = PartitionedStructure(
        num_partitions=num_partitions,
        replicated_state=algorithm.dependency is Dependency.ALL_TO_ONE,
        groups=[{} for _ in range(num_partitions)],
        structure_bytes=[0] * num_partitions,
        num_pairs=[0] * num_partitions,
    )
    for sk, sv in records:
        parts.insert_pair(algorithm, sk, sv)
    return parts


def state_bytes_by_partition(
    state: Dict[Any, Any],
    num_partitions: int,
    replicated: bool,
) -> List[int]:
    """Encoded state bytes each prime Map task reads per iteration."""
    if replicated:
        total = sum(record_size(dk, dv) for dk, dv in state.items())
        return [total] * num_partitions
    sizes = [0] * num_partitions
    for dk, dv in state.items():
        sizes[partition_for(dk, num_partitions)] += record_size(dk, dv)
    return sizes


def partition_job_cost(
    cost_model: CostModel,
    num_workers: int,
    file_bytes: int,
    num_records: int,
    num_partitions: int,
) -> float:
    """Simulated cost of the preprocessing partition job (§4.3).

    Reads and parses the raw input once, shuffles it by the partition
    function (a ``(W-1)/W`` fraction crosses the network), sorts each
    partition by ``project(SK)`` and writes it to the local file system.
    """
    if num_workers <= 0:
        raise ValueError("num_workers must be positive")
    per_worker_bytes = file_bytes / num_workers
    per_worker_records = max(1, num_records // num_workers)
    remote_fraction = (num_workers - 1) / num_workers
    time_s = cost_model.disk_read_time(int(per_worker_bytes))
    time_s += cost_model.parse_time(int(per_worker_bytes))
    time_s += cost_model.cpu_time(per_worker_records)
    time_s += cost_model.net_time(int(per_worker_bytes * remote_fraction))
    time_s += cost_model.sort_time(per_worker_records)
    time_s += cost_model.disk_write_time(int(per_worker_bytes))
    return time_s
