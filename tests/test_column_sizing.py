"""Column-at-a-time record sizing and the DFS block cuts built on it.

:func:`~repro.common.sizeof.column_sizes` and
:func:`~repro.common.sizeof.record_size_totals` size whole columns with
C-level scans; they must give exactly the bytes of ``value_size`` /
``record_size`` per item, whatever the column holds.
``DistributedFS.write`` cuts blocks from those running totals; this
module keeps the per-record write loop it replaced
(:func:`reference_write`) and requires identical blocks.
"""

from __future__ import annotations

import enum
from itertools import accumulate

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.cluster import Cluster
from repro.common.sizeof import column_sizes, record_size, record_size_totals, value_size
from repro.dfs.filesystem import Block, DistributedFS


class Level(enum.IntEnum):
    """An ``int`` subclass: sized like an int, but not by class lookup."""

    LOW = 1
    HIGH = 2


class Opaque:
    """A class the size estimator does not know (flat 64 bytes)."""

    def __repr__(self) -> str:
        return "Opaque()"


_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**70), 2**70),
    st.floats(allow_nan=True),
    st.text(max_size=6),
    st.binary(max_size=4),
    st.sampled_from(list(Level)),
    st.just(Opaque()),
)
_VALUES = st.recursive(
    _SCALARS,
    lambda inner: st.one_of(
        st.tuples(inner), st.tuples(inner, inner), st.lists(inner, max_size=3)
    ),
    max_leaves=6,
)
#: Columns of one shape (the fast paths) and of anything at all.
COLUMNS = st.one_of(
    st.lists(st.text(alphabet="abc xyz", max_size=8), max_size=20),
    st.lists(st.text(max_size=4), max_size=20),  # non-ASCII text
    st.lists(st.one_of(st.booleans(), st.integers(0, 3)), max_size=20),
    st.lists(st.integers(), max_size=20),
    st.lists(st.binary(max_size=5), max_size=20),
    st.lists(st.sampled_from(list(Level)), max_size=20),
    st.lists(st.tuples(st.integers(), st.tuples(st.text(max_size=5), st.just("+"))), max_size=20),
    st.lists(st.one_of(st.tuples(st.integers()), st.tuples(st.integers(), st.text())),
             max_size=20),  # ragged tuples
    st.lists(st.tuples(st.one_of(st.integers(), st.booleans(), st.floats())), max_size=20),
    st.lists(_VALUES, max_size=20),
)


@given(column=COLUMNS)
@settings(max_examples=400, deadline=None)
def test_column_sizes_equal_value_size_per_item(column):
    assert column_sizes(column) == [value_size(item) for item in column]


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_record_size_totals_are_running_record_sizes(data):
    keys = data.draw(COLUMNS)
    values = data.draw(COLUMNS)
    n = min(len(keys), len(values))
    keys, values = keys[:n], values[:n]
    expected = list(accumulate(record_size(k, v) for k, v in zip(keys, values)))
    assert record_size_totals(keys, values) == expected


def test_empty_columns():
    assert column_sizes([]) == []
    assert record_size_totals([], []) == []


# --------------------------------------------------------------------- #
# DistributedFS.write against the per-record loop                       #
# --------------------------------------------------------------------- #


def reference_write(dfs: DistributedFS, records) -> list:
    """The per-record block loop: seal once a block reaches ``block_size``."""
    blocks = []
    current = []
    current_size = 0
    for key, value in records:
        current.append((key, value))
        current_size += record_size(key, value)
        if current_size >= dfs.block_size:
            blocks.append(dfs._seal_block(current, current_size))
            current = []
            current_size = 0
    if current or not blocks:
        blocks.append(dfs._seal_block(current, current_size))
    return blocks


def _shape(blocks) -> list:
    return [(b.block_id, repr(b.records), b.size_bytes, b.locations) for b in blocks]


RECORDS = st.one_of(
    st.lists(st.tuples(st.integers(0, 10**6), st.tuples(st.text(max_size=30), st.just("+"))),
             max_size=60),
    st.lists(st.tuples(st.text(max_size=6), st.integers()), max_size=60),
    st.lists(st.tuples(_VALUES, _VALUES), max_size=30),
    st.lists(st.lists(_VALUES, min_size=2, max_size=2), max_size=30),  # list records
)


@given(records=RECORDS, block_size=st.sampled_from([1, 40, 200, 4096]))
@settings(max_examples=300, deadline=None)
def test_write_cuts_the_blocks_of_the_per_record_loop(records, block_size):
    reference = DistributedFS(Cluster(num_workers=5, seed=3), block_size=block_size, replication=2)
    actual = DistributedFS(Cluster(num_workers=5, seed=3), block_size=block_size, replication=2)
    reference.write("/warm", [(0, "x")])  # block ids and placements continue a sequence
    actual.write("/warm", [(0, "x")])
    expected = reference_write(reference, records)
    written = actual.write("/f", iter(records)).blocks
    assert _shape(written) == _shape(expected)
    assert all(type(r) is tuple for b in written for r in b.records)
    assert isinstance(written[0], Block)


def test_write_copies_the_callers_list():
    dfs = DistributedFS(Cluster(num_workers=2, seed=1), block_size=1 << 20)
    records = [(1, "a"), (2, "b")]
    block = dfs.write("/f", records).blocks[0]
    records.append((3, "c"))
    assert block.records == [(1, "a"), (2, "b")]
