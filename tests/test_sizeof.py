"""The size estimator must agree exactly with the real binary encoder.

Simulated I/O charges come from the estimator while the MRBG-Store
measures genuine encoded bytes — any disagreement would silently skew
every experiment, so this invariant gets a property test.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.serialization import encode, encode_record
from repro.common.sizeof import (
    grouped_records_size,
    record_size,
    records_size,
    value_size,
    values_size,
)

_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**62), max_value=2**62),
    st.floats(allow_nan=False),
    st.text(max_size=30),
    st.binary(max_size=30),
)
_values = st.recursive(
    _scalars,
    lambda inner: st.one_of(
        st.tuples(inner, inner),
        st.lists(inner, max_size=4),
    ),
    max_leaves=16,
)


class TestExactness:
    @given(_values)
    @settings(max_examples=200)
    def test_value_size_matches_encoder(self, value):
        assert value_size(value) == len(encode(value))

    @given(_values, _values)
    @settings(max_examples=100)
    def test_record_size_matches_encoder(self, key, value):
        assert record_size(key, value) == len(encode_record(key, value))


class TestBulk:
    def test_records_size_sums(self):
        pairs = [(i, f"value-{i}") for i in range(10)]
        assert records_size(pairs) == sum(record_size(k, v) for k, v in pairs)

    def test_empty_stream(self):
        assert records_size([]) == 0
        assert values_size([]) == 0
        assert grouped_records_size([]) == 0

    @given(st.lists(_values, max_size=12))
    @settings(max_examples=100)
    def test_values_size_sums(self, values):
        assert values_size(values) == sum(value_size(v) for v in values)

    def test_values_size_of_one_scalar_class(self):
        for values in ([1, 2, 3], [0.5, -0.0], [True, False], [None, None]):
            assert values_size(values) == sum(value_size(v) for v in values)
        # bool is an int subclass but a byte, not nine: classes are exact.
        assert values_size([1, True]) == value_size(1) + value_size(True)

    @given(st.lists(st.tuples(st.text(max_size=3), st.lists(_values, min_size=1, max_size=4)),
                    max_size=6))
    @settings(max_examples=100)
    def test_grouped_records_size_is_records_size(self, groups):
        grouped = [(key, [(key, v) for v in values]) for key, values in groups]
        flat = [rec for _, records in grouped for rec in records]
        assert grouped_records_size(grouped) == records_size(flat)

    def test_unknown_type_gets_flat_charge(self):
        # Never raises for simulation-only values.
        assert value_size(object()) == 64
