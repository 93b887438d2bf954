"""Tests for the shuffle exchange, the hash partitioner and stable hashing."""

import pytest
from hypothesis import given, strategies as st

from repro.engine import HashPartitioner, stable_hash
from repro.engine.shuffle import exchange


class TestStableHash:
    def test_supported_types(self):
        for value in [0, -5, "abc", b"abc", 1.5, None, True, (1, "a", (2,))]:
            assert isinstance(stable_hash(value), int)

    def test_distinct_types_hash_differently(self):
        assert stable_hash(1) != stable_hash("1")
        assert stable_hash(b"x") != stable_hash("x")
        assert stable_hash(True) != stable_hash(1)

    def test_deterministic(self):
        assert stable_hash(("vessel", 235000001)) == stable_hash(("vessel", 235000001))

    def test_rejects_unhashable(self):
        with pytest.raises(TypeError):
            stable_hash([1, 2])

    @given(value=st.integers())
    def test_int_hash_is_64_bit(self, value):
        assert 0 <= stable_hash(value) < (1 << 64)


class TestHashPartitioner:
    def test_range(self):
        partitioner = HashPartitioner(8)
        for key in ["a", "b", 42, (1, 2)]:
            assert 0 <= partitioner.partition(key) < 8

    def test_validation(self):
        with pytest.raises(ValueError):
            HashPartitioner(0)

    def test_equality(self):
        assert HashPartitioner(4) == HashPartitioner(4)
        assert HashPartitioner(4) != HashPartitioner(5)

    def test_spread_is_reasonable(self):
        partitioner = HashPartitioner(10)
        counts = [0] * 10
        for i in range(10000):
            counts[partitioner.partition(i)] += 1
        assert min(counts) > 700


class TestExchange:
    def test_routes_records(self):
        out = exchange([[1, 2, 3], [4, 5]], route=lambda r: r % 2, num_out=2)
        assert out == [[2, 4], [1, 3, 5]]

    def test_preserves_map_order_within_bucket(self):
        out = exchange([[3, 1], [2]], route=lambda r: 0, num_out=1)
        assert out == [[3, 1, 2]]

    def test_rejects_bad_router(self):
        with pytest.raises(ValueError):
            exchange([[1]], route=lambda r: 5, num_out=2)
        with pytest.raises(ValueError):
            exchange([[1]], route=lambda r: 0, num_out=0)
