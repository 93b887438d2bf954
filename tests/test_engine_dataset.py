"""Tests for the Dataset operator algebra against in-memory references."""

import pytest

from repro.engine import Engine, EngineConfig


@pytest.fixture()
def eng():
    with Engine(EngineConfig(num_partitions=4)) as engine:
        yield engine


def _partition_sizes(ds):
    return ds.map_partitions(lambda _, records: [len(records)]).collect()


def test_parallelize_partitions_evenly():
    with Engine(EngineConfig(num_partitions=3)) as engine:
        ds = engine.parallelize(range(10))
        assert _partition_sizes(ds) == [4, 3, 3]
        assert ds.collect() == list(range(10))


def test_parallelize_fewer_records_than_partitions(eng):
    ds = eng.parallelize([1, 2])
    assert ds.count() == 2
    assert _partition_sizes(ds) == [1, 1]


def test_empty_dataset(eng):
    assert eng.parallelize([]).collect() == []
    assert eng.parallelize([]).count() == 0


def test_map_filter_flat_map(eng):
    ds = eng.parallelize(range(20))
    assert ds.map(lambda x: x * 2).collect() == [x * 2 for x in range(20)]
    assert ds.filter(lambda x: x % 3 == 0).collect() == [x for x in range(20) if x % 3 == 0]
    assert eng.parallelize([1, 2]).flat_map(lambda x: [x] * x).collect() == [1, 2, 2]


def test_map_partitions_receives_index(eng):
    ds = eng.parallelize(range(8))
    tagged = ds.map_partitions(lambda i, records: [(i, r) for r in records])
    indices = {i for i, _ in tagged.collect()}
    assert indices == {0, 1, 2, 3}


def test_map_values(eng):
    ds = eng.parallelize([(2, "aa"), (1, "b"), (3, "ccc")])
    assert ds.map_values(str.upper).collect() == [(2, "AA"), (1, "B"), (3, "CCC")]


def test_group_by_key_collects_all_values(eng):
    data = [(i % 3, i) for i in range(30)]
    groups = dict(eng.parallelize(data).group_by_key().collect())
    for key, values in groups.items():
        assert sorted(values) == [i for i in range(30) if i % 3 == key]


def test_combine_by_key_with_monoid(eng):
    data = [("a", 1.0), ("b", 2.0), ("a", 3.0)]
    result = dict(
        eng.parallelize(data)
        .combine_by_key(
            create=lambda v: [v],
            merge_value=lambda acc, v: acc + [v],
            merge_combiners=lambda x, y: x + y,
        )
        .collect()
    )
    assert sorted(result["a"]) == [1.0, 3.0]
    assert result["b"] == [2.0]


def test_persist_avoids_recompute(eng):
    calls = []

    def probe(x):
        calls.append(x)
        return x

    ds = eng.parallelize(range(5)).map(probe).persist()
    ds.collect()
    ds.collect()
    assert len(calls) == 5  # second collect served from cache
