"""Property-based semantics of the engine against in-memory references.

Every operator must agree with the obvious single-machine Python
implementation for arbitrary inputs and partition counts — the contract
that lets pipeline code treat the engine as "just Python, distributed".
"""

import operator
from collections import defaultdict

from hypothesis import given, settings, strategies as st

from repro.engine import Engine, EngineConfig

KEYS = st.integers(min_value=-5, max_value=5)
VALUES = st.integers(min_value=-1000, max_value=1000)
PAIRS = st.lists(st.tuples(KEYS, VALUES), max_size=120)
PARTITIONS = st.integers(min_value=1, max_value=7)


def _engine(partitions):
    return Engine(EngineConfig(num_partitions=partitions))


def _sum_by_key(engine, pairs):
    return dict(
        engine.parallelize(pairs)
        .combine_by_key(lambda v: v, operator.add, operator.add)
        .collect()
    )


@settings(max_examples=40)
@given(pairs=PAIRS, partitions=PARTITIONS)
def test_combine_by_key_matches_dict_fold(pairs, partitions):
    reference: dict = {}
    for key, value in pairs:
        reference[key] = reference.get(key, 0) + value
    with _engine(partitions) as engine:
        assert _sum_by_key(engine, pairs) == reference


@settings(max_examples=40)
@given(pairs=PAIRS, partitions=PARTITIONS)
def test_group_by_key_matches_multimap(pairs, partitions):
    reference = defaultdict(list)
    for key, value in pairs:
        reference[key].append(value)
    with _engine(partitions) as engine:
        result = {
            key: sorted(values)
            for key, values in engine.parallelize(pairs).group_by_key().collect()
        }
    assert result == {key: sorted(values) for key, values in reference.items()}


@settings(max_examples=40)
@given(values=st.lists(VALUES, max_size=150), partitions=PARTITIONS)
def test_map_filter_pipeline_matches_comprehension(values, partitions):
    with _engine(partitions) as engine:
        result = (
            engine.parallelize(values)
            .map(lambda x: x * 3 + 1)
            .filter(lambda x: x % 2 == 0)
            .collect()
        )
    assert result == [x * 3 + 1 for x in values if (x * 3 + 1) % 2 == 0]


@settings(max_examples=30)
@given(pairs=PAIRS, partitions=PARTITIONS)
def test_partition_count_never_changes_answers(pairs, partitions):
    with _engine(1) as serial_engine:
        expected = _sum_by_key(serial_engine, pairs)
    with _engine(partitions) as engine:
        assert _sum_by_key(engine, pairs) == expected
