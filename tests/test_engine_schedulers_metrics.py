"""Stage-metrics and event-counter instrumentation tests."""

import operator

from repro.engine import Engine, EngineConfig


def test_metrics_record_rows_and_stages():
    with Engine(EngineConfig(num_partitions=4, collect_metrics=True)) as engine:
        (
            engine.parallelize(range(100))
            .filter(lambda x: x % 2 == 0)
            .map(lambda x: (x % 5, x))
            .combine_by_key(lambda v: v, operator.add, operator.add,
                            label="sum_by_key")
            .collect()
        )
        metrics = engine.metrics
        assert metrics is not None
        labels = [stage.label for stage in metrics.stages]
        assert any("filter" in label for label in labels)
        assert "map_side_combine" in labels
        assert "sum_by_key" in labels
        filter_stage = next(s for s in metrics.stages if "filter" in s.label)
        assert filter_stage.rows_in == 100
        assert filter_stage.rows_out == 50
        assert metrics.total_seconds() >= 0.0
        by_label = metrics.by_label()
        assert set(by_label) == set(labels)
        metrics.clear()
        assert metrics.stages == []


def test_metrics_disabled_by_default():
    with Engine(EngineConfig(num_partitions=2)) as engine:
        engine.parallelize([1]).map(lambda x: x).collect()
        assert engine.metrics is None


def test_counter_set_increments_are_thread_safe():
    """8 threads x 25k increments on one counter must not drop a single
    event (the unguarded read-modify-write did, under preemption)."""
    import threading

    from repro.engine.metrics import CounterSet

    counters = CounterSet()
    threads_n, per_thread = 8, 25_000

    def hammer():
        for _ in range(per_thread):
            counters.increment("shared")

    threads = [threading.Thread(target=hammer) for _ in range(threads_n)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert counters.value("shared") == threads_n * per_thread
