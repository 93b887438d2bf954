"""Tests for the span tracer core (repro.obs.trace) and its sinks.

Covers the contracts the instrumentation relies on: the disabled path is
a shared no-op object, enabled spans nest via contextvars and emit
complete records, errors close spans with status ``error`` without
swallowing the exception, and each sink shape (JSONL, ring, profile)
round-trips records faithfully.
"""

from __future__ import annotations

import json

import pytest

from repro.obs import trace as obs
from repro.obs.sinks import (
    JsonlSink,
    ProfileSink,
    RingBufferSink,
    profile_records,
    read_trace,
    render_profile,
)


class ListSink:
    """Captures records in order; the simplest possible sink."""

    def __init__(self):
        self.records = []

    def record(self, record):
        self.records.append(record)


@pytest.fixture(autouse=True)
def _clean_tracer():
    """Every test starts and ends with the global tracer disabled."""
    obs.disable()
    yield
    obs.disable()


# -- disabled path ---------------------------------------------------------------


def test_disabled_by_default():
    assert not obs.enabled()
    assert obs.span("anything") is obs.NOOP_SPAN


def test_noop_span_is_shared_and_inert():
    first = obs.span("a", x=1)
    second = obs.span("b")
    assert first is second is obs.NOOP_SPAN
    with first as sp:
        sp.set("k", "v")   # must not raise, must not record
        sp.add("c", 3)
    assert obs.current_context() is None


def test_disable_drops_sinks():
    sink = ListSink()
    obs.configure(sink)
    assert obs.enabled()
    obs.disable()
    assert not obs.enabled()
    with obs.span("after"):
        pass
    assert sink.records == []


# -- enabled spans ---------------------------------------------------------------


def test_span_record_fields():
    sink = ListSink()
    obs.configure(sink)
    with obs.span("work", rows=10) as sp:
        sp.set("extra", "yes")
        sp.add("hits", 2)
        sp.add("hits", 3)
    (record,) = sink.records
    assert record["name"] == "work"
    assert record["status"] == "ok"
    assert record["parent"] is None
    assert record["wall_s"] >= 0.0
    assert record["cpu_s"] >= 0.0
    assert record["attrs"] == {"rows": 10, "extra": "yes"}
    assert record["counters"] == {"hits": 5}
    assert "error" not in record


def test_nesting_links_parent_and_trace():
    sink = ListSink()
    obs.configure(sink)
    with obs.span("outer"):
        outer_ctx = obs.current_context()
        with obs.span("inner"):
            inner_ctx = obs.current_context()
            assert inner_ctx.trace_id == outer_ctx.trace_id
            assert inner_ctx.span_id != outer_ctx.span_id
    assert obs.current_context() is None
    inner, outer = sink.records  # children close first
    assert inner["name"] == "inner" and outer["name"] == "outer"
    assert inner["trace"] == outer["trace"]
    assert inner["parent"] == outer["span"]
    assert outer["parent"] is None


def test_siblings_share_parent_with_distinct_ids():
    sink = ListSink()
    obs.configure(sink)
    with obs.span("parent"):
        with obs.span("a"):
            pass
        with obs.span("b"):
            pass
    a, b, parent = sink.records
    assert a["parent"] == b["parent"] == parent["span"]
    assert a["span"] != b["span"]


def test_separate_roots_get_separate_traces():
    sink = ListSink()
    obs.configure(sink)
    with obs.span("first"):
        pass
    with obs.span("second"):
        pass
    first, second = sink.records
    assert first["trace"] != second["trace"]


def test_error_status_and_propagation():
    sink = ListSink()
    obs.configure(sink)
    with pytest.raises(KeyError):
        with obs.span("boom"):
            raise KeyError("missing")
    (record,) = sink.records
    assert record["status"] == "error"
    assert record["error"].startswith("KeyError")
    assert obs.current_context() is None  # context restored despite the raise


def test_span_ids_are_unique():
    sink = ListSink()
    obs.configure(sink)
    for _ in range(200):
        with obs.span("s"):
            pass
    ids = [record["span"] for record in sink.records]
    assert len(set(ids)) == len(ids)


def test_multiple_sinks_all_receive():
    first, second = ListSink(), ListSink()
    obs.configure(first)
    obs.add_sink(second)
    with obs.span("both"):
        pass
    assert len(first.records) == len(second.records) == 1
    assert obs.find_sink(ListSink) is first


# -- traced decorator ------------------------------------------------------------


def test_traced_decorator_names_and_passthrough():
    sink = ListSink()
    obs.configure(sink)

    @obs.traced("custom.name", kind="test")
    def add(a, b):
        return a + b

    @obs.traced
    def bare():
        return "ok"

    assert add(2, 3) == 5
    assert bare() == "ok"
    custom, default = sink.records
    assert custom["name"] == "custom.name"
    assert custom["attrs"] == {"kind": "test"}
    assert default["name"].endswith("bare")


def test_traced_is_noop_when_disabled():
    @obs.traced("never.recorded")
    def fn():
        return 42

    assert fn() == 42  # no sink, no failure


# -- sinks -----------------------------------------------------------------------


def test_jsonl_sink_round_trips(tmp_path):
    path = tmp_path / "spans.jsonl"
    sink = JsonlSink(path)
    obs.configure(sink)
    with obs.span("outer", n=1):
        with obs.span("inner"):
            pass
    obs.disable()
    sink.close()
    records = list(read_trace(path))
    assert [r["name"] for r in records] == ["inner", "outer"]
    # every line is standalone JSON
    for line in path.read_text().splitlines():
        json.loads(line)


def test_ring_buffer_evicts_oldest():
    ring = RingBufferSink(capacity=3)
    for i in range(5):
        ring.record({"name": f"s{i}"})
    assert [r["name"] for r in ring.spans()] == ["s2", "s3", "s4"]
    assert [r["name"] for r in ring.spans(2)] == ["s3", "s4"]
    assert len(ring) == 3
    ring.clear()
    assert ring.spans() == []


def test_ring_buffer_rejects_bad_capacity():
    with pytest.raises(ValueError):
        RingBufferSink(capacity=0)


def test_profile_sink_aggregates_by_name():
    sink = ProfileSink()
    for wall in (0.010, 0.020, 0.030):
        sink.record({"name": "fast", "wall_s": wall, "cpu_s": wall, "status": "ok"})
    sink.record({"name": "slow", "wall_s": 1.0, "cpu_s": 0.5, "status": "error"})
    rows = sink.rows()
    assert [row.name for row in rows] == ["slow", "fast"]  # by total time
    slow, fast = rows
    assert fast.count == 3 and fast.errors == 0
    assert fast.total_s == pytest.approx(0.060)
    assert slow.count == 1 and slow.errors == 1
    assert 10.0 <= fast.p50_ms <= 30.0


def test_profile_records_and_render(tmp_path):
    records = [
        {"name": "stage.a", "wall_s": 0.2, "cpu_s": 0.2, "status": "ok"},
        {"name": "stage.b", "wall_s": 0.1, "cpu_s": 0.1, "status": "ok"},
    ]
    rows = profile_records(records)
    lines = render_profile(rows)
    assert "span" in lines[0] and "p99" in lines[0]
    assert lines[1].startswith("stage.a")
    limited = render_profile(rows, limit=1)
    assert len(limited) == 3  # header + one row + "more" note
    assert "1 more span names" in limited[-1]
