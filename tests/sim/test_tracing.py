"""Unit tests for causal span tracing and its export formats."""

import json

import pytest

from repro.common.errors import ConfigError
from tests.oracles.pipeline import Stage, evaluate, parallel, serial
from repro.sim.instrument import EventBus
from repro.sim.tracing import (
    CATEGORY_MISS,
    CATEGORY_STAGE,
    CATEGORY_WALK,
    Span,
    SpanTracer,
    TraceEventWriter,
    convert_trace,
    load_spans,
    perfetto_document,
    spans_from_perfetto,
    write_trace_file,
)


def _record_trace(tracer, start_ns=100.0, with_walk=True):
    tracer.begin_access(start_ns, index=0, vaddr=0x1000, write=False)
    if with_walk and tracer.active:
        walk = tracer.begin("page_walk", CATEGORY_WALK, start_ns, vpn=1)
        tracer.end(walk, start_ns + 40.0)
    tracer.end_access(start_ns + 90.0)


# ----------------------------------------------------------------------
# Sampling and span structure
# ----------------------------------------------------------------------

def test_sampling_is_deterministic_counter_based():
    tracer = SpanTracer(sample_every=3, buffer_spans=4096)
    for i in range(9):
        tracer.begin_access(float(i), index=i)
        sampled = tracer.active
        assert sampled == (i % 3 == 0)
        tracer.end_access(float(i) + 1.0)
    summary = tracer.summary()
    assert summary["accesses_seen"] == 9
    assert summary["traces_recorded"] == 3
    assert summary["traces_dropped"] == 0


def test_span_tree_linkage():
    tracer = SpanTracer()
    _record_trace(tracer)
    spans = tracer.spans()
    root = [s for s in spans if s.category == "access"][0]
    walk = [s for s in spans if s.category == CATEGORY_WALK][0]
    assert root.parent_id is None
    assert walk.parent_id == root.span_id
    assert walk.trace_id == root.trace_id
    assert root.duration_ns == 90.0
    assert walk.duration_ns == 40.0


def test_unsampled_access_records_nothing():
    tracer = SpanTracer(sample_every=2)
    _record_trace(tracer)           # access 1: sampled
    _record_trace(tracer)           # access 2: skipped
    assert tracer.begin("x", CATEGORY_WALK, 0.0) is None  # outside access
    assert tracer.summary()["traces_recorded"] == 1


def test_head_tail_retention_keeps_first_and_last():
    tracer = SpanTracer(sample_every=1, buffer_spans=8)
    for i in range(20):
        _record_trace(tracer, start_ns=float(i) * 100.0)  # 2 spans per trace
    summary = tracer.summary()
    assert summary["traces_recorded"] == 20
    assert summary["spans_retained"] <= 8 + 2  # tail keeps >= 1 whole trace
    assert summary["traces_dropped"] > 0
    starts = [trace[0].start_ns for trace in tracer.traces()]
    # Head holds the earliest traces, tail the latest.
    assert starts[0] == 0.0
    assert starts[-1] == 1900.0
    assert starts == sorted(starts)


def test_timeline_promotion_preserves_parallel_structure():
    timeline = evaluate(
        serial(
            Stage("metadata", 10.0),
            parallel(Stage("cte_fetch", 30.0), Stage("data_fetch", 50.0)),
        ),
        start_ns=200.0,
    )
    tracer = SpanTracer()
    tracer.begin_access(200.0, index=0)
    tracer.add_timeline("llc_miss", timeline, path="parallel_ok", kind="data")
    tracer.end_access(200.0 + timeline.total_ns)
    spans = tracer.spans()
    miss = [s for s in spans if s.category == CATEGORY_MISS][0]
    stages = {s.name: s for s in spans if s.category == CATEGORY_STAGE}
    assert set(stages) == {"metadata", "cte_fetch", "data_fetch"}
    # The speculative verify branches share a parent and a start time.
    assert stages["cte_fetch"].parent_id == miss.span_id
    assert stages["data_fetch"].parent_id == miss.span_id
    assert stages["cte_fetch"].start_ns == stages["data_fetch"].start_ns
    assert stages["data_fetch"].args["critical"] is True
    assert miss.args["path"] == "parallel_ok"


def test_bus_bridge_records_instants_only_while_sampled():
    bus = EventBus()
    tracer = SpanTracer(sample_every=2)
    tracer.attach_bus(bus)
    tracer.begin_access(0.0, index=0)
    bus.publish("faults.injected", 5.0, fault="tlb_shootdown")
    tracer.end_access(10.0)
    tracer.begin_access(20.0, index=1)  # unsampled
    bus.publish("faults.injected", 25.0, fault="tlb_shootdown")
    tracer.end_access(30.0)
    instants = [s for s in tracer.spans() if s.category == "fault"]
    assert len(instants) == 1
    assert instants[0].start_ns == 5.0
    assert instants[0].duration_ns == 0.0
    tracer.detach_bus()
    assert not bus.active


# ----------------------------------------------------------------------
# Export / import round trips
# ----------------------------------------------------------------------

def _sample_spans():
    tracer = SpanTracer()
    _record_trace(tracer)
    tracer.begin_access(500.0, index=1)
    tracer.instant("faults.injected", "fault", 510.0, fault="x")
    tracer.end_access(600.0)
    return tracer.spans()


def test_span_dict_round_trip():
    for span in _sample_spans():
        assert Span.from_dict(span.as_dict()) == span


def test_perfetto_document_schema():
    document = perfetto_document(_sample_spans(), metadata={"workload": "w"})
    assert document["displayTimeUnit"] == "ns"
    assert document["metadata"]["workload"] == "w"
    events = document["traceEvents"]
    assert all(e["ph"] in ("X", "i") for e in events)
    complete = [e for e in events if e["ph"] == "X"]
    instants = [e for e in events if e["ph"] == "i"]
    assert complete and instants
    assert all("dur" in e for e in complete)
    root = [e for e in complete if e["cat"] == "access"][0]
    assert root["ts"] == pytest.approx(0.1)  # 100 ns in microseconds
    assert root["args"]["parent_id"] is None
    assert spans_from_perfetto(document) == _sample_spans()


def test_convert_round_trip_both_directions(tmp_path):
    spans = _sample_spans()
    jsonl = tmp_path / "trace.jsonl"
    perfetto = tmp_path / "trace.json"
    write_trace_file(spans, jsonl)
    assert convert_trace(jsonl, perfetto) == len(spans)
    assert load_spans(perfetto) == spans
    back = tmp_path / "back.jsonl"
    assert convert_trace(perfetto, back) == len(spans)
    assert load_spans(back) == spans
    # The Perfetto file is a single valid JSON document.
    json.loads(perfetto.read_text())


def test_load_spans_rejects_garbage(tmp_path):
    bad = tmp_path / "bad.jsonl"
    bad.write_text("this is not json\n")
    with pytest.raises(ConfigError):
        load_spans(bad)
    with pytest.raises(ConfigError):
        load_spans(tmp_path / "missing.jsonl")
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    assert load_spans(empty) == []


# ----------------------------------------------------------------------
# TraceEventWriter
# ----------------------------------------------------------------------

def test_trace_event_writer_flushes_and_closes(tmp_path):
    path = tmp_path / "events.jsonl"
    bus = EventBus()
    writer = TraceEventWriter(path).attach(bus)
    bus.publish("tlb.miss", 1.0, vpn=2)
    bus.publish("controller.migration", 2.0, pages=1)
    writer.close()
    writer.close()  # idempotent
    assert writer.closed
    assert not bus.active  # handler detached on close
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    assert [row["kind"] for row in lines] == ["tlb.miss", "controller.migration"]
    assert lines[0]["vpn"] == 2


def test_trace_event_writer_bad_path_fails_fast(tmp_path):
    with pytest.raises(ConfigError):
        TraceEventWriter(tmp_path / "no" / "such" / "dir" / "events.jsonl")
