"""Span tracing: nesting, sinks, external timings."""

import pytest

from repro.obs.spans import SpanRecord, Tracer


def test_span_times_and_accumulates():
    tracer = Tracer()
    with tracer.span("phase", partition=3) as span:
        pass
    assert tracer.spans == [span]
    assert span.name == "phase"
    assert span.wall_s >= 0.0
    assert span.start_s >= 0.0
    assert span.attrs == {"partition": 3}


def test_nested_spans_record_depth_in_completion_order():
    tracer = Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
    assert [s.name for s in tracer.spans] == ["inner", "outer"]
    assert [s.depth for s in tracer.spans] == [1, 0]


def test_sink_streams_finished_spans():
    seen = []
    tracer = Tracer(sink=seen.append)
    with tracer.span("a"):
        pass
    tracer.record("b", 0.5)
    assert [s.name for s in seen] == ["a", "b"]


def test_span_recorded_even_when_body_raises():
    tracer = Tracer()
    with pytest.raises(RuntimeError):
        with tracer.span("doomed"):
            raise RuntimeError("simulated crash")
    assert [s.name for s in tracer.spans] == ["doomed"]
    # Depth unwinds, so later spans are top-level again.
    with tracer.span("after"):
        pass
    assert tracer.spans[-1].depth == 0


def test_record_external_timing():
    tracer = Tracer()
    span = tracer.record("load", 0.25, file_bytes=1024)
    assert span.wall_s == 0.25
    assert span.attrs == {"file_bytes": 1024}
    assert tracer.spans == [span]


def test_as_dict_rounds_and_omits_empty_attrs():
    d = SpanRecord(name="p", start_s=0.12345678, wall_s=1.9999999, depth=2).as_dict()
    assert d == {"name": "p", "start_s": 0.123457, "wall_s": 2.0, "depth": 2}
    with_attrs = SpanRecord(name="p", start_s=0, wall_s=0, attrs={"k": 1}).as_dict()
    assert with_attrs["attrs"] == {"k": 1}
