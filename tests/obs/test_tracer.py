"""Tracer unit tests: nesting, ordering, host clocks, disabled mode."""

import pytest

from repro.net.kernel import EventLoop
from repro.obs import NULL_SPAN, Observability, Tracer


class FakeHost:
    """Host-like object with a name and a skewed local clock."""

    def __init__(self, name, loop, skew_ms=0.0):
        self.name = name
        self._loop = loop
        self._skew = skew_ms

    def local_time(self):
        return self._loop.now + self._skew


def test_sync_span_nesting_tracks_parent_stack():
    t = Tracer(clock=lambda: 0.0)
    with t.span("outer") as outer:
        with t.span("inner") as inner:
            leaf = t.begin_span("leaf")
            leaf.end()
    assert inner.parent_id == outer.span_id
    assert leaf.parent_id == inner.span_id
    assert outer.parent_id is None
    assert [s.name for s in t.spans] == ["outer", "inner", "leaf"]


def test_async_span_ends_at_future_instant():
    clock = {"now": 10.0}
    t = Tracer(clock=lambda: clock["now"])
    span = t.begin_span("transfer", category="net", bytes=512)
    span.end(at=35.5)
    assert span.start_ms == 10.0
    assert span.end_ms == 35.5
    assert span.duration_ms == pytest.approx(25.5)
    assert span.attributes["bytes"] == 512
    # Ending twice is a no-op; the first end wins.
    span.end(at=99.0)
    assert span.end_ms == 35.5


def test_explicit_parent_overrides_stack():
    t = Tracer(clock=lambda: 0.0)
    root = t.begin_span("root")
    with t.span("unrelated"):
        child = root.child("phase")
    assert child.parent_id == root.span_id


def test_spans_under_deterministic_kernel_order():
    """Kernel dispatch spans appear in event order with correct times."""
    loop = EventLoop()
    obs = Observability()
    obs.attach(loop)
    order = []
    loop.call_later(5.0, lambda: order.append("a"))
    loop.call_later(2.0, lambda: order.append("b"))
    loop.call_later(2.0, lambda: order.append("c"))
    loop.run_until_idle()
    assert order == ["b", "c", "a"]
    kernel_spans = [s for s in obs.tracer.spans if s.category == "kernel"]
    assert len(kernel_spans) == 3
    assert [s.start_ms for s in kernel_spans] == [2.0, 2.0, 5.0]
    # Same-instant spans keep scheduling order (seq tie-break).
    assert all(s.finished for s in kernel_spans)


def test_host_local_clock_stamps():
    loop = EventLoop()
    host = FakeHost("pc2", loop, skew_ms=-2000.0)
    t = Tracer(clock=lambda: loop.now)
    loop.call_later(100.0, lambda: None)
    loop.run_until_idle()
    span = t.begin_span("arrive", host=host)
    span.end(host=host)
    assert span.host == "pc2"
    assert span.local_start_ms == pytest.approx(-1900.0)
    assert span.local_end_ms == pytest.approx(-1900.0)
    event = t.event("ping", host=host)
    assert event.host == "pc2"
    assert event.local_ms == pytest.approx(-1900.0)


def test_events_attach_to_enclosing_span():
    t = Tracer(clock=lambda: 0.0)
    with t.span("work") as span:
        inside = t.event("tick")
    outside = t.event("tock")
    assert inside.span_id == span.span_id
    assert outside.span_id is None


def test_runs_partition_records():
    t = Tracer(clock=lambda: 0.0)
    t.begin_span("first").end()
    run = t.begin_run("sweep-point")
    t.begin_span("second").end()
    assert run == 1
    assert t.run_labels == {0: "main", 1: "sweep-point"}
    assert [s.run_id for s in t.spans] == [0, 1]


def test_disabled_tracer_records_nothing():
    t = Tracer(enabled=False)
    span = t.begin_span("ignored")
    assert span is NULL_SPAN
    assert not span  # falsy
    assert span.child("x") is NULL_SPAN
    assert span.end() is NULL_SPAN
    with t.span("also-ignored") as s:
        assert not s
    assert t.event("nope") is None
    assert len(t) == 0
    assert t.spans == [] and t.events == []


def test_span_context_manager_annotates_errors():
    t = Tracer(clock=lambda: 0.0)
    with pytest.raises(ValueError):
        with t.span("doomed"):
            raise ValueError("boom")
    assert t.spans[0].attributes["error"] == "boom"
    assert t.spans[0].finished
