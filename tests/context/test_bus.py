"""Tests for the publish/subscribe context kernel."""

import pytest

from repro.context.bus import ContextBus
from repro.context.model import ContextEvent
from repro.net.kernel import EventLoop


@pytest.fixture
def loop():
    return EventLoop()


@pytest.fixture
def bus(loop):
    return ContextBus(loop)


def ev(topic="context.location", subject="alice", **attrs):
    return ContextEvent(topic=topic, subject=subject, attributes=attrs)


def test_subscribe_and_receive(loop, bus):
    got = []
    bus.subscribe("context.location", got.append)
    bus.publish(ev(location="room1"))
    loop.run()
    assert len(got) == 1
    assert got[0].get("location") == "room1"


def test_multicast_to_all_listeners(loop, bus):
    a, b = [], []
    bus.subscribe("context.location", a.append)
    bus.subscribe("context.location", b.append)
    count = bus.publish(ev())
    loop.run()
    assert count == 2
    assert len(a) == 1 and len(b) == 1


def test_topic_isolation(loop, bus):
    got = []
    bus.subscribe("context.network", got.append)
    bus.publish(ev(topic="context.location"))
    loop.run()
    assert got == []


def test_predicate_filter(loop, bus):
    """Agents filter and find their interested subjects."""
    got = []
    bus.subscribe("context.location", got.append,
                  predicate=lambda e: e.subject == "alice")
    bus.publish(ev(subject="alice"))
    bus.publish(ev(subject="bob"))
    loop.run()
    assert [e.subject for e in got] == ["alice"]


def test_publish_returns_listener_count(loop, bus):
    assert bus.publish(ev()) == 0
    bus.subscribe("context.location", lambda e: None)
    assert bus.publish(ev()) == 1


def test_delivery_is_asynchronous(loop, bus):
    """Publish must not synchronously reenter the listener."""
    order = []
    bus.subscribe("context.location", lambda e: order.append("delivered"))
    bus.publish(ev())
    order.append("after-publish")
    loop.run()
    assert order == ["after-publish", "delivered"]


def test_timestamp_stamped_on_publish(loop, bus):
    stamped = []
    bus.subscribe("context.location", lambda e: stamped.append(e.timestamp))
    loop.call_later(50.0, lambda: bus.publish(ev()))
    loop.run()
    assert stamped == [50.0]


def test_listener_can_publish_reentrantly(loop, bus):
    """A listener publishing a follow-up event must not deadlock."""
    got = []
    bus.subscribe("context.location",
                  lambda e: bus.publish(ev(topic="context.derived")))
    bus.subscribe("context.derived", got.append)
    bus.publish(ev())
    loop.run()
    assert len(got) == 1


def test_empty_topic_rejected(bus):
    with pytest.raises(ValueError):
        bus.subscribe("", lambda e: None)


def test_event_validation():
    with pytest.raises(ValueError):
        ContextEvent(topic="", subject="alice")
    with pytest.raises(ValueError):
        ContextEvent(topic="t", subject="")
    with pytest.raises(ValueError):
        ContextEvent(topic="t", subject="s", confidence=1.5)

