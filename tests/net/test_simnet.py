"""Tests for hosts, links and message delivery."""

import weakref

import pytest

from repro.net.kernel import EventLoop
from repro.net.simnet import (
    DuplicateHostError,
    Host,
    Link,
    Message,
    Network,
    NetworkError,
    UnreachableHostError,
)


def make_pair(bandwidth=10.0, latency=1.0, **kwargs):
    loop = EventLoop()
    net = Network(loop)
    net.create_host("h1")
    net.create_host("h2")
    net.connect("h1", "h2", bandwidth_mbps=bandwidth, latency_ms=latency, **kwargs)
    return loop, net


def test_message_rejects_negative_size():
    with pytest.raises(ValueError):
        Message("a", "b", "p", None, -1)


def test_duplicate_host_rejected():
    loop = EventLoop()
    net = Network(loop)
    net.create_host("h1")
    with pytest.raises(DuplicateHostError):
        net.create_host("h1")


def test_self_link_rejected():
    loop = EventLoop()
    net = Network(loop)
    net.create_host("h1")
    with pytest.raises(NetworkError):
        net.connect("h1", "h1")


def test_duplicate_link_rejected():
    loop, net = make_pair()
    with pytest.raises(NetworkError):
        net.connect("h1", "h2")


def test_link_validation():
    with pytest.raises(ValueError):
        Link("a", "b", bandwidth_mbps=0)
    with pytest.raises(ValueError):
        Link("a", "b", latency_ms=-1)
    with pytest.raises(ValueError):
        Link("a", "b", loss_rate=1.0)


def test_transmission_time_10mbps():
    """1 MB over 10 Mbps = 800 ms of pure transmission (paper's link)."""
    link = Link("a", "b", bandwidth_mbps=10.0, latency_ms=0.0)
    assert link.transmission_ms(1_000_000) == pytest.approx(800.0)


def test_delivery_time_includes_latency_and_bandwidth():
    loop, net = make_pair(bandwidth=10.0, latency=2.0)
    got = []
    net.host("h2").register_handler("test", got.append)
    receipt = net.send("h1", "h2", "test", "payload", 1_000_000)
    loop.run()
    assert receipt.delivered
    assert got[0].payload == "payload"
    assert receipt.transfer_ms == pytest.approx(802.0)


def test_zero_byte_message_costs_latency_only():
    loop, net = make_pair(latency=3.0)
    net.host("h2").register_handler("test", lambda m: None)
    receipt = net.send("h1", "h2", "test", None, 0)
    loop.run()
    assert receipt.transfer_ms == pytest.approx(3.0)


def test_concurrent_transfers_serialize_on_link():
    loop, net = make_pair(bandwidth=10.0, latency=0.0)
    net.host("h2").register_handler("t", lambda m: None)
    r1 = net.send("h1", "h2", "t", None, 1_000_000)  # 800 ms tx
    r2 = net.send("h1", "h2", "t", None, 1_000_000)  # queued behind r1
    loop.run()
    assert r1.delivered_at == pytest.approx(800.0)
    assert r2.delivered_at == pytest.approx(1600.0)


def test_local_delivery_is_instant():
    loop, net = make_pair()
    got = []
    net.host("h1").register_handler("loop", got.append)
    receipt = net.send("h1", "h1", "loop", 7, 100)
    loop.run()
    assert receipt.delivered
    assert receipt.transfer_ms == 0.0
    assert got[0].payload == 7


def test_missing_handler_raises():
    loop, net = make_pair()
    net.send("h1", "h2", "nobody-listens", None, 10)
    with pytest.raises(NetworkError):
        loop.run()


def test_handler_replacement():
    loop, net = make_pair()
    first, second = [], []
    h2 = net.host("h2")
    h2.register_handler("t", first.append)
    h2.register_handler("t", second.append)
    net.send("h1", "h2", "t", None, 1)
    loop.run()
    assert first == [] and len(second) == 1


def test_unregister_handler():
    host = Host("h", EventLoop())
    host.register_handler("t", lambda m: None)
    assert host.handles("t")
    host.unregister_handler("t")
    assert not host.handles("t")


def test_unreachable_host():
    loop = EventLoop()
    net = Network(loop)
    net.create_host("island1")
    net.create_host("island2")
    with pytest.raises(UnreachableHostError):
        net.send("island1", "island2", "t", None, 1)


def test_multi_hop_routing_and_hops_counted():
    loop = EventLoop()
    net = Network(loop)
    for name in ("a", "b", "c"):
        net.create_host(name)
    net.connect("a", "b", latency_ms=1.0)
    net.connect("b", "c", latency_ms=1.0)
    got = []
    net.host("c").register_handler("t", got.append)
    receipt = net.send("a", "c", "t", "x", 0)
    loop.run()
    assert receipt.delivered
    assert receipt.hops == 2
    assert receipt.transfer_ms == pytest.approx(2.0)


def test_forward_delay_charged_at_relay():
    loop = EventLoop()
    net = Network(loop)
    for name in ("a", "gw", "c"):
        net.create_host(name)
    net.connect("a", "gw", latency_ms=1.0)
    net.connect("gw", "c", latency_ms=1.0)
    net.set_forward_delay("gw", 10.0)
    net.host("c").register_handler("t", lambda m: None)
    receipt = net.send("a", "c", "t", None, 0)
    loop.run()
    assert receipt.transfer_ms == pytest.approx(12.0)


def test_route_prefers_fewest_hops():
    loop = EventLoop()
    net = Network(loop)
    for name in ("a", "b", "c", "d"):
        net.create_host(name)
    net.connect("a", "b")
    net.connect("b", "c")
    net.connect("c", "d")
    net.connect("a", "d")  # direct shortcut
    assert net.route("a", "d") == ["a", "d"]


def test_offline_relay_is_avoided():
    loop = EventLoop()
    net = Network(loop)
    for name in ("a", "relay1", "relay2", "d"):
        net.create_host(name)
    net.connect("a", "relay1")
    net.connect("relay1", "d")
    net.connect("a", "relay2")
    net.connect("relay2", "d")
    net.host("relay1").online = False
    assert "relay1" not in net.route("a", "d")


def test_send_to_offline_destination_rejected():
    loop, net = make_pair()
    net.host("h2").online = False
    with pytest.raises(NetworkError):
        net.send("h1", "h2", "t", None, 1)


def test_lossy_link_drops_messages():
    loop = EventLoop()
    net = Network(loop, seed=7)
    net.create_host("h1")
    net.create_host("h2")
    net.connect("h1", "h2", loss_rate=0.5)
    net.host("h2").register_handler("t", lambda m: None)
    receipts = [net.send("h1", "h2", "t", None, 10) for _ in range(100)]
    loop.run()
    dropped = sum(1 for r in receipts if r.dropped)
    assert 20 < dropped < 80
    assert net.messages_dropped == dropped


def test_byte_accounting():
    loop, net = make_pair()
    net.host("h2").register_handler("t", lambda m: None)
    net.send("h1", "h2", "t", None, 1234)
    loop.run()
    assert net.host("h1").bytes_sent == 1234
    assert net.host("h2").bytes_received == 1234
    assert net.host("h2").messages_received == 1
    assert net.link_between("h1", "h2").bytes_carried == 1234


def test_on_delivered_callback_runs_at_delivery_time():
    loop, net = make_pair(latency=5.0)
    net.host("h2").register_handler("t", lambda m: None)
    times = []
    net.send("h1", "h2", "t", None, 0,
             on_delivered=lambda r: times.append(loop.now))
    loop.run()
    assert times == [pytest.approx(5.0)]


def test_deterministic_under_seed():
    def run(seed):
        loop = EventLoop()
        net = Network(loop, seed=seed)
        net.create_host("h1")
        net.create_host("h2")
        net.connect("h1", "h2", jitter_ms=5.0)
        net.host("h2").register_handler("t", lambda m: None)
        receipts = [net.send("h1", "h2", "t", None, 100) for _ in range(10)]
        loop.run()
        return [r.delivered_at for r in receipts]

    assert run(3) == run(3)
    assert run(3) != run(4)


def make_chain(*names, latency=1.0):
    loop = EventLoop()
    net = Network(loop)
    for name in names:
        net.create_host(name)
    for a, b in zip(names, names[1:]):
        net.connect(a, b, latency_ms=latency)
    net.host(names[-1]).register_handler("t", lambda m: None)
    return loop, net


def test_disconnect_default_lets_in_flight_drain():
    loop, net = make_pair(latency=5.0)
    net.host("h2").register_handler("t", lambda m: None)
    receipt = net.send("h1", "h2", "t", None, 0)
    net.disconnect("h1", "h2")  # graceful detach: last frames drain
    loop.run()
    assert receipt.delivered
    assert not receipt.dropped
    # New sends no longer have a route.
    with pytest.raises(UnreachableHostError):
        net.send("h1", "h2", "t", None, 0)


def test_disconnect_drop_in_flight_hard_cuts():
    loop, net = make_pair(latency=5.0)
    net.host("h2").register_handler("t", lambda m: None)
    drops = []
    receipt = net.send("h1", "h2", "t", None, 0,
                       on_dropped=lambda r: drops.append(loop.now))
    net.disconnect("h1", "h2", drop_in_flight=True)
    loop.run()
    assert receipt.dropped
    assert not receipt.delivered
    assert drops == [0.0]  # the cut drops it immediately, not at arrival


def test_route_fails_when_only_relay_offline():
    loop, net = make_chain("a", "b", "c")
    net.host("b").online = False
    with pytest.raises(UnreachableHostError):
        net.route("a", "c")
    with pytest.raises(UnreachableHostError):
        net.send("a", "c", "t", None, 0)


def test_relay_crash_mid_flight_drops_message():
    loop, net = make_chain("a", "b", "c", latency=2.0)
    dropped = []
    receipt = net.send("a", "c", "t", None, 0,
                       on_dropped=lambda r: dropped.append(r))
    # The relay dies while the message is still on the a--b wire.
    loop.call_at(1.0, lambda: setattr(net.host("b"), "online", False))
    loop.run()
    assert dropped == [receipt]
    assert receipt.dropped
    assert receipt.hops == 1  # it made the first hop, then died at the relay


def test_link_removed_mid_flight_between_hops():
    loop, net = make_chain("a", "b", "c", latency=2.0)
    receipt = net.send("a", "c", "t", None, 0)
    # The b--c leg disappears before the relay forwards.
    loop.call_at(1.0, lambda: net.disconnect("b", "c"))
    loop.run()
    assert receipt.dropped


class _Payload:
    """A weak-referenceable payload."""


@pytest.mark.parametrize("names", [("h1", "h2"), ("a", "b", "c")])
def test_delivered_control_message_is_released_at_once(names):
    loop, net = make_chain(*names)
    payload = _Payload()
    alive = weakref.ref(payload)
    receipt = net.send(names[0], names[-1], "t", payload, 64)
    del payload
    loop.run()
    assert receipt.delivered and receipt.hops == len(names) - 1
    del receipt
    assert alive() is None  # no gc.collect(): nothing holds it any more
    assert all(not link._flying for link in net.links)


def test_hard_cut_drops_the_cut_links_messages_in_send_order():
    loop, net = make_chain("a", "b", "c", latency=2.0)
    net.host("b").register_handler("t", lambda m: None)
    links = net.links
    sent, drops = {}, []

    def send_at(at, source, destination):
        def go():
            sent[at] = net.send(source, destination, "t", None, 0,
                                on_dropped=lambda r: drops.append(
                                    (r, loop.now)))
        loop.call_at(at, go)

    send_at(0.0, "a", "c")  # reaches b at 2.0, then rides b--c
    send_at(0.5, "a", "b")  # delivered at 2.5, before the cut
    for at in (2.6, 2.7, 2.8):
        send_at(at, "a", "b")  # still on a--b at the cut
    send_at(2.9, "c", "b")  # on b--c at the cut
    loop.call_at(3.0, lambda: net.disconnect("a", "b", drop_in_flight=True))
    loop.run()
    assert [(id(r), t) for r, t in drops] == \
        [(id(sent[at]), 3.0) for at in (2.6, 2.7, 2.8)]
    for at in (0.0, 0.5, 2.9):
        assert sent[at].delivered and not sent[at].dropped
    assert all(not link._flying for link in links)


def test_hard_cut_after_reconnect_drops_only_the_new_links_messages():
    loop, net = make_pair(latency=5.0)
    net.host("h2").register_handler("t", lambda m: None)
    drops = []
    straggler = net.send("h1", "h2", "t", None, 0, on_dropped=drops.append)
    loop.run(until=1.0)
    old = net.link_between("h1", "h2")
    net.disconnect("h1", "h2")  # graceful: the straggler still drains
    new = net.connect("h1", "h2", latency_ms=5.0)
    fresh = net.send("h1", "h2", "t", None, 0, on_dropped=drops.append)
    loop.run(until=2.0)
    net.disconnect("h1", "h2", drop_in_flight=True)
    loop.run()
    assert len(drops) == 1 and drops[0] is fresh
    assert straggler.delivered and straggler.delivered_at == 5.0
    assert not old._flying and not new._flying


def test_same_instant_burst_keeps_exactly_the_undelivered_receipts():
    loop, net = make_pair(loss_rate=0.2)
    net.host("h2").register_handler("t", lambda m: None)
    receipts = [net.send("h1", "h2", "t", None, 64) for _ in range(1600)]

    def tabled():
        return {id(hop.receipt) for link in net.links for hop in link._flying}

    def undelivered():
        return {id(r) for r in receipts if not (r.delivered or r.dropped)}

    assert any(r.dropped for r in receipts)  # lost at send: never tabled
    assert tabled() == undelivered()
    while loop.step():
        assert tabled() == undelivered()
    assert all(r.delivered or r.dropped for r in receipts)
    assert all(not link._flying for link in net.links)


def test_forward_delay_applies_per_relay_hop():
    loop, net = make_chain("a", "gw1", "gw2", "d", latency=1.0)
    net.set_forward_delay("gw1", 10.0)
    net.set_forward_delay("gw2", 5.0)
    receipt = net.send("a", "d", "t", None, 0)
    loop.run()
    assert receipt.delivered
    assert receipt.hops == 3
    assert receipt.transfer_ms == pytest.approx(3.0 + 10.0 + 5.0)


def test_offline_endpoints_raise_host_offline_error():
    from repro.net.simnet import HostOfflineError

    loop, net = make_pair()
    net.host("h1").online = False
    with pytest.raises(HostOfflineError):
        net.send("h1", "h2", "t", None, 0)
    net.host("h1").online = True
    net.host("h2").online = False
    with pytest.raises(HostOfflineError):
        net.send("h1", "h2", "t", None, 0)
    # HostOfflineError is a NetworkError, so legacy handlers still catch it.
    assert issubclass(HostOfflineError, NetworkError)


# -- Host.deliver accounting ---------------------------------------------------

def test_unhandled_message_not_counted_as_received():
    """Regression: stats were incremented before the missing-handler check,
    so a message nobody handled still inflated the receive counters."""
    host = Host("h", EventLoop())
    message = Message("a", "h", "t", None, 50)
    with pytest.raises(NetworkError):
        host.deliver(message)
    assert host.bytes_received == 0
    assert host.messages_received == 0
    host.register_handler("t", lambda m: None)
    host.deliver(message)
    assert host.bytes_received == 50
    assert host.messages_received == 1


# -- per-link FIFO delivery under jitter ---------------------------------------

def test_jitter_cannot_reorder_deliveries_on_a_link():
    """Regression: a small jitter draw used to let a later message leapfrog
    an earlier one on the same link; delivery is now FIFO per link."""
    loop = EventLoop()
    net = Network(loop, seed=123)
    net.create_host("h1")
    net.create_host("h2")
    net.connect("h1", "h2", bandwidth_mbps=1_000.0, latency_ms=1.0,
                jitter_ms=50.0)
    got = []
    net.host("h2").register_handler("t", lambda m: got.append(m.payload))
    for i in range(50):
        net.send("h1", "h2", "t", i, 10)
    loop.run()
    assert got == list(range(50))


def test_fifo_clamp_keeps_arrivals_monotonic():
    loop = EventLoop()
    net = Network(loop, seed=7)
    net.create_host("h1")
    net.create_host("h2")
    net.connect("h1", "h2", bandwidth_mbps=1_000.0, latency_ms=1.0,
                jitter_ms=30.0)
    net.host("h2").register_handler("t", lambda m: None)
    receipts = [net.send("h1", "h2", "t", i, 10) for i in range(30)]
    loop.run()
    arrivals = [r.delivered_at for r in receipts]
    assert arrivals == sorted(arrivals)


# -- BFS route cache -----------------------------------------------------------

def make_diamond():
    """a--b--c and a--d--c: two equal-length routes."""
    loop = EventLoop()
    net = Network(loop)
    for name in ("a", "b", "c", "d"):
        net.create_host(name)
    net.connect("a", "b")
    net.connect("b", "c")
    net.connect("a", "d")
    net.connect("d", "c")
    return loop, net


def test_route_cache_hits_after_first_lookup():
    loop, net = make_diamond()
    first = net.route("a", "c")
    misses = net.route_cache_misses
    assert net.route("a", "c") == first
    assert net.route("a", "c") == first
    assert net.route_cache_hits >= 2
    assert net.route_cache_misses == misses


def test_cached_route_is_a_copy():
    loop, net = make_diamond()
    first = net.route("a", "c")
    first.append("junk")  # caller mutation must not poison the cache
    assert net.route("a", "c") == first[:-1]


def test_route_cache_invalidated_by_new_link():
    loop, net = make_diamond()
    assert len(net.route("a", "c")) == 3  # two hops via b or d
    net.connect("a", "c")
    assert net.route("a", "c") == ["a", "c"]


def test_route_cache_invalidated_by_disconnect():
    loop, net = make_diamond()
    via = net.route("a", "c")
    relay = via[1]
    net.disconnect(relay, "c")
    rerouted = net.route("a", "c")
    assert rerouted[1] != relay
    assert rerouted[0] == "a" and rerouted[-1] == "c"


def test_route_cache_invalidated_by_online_flip():
    loop, net = make_diamond()
    via = net.route("a", "c")
    relay = via[1]
    net.host(relay).online = False
    rerouted = net.route("a", "c")
    assert rerouted[1] != relay
    net.host(relay).online = True
    assert net.route("a", "c")[0] == "a"
