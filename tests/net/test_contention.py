"""Tests for the two-class link model: control priority and fair sharing.

The link serves two traffic classes.  Control messages keep the historical
exclusive-reservation arithmetic on their own lane; bulk messages queue per
(source, destination) flow, and concurrent flows share the wire by
processor sharing.  A lone bulk flow must be byte-identical to the legacy
model (the frozen migration goldens enforce that end to end; here we pin
the per-link arithmetic directly).
"""

import weakref

import pytest

from repro.net.kernel import EventLoop
from repro.net.simnet import (
    BULK,
    CONTROL,
    Network,
    register_bulk_protocol,
    traffic_class,
)

#: Registered once for the whole module; only these tests send it.
register_bulk_protocol("test.bulk")


def make_pair(bandwidth=10.0, latency=1.0, **kwargs):
    loop = EventLoop()
    net = Network(loop)
    net.create_host("h1")
    net.create_host("h2")
    net.connect("h1", "h2", bandwidth_mbps=bandwidth, latency_ms=latency,
                **kwargs)
    for host in ("h1", "h2"):
        net.host(host).register_handler("test.bulk", lambda m: None)
        net.host(host).register_handler("ctl", lambda m: None)
    return loop, net


def test_traffic_class_defaults_to_control():
    assert traffic_class("registry.rpc") == CONTROL
    assert traffic_class("some.unknown.protocol") == CONTROL
    assert traffic_class("test.bulk") == BULK
    assert traffic_class("agents.transfer") == BULK


def test_single_bulk_flow_matches_legacy_arithmetic():
    """One flow alone on the wire: exactly the exclusive-reservation
    timings (start at cursor, serialize, then latency)."""
    loop, net = make_pair(bandwidth=10.0, latency=2.0)
    r1 = net.send("h1", "h2", "test.bulk", b"", 125_000)  # 100 ms tx
    r2 = net.send("h1", "h2", "test.bulk", b"", 125_000)  # queues behind
    loop.run()
    assert r1.delivered and r2.delivered
    assert r1.delivered_at == pytest.approx(102.0)
    assert r2.delivered_at == pytest.approx(202.0)


def test_two_equal_flows_share_the_wire_fairly():
    """Opposite-direction flows (the link is a shared medium) each get
    half the bandwidth: both 100 ms payloads finish at 200 ms + latency."""
    loop, net = make_pair(bandwidth=10.0, latency=1.0)
    r1 = net.send("h1", "h2", "test.bulk", b"", 125_000)
    r2 = net.send("h2", "h1", "test.bulk", b"", 125_000)
    loop.run()
    assert r1.delivered and r2.delivered
    assert r1.delivered_at == pytest.approx(201.0)
    assert r2.delivered_at == pytest.approx(201.0)


def test_fair_sharing_is_work_conserving():
    """A short flow departs and the survivor reclaims full bandwidth:
    250 KB + 125 KB concurrently = 300 ms of wire, same total as
    serialized, with the short flow done at 200 ms."""
    loop, net = make_pair(bandwidth=10.0, latency=1.0)
    long = net.send("h1", "h2", "test.bulk", b"", 250_000)
    short = net.send("h2", "h1", "test.bulk", b"", 125_000)
    loop.run()
    assert short.delivered_at == pytest.approx(201.0)
    assert long.delivered_at == pytest.approx(301.0)


def test_control_message_jumps_a_bulk_transfer():
    """An ACL-sized control message sent mid-bulk-chunk arrives in
    O(latency), not after the chunk: the head-of-line blocking fix."""
    loop, net = make_pair(bandwidth=10.0, latency=1.0)
    bulk = net.send("h1", "h2", "test.bulk", b"", 1_250_000)  # 1000 ms tx
    ctl = {}

    def send_control():
        ctl["receipt"] = net.send("h1", "h2", "ctl", b"", 1_250)  # 1 ms tx

    loop.call_later(50.0, send_control)
    loop.run()
    assert ctl["receipt"].delivered_at == pytest.approx(52.0)
    assert bulk.delivered_at == pytest.approx(1001.0)
    link = net.link_between("h1", "h2")
    assert link.class_busy_ms[BULK] == pytest.approx(1000.0)
    assert link.class_busy_ms[CONTROL] == pytest.approx(1.0)


def test_flows_within_one_pair_stay_fifo():
    """Messages of one (source, destination) flow never share with each
    other -- they serialize FIFO, preserving window semantics."""
    loop, net = make_pair(bandwidth=10.0, latency=1.0)
    receipts = [net.send("h1", "h2", "test.bulk", b"", 12_500)
                for _ in range(5)]
    loop.run()
    arrivals = [r.delivered_at for r in receipts]
    assert arrivals == sorted(arrivals)
    for i, arrival in enumerate(arrivals):
        assert arrival == pytest.approx((i + 1) * 10.0 + 1.0)


def test_bandwidth_change_retunes_contended_flows():
    """Halving the bandwidth mid-contention stretches the remainder:
    62.5 KB left per flow at 100 ms, then 312.5 B/ms each -> done at 300."""
    loop, net = make_pair(bandwidth=10.0, latency=1.0)
    link = net.link_between("h1", "h2")
    r1 = net.send("h1", "h2", "test.bulk", b"", 125_000)
    r2 = net.send("h2", "h1", "test.bulk", b"", 125_000)
    loop.call_later(100.0, lambda: link.set_bandwidth(5.0, now=loop.now))
    loop.run()
    assert link.bandwidth_mbps == 5.0
    assert r1.delivered_at == pytest.approx(301.0)
    assert r2.delivered_at == pytest.approx(301.0)


def test_retune_to_an_unchanged_due_books_and_cancels_nothing():
    """A message queued behind a contended flow's head leaves the earliest
    head finish where it was: the pending completion tick stays booked."""
    loop, net = make_pair(bandwidth=10.0, latency=1.0)
    link = net.link_between("h1", "h2")
    net.send("h1", "h2", "test.bulk", b"", 125_000)
    net.send("h2", "h1", "test.bulk", b"", 125_000)
    tick, queued = link._tick_timer, (loop.heap_depth, loop.pending)
    assert tick.active and tick.due == pytest.approx(200.0)
    late = net.send("h1", "h2", "test.bulk", b"", 12_500)
    assert link._tick_timer is tick and tick.active
    assert (loop.heap_depth, loop.pending) == queued
    loop.run()
    # Both heads finish at 200 ms; the late message then has the wire.
    assert late.delivered_at == pytest.approx(211.0)


def test_zero_byte_bulk_message_under_contention_completes():
    loop, net = make_pair(bandwidth=10.0, latency=3.0)
    big = net.send("h1", "h2", "test.bulk", b"", 125_000)
    empty = net.send("h2", "h1", "test.bulk", b"", 0)
    loop.run()
    assert big.delivered and empty.delivered
    assert empty.delivered_at == pytest.approx(3.0)


def test_lost_bulk_messages_burn_wire_and_are_counted():
    """Loss accounting: dropped messages show up in the link counters and
    the network ledger still balances (bytes on == bytes off)."""
    loop, net = make_pair(latency=1.0, loss_rate=0.5)
    drops = []
    receipts = [
        net.send("h1", "h2", "test.bulk", b"", 10_000,
                 on_dropped=lambda r: drops.append(r))
        for _ in range(20)
    ]
    loop.run()
    link = net.link_between("h1", "h2")
    delivered = [r for r in receipts if r.delivered]
    dropped = [r for r in receipts if r.dropped]
    assert delivered and dropped  # seed exercises both outcomes
    assert len(drops) == len(dropped)
    assert link.messages_dropped == len(dropped)
    assert link.messages_carried == len(delivered)
    assert link.bytes_dropped == 10_000 * len(dropped)
    assert link.bytes_carried == 10_000 * len(delivered)
    assert net.bytes_on_wire == net.bytes_off_wire == 10_000 * 20
    assert net.bytes_on_wire == link.bytes_carried + link.bytes_dropped


def test_lost_control_messages_are_counted_too():
    loop, net = make_pair(latency=1.0, loss_rate=0.5)
    receipts = [net.send("h1", "h2", "ctl", b"", 1_000) for _ in range(20)]
    loop.run()
    link = net.link_between("h1", "h2")
    dropped = [r for r in receipts if r.dropped]
    assert dropped
    assert link.messages_dropped == len(dropped)
    assert link.bytes_dropped == 1_000 * len(dropped)
    assert net.bytes_on_wire == net.bytes_off_wire


def test_bulk_queue_introspection():
    loop, net = make_pair(bandwidth=10.0, latency=1.0)
    link = net.link_between("h1", "h2")
    assert link.bulk_queue_depth() == 0
    assert not link.bulk_contended
    net.send("h1", "h2", "test.bulk", b"", 125_000)
    net.send("h2", "h1", "test.bulk", b"", 125_000)
    assert link.bulk_contended
    assert link.bulk_queue_depth() == 2
    loop.run()
    assert link.bulk_queue_depth() == 0
    assert not link.bulk_contended


def test_contention_gauges_emitted_only_while_contended():
    """net.link.queue_depth / net.link.utilization appear iff bulk flows
    actually contend -- uncontended runs (the frozen goldens) record no
    new series."""
    from repro.obs import Observability

    def run(concurrent):
        obs = Observability()
        loop, net = make_pair(bandwidth=10.0, latency=1.0)
        obs.attach(loop)
        net.send("h1", "h2", "test.bulk", b"", 125_000)
        if concurrent:
            loop.call_later(
                10.0, net.send, "h2", "h1", "test.bulk", b"", 125_000)
        loop.run()
        return obs.metrics

    quiet = run(concurrent=False)
    assert quiet.gauge("net.link.queue_depth",
                       link="h1<->h2").updates == 0
    contended = run(concurrent=True)
    assert contended.gauge("net.link.queue_depth",
                           link="h1<->h2").updates > 0
    util = contended.gauge("net.link.utilization", link="h1<->h2",
                           **{"class": BULK})
    assert 0.0 < util.value <= 1.0


def test_hard_cut_drops_contended_bulk_jobs():
    """drop_in_flight=True destroys queued bulk jobs and settles the
    ledger; nothing is delivered afterwards."""
    loop, net = make_pair(bandwidth=10.0, latency=1.0)
    drops = []
    r1 = net.send("h1", "h2", "test.bulk", b"", 125_000,
                  on_dropped=lambda r: drops.append(r))
    r2 = net.send("h2", "h1", "test.bulk", b"", 125_000,
                  on_dropped=lambda r: drops.append(r))
    loop.call_later(50.0, net.disconnect, "h1", "h2", True)
    loop.run()
    assert not r1.delivered and not r2.delivered
    assert r1.dropped and r2.dropped
    assert len(drops) == 2
    assert net.bytes_on_wire == net.bytes_off_wire
    # The retired counters keep the per-link reconciliation balanced.
    assert net.retired_link_bytes == 250_000


class _Payload:
    """A weak-referenceable payload."""


def make_chain(*names, latency=1.0, **kwargs):
    loop = EventLoop()
    net = Network(loop)
    for name in names:
        net.create_host(name)
        net.host(name).register_handler("test.bulk", lambda m: None)
    for a, b in zip(names, names[1:]):
        net.connect(a, b, bandwidth_mbps=10.0, latency_ms=latency, **kwargs)
    return loop, net


@pytest.mark.parametrize("names", [("h1", "h2"), ("a", "b", "c")])
def test_delivered_bulk_chunk_is_released_at_once(names):
    loop, net = make_chain(*names)
    payload = _Payload()
    alive = weakref.ref(payload)
    receipt = net.send(names[0], names[-1], "test.bulk", payload, 12_500)
    del payload
    loop.run()
    assert receipt.delivered and receipt.hops == len(names) - 1
    del receipt
    assert alive() is None  # no gc.collect(): nothing holds it any more
    assert all(not link._flying for link in net.links)


def test_contended_lossy_burst_tables_exactly_the_unfired_bookings():
    """After every event, each link's table holds the hops of both lanes
    whose latest booked landing has not fired yet, in booking order:
    bookings the contention pulled back, the relay's forwards and lost
    messages never linger there."""
    loop, net = make_chain("a", "b", "c", latency=3.0, loss_rate=0.2)
    for name in ("a", "b", "c"):
        net.host(name).register_handler("ctl", lambda m: None)
    book = net._book
    booked = {}  # hop -> its latest landing timer, in booking order

    def recording_book(hop, arrival):
        timer = book(hop, arrival)
        booked.pop(hop, None)
        booked[hop] = timer
        return timer

    net._book = recording_book
    sends = [("a", "c"), ("c", "a"), ("a", "b"), ("b", "a"), ("c", "b")]
    for k in range(60):
        source, destination = sends[k % len(sends)]
        loop.call_at(k * 0.7, net.send, source, destination, "test.bulk",
                     None, 1_000 + 97 * k)
        loop.call_at(k * 0.7 + 0.3, net.send, destination, source, "ctl",
                     None, 64 + 13 * k)

    def check():
        for link in net.links:
            assert list(link._flying.items()) == [
                (hop, timer) for hop, timer in booked.items()
                if timer.active and hop.link is link]

    check()
    while loop.step():
        check()
    assert net.messages_dropped > 0
    assert {hop.flow is None for hop in booked} == {True, False}
    assert all(not link._flying for link in net.links)
    assert net.bytes_on_wire == net.bytes_off_wire


#: The drops of the cut below, as the per-link list of propagating jobs
#: (before the table replaced it) made them: each flow's queued jobs by
#: first-seen rank, the dissolved window batch's members among them, then
#: the propagating jobs in booking order, all at the cut; then the
#: messages that reach the relay after it.
PINNED_CUT_ORDER = [
    ("w1", 31.0), ("w2", 31.0), ("w3", 31.0), ("ba1", 31.0), ("ba2", 31.0),
    ("ac1", 31.0), ("ac2", 31.0), ("ac0", 31.0), ("w0", 31.0), ("ba0", 31.0),
    ("ca0", 33.8), ("ca1", 42.6), ("ca2", 51.400000000000006)]


def test_hard_cut_during_contention_drops_in_the_pinned_order():
    """A hard cut of a contended link mid-burst, whose window batch
    contention dissolved, drops the same receipts in the same order as
    before the link kept its propagating jobs in a table."""
    loop, net = make_chain("a", "b", "c", latency=20.0)
    drops = []

    def send(label, source, destination, size):
        net.send(source, destination, "test.bulk", None, size,
                 on_dropped=lambda r: drops.append((label, loop.now)))

    def window():
        chunks = [(None, 12_500, None,
                   lambda r, k=k: drops.append((f"w{k}", loop.now)))
                  for k in range(4)]
        assert net.send_window("a", "b", "test.bulk", chunks) is not None

    loop.call_at(0.0, window)
    for k in range(3):
        loop.call_at(3.0 + k, send, f"ba{k}", "b", "a", 9_000)
        loop.call_at(4.0 + k, send, f"ac{k}", "a", "c", 7_000)
        loop.call_at(5.0 + k, send, f"ca{k}", "c", "a", 11_000)
    loop.call_at(31.0, net.disconnect, "a", "b", True)
    loop.run()
    assert drops == PINNED_CUT_ORDER
    assert net.bytes_on_wire == net.bytes_off_wire


#: The log of the mixed-lane cut below, from a run of the same scenario
#: before both lanes shared the link's table: the control hops first, in
#: booking order, then the bulk lane's queued jobs by flow rank and its
#: booked jobs in booking order, all at the cut.
PINNED_MIXED_CUT = [
    ("dropped", "c0", 4.0), ("dropped", "c1", 4.0), ("dropped", "x2", 4.0),
    ("dropped", "y0", 4.0), ("dropped", "x0", 4.0), ("dropped", "x1", 4.0)]

#: The same for a cut of a window round whose first member has arrived:
#: the control hops drop before the arrived member is delivered, late but
#: stamped with its analytic arrival.
PINNED_BATCH_CUT = [
    ("delivered", "c0", 25.16, 25.16), ("dropped", "c1", 35.0),
    ("dropped", "c2", 35.0), ("delivered", "w0", 35.0, 30.0),
    ("dropped", "w1", 35.0), ("dropped", "w2", 35.0), ("dropped", "w3", 35.0)]


def _logged_pair(latency):
    loop, net = make_chain("a", "b", latency=latency)
    for name in ("a", "b"):
        net.host(name).register_handler("ctl", lambda m: None)
    log = []

    def callbacks(label):
        return (lambda r: log.append(("delivered", label, loop.now,
                                      r.delivered_at)),
                lambda r: log.append(("dropped", label, loop.now)))

    def send(label, source, destination, protocol, size):
        net.send(source, destination, protocol, None, size,
                 *callbacks(label))

    return loop, net, log, callbacks, send


def test_mixed_lane_hard_cut_drops_in_the_pinned_order():
    """A hard cut of a link carrying control hops, booked bulk hops and a
    queued bulk job drops them in the same order and at the same instant
    as before the lanes shared one table."""
    loop, net, log, _, send = _logged_pair(latency=20.0)
    link = net.link_between("a", "b")
    loop.call_at(0.0, send, "x0", "a", "b", "test.bulk", 1_250)
    loop.call_at(0.5, send, "c0", "a", "b", "ctl", 200)
    loop.call_at(2.0, send, "x1", "a", "b", "test.bulk", 1_250)
    loop.call_at(2.5, send, "y0", "b", "a", "test.bulk", 12_500)
    loop.call_at(3.0, send, "c1", "b", "a", "ctl", 300)
    loop.call_at(3.8, send, "x2", "a", "b", "test.bulk", 2_500)
    loop.run(until=3.9)
    # Both lanes are booked on the link (x0, c0, c1, then x1, which
    # contention pulled back and booked again), and two jobs queue.
    assert [hop.flow is None for hop in link._flying] == \
        [False, True, True, False]
    assert link.bulk_queue_depth() == 2
    loop.call_at(4.0, net.disconnect, "a", "b", True)
    loop.run()
    assert log == PINNED_MIXED_CUT
    assert not link._flying
    assert net.bytes_on_wire == net.bytes_off_wire


def test_hard_cut_of_a_window_round_drops_control_hops_first():
    loop, net, log, callbacks, send = _logged_pair(latency=20.0)
    link = net.link_between("a", "b")

    def window():
        chunks = [(None, 12_500) + callbacks(f"w{k}") for k in range(4)]
        assert net.send_window("a", "b", "test.bulk", chunks) is not None

    loop.call_at(0.0, window)
    loop.call_at(5.0, send, "c0", "a", "b", "ctl", 200)
    loop.call_at(15.0, send, "c1", "b", "a", "ctl", 300)
    loop.call_at(33.0, send, "c2", "a", "b", "ctl", 400)
    loop.call_at(35.0, net.disconnect, "a", "b", True)
    loop.run()
    assert log == PINNED_BATCH_CUT
    assert not link._flying and not link._batches
    assert net.bytes_on_wire == net.bytes_off_wire
