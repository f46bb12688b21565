"""Differential oracles for the bulk lane's flow bookkeeping.

A link answers "is another bulk flow still serializing?" from the flows
whose cursor a booking pushed past ``now``, pruned as time passes, and
it keeps the flows with queued jobs in a list of their own.  The
reference answers scan every flow the link ever carried.  The property
drives one ``Link`` through random interleavings of single enqueues
(some of them lost), analytic window bookings, loop advances and hard
cuts; it holds the gate to that scan before every enqueue and booking,
and the active-flow list to it after every step.
"""

from hypothesis import given, settings, strategies as st

from repro.net.kernel import EventLoop
from repro.net.simnet import Link

FLOWS = [("a", "b"), ("b", "a"), ("a", "c")]


class _Draws:
    """An RNG whose loss draw always hits: with ``loss_rate > 0`` the
    message is lost, with ``loss_rate == 0`` it is not (no draw)."""

    def random(self):
        return 0.0

    def uniform(self, low, high):
        return low


def _scan(link, key, now):
    """The reference: any *other* flow whose cursor lies beyond now."""
    return any(f.cursor > now + Link._EPS and f.key != key
               for f in link._flows.values())


def _queued(link):
    """The reference: every flow with queued jobs, in first-seen order."""
    return [f for f in link._flows.values() if f.jobs]


steps = st.lists(st.one_of(
    st.tuples(st.just("send"), st.sampled_from(FLOWS),
              st.integers(0, 250_000), st.booleans()),
    st.tuples(st.just("window"), st.sampled_from(FLOWS),
              st.integers(2, 4), st.integers(1, 150_000)),
    st.tuples(st.just("advance"), st.sampled_from([0.0, 1e-10, 5.0, 40.0,
                                                   150.0])),
    st.tuples(st.just("abort"),),
), max_size=40)


@given(steps=steps)
@settings(max_examples=300)
def test_uncontended_gate_equals_a_scan_of_every_flow(steps):
    loop = EventLoop()
    link = Link("a", "b", bandwidth_mbps=10.0, latency_ms=1.0)
    rng = _Draws()

    def dispatch(job, arrival):
        return loop.call_at(arrival, lambda: None)

    for step in steps:
        now = loop.now
        if step[0] == "send":
            _, key, size, lost = step
            link.loss_rate = 0.5 if lost else 0.0
            busy = _scan(link, key, now)
            was_contended = link._contended
            link.enqueue_bulk(loop, now, key, size, rng, dispatch)
            if not was_contended:
                # The uncontended branch never enters fluid mode.
                assert link._contended == busy, step
        elif step[0] == "window":
            _, key, count, size = step
            link.loss_rate = 0.0
            expected = not link._contended and not _scan(link, key, now)
            assert link.bulk_window_eligible(key, now) == expected, step
            if expected:
                link.book_bulk_window(
                    loop, now, key,
                    [(size, dispatch, None, None)] * count,
                    lambda jobs: None)
        elif step[0] == "advance":
            loop.advance(step[1])
        else:
            link.abort_bulk()
        assert link._active == _queued(link), step
    loop.run_until_idle()
    assert [f.key for f in link._flows.values() if f.jobs is not None] == []
    assert link._active == []


def test_a_flow_that_drains_and_rejoins_keeps_its_first_seen_place():
    loop = EventLoop()
    link = Link("a", "b", bandwidth_mbps=10.0, latency_ms=1.0)
    rng = _Draws()

    def dispatch(job, arrival):
        return loop.call_at(arrival, lambda: None)

    small, big = 1_000, 1_000_000
    first, second, third = FLOWS
    for key, size in ((first, small), (second, big), (third, big)):
        link.enqueue_bulk(loop, 0.0, key, size, rng, dispatch)
    assert link._contended
    assert [f.key for f in link._active] == [first, second, third]
    while link._flows[first].jobs:
        loop.step()  # the small head drains first
    assert [f.key for f in link._active] == [second, third]
    link.enqueue_bulk(loop, loop.now, first, small, rng, dispatch)
    assert [f.key for f in link._active] == [first, second, third]
    assert link._active == _queued(link)
