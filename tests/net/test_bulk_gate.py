"""Differential oracle for the bulk lane's uncontended gate.

A link answers "is another bulk flow still serializing?" from the flows
whose cursor a booking pushed past ``now``, pruned as time passes.  The
reference answer scans every flow the link ever carried.  The property
drives one ``Link`` through random interleavings of single enqueues
(some of them lost), analytic window bookings, loop advances and hard
cuts, and holds the gate to that scan before every enqueue and booking.
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

    def dispatch(arrival):
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
    loop.run_until_idle()
    assert [f.key for f in link._flows.values() if f.jobs is not None] == []
