"""Unit tests for the discrete-event kernel."""

import random

import pytest

from repro.net.kernel import EventLoop, SimulationError


def test_initial_time_is_zero():
    assert EventLoop().now == 0.0


def test_call_later_advances_clock():
    loop = EventLoop()
    fired = []
    loop.call_later(10.0, fired.append, "a")
    loop.run()
    assert fired == ["a"]
    assert loop.now == 10.0


def test_events_run_in_time_order():
    loop = EventLoop()
    order = []
    loop.call_later(30.0, order.append, "late")
    loop.call_later(10.0, order.append, "early")
    loop.call_later(20.0, order.append, "mid")
    loop.run()
    assert order == ["early", "mid", "late"]


def test_same_time_events_run_in_schedule_order():
    loop = EventLoop()
    order = []
    for tag in ("first", "second", "third"):
        loop.call_later(5.0, order.append, tag)
    loop.run()
    assert order == ["first", "second", "third"]


def test_call_soon_runs_at_current_instant():
    loop = EventLoop()
    times = []
    loop.call_later(7.0, lambda: loop.call_soon(lambda: times.append(loop.now)))
    loop.run()
    assert times == [7.0]


def test_cannot_schedule_in_past():
    loop = EventLoop()
    loop.call_later(5.0, lambda: None)
    loop.run()
    with pytest.raises(SimulationError):
        loop.call_at(1.0, lambda: None)


def test_negative_delay_rejected():
    with pytest.raises(SimulationError):
        EventLoop().call_later(-1.0, lambda: None)


def test_cancelled_timer_does_not_fire():
    loop = EventLoop()
    fired = []
    timer = loop.call_later(5.0, fired.append, "x")
    timer.cancel()
    loop.run()
    assert fired == []
    assert not timer.active


def test_cancel_after_fire_is_noop():
    loop = EventLoop()
    timer = loop.call_later(1.0, lambda: None)
    loop.run()
    assert timer.fired
    timer.cancel()  # no exception


def test_run_until_stops_at_boundary_inclusive():
    loop = EventLoop()
    fired = []
    loop.call_later(10.0, fired.append, "at")
    loop.call_later(10.1, fired.append, "after")
    loop.run(until=10.0)
    assert fired == ["at"]
    assert loop.now == 10.0


def test_run_until_advances_clock_when_queue_drains_early():
    loop = EventLoop()
    loop.call_later(1.0, lambda: None)
    loop.run(until=100.0)
    assert loop.now == 100.0


def test_run_with_spent_budget_never_moves_the_clock_backwards():
    """Regression: a spent ``max_events`` budget still set the clock to
    ``until``, and the next event then set it back to its due time.  The
    clock still advances when nothing left queued is due by ``until``."""
    loop = EventLoop()
    seen = []
    for due in (10.0, 20.0, 30.0, 200.0):
        loop.call_at(due, lambda: seen.append(loop.now))
    loop.run(until=15.0, max_events=1)   # next event is after until
    seen.append(loop.now)
    loop.run(until=100.0, max_events=1)  # next event is due by until
    seen.append(loop.now)
    loop.run(until=100.0)
    seen.append(loop.now)
    assert seen == [10.0, 15.0, 20.0, 20.0, 30.0, 100.0]


def test_advance_runs_due_events_and_moves_clock():
    loop = EventLoop()
    fired = []
    loop.call_later(3.0, fired.append, "a")
    loop.call_later(30.0, fired.append, "b")
    loop.advance(5.0)
    assert fired == ["a"]
    assert loop.now == 5.0
    loop.advance(25.0)
    assert fired == ["a", "b"]
    assert loop.now == 30.0


def test_step_returns_false_on_empty_queue():
    assert EventLoop().step() is False


def test_events_can_schedule_events():
    loop = EventLoop()
    seen = []

    def chain(n):
        seen.append(n)
        if n < 3:
            loop.call_later(1.0, chain, n + 1)

    loop.call_later(1.0, chain, 1)
    loop.run()
    assert seen == [1, 2, 3]
    assert loop.now == 3.0


def test_run_until_idle_guards_runaway():
    loop = EventLoop()

    def forever():
        loop.call_later(1.0, forever)

    loop.call_later(1.0, forever)
    with pytest.raises(SimulationError):
        loop.run_until_idle(max_events=100)


def test_pending_and_processed_counters():
    loop = EventLoop()
    t = loop.call_later(1.0, lambda: None)
    loop.call_later(2.0, lambda: None)
    assert loop.pending == 2
    t.cancel()
    assert loop.pending == 1
    loop.run()
    assert loop.processed == 1


def test_reentrant_run_rejected():
    loop = EventLoop()
    errors = []

    def reenter():
        try:
            loop.run()
        except SimulationError as exc:
            errors.append(exc)

    loop.call_later(1.0, reenter)
    loop.run()
    assert len(errors) == 1


from hypothesis import given, settings, strategies as st


@given(delays=st.lists(st.floats(0.0, 1000.0), min_size=1, max_size=40))
@settings(max_examples=60)
def test_property_events_fire_in_time_order(delays):
    loop = EventLoop()
    fired = []
    for i, delay in enumerate(delays):
        loop.call_later(delay, lambda i=i, d=delay: fired.append(d))
    loop.run()
    assert fired == sorted(fired)
    assert len(fired) == len(delays)
    assert loop.now == max(delays)


@given(delays=st.lists(st.floats(0.0, 100.0), min_size=2, max_size=30),
       data=st.data())
@settings(max_examples=60)
def test_property_cancelled_subset_never_fires(delays, data):
    loop = EventLoop()
    fired = []
    timers = [loop.call_later(d, lambda i=i: fired.append(i))
              for i, d in enumerate(delays)]
    to_cancel = data.draw(st.sets(st.integers(0, len(delays) - 1)))
    for i in to_cancel:
        timers[i].cancel()
    loop.run()
    assert set(fired) == set(range(len(delays))) - to_cancel


# -- timer lifecycle edges ----------------------------------------------------

def test_cancel_after_fire_does_not_corrupt_counters():
    loop = EventLoop()
    first = loop.call_later(1.0, lambda: None)
    loop.call_later(2.0, lambda: None)
    loop.step()
    assert first.fired
    first.cancel()  # true no-op: must not count a tombstone
    first.cancel()
    assert not first.cancelled
    assert loop.pending == 1
    assert loop.heap_depth == 1


def test_heap_depth_counts_tombstones_pending_does_not():
    loop = EventLoop()
    timers = [loop.call_later(float(i + 1), lambda: None) for i in range(4)]
    timers[0].cancel()
    timers[2].cancel()
    assert loop.pending == 2
    assert loop.heap_depth == 4
    loop.run()
    assert loop.pending == 0
    assert loop.heap_depth == 0


def test_double_cancel_counts_one_tombstone():
    loop = EventLoop()
    timer = loop.call_later(1.0, lambda: None)
    loop.call_later(2.0, lambda: None)
    timer.cancel()
    timer.cancel()
    assert loop.pending == 1
    assert loop.heap_depth == 2


def test_compaction_preserves_same_instant_fifo_order():
    loop = EventLoop()
    fired = []
    keep = []
    timers = []
    for i in range(600):
        timers.append(loop.call_later(100.0, fired.append, i))
    for i, timer in enumerate(timers):
        if i % 3 != 0:
            timer.cancel()  # 400 tombstones: crosses the compaction bar
        else:
            keep.append(i)
    assert loop.heap_depth < 600  # compaction physically removed tombstones
    assert loop.pending == len(keep)
    loop.run()
    assert fired == keep  # same-instant FIFO (scheduling order) survives


def test_cancel_churn_keeps_heap_depth_bounded():
    """Regression: every re-booking leaves a tombstone; before compaction
    the queue grew without bound under retune-heavy workloads."""
    loop = EventLoop()
    fired = []
    timer = loop.call_later(1.0, fired.append, "done")
    for i in range(2_000):
        timer.cancel()
        timer = loop.call_at(2.0 + i * 0.001, fired.append, "done")
    assert loop.heap_depth < 1_200  # 2000 tombstones were compacted away
    loop.run()
    assert fired == ["done"]
    assert loop.processed == 1


def test_callbacks_schedule_into_far_future_and_back():
    loop = EventLoop()
    seen = []

    def hop(n):
        seen.append(loop.now)
        if n == 0:
            loop.call_later(50_000.0, hop, 1)
        elif n == 1:
            loop.call_soon(hop, 2)
        elif n == 2:
            loop.call_later(0.25, hop, 3)

    loop.call_later(5.0, hop, 0)
    loop.run()
    assert seen == [5.0, 50_005.0, 50_005.0, 50_005.25]


@given(data=st.data())
@settings(max_examples=80)
def test_property_dispatch_follows_due_then_booking_order(data):
    """Random schedules with cancels and re-bookings dispatch the live
    bookings in ``(due, booking index)`` order."""
    dues = data.draw(st.lists(
        st.floats(0.0, 5_000.0), min_size=1, max_size=50))
    loop = EventLoop()
    fired = []
    bookings = []  # booking index -> (due, timer)

    def book(due):
        index = len(bookings)
        bookings.append((due, loop.call_at(due, fired.append, index)))
        return index

    current = [book(due) for due in dues]  # drawn slot -> its booking
    to_cancel = data.draw(st.sets(st.integers(0, len(dues) - 1)))
    to_rebook = data.draw(st.dictionaries(
        st.integers(0, len(dues) - 1), st.floats(0.0, 10_000.0),
        max_size=10))
    for i in sorted(to_cancel):
        bookings[current[i]][1].cancel()
    for i, when in sorted(to_rebook.items()):
        timer = bookings[current[i]][1]
        if not timer.active:
            continue
        timer.cancel()
        current[i] = book(when)
    loop.run()
    live = sorted((due, index) for index, (due, timer) in enumerate(bookings)
                  if not timer.cancelled)
    assert fired == [index for _, index in live]
    assert loop.pending == 0


#: Delays a scripted callback books at: ties at the same instant are common.
_DELAYS = (0.0, 0.0, 0.5, 1.0, 3.0)


def _scripted_loop(seed, initial, burst):
    """A loop of ``initial`` timers on 40 instants, and the log its
    callbacks keep: each fired timer logs ``(index, clock)``, then books a
    timer, cancels one or does nothing, as a seeded script says.  The first
    one to fire cancels ``burst`` timers at once, enough to compact the
    heap inside the callback.  Also returns a counter of compactions."""
    rng = random.Random(seed)
    loop = EventLoop()
    log, timers, compactions = [], [], [0]
    compact = loop._compact

    def counted_compact():
        compactions[0] += 1
        compact()

    loop._compact = counted_compact

    def book(due):
        timers.append(loop.call_at(due, fire, len(timers)))

    def fire(index):
        log.append((index, loop.now))
        if len(log) == 1:
            for timer in rng.sample(timers, min(burst, len(timers))):
                timer.cancel()
        roll = rng.random()
        if roll < 0.3:
            book(loop.now + rng.choice(_DELAYS))
        elif roll < 0.5:
            timers[rng.randrange(len(timers))].cancel()

    for _ in range(initial):
        book(float(rng.randrange(40)))
    return loop, log, compactions


def _run_by_steps(loop, until, max_events):
    """The reference: ``run(until, max_events)`` as one ``step()`` per
    event, with ``run``'s rule for where the clock stops."""
    ran = 0
    while max_events is None or ran < max_events:
        due = loop._peek_due()
        if due is None or (until is not None and due.due > until):
            break
        loop.step()
        ran += 1
    if until is not None and until > loop.now:
        due = loop._peek_due()
        if due is None or due.due > until:
            loop._now = until
    return ran


@given(seed=st.integers(0, 2**32 - 1), initial=st.integers(1, 500),
       burst=st.sampled_from([0, 300]),
       segments=st.lists(st.tuples(
           st.one_of(st.none(), st.floats(0.0, 50.0)),
           st.one_of(st.none(), st.integers(0, 300))), max_size=4))
@settings(max_examples=60, deadline=None)
def test_property_run_fires_what_one_step_per_event_fires(
        seed, initial, burst, segments):
    """``run(until=, max_events=)`` fires the same callbacks, in the same
    order and at the same clock readings, as one ``step()`` per event --
    through same-instant ties, a compaction inside a callback and
    callbacks that book or cancel timers.  Each segment's ``until`` lies
    its drawn offset past the clock; a last ``run()`` drains the queue."""
    fast, fast_log, compactions = _scripted_loop(seed, initial, burst)
    slow, slow_log, _ = _scripted_loop(seed, initial, burst)
    for offset, max_events in segments + [(None, None)]:
        until = None if offset is None else fast.now + offset
        ran = fast.run(until=until, max_events=max_events)
        assert ran == _run_by_steps(slow, until, max_events)
        assert fast_log == slow_log
        assert fast.now == slow.now
        assert (fast.processed, fast.pending, fast.heap_depth) == \
            (slow.processed, slow.pending, slow.heap_depth)
    assert fast.pending == 0
    if burst and initial >= burst:
        assert compactions[0] > 0  # the burst compacted inside a callback


def test_scale_bench_behaviour_digest_is_pinned():
    """The full concurrent-migration scale scenario (repro.bench.scale)
    keeps the behaviour digest it had under every earlier kernel: a
    change to dispatch order or to the bulk lane's completion ticks
    moves it."""
    from repro.bench.scale import concurrent_migration_experiment
    from repro.obs import Observability
    from repro.simcheck import behaviour_digest

    obs = Observability()
    concurrent_migration_experiment(migrations=2, observability=obs)
    assert behaviour_digest(obs) == (
        "fd4f875bbc0ff61f662caba9262db282d9fdbcaf03653386388b7ea531a684a9")
