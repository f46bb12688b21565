"""Discrete-event simulation kernel.

The kernel keeps a priority queue of timestamped callbacks and advances a
global *simulated* clock to each event's due time.  Nothing here sleeps or
reads the wall clock, so experiments are fast and fully deterministic.

Events scheduled for the same instant fire in scheduling order (a
monotonically increasing sequence number breaks ties), which keeps causally
ordered callbacks causally ordered.

The queue is one binary heap of ``(due, seq, timer)`` entries.  Cancelled
timers stay behind as tombstones (cheap, never dispatched) and are
compacted away in bulk when they dominate the queue (see
:meth:`EventLoop._compact`).
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, List, Optional, Tuple


class SimulationError(RuntimeError):
    """Raised on invalid kernel operations (e.g. scheduling in the past)."""


class Timer:
    """Handle for a scheduled event; supports cancellation.

    Returned by :meth:`EventLoop.call_at` / :meth:`EventLoop.call_later`.
    Cancelling an already fired or already cancelled timer is a no-op.
    """

    __slots__ = ("due", "seq", "callback", "args", "cancelled", "fired",
                 "_loop")

    def __init__(self, due: float, seq: int, callback: Callable[..., None], args: Tuple[Any, ...]):
        self.due = due
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False
        self.fired = False
        self._loop: Optional["EventLoop"] = None

    def cancel(self) -> None:
        """Prevent the callback from running (no-op if it already ran)."""
        if self.cancelled or self.fired:
            return
        self.cancelled = True
        loop = self._loop
        if loop is not None:
            loop._note_cancel()

    @property
    def active(self) -> bool:
        """True while the timer is pending (not fired and not cancelled)."""
        return not (self.cancelled or self.fired)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "cancelled" if self.cancelled else ("fired" if self.fired else "pending")
        return f"<Timer due={self.due:.3f} {state}>"


class EventLoop:
    """Deterministic discrete-event loop over simulated milliseconds.

    Typical use::

        loop = EventLoop()
        loop.call_later(10.0, hello)
        loop.run()            # drains every event
        loop.now              # -> 10.0
    """

    #: Tombstone compaction trigger: at least this many cancelled entries
    #: *and* tombstones at least half the queue, so small queues never pay
    #: for a compaction pass.
    _COMPACT_MIN_DEAD = 256

    def __init__(self):
        self._now = 0.0
        #: ``(due, seq, Timer)`` entries, tombstones included.
        self._heap: List[Tuple[float, int, Timer]] = []
        #: Cancelled entries still buried in the heap.
        self._dead = 0
        self._seq = itertools.count()
        self._running = False
        self._processed = 0
        #: Optional :class:`repro.obs.Observability` hub.  ``None`` (the
        #: default) keeps the dispatch loop entirely uninstrumented -- one
        #: attribute read and an ``is None`` check per event, nothing else.
        self.observability = None
        # Cached metric instrument handles for the dispatch hot path,
        # rebuilt whenever the attached registry changes identity.
        self._metrics_for = None
        self._ev_counter = None
        self._depth_gauge = None

    @property
    def now(self) -> float:
        """Current simulated time in milliseconds."""
        return self._now

    @property
    def pending(self) -> int:
        """Number of *active* events still queued.

        Cancelled tombstones are excluded: they occupy queue slots (see
        :attr:`heap_depth`) but will never dispatch.
        """
        return len(self._heap) - self._dead

    @property
    def heap_depth(self) -> int:
        """Raw queue entries, cancelled tombstones included.

        This is the O(1) depth the kernel gauge and obs hooks report; the
        difference ``heap_depth - pending`` is the current tombstone debt.
        """
        return len(self._heap)

    @property
    def processed(self) -> int:
        """Total number of events executed so far."""
        return self._processed

    def _note_cancel(self) -> None:
        """A queued timer was cancelled; count the tombstone."""
        self._dead += 1
        if (self._dead >= self._COMPACT_MIN_DEAD
                and self._dead * 2 >= len(self._heap)):
            self._compact()

    def _compact(self) -> None:
        """Physically remove every tombstone from the heap.

        Runs in O(live) when the dead fraction crosses the threshold, so
        the amortized cost per cancellation is O(1).  Compaction never
        changes dispatch order (ordering is by the full ``(due, seq)``
        key) -- it only shrinks :attr:`heap_depth`.
        """
        self._heap = [e for e in self._heap if not e[2].cancelled]
        heapq.heapify(self._heap)
        self._dead = 0

    def call_at(self, when: float, callback: Callable[..., None], *args: Any) -> Timer:
        """Schedule ``callback(*args)`` at absolute simulated time ``when``."""
        if when < self._now:
            raise SimulationError(
                f"cannot schedule event in the past: {when:.3f} < now {self._now:.3f}"
            )
        timer = Timer(float(when), next(self._seq), callback, args)
        timer._loop = self
        heapq.heappush(self._heap, (timer.due, timer.seq, timer))
        return timer

    def call_later(self, delay: float, callback: Callable[..., None], *args: Any) -> Timer:
        """Schedule ``callback(*args)`` after ``delay`` ms of simulated time."""
        if delay < 0:
            raise SimulationError(f"negative delay: {delay}")
        return self.call_at(self._now + delay, callback, *args)

    def call_soon(self, callback: Callable[..., None], *args: Any) -> Timer:
        """Schedule ``callback(*args)`` at the current instant (after the
        currently running event and anything already queued for *now*)."""
        return self.call_at(self._now, callback, *args)

    def _pop_due(self) -> Optional[Timer]:
        heap = self._heap
        while heap:
            _, _, timer = heapq.heappop(heap)
            if not timer.cancelled:
                return timer
            self._dead -= 1
        return None

    def step(self) -> bool:
        """Run the single earliest pending event.

        Returns False when the queue is empty (time does not advance).
        """
        timer = self._pop_due()
        if timer is None:
            return False
        self._now = timer.due
        timer.fired = True
        self._processed += 1
        obs = self.observability
        if obs is None:
            timer.callback(*timer.args)
        else:
            self._dispatch_traced(obs, timer)
        return True

    def _dispatch_traced(self, obs, timer: Timer) -> None:
        """Run one event under the kernel instrumentation.

        The dispatch span is synchronous, so instrumentation fired inside
        the callback (network transfers, ACL events) nests under it; when
        the tracer is disabled the span machinery is skipped entirely.
        The queue-depth gauge samples :attr:`heap_depth` (raw entries,
        tombstones included) to stay O(1) per event.
        """
        metrics = obs.metrics
        if metrics is not self._metrics_for:
            self._metrics_for = metrics
            self._ev_counter = metrics.counter("kernel.events")
            self._depth_gauge = metrics.gauge("kernel.queue_depth")
        self._ev_counter.inc()
        self._depth_gauge.set(len(self._heap))
        callback = timer.callback
        tracer = obs.tracer
        hooks = obs.hooks
        if tracer.enabled or hooks:
            name = (getattr(callback, "__qualname__", "")
                    or type(callback).__name__)
        if tracer.enabled:
            with tracer.span(name, category="kernel"):
                callback(*timer.args)
        else:
            callback(*timer.args)
        if hooks:
            # Post-dispatch checkpoint for runtime invariant checkers
            # (repro.simcheck): state has settled for this instant.
            # ``depth`` counts raw queue entries (cancelled tombstones
            # included) so the read stays O(1).
            obs.emit("kernel.event", now=self._now, callback=name,
                     processed=self._processed, depth=len(self._heap))

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> int:
        """Run events until the queue drains, ``until`` is reached, or
        ``max_events`` have executed.  Returns the number of events run.

        ``until`` is inclusive: events due exactly at ``until`` run, and on
        exit the clock is advanced to ``until`` even if the queue drained
        earlier (so idle time is observable) -- unless ``max_events``
        stopped the loop with events due by ``until`` still queued.
        """
        if self._running:
            raise SimulationError("event loop is re-entrant: run() called from a callback")
        self._running = True
        ran = 0
        heappop = heapq.heappop
        try:
            while max_events is None or ran < max_events:
                # Re-read each time: a compaction inside a callback rebinds
                # the heap.
                heap = self._heap
                if not heap:
                    break
                timer = heap[0][2]
                if timer.cancelled:
                    heappop(heap)
                    self._dead -= 1
                    continue
                if until is not None and timer.due > until:
                    break
                heappop(heap)
                # The body of step(), inlined: one pop per event.
                self._now = timer.due
                timer.fired = True
                self._processed += 1
                obs = self.observability
                if obs is None:
                    timer.callback(*timer.args)
                else:
                    self._dispatch_traced(obs, timer)
                ran += 1
        finally:
            self._running = False
        if until is not None and until > self._now:
            # The clock must not pass an event the budget left queued.
            timer = self._peek_due()
            if timer is None or timer.due > until:
                self._now = until
        return ran

    def _peek_due(self) -> Optional[Timer]:
        heap = self._heap
        while heap:
            timer = heap[0][2]
            if not timer.cancelled:
                return timer
            heapq.heappop(heap)
            self._dead -= 1
        return None

    def run_until_idle(self, max_events: int = 1_000_000) -> int:
        """Drain the whole queue; guard against runaway loops via max_events."""
        ran = self.run(max_events=max_events)
        if ran >= max_events and self._peek_due() is not None:
            raise SimulationError(f"simulation did not quiesce within {max_events} events")
        return ran

    def advance(self, delay: float) -> int:
        """Run all events due within the next ``delay`` ms and move the
        clock exactly ``delay`` forward."""
        if delay < 0:
            raise SimulationError(f"negative advance: {delay}")
        return self.run(until=self._now + delay)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<EventLoop now={self._now:.3f} pending={self.pending}>"
