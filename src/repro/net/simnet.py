"""Hosts, links and byte-accurate message delivery.

The paper's testbed is two PCs joined by 10 Mbps Ethernet; migration cost is
dominated by (serialized payload size) / (link bandwidth).  This module
models that directly:

- a :class:`Link` charges ``latency + bytes * 8 / bandwidth`` per message,
  with two traffic classes: **control** messages (ACL/protocol chatter)
  serialize FIFO among themselves at full bandwidth, while **bulk**
  transfers (migration/prestage payloads) share the wire fairly -- ``k``
  concurrent bulk flows each progress at ``bandwidth / k`` (processor
  sharing), so a multi-MB chunk never head-of-line blocks the tiny
  check-out/check-in messages the migration protocol needs to make
  progress, and concurrent migrations overlap instead of serializing.
- a :class:`Host` dispatches delivered messages to per-protocol handlers.

A protocol is *bulk* only if registered via :func:`register_bulk_protocol`
(the agent transfer and middleware data-streaming protocols register
themselves); everything else is control.  When a single bulk flow has the
wire to itself the engine reproduces the historical exclusive-reservation
arithmetic exactly -- timings, RNG draw order and event pattern match the
pre-contention model.

Multi-hop routes (e.g. across an inter-space gateway) are store-and-forward:
each hop is charged in sequence, plus any per-gateway processing delay that
:mod:`repro.net.topology` configures.
"""

from __future__ import annotations

import itertools
import random
from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from repro.net.clock import HostClock
from repro.net.kernel import EventLoop, Timer
from repro.obs.tracer import NULL_SPAN

#: The two link traffic classes (see :func:`traffic_class`).
CONTROL = "control"
BULK = "bulk"

#: Protocols whose messages are bulk payload transfers.  Module-level and
#: append-only by design: entries are registered at import time by the
#: layers that own the protocols, so classification is deterministic and
#: identical across deployments in one process.
_BULK_PROTOCOLS: set = set()


def register_bulk_protocol(protocol: str) -> None:
    """Classify ``protocol`` as bulk: its messages queue per-flow and share
    link bandwidth fairly with other bulk flows instead of holding an
    exclusive reservation.  Idempotent."""
    _BULK_PROTOCOLS.add(protocol)


def traffic_class(protocol: str) -> str:
    """``BULK`` for registered bulk protocols, ``CONTROL`` for the rest.

    Control is the default on purpose: unknown protocols get the historical
    exclusive-FIFO semantics, so only traffic that explicitly opts in is
    subject to fair sharing.
    """
    return BULK if protocol in _BULK_PROTOCOLS else CONTROL


class NetworkError(RuntimeError):
    """Base class for network-layer failures."""


class UnreachableHostError(NetworkError):
    """No route exists between the two hosts."""


class HostOfflineError(NetworkError):
    """The source or destination host is offline (crashed or roamed away).

    Transient by nature -- a crashed host may restart -- so the mobility
    layer treats it (like :class:`UnreachableHostError`) as retryable.
    """


class DuplicateHostError(NetworkError):
    """A host with the same name is already part of the network."""


class Message:
    """A network message.

    ``size_bytes`` drives transfer time; ``payload`` is opaque to the network
    and handed verbatim to the destination handler for ``protocol``.
    """

    __slots__ = ("source", "destination", "protocol", "payload",
                 "size_bytes", "message_id", "sent_at")

    def __init__(self, source: str, destination: str, protocol: str,
                 payload: Any, size_bytes: int, message_id: int = 0,
                 sent_at: float = 0.0):
        if size_bytes < 0:
            raise ValueError(f"negative message size: {size_bytes}")
        self.source = source
        self.destination = destination
        self.protocol = protocol
        self.payload = payload
        self.size_bytes = size_bytes
        self.message_id = message_id
        self.sent_at = sent_at

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<Message {self.message_id} {self.source}->"
                f"{self.destination} {self.protocol} {self.size_bytes}B>")


class DeliveryReceipt:
    """Outcome of a send: filled in when the message is delivered or dropped."""

    __slots__ = ("message", "delivered", "dropped", "delivered_at", "hops")

    def __init__(self, message: Message):
        self.message = message
        self.delivered = False
        self.dropped = False
        self.delivered_at = 0.0
        self.hops = 0

    @property
    def transfer_ms(self) -> float:
        """End-to-end transfer time; only meaningful once delivered."""
        return self.delivered_at - self.message.sent_at

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = ("delivered" if self.delivered
                 else "dropped" if self.dropped else "in flight")
        return f"<DeliveryReceipt {self.message!r} {state}>"


MessageHandler = Callable[[Message], None]


class Host:
    """A network endpoint with its own (possibly skewed) clock.

    Higher layers (the agent platform, registry, context kernel) attach
    per-protocol handlers; the network invokes the matching handler when a
    message is delivered.
    """

    def __init__(self, name: str, loop: EventLoop, clock: Optional[HostClock] = None,
                 cpu_factor: float = 1.0):
        if not name:
            raise ValueError("host name must be non-empty")
        self.name = name
        self.loop = loop
        self.clock = clock if clock is not None else HostClock(loop)
        #: Relative CPU speed; >1 means slower (handhelds), used by higher
        #: layers to scale local processing costs such as (de)serialization.
        self.cpu_factor = float(cpu_factor)
        self.space: Optional[str] = None
        self._online = True
        #: Set by :meth:`Network.add_host`; called whenever connectivity
        #: state changes so the network can invalidate its route cache.
        self._on_connectivity_change: Optional[Callable[[], None]] = None
        self._handlers: Dict[str, MessageHandler] = {}
        self.bytes_sent = 0
        self.bytes_received = 0
        self.messages_received = 0

    @property
    def online(self) -> bool:
        return self._online

    @online.setter
    def online(self, value: bool) -> None:
        value = bool(value)
        if value == self._online:
            return
        self._online = value
        if self._on_connectivity_change is not None:
            self._on_connectivity_change()

    def register_handler(self, protocol: str, handler: MessageHandler) -> None:
        """Route delivered messages with ``protocol`` to ``handler``.

        Registering a protocol twice replaces the previous handler.
        """
        self._handlers[protocol] = handler

    def unregister_handler(self, protocol: str) -> None:
        self._handlers.pop(protocol, None)

    def handles(self, protocol: str) -> bool:
        return protocol in self._handlers

    def deliver(self, message: Message) -> None:
        """Called by the network on message arrival; dispatches by protocol.

        Traffic stats count only successfully dispatched messages: a
        message nobody handles raises without inflating
        ``bytes_received`` / ``messages_received``.
        """
        handler = self._handlers.get(message.protocol)
        if handler is None:
            raise NetworkError(
                f"host {self.name!r} has no handler for protocol {message.protocol!r}"
            )
        self.bytes_received += message.size_bytes
        self.messages_received += 1
        handler(message)

    def local_time(self) -> float:
        """Host-local clock reading in ms (includes skew/drift)."""
        return self.clock.now()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Host {self.name} space={self.space}>"


class _Hop:
    """One message's passage over one link, of either lane (see
    :attr:`Link._flying`).

    The route fields (``receipt``, ``path``, ``hop``, ``on_delivered``,
    ``on_dropped``) say what the hop's landing does: deliver on the last
    hop, forward to the next one otherwise (see :meth:`Network._land`).
    """

    __slots__ = ("link", "size_bytes", "receipt", "path", "hop",
                 "on_delivered", "on_dropped")

    #: A control hop queues in no bulk flow and has no span to seal;
    #: :class:`_BulkJob` gives both a slot of its own.
    flow = None
    on_arrival = None

    def __init__(self, link: "Link", size_bytes: int, receipt, path,
                 hop: int, on_delivered, on_dropped):
        self.link = link
        self.size_bytes = size_bytes
        self.receipt = receipt
        self.path = path
        self.hop = hop
        self.on_delivered = on_delivered
        self.on_dropped = on_dropped


class _BulkJob(_Hop):
    """A bulk hop: the route fields plus the fluid-model state of its
    flow's queue.  A direct :class:`Link` caller leaves the route fields
    unset."""

    __slots__ = ("flow", "remaining", "jitter", "lost", "finish_tx",
                 "arrival", "book", "on_arrival")

    def __init__(self, link: "Link", flow, size_bytes: int, jitter: float,
                 lost: bool, book, receipt, path, hop: int, on_delivered,
                 on_dropped, on_arrival):
        _Hop.__init__(self, link, size_bytes, receipt, path, hop,
                      on_delivered, on_dropped)
        self.flow = flow
        #: Bytes still to serialize (fluid-model state; only authoritative
        #: while the job sits in its flow queue under contention).
        self.remaining = float(size_bytes)
        self.jitter = jitter
        self.lost = lost
        #: Absolute time the last byte leaves the wire (set when known).
        self.finish_tx = 0.0
        #: Analytic arrival instant; set only for batch members (see
        #: :meth:`Link.book_bulk_window`), whose delivery is deferred to
        #: the shared batch timer.
        self.arrival = 0.0
        #: ``book(job, arrival) -> Timer`` books the hop's landing.
        self.book = book
        self.on_arrival = on_arrival


class _BulkFlow:
    """Per-(source, destination) FIFO of bulk jobs on one link.

    Chunks of one transfer serialize within their flow (preserving the
    go-back-N window semantics); distinct flows share the wire fairly.
    """

    __slots__ = ("key", "rank", "jobs", "cursor", "last_arrival")

    def __init__(self, key, rank: int):
        self.key = key
        #: First-seen position on the link: the order in which
        #: same-instant completions are delivered.
        self.rank = rank
        #: The fluid queue, held only while the flow queues under
        #: contention: a link keeps every flow it ever carried, and most
        #: of them sit idle.
        self.jobs: Optional[Deque[_BulkJob]] = None
        #: When the flow's last enqueued byte finishes serializing --
        #: the flow-local analogue of the control lane's ``busy_until``
        #: (authoritative only while the link is uncontended).
        self.cursor = 0.0
        #: FIFO clamp: within a flow, jitter can never reorder deliveries.
        self.last_arrival = 0.0


class _BulkBatch:
    """One analytic window round: W chunks of a single flow whose wire
    times were computed arithmetically up front, deferred behind a single
    shared kernel timer (see :meth:`Network.send_window`)."""

    __slots__ = ("flow", "jobs", "timer", "complete")

    def __init__(self, flow: _BulkFlow, jobs: List[_BulkJob], complete):
        self.flow = flow
        self.jobs = jobs
        self.timer = None
        #: ``complete(jobs)`` replays the member deliveries in order.
        self.complete = complete


class Link:
    """A bidirectional point-to-point link with two traffic classes.

    *Control* messages serialize FIFO among themselves (a busy control lane
    queues the next control message) at full bandwidth -- the historical
    exclusive-reservation model.  *Bulk* messages queue per flow
    (source, destination) and concurrent flows share the wire by processor
    sharing: ``k`` active flows each serialize at ``bandwidth / k``, with
    finish times recomputed whenever a flow joins or leaves.  A single bulk
    flow with the wire to itself reproduces the exclusive-reservation
    arithmetic exactly (byte-identical single-flow guarantee).
    """

    #: Slack for float comparisons in the fluid bulk engine (bytes / ms).
    _EPS = 1e-9

    def __init__(self, a: str, b: str, bandwidth_mbps: float = 10.0,
                 latency_ms: float = 1.0, jitter_ms: float = 0.0,
                 loss_rate: float = 0.0):
        if bandwidth_mbps <= 0:
            raise ValueError(f"bandwidth must be positive: {bandwidth_mbps}")
        if latency_ms < 0 or jitter_ms < 0:
            raise ValueError("latency and jitter must be non-negative")
        if not 0.0 <= loss_rate < 1.0:
            raise ValueError(f"loss rate must be in [0, 1): {loss_rate}")
        self.a = a
        self.b = b
        self.bandwidth_mbps = float(bandwidth_mbps)
        self.latency_ms = float(latency_ms)
        self.jitter_ms = float(jitter_ms)
        self.loss_rate = float(loss_rate)
        #: Control-lane reservation: when the last control message's final
        #: byte leaves the wire.  (Bulk flows keep their own cursors.)
        self.busy_until = 0.0
        #: Arrival time of the last non-lost control message: control
        #: deliveries on one link are FIFO, so jitter can never reorder
        #: them.  (Bulk flows carry their own per-flow clamp.)
        self.last_arrival = 0.0
        self.bytes_carried = 0
        self.messages_carried = 0
        #: Loss accounting (previously invisible: lost messages occupied
        #: the wire but appeared in no counter).
        self.bytes_dropped = 0
        self.messages_dropped = 0
        #: Cumulative wire occupancy per traffic class, in ms of
        #: transmission time (lost phantoms included -- they burn wire).
        self.class_busy_ms: Dict[str, float] = {CONTROL: 0.0, BULK: 0.0}
        # -- bulk fair-share engine state ---------------------------------
        #: Every flow the link has carried, in first-seen order: each
        #: idle flow keeps its cursor, FIFO clamp and rank here.
        self._flows: Dict[Tuple[str, str], _BulkFlow] = {}
        #: The flows with queued jobs, in first-seen (rank) order: a flow
        #: joins when its queue opens and leaves when it drains.
        self._active: List[_BulkFlow] = []
        #: Flows whose cursor a booking set, pruned lazily to those still
        #: serializing (see :meth:`_other_flow_busy`).
        self._busy: Dict[Tuple[str, str], _BulkFlow] = {}
        #: True while >= 2 bulk flows contend (fluid mode); False on the
        #: uncontended fast path that mirrors the legacy arithmetic.
        self._contended = False
        self._fluid_at = 0.0
        self._tick_timer = None
        self._loop: Optional[EventLoop] = None
        #: Hops of both lanes whose landing is booked, each with its
        #: timer, in booking order: kept so contention can pull back a
        #: bulk job still serializing and a hard cut can cancel the
        #: landings.  An entry leaves when its timer fires (the landing
        #: pops it), when contention pulls it back or when a cut aborts it.
        self._flying: Dict[_Hop, Timer] = {}
        #: Analytic window batches in flight (see Network.send_window):
        #: whole uncontended window rounds booked under one kernel timer.
        self._batches: List["_BulkBatch"] = []
        # Cached per-link metric handles, rebuilt when the registry
        # changes identity (see Network._observe_hop).
        self._obs_ok = None
        self._obs_lost = None

    def endpoints(self) -> Tuple[str, str]:
        return (self.a, self.b)

    def transmission_ms(self, size_bytes: int) -> float:
        """Time to serialize ``size_bytes`` onto the wire (no latency)."""
        return size_bytes * 8.0 / (self.bandwidth_mbps * 1e6) * 1e3

    # -- control lane ------------------------------------------------------

    def schedule_transfer(self, now: float, size_bytes: int,
                          rng: random.Random) -> Tuple[float, bool]:
        """Reserve the control lane and return ``(arrival_time, lost)``.

        The lane is busy until the payload has been fully serialized;
        propagation latency overlaps with the next transmission.  Control
        messages never wait behind bulk transfers: a small ACL message sent
        mid-bulk-chunk arrives in O(latency).
        """
        start = max(now, self.busy_until)
        tx = self.transmission_ms(size_bytes)
        self.busy_until = start + tx
        self.class_busy_ms[CONTROL] += tx
        jitter = rng.uniform(0.0, self.jitter_ms) if self.jitter_ms > 0 else 0.0
        arrival = start + tx + self.latency_ms + jitter
        # FIFO clamp: a jitter draw smaller than the previous message's can
        # never let this message leapfrog it -- per-link delivery order is
        # transmission order (equal arrival instants keep scheduling order).
        if arrival < self.last_arrival:
            arrival = self.last_arrival
        lost = self.loss_rate > 0 and rng.random() < self.loss_rate
        if not lost:
            self.last_arrival = arrival
            self.bytes_carried += size_bytes
            self.messages_carried += 1
        else:
            self.bytes_dropped += size_bytes
            self.messages_dropped += 1
        return arrival, lost

    # -- bulk lane (per-flow FIFO + processor sharing) ---------------------

    def _flow(self, flow_key: Tuple[str, str]) -> _BulkFlow:
        flow = self._flows.get(flow_key)
        if flow is None:
            flow = self._flows[flow_key] = _BulkFlow(flow_key,
                                                     len(self._flows))
        return flow

    def _queue(self, job: _BulkJob) -> None:
        """Append ``job`` to its flow's fluid queue; a flow whose queue
        opens joins the active list at its first-seen place."""
        flow = job.flow
        if flow.jobs is None:
            flow.jobs = deque()
            # A walk from the end: the list holds a few flows, and a
            # joining flow most often ranks last.
            active = self._active
            i = len(active)
            while i and active[i - 1].rank > flow.rank:
                i -= 1
            active.insert(i, flow)
        flow.jobs.append(job)

    def enqueue_bulk(self, loop: EventLoop, now: float,
                     flow_key: Tuple[str, str], size_bytes: int,
                     rng: random.Random,
                     book: Callable[[_BulkJob, float], Timer],
                     receipt=None, path=None, hop: int = 0,
                     on_delivered=None, on_dropped=None,
                     on_arrival: Optional[Callable[[float], None]] = None
                     ) -> Tuple[Optional[float], bool]:
        """Enqueue one bulk message; returns ``(arrival, lost)``.

        ``book(job, arrival)`` must book the hop's landing and return its
        timer; the engine invokes it synchronously when the finish time is
        already known (uncontended fast path, ``arrival`` is returned
        non-``None``) or later, from its completion tick, when flows
        contend (``arrival`` is ``None``; ``on_arrival`` fires once the
        time is known).  The route fields ride on the job for ``book`` to
        read.  A lost message is reported synchronously (legacy drop
        timing) but still burns its wire time as a phantom in the flow
        queue.
        """
        self._loop = loop
        flow = self._flow(flow_key)
        tx = self.transmission_ms(size_bytes)
        self.class_busy_ms[BULK] += tx
        # Same RNG draw order as the control lane: jitter, then loss.
        jitter = rng.uniform(0.0, self.jitter_ms) if self.jitter_ms > 0 else 0.0
        lost = self.loss_rate > 0 and rng.random() < self.loss_rate
        if not lost:
            self.bytes_carried += size_bytes
            self.messages_carried += 1
        else:
            self.bytes_dropped += size_bytes
            self.messages_dropped += 1
        job = _BulkJob(self, flow, size_bytes, jitter, lost, book, receipt,
                       path, hop, on_delivered, on_dropped, on_arrival)
        if not self._contended:
            if not self._other_flow_busy(flow_key, now):
                # Uncontended: exactly the legacy exclusive-reservation
                # arithmetic, against this flow's own cursor.
                start = max(now, flow.cursor)
                finish = start + tx
                flow.cursor = finish
                self._busy[flow_key] = flow
                if lost:
                    return None, True
                arrival = finish + self.latency_ms + jitter
                if arrival < flow.last_arrival:
                    arrival = flow.last_arrival
                flow.last_arrival = arrival
                job.finish_tx = finish
                self._flying[job] = book(job, arrival)
                return arrival, False
            self._begin_contention(now)
        else:
            self._advance(now)
        self._queue(job)
        self._retune(now)
        return None, lost

    def _other_flow_busy(self, flow_key: Tuple[str, str],
                         now: float) -> bool:
        """True while a flow other than ``flow_key``'s is still
        serializing: its cursor lies beyond ``now``.

        Equal to scanning every flow's cursor.  Only an uncontended
        enqueue or a window booking can set a cursor beyond ``now``, and
        both register their flow in ``_busy``; a fluid completion sets
        the cursor to the current instant and a hard cut to zero.  Since
        ``now`` never goes back, a flow pruned here stays idle until it
        is registered again.  The caller's own entry is never another
        flow, so it stays: the enqueue would register it again."""
        busy = self._busy
        horizon = now + self._EPS
        while True:
            for key, flow in busy.items():
                if flow.cursor <= horizon and key != flow_key:
                    break
            else:
                return len(busy) > 1 or (len(busy) == 1
                                         and flow_key not in busy)
            # An idle flow, pruned outside the walk.  The table holds one
            # or two flows, so a fresh walk per prune costs nothing.
            del busy[key]

    def bulk_window_eligible(self, flow_key: Tuple[str, str],
                             now: float) -> bool:
        """True when a whole window round can be booked analytically:
        deterministic wire (no jitter, no loss) and no *other* bulk flow
        active -- the same gate :meth:`enqueue_bulk` uses for its
        uncontended fast path."""
        if self._contended or self.jitter_ms > 0 or self.loss_rate > 0:
            return False
        return not self._other_flow_busy(flow_key, now)

    def book_bulk_window(self, loop: EventLoop, now: float,
                         flow_key: Tuple[str, str], entries, complete
                         ) -> List[_BulkJob]:
        """Analytic fast path: book one window round in a single event.

        ``entries`` is ``[(size_bytes, book, receipt, on_dropped)]``.
        Every member's start / finish / arrival is the exact arithmetic
        :meth:`enqueue_bulk` would have produced uncontended (the wire is
        deterministic by precondition, so there are no RNG draws either
        way), but instead of one kernel timer per chunk a single timer at
        the *last* member's arrival fires ``complete(jobs)``, which
        replays the deliveries in order.  ``book`` is held in reserve: if
        contention dissolves the batch mid-round, members fall back to
        individually booked landings.

        Caller must have checked :meth:`bulk_window_eligible`.
        """
        self._loop = loop
        flow = self._flow(flow_key)
        cursor = max(now, flow.cursor)
        last_arrival = flow.last_arrival
        latency = self.latency_ms
        jobs: List[_BulkJob] = []
        for size, book, receipt, on_dropped in entries:
            tx = self.transmission_ms(size)
            self.class_busy_ms[BULK] += tx
            self.bytes_carried += size
            self.messages_carried += 1
            job = _BulkJob(self, flow, size, 0.0, False, book, receipt, None,
                           0, None, on_dropped, None)
            cursor += tx
            job.finish_tx = cursor
            arrival = cursor + latency
            if arrival < last_arrival:
                arrival = last_arrival
            last_arrival = arrival
            job.arrival = arrival
            jobs.append(job)
        flow.cursor = cursor
        flow.last_arrival = last_arrival
        self._busy[flow_key] = flow
        batch = _BulkBatch(flow, jobs, complete)
        batch.timer = loop.call_at(last_arrival, self._complete_batch, batch)
        self._batches.append(batch)
        return jobs

    def _complete_batch(self, batch: _BulkBatch) -> None:
        self._batches.remove(batch)
        batch.timer = None
        batch.complete(batch.jobs)

    def _begin_contention(self, now: float) -> None:
        """A second flow joined while the wire was occupied: switch from
        arithmetic reservations to the fluid processor-sharing model.

        Jobs whose transmission already finished keep their booked
        deliveries (only latency remains for them); jobs still (or not yet)
        serializing are pulled back into their flow queues with their
        untransmitted remainder, and their booked deliveries cancelled.
        """
        full_rate = self.bandwidth_mbps * 125.0  # bytes per ms
        # A direct caller's booking may leave a fired job in the table:
        # the rebuild drops it.  Control hops keep their place.
        flying = {}
        for job, timer in self._flying.items():
            if not timer.active:
                continue
            if job.flow is not None and job.finish_tx > now + self._EPS:
                timer.cancel()
                job.remaining = (job.finish_tx - now) * full_rate
                self._queue(job)
            else:
                flying[job] = timer
        self._flying = flying
        for batch in self._batches:
            # Dissolve analytic batches: a shared timer can no longer
            # stand in for per-member deliveries once the wire rate
            # changes.  Fully serialized members get individual delivery
            # events (late members deliver at ``now``); members still
            # serializing rejoin their flow queue with the untransmitted
            # remainder, exactly like pulled-back propagating jobs.
            if batch.timer is not None and batch.timer.active:
                batch.timer.cancel()
            batch.timer = None
            for job in batch.jobs:
                if job.finish_tx > now + self._EPS:
                    job.remaining = (job.finish_tx - now) * full_rate
                    self._queue(job)
                else:
                    when = job.arrival if job.arrival > now else now
                    flying[job] = job.book(job, when)
        self._batches = []
        self._fluid_at = now
        self._contended = True

    def _advance(self, to: float) -> None:
        """Drain fluid service up to ``to``.

        The completion tick is always scheduled at the earliest head
        finish, so no head can complete strictly inside the interval --
        at most exactly at ``to``.
        """
        dt = to - self._fluid_at
        self._fluid_at = to
        active = self._active
        if not active:
            return
        rate = self.bandwidth_mbps * 125.0 / len(active)
        # A copy: a flow whose queue drains leaves the list mid-loop.
        for flow in list(active):
            budget = rate * max(0.0, dt)
            while flow.jobs:
                head = flow.jobs[0]
                if head.remaining <= 1e-6:
                    # Zero-size messages (and float dust) finish instantly.
                    self._complete_head(flow, to)
                    continue
                if budget <= self._EPS:
                    break
                take = budget if budget < head.remaining else head.remaining
                head.remaining -= take
                budget -= take

    def _complete_head(self, flow: _BulkFlow, t: float) -> None:
        job = flow.jobs.popleft()
        if not flow.jobs:
            flow.jobs = None
            self._active.remove(flow)
        flow.cursor = t
        if job.lost:
            return  # phantom: wire time burned, drop already reported
        job.finish_tx = t
        arrival = t + self.latency_ms + job.jitter
        if arrival < flow.last_arrival:
            arrival = flow.last_arrival
        flow.last_arrival = arrival
        self._flying[job] = job.book(job, arrival)
        if job.on_arrival is not None:
            job.on_arrival(arrival)

    def _bulk_tick(self) -> None:
        now = self._loop.now
        self._tick_timer = None
        self._advance(now)
        self._retune(now)

    def _retune(self, now: float) -> None:
        """(Re)schedule the completion tick at the earliest head finish; a
        pending tick already due then is kept."""
        tick = self._tick_timer
        active = self._active
        if not active:
            # Drained: the next lone flow takes the uncontended fast path.
            if tick is not None:
                tick.cancel()
                self._tick_timer = None
            self._contended = False
            return
        rate = self.bandwidth_mbps * 125.0 / len(active)
        due = now + min(f.jobs[0].remaining for f in active) / rate
        # Clamp the tick strictly forward of ``now`` in *representable*
        # float time.  A job re-queued by _begin_contention with a
        # dust-sized remainder wants a tick delta below ulp(now) at
        # day-scale sim times; ``now + delta == now`` then pins the loop
        # to one instant forever (each zero-dt advance renders no service,
        # so the head never completes).  The clamp costs at most ~1e-12
        # relative sim-time error and only engages on dust.
        floor = now + max(self._EPS, abs(now) * 1e-12)
        if due < floor:
            due = floor
        if tick is not None:
            if tick.active and tick.due == due:
                return
            tick.cancel()
        self._tick_timer = self._loop.call_at(due, self._bulk_tick)

    def set_bandwidth(self, bandwidth_mbps: float,
                      now: Optional[float] = None) -> None:
        """Change link bandwidth, re-rating in-flight fair-share transfers.

        Fluid service already rendered is settled at the old rate first;
        uncontended reservations booked before the change keep their
        arithmetic finish times (the historical fault-engine semantics).
        """
        if bandwidth_mbps <= 0:
            raise ValueError(f"bandwidth must be positive: {bandwidth_mbps}")
        if self._contended and self._loop is not None:
            at = self._loop.now if now is None else now
            self._advance(at)
            self.bandwidth_mbps = float(bandwidth_mbps)
            self._retune(at)
        else:
            self.bandwidth_mbps = float(bandwidth_mbps)

    def abort_bulk(self) -> List[_BulkJob]:
        """Hard cut: cancel every pending bulk job on this link.

        Returns the cancelled jobs (queued and propagating alike) so
        the network can settle the byte ledger and fail their receipts;
        lost phantoms were already reported and are simply discarded.
        The table's control hops must be cancelled first (see
        :meth:`Network.disconnect`): a fired or cancelled timer's entry
        is skipped, and the table is emptied.
        """
        aborted: List[_BulkJob] = []
        if self._tick_timer is not None and self._tick_timer.active:
            self._tick_timer.cancel()
        self._tick_timer = None
        now = self._loop.now if self._loop is not None else 0.0
        for batch in self._batches:
            if batch.timer is not None and batch.timer.active:
                batch.timer.cancel()
            batch.timer = None
            # Members whose analytic arrival already passed were only
            # *administratively* undelivered -- the cut cannot retract
            # bytes that reached the far end.  Deliver that prefix (late,
            # but stamped with its true arrival) so checkpointed resume
            # sees the same acked base the per-chunk path would have.
            arrived = [j for j in batch.jobs
                       if j.arrival <= now + self._EPS]
            if arrived:
                batch.complete(arrived)
            aborted.extend(j for j in batch.jobs
                           if j.arrival > now + self._EPS)
        self._batches = []
        for flow in self._active:
            aborted.extend(job for job in flow.jobs if not job.lost)
            flow.jobs = None
        self._active = []
        # Only a booking sets a cursor beyond now, and it registers its
        # flow in _busy: zeroing those frees the gate for every flow.
        for flow in self._busy.values():
            flow.cursor = 0.0
        for job, timer in self._flying.items():
            if timer.active:
                timer.cancel()
                aborted.append(job)
        self._flying = {}
        self._contended = False
        return aborted

    def bulk_queue_ms(self, flow_key: Tuple[str, str], now: float) -> float:
        """Predicted wait before a new message of ``flow_key`` starts
        serializing (the bulk analogue of ``busy_until - now``)."""
        flow = self._flows.get(flow_key)
        if not self._contended:
            return max(0.0, flow.cursor - now) if flow is not None else 0.0
        active = len(self._active)
        backlog = sum(j.remaining for j in flow.jobs) \
            if flow is not None and flow.jobs else 0.0
        if flow is None or not flow.jobs:
            active += 1  # this flow would join the sharing set
        rate = self.bandwidth_mbps * 125.0 / max(1, active)
        return backlog / rate

    def bulk_queue_depth(self) -> int:
        """Bulk messages queued or serializing (not yet fully on the wire)."""
        return sum(len(f.jobs) for f in self._active)

    @property
    def bulk_contended(self) -> bool:
        """True while concurrent bulk flows are sharing the wire."""
        return self._contended

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<Link {self.a}<->{self.b} {self.bandwidth_mbps}Mbps "
                f"{self.latency_ms}ms>")


class Network:
    """The simulated network: hosts + links + routing + delivery.

    Routing is hop-minimal (BFS) over the link graph.  Multi-hop messages are
    forwarded store-and-forward with an optional per-host forwarding delay
    (used for inter-space gateways).
    """

    def __init__(self, loop: EventLoop, seed: int = 0):
        self.loop = loop
        self.rng = random.Random(seed)
        self._hosts: Dict[str, Host] = {}
        self._links: List[Link] = []
        self._adjacency: Dict[str, List[Link]] = {}
        self._forward_delay: Dict[str, float] = {}
        self._msg_ids = itertools.count(1)
        # (source, destination) -> hop path.  Per-chunk sends would
        # otherwise pay the O(V+E) BFS on every message; the cache is
        # cleared whenever topology or host connectivity changes.
        self._route_cache: Dict[Tuple[str, str], List[str]] = {}
        self.route_cache_hits = 0
        self.route_cache_misses = 0
        self.messages_dropped = 0
        # Conservation ledger (see repro.simcheck): every byte put on a
        # wire must come off it -- delivered, relayed, or accountably
        # dropped.  At quiescence bytes_on_wire == bytes_off_wire, and
        # bytes_delivered_total == sum of Host.bytes_received.  Lossy-link
        # drops enter and leave the ledger in one step (they occupy wire
        # time, so they must be visible), and per-hop they land in the
        # link's bytes_carried or bytes_dropped counter -- so at any time
        # bytes_on_wire == sum(link carried + dropped) + retired_link_bytes.
        self.bytes_on_wire = 0
        self.bytes_off_wire = 0
        self.bytes_delivered_total = 0
        #: Carried+dropped totals of links since removed by disconnect(),
        #: so the link-level reconciliation survives topology changes.
        self.retired_link_bytes = 0
        # O(1) link lookup by (endpoint, endpoint); maintained by
        # connect()/disconnect().  link_between() used to scan the
        # adjacency list, which is a per-hop cost on every send.
        self._pair_links: Dict[Tuple[str, str], Link] = {}
        # Cached per-protocol delivered/dropped counter handles, rebuilt
        # when the attached metrics registry changes identity.
        self._metrics_for = None
        self._proto_counters: Dict[Tuple[str, str], Any] = {}
        # Registry endpoints by host name (see repro.registry): the client
        # that takes registry responses on a host, and the center a
        # same-host client dispatches to without a network trip.  Held
        # per network so that a dropped deployment can be collected.
        self.registry_clients: Dict[str, Any] = {}
        self.registry_centers: Dict[str, Any] = {}
        # Registry request ids, shared by every client and federation node
        # on this network: a node hands a response it does not own to the
        # client on its host, so their ids must not collide.
        self.registry_request_ids = itertools.count(1)

    # -- construction -----------------------------------------------------

    def add_host(self, host: Host) -> Host:
        if host.name in self._hosts:
            raise DuplicateHostError(f"duplicate host {host.name!r}")
        self._hosts[host.name] = host
        self._adjacency.setdefault(host.name, [])
        host._on_connectivity_change = self._invalidate_routes
        self._invalidate_routes()
        return host

    def _invalidate_routes(self) -> None:
        """Drop every cached route (topology/connectivity changed)."""
        self._route_cache.clear()

    def create_host(self, name: str, skew_ms: float = 0.0, drift_ppm: float = 0.0,
                    cpu_factor: float = 1.0) -> Host:
        """Convenience: build a Host with its own clock and add it."""
        clock = HostClock(self.loop, skew_ms=skew_ms, drift_ppm=drift_ppm)
        return self.add_host(Host(name, self.loop, clock, cpu_factor=cpu_factor))

    def connect(self, a: str, b: str, bandwidth_mbps: float = 10.0,
                latency_ms: float = 1.0, jitter_ms: float = 0.0,
                loss_rate: float = 0.0) -> Link:
        """Add a bidirectional link between two existing hosts."""
        for name in (a, b):
            if name not in self._hosts:
                raise NetworkError(f"unknown host {name!r}")
        if a == b:
            raise NetworkError(f"cannot link host {a!r} to itself")
        if self.link_between(a, b) is not None:
            raise NetworkError(f"hosts {a!r} and {b!r} are already linked")
        link = Link(a, b, bandwidth_mbps, latency_ms, jitter_ms, loss_rate)
        self._links.append(link)
        self._adjacency[a].append(link)
        self._adjacency[b].append(link)
        self._pair_links[(a, b)] = link
        self._pair_links[(b, a)] = link
        self._invalidate_routes()
        return link

    def disconnect(self, a: str, b: str, drop_in_flight: bool = False) -> Link:
        """Remove the link between two hosts (device roamed away).

        By default (``drop_in_flight=False``, the historical behaviour)
        messages already in flight on the link still arrive: their delivery
        events were scheduled when transmission began, modelling a graceful
        detach that lets the last frames drain.  With
        ``drop_in_flight=True`` the cut is hard -- every in-flight message
        on the link is dropped (its ``on_dropped`` callback fires) -- which
        is what the fault engine uses for link-failure faults.  New sends
        never route over the removed link either way.
        """
        link = self.link_between(a, b)
        if link is None:
            raise NetworkError(f"no link between {a!r} and {b!r}")
        self._links.remove(link)
        self._adjacency[a].remove(link)
        self._adjacency[b].remove(link)
        del self._pair_links[(a, b)]
        del self._pair_links[(b, a)]
        self._invalidate_routes()
        # Retire the link's per-hop counters so the link-level byte
        # reconciliation (simcheck) survives the topology change.  A later
        # connect() of the same pair builds a fresh Link: zeroed counters,
        # idle lanes (busy_until == last_arrival == 0).
        self.retired_link_bytes += link.bytes_carried + link.bytes_dropped
        if drop_in_flight:
            # Control hops first, in booking order, then the bulk lane's
            # jobs in the order its abort gives them.  The abort also
            # delivers a window batch's arrived members, after the drops.
            for hop, timer in list(link._flying.items()):
                if hop.flow is None:
                    timer.cancel()
                    self._destroy(hop)
            for job in link.abort_bulk():
                self._destroy(job)
        return link

    def _destroy(self, hop: _Hop) -> None:
        """Drop a hop a hard cut destroyed.  Its cancelled timer was its
        off-wire event, so the ledger settles here: the bytes left the
        wire by being destroyed."""
        self.bytes_off_wire += hop.size_bytes
        if hop.on_arrival is not None:
            # Seal the hop span at the cut instant.
            hop.on_arrival(self.loop.now)
        self._drop(hop.receipt, hop.on_dropped)

    def set_forward_delay(self, host: str, delay_ms: float) -> None:
        """Charge ``delay_ms`` whenever ``host`` forwards a multi-hop message
        (gateway processing cost)."""
        if host not in self._hosts:
            raise NetworkError(f"unknown host {host!r}")
        self._forward_delay[host] = float(delay_ms)

    # -- introspection ----------------------------------------------------

    def host(self, name: str) -> Host:
        try:
            return self._hosts[name]
        except KeyError:
            raise NetworkError(f"unknown host {name!r}") from None

    def has_host(self, name: str) -> bool:
        return name in self._hosts

    @property
    def hosts(self) -> List[Host]:
        return list(self._hosts.values())

    @property
    def links(self) -> List[Link]:
        return list(self._links)

    def link_between(self, a: str, b: str) -> Optional[Link]:
        return self._pair_links.get((a, b))

    def route(self, source: str, destination: str) -> List[str]:
        """Hop-minimal path of host names from source to destination (BFS).

        Offline hosts cannot relay.  Raises UnreachableHostError when no
        path exists.  Successful routes are cached until the topology or
        any host's connectivity changes (failures are never cached: the
        retry path wants a fresh look each time).
        """
        return list(self._path(source, destination))

    def _path(self, source: str, destination: str) -> List[str]:
        """:meth:`route`'s cached list itself, which messages in flight
        share: nothing may mutate it."""
        cached = self._route_cache.get((source, destination))
        if cached is not None:
            self.route_cache_hits += 1
            return cached
        path = self._route_bfs(source, destination)
        self._route_cache[(source, destination)] = path
        self.route_cache_misses += 1
        return path

    def _route_bfs(self, source: str, destination: str) -> List[str]:
        if source not in self._hosts or destination not in self._hosts:
            raise NetworkError(f"unknown endpoint {source!r} or {destination!r}")
        if source == destination:
            return [source]
        visited = {source}
        frontier: List[List[str]] = [[source]]
        while frontier:
            next_frontier: List[List[str]] = []
            for path in frontier:
                tail = path[-1]
                for link in self._adjacency[tail]:
                    nxt = link.b if link.a == tail else link.a
                    if nxt in visited:
                        continue
                    if nxt == destination:
                        return path + [nxt]
                    if not self._hosts[nxt].online:
                        continue
                    visited.add(nxt)
                    next_frontier.append(path + [nxt])
            frontier = next_frontier
        raise UnreachableHostError(f"no route from {source!r} to {destination!r}")

    # -- sending ----------------------------------------------------------

    def send(self, source: str, destination: str, protocol: str, payload: Any,
             size_bytes: int,
             on_delivered: Optional[Callable[[DeliveryReceipt], None]] = None,
             on_dropped: Optional[Callable[[DeliveryReceipt], None]] = None
             ) -> DeliveryReceipt:
        """Send a message; returns a receipt updated on delivery/drop.

        Local delivery (source == destination) is immediate but still goes
        through the event loop so handler ordering stays consistent.
        ``on_dropped`` fires if the message is lost on a lossy link or the
        destination goes offline mid-flight.
        """
        src = self.host(source)
        if not src.online:
            raise HostOfflineError(f"source host {source!r} is offline")
        dst = self.host(destination)
        if not dst.online:
            raise HostOfflineError(
                f"destination host {destination!r} is offline")
        message = Message(source, destination, protocol, payload, size_bytes,
                          message_id=next(self._msg_ids), sent_at=self.loop.now)
        receipt = DeliveryReceipt(message)
        path = self._path(source, destination)
        src.bytes_sent += size_bytes
        if len(path) == 1:
            self.loop.call_soon(self._deliver, receipt, on_delivered,
                                on_dropped, self.loop.now)
            return receipt
        self._forward(receipt, path, 0, on_delivered, on_dropped)
        return receipt

    def send_window(self, source: str, destination: str, protocol: str,
                    chunks) -> Optional[List[DeliveryReceipt]]:
        """Analytic fast path: book a whole bulk window round at once.

        ``chunks`` is ``[(payload, size_bytes, on_delivered, on_dropped)]``
        for one flow.  On a *direct*, deterministic (no jitter, no loss),
        uncontended link the entire round's wire times are a closed-form
        computation -- identical to what per-chunk :meth:`send` would
        produce -- so one kernel event at the last arrival replays all
        deliveries (each receipt stamped with its own analytic arrival)
        instead of one event per chunk.  Returns the receipts, or ``None``
        when the fast path does not apply (multi-hop route, jitter, loss,
        contention, non-bulk protocol): the caller must then fall back to
        per-chunk :meth:`send`, whose semantics are unchanged.

        Offline endpoints raise exactly like :meth:`send`.
        """
        if len(chunks) < 2 or traffic_class(protocol) != BULK \
                or source == destination:
            return None
        src = self.host(source)
        if not src.online:
            raise HostOfflineError(f"source host {source!r} is offline")
        dst = self.host(destination)
        if not dst.online:
            raise HostOfflineError(
                f"destination host {destination!r} is offline")
        link = self.link_between(source, destination)
        if link is None:
            return None
        loop = self.loop
        now = loop.now
        flow_key = (source, destination)
        if not link.bulk_window_eligible(flow_key, now):
            return None
        receipts: List[DeliveryReceipt] = []
        entries = []
        book = self._book
        for payload, size, _, on_dropped in chunks:
            message = Message(source, destination, protocol, payload, size,
                              message_id=next(self._msg_ids), sent_at=now)
            receipt = DeliveryReceipt(message)
            entries.append((size, book, receipt, on_dropped))
            receipts.append(receipt)
        jobs = link.book_bulk_window(loop, now, flow_key, entries,
                                     self._deliver_batch)
        obs = loop.observability
        queue_ms = link.bulk_queue_ms(flow_key, now)
        # The route a dissolved batch's member is booked by: one hop.
        path = [source, destination]
        for job, receipt, chunk in zip(jobs, receipts, chunks):
            job.path = path
            job.on_delivered = chunk[2]
            receipt.hops = 1
            src.bytes_sent += job.size_bytes
            self.bytes_on_wire += job.size_bytes
            if obs is not None:
                # Same per-chunk series the pump records; each chunk's
                # queue time is its wait behind the round's earlier chunks.
                self._observe_hop(obs, receipt, link, source, destination,
                                  queue_ms, job.arrival, False)
            queue_ms += link.transmission_ms(job.size_bytes)
        return receipts

    def _deliver_batch(self, jobs: List[_BulkJob]) -> None:
        """Land an analytic batch's members in order.

        Fired by the batch's single kernel timer at the *last* member's
        arrival (or early, with an arrived prefix, when a hard link cut
        dissolves the batch); each receipt is stamped with its own
        analytic arrival, not the event's fire time.
        """
        for job in jobs:
            self.bytes_off_wire += job.size_bytes
            self._deliver(job.receipt, job.on_delivered, job.on_dropped,
                          job.arrival)

    def _proto_counter(self, metrics, kind: str, protocol: str):
        """Cached ``net.delivered`` / ``net.dropped`` counter handle.

        Per-delivery label-key construction inside the registry dominates
        the cost of bumping a counter at city scale; the cache is keyed on
        registry identity so a fresh Observability invalidates it.
        """
        if metrics is not self._metrics_for:
            self._metrics_for = metrics
            self._proto_counters.clear()
        key = (kind, protocol)
        counter = self._proto_counters.get(key)
        if counter is None:
            counter = metrics.counter("net." + kind, protocol=protocol)
            self._proto_counters[key] = counter
        return counter

    def _drop(self, receipt: DeliveryReceipt,
              on_dropped: Optional[Callable[[DeliveryReceipt], None]]) -> None:
        self.messages_dropped += 1
        receipt.dropped = True
        obs = self.loop.observability
        if obs is not None:
            self._proto_counter(obs.metrics, "dropped",
                                receipt.message.protocol).inc()
            obs.ledger.message(self.loop.now, receipt.message, False)
        if on_dropped is not None:
            on_dropped(receipt)

    def _observe_hop(self, obs, receipt: DeliveryReceipt, link: Link,
                     here: str, there: str, queue_ms: float,
                     arrival: Optional[float], lost: bool):
        """Record one link hop: a transfer span plus per-link series.

        With ``arrival=None`` (a contended bulk hop whose finish time is
        not yet known) the span is returned open; the caller seals it when
        the fair-share engine computes the arrival -- except for lost
        messages, whose drop is synchronous, so their span closes now.
        """
        message = receipt.message
        metrics = obs.metrics
        # Per-link instrument handles are cached on the Link (keyed on
        # registry identity); each path builds its own tuple lazily so a
        # run that never loses a message never materializes loss series.
        if lost:
            cached = link._obs_lost
            if cached is None or cached[0] is not metrics:
                label = f"{link.a}<->{link.b}"
                cached = link._obs_lost = (
                    metrics,
                    metrics.histogram("net.link.queue_ms", link=label),
                    metrics.counter("net.link.lost", link=label))
            cached[1].observe(queue_ms)
            cached[2].inc()
        else:
            cached = link._obs_ok
            if cached is None or cached[0] is not metrics:
                label = f"{link.a}<->{link.b}"
                cached = link._obs_ok = (
                    metrics,
                    metrics.histogram("net.link.queue_ms", link=label),
                    metrics.counter("net.link.bytes", link=label),
                    metrics.counter("net.link.messages", link=label))
            cached[1].observe(queue_ms)
            cached[2].inc(message.size_bytes)
            cached[3].inc()
        tracer = obs.tracer
        if not tracer.enabled:
            return NULL_SPAN
        span = tracer.begin_span(
            "net.transfer", category="net",
            link=f"{link.a}<->{link.b}", hop=f"{here}->{there}",
            protocol=message.protocol,
            bytes=message.size_bytes, bandwidth_mbps=link.bandwidth_mbps,
            latency_ms=link.latency_ms, queue_ms=queue_ms,
            message_id=message.message_id)
        if lost:
            span.annotate(lost=True)
        if arrival is not None:
            # The arrival instant is already known (discrete-event
            # scheduling), so the span is sealed at its future end time.
            span.end(at=arrival)
        elif lost:
            span.end()
        return span

    def _observe_contention(self, obs, link: Link) -> None:
        """Sample the contention gauges for one link.

        Only emitted while bulk flows actually contend.
        """
        label = f"{link.a}<->{link.b}"
        metrics = obs.metrics
        metrics.gauge("net.link.queue_depth", link=label).set(
            link.bulk_queue_depth())
        now = self.loop.now
        if now > 0:
            for cls, busy in link.class_busy_ms.items():
                metrics.gauge("net.link.utilization", link=label,
                              **{"class": cls}).set(min(1.0, busy / now))

    def _forward(self, receipt: DeliveryReceipt, path: List[str], hop_index: int,
                 on_delivered: Optional[Callable[[DeliveryReceipt], None]],
                 on_dropped: Optional[Callable[[DeliveryReceipt], None]]) -> None:
        """Put the message on the wire for hop ``hop_index`` of ``path``.

        The lanes differ only in how the arrival is reserved.  A control
        hop reserves its lane and is booked here; a bulk hop joins its
        flow, and the link books it through :meth:`_book`: at once when
        the wire is uncontended (arithmetic identical to the
        exclusive-reservation model, same kernel event pattern), or from
        its completion tick once contention resolves the finish time.
        """
        here, there = path[hop_index], path[hop_index + 1]
        if hop_index > 0 and not self._hosts[here].online:
            # The relay crashed while the message was in flight towards it
            # (store-and-forward: an offline gateway loses the message).
            self._drop(receipt, on_dropped)
            return
        link = self.link_between(here, there)
        if link is None:
            # The route was computed at send time; the next hop has since
            # been disconnected (e.g. a link-down fault mid-path).
            self._drop(receipt, on_dropped)
            return
        message = receipt.message
        size = message.size_bytes
        loop = self.loop
        obs = loop.observability
        if message.protocol in _BULK_PROTOCOLS:  # see traffic_class
            flow_key = (message.source, message.destination)
            on_arrival = None
            if obs is not None:
                # The queue wait and the seal serve only the hop's span.
                queue_ms = link.bulk_queue_ms(flow_key, loop.now)
                seal: Dict[str, Any] = {}

                def on_arrival(arrival: float) -> None:
                    span = seal.get("span")
                    if span is not None and not seal.get("done"):
                        seal["done"] = True
                        span.end(at=arrival)

            arrival, lost = link.enqueue_bulk(
                loop, loop.now, flow_key, size, self.rng, self._book,
                receipt, path, hop_index, on_delivered, on_dropped,
                on_arrival)
            if obs is not None:
                span = self._observe_hop(obs, receipt, link, here, there,
                                         queue_ms, arrival, lost)
                if arrival is not None or lost:
                    seal["done"] = True
                else:
                    seal["span"] = span
                if link.bulk_contended:
                    self._observe_contention(obs, link)
        else:
            queue_ms = max(0.0, link.busy_until - loop.now)
            arrival, lost = link.schedule_transfer(loop.now, size, self.rng)
            if obs is not None:
                self._observe_hop(obs, receipt, link, here, there, queue_ms,
                                  arrival, lost)
            if not lost:
                hop = _Hop(link, size, receipt, path, hop_index,
                           on_delivered, on_dropped)
                link._flying[hop] = self._book(hop, arrival)
        self.bytes_on_wire += size
        if lost:
            # A lossy-link loss is synchronous, but the phantom occupied
            # the wire (the control lane's reservation, or wire time the
            # bulk flow queue burns), so it enters and leaves the ledger
            # in one step -- bytes_on_wire balances under loss.
            self.bytes_off_wire += size
            self._drop(receipt, on_dropped)
            return
        receipt.hops += 1

    def _book(self, hop: _Hop, arrival: float) -> Timer:
        """Book a hop's landing at ``arrival``, the instant its last byte
        reaches the far end, plus the relay's forward delay when the
        message travels on."""
        path = hop.path
        if hop.hop + 2 < len(path):
            arrival += self._forward_delay.get(path[hop.hop + 1], 0.0)
        return self.loop.call_at(arrival, self._land, hop)

    def _land(self, hop: _Hop) -> None:
        """A hop's timer fired: the hop leaves its link's table and its
        bytes leave the wire (at a relay, whether or not the relay can
        forward them), and the message is delivered or forwarded."""
        del hop.link._flying[hop]
        self.bytes_off_wire += hop.size_bytes
        if hop.hop + 2 == len(hop.path):
            self._deliver(hop.receipt, hop.on_delivered, hop.on_dropped,
                          self.loop.now)
        else:
            self._forward(hop.receipt, hop.path, hop.hop + 1,
                          hop.on_delivered, hop.on_dropped)

    def _deliver(self, receipt: DeliveryReceipt,
                 on_delivered: Optional[Callable[[DeliveryReceipt], None]],
                 on_dropped: Optional[Callable[[DeliveryReceipt], None]],
                 at: float) -> None:
        """Hand the message to its destination, stamped ``at``: the
        landing's instant, or a batch member's analytic arrival."""
        dst = self._hosts[receipt.message.destination]
        if not dst.online:
            self._drop(receipt, on_dropped)
            return
        receipt.delivered = True
        receipt.delivered_at = at
        obs = self.loop.observability
        if obs is not None:
            self._proto_counter(obs.metrics, "delivered",
                                receipt.message.protocol).inc()
            obs.ledger.message(at, receipt.message, True)
        dst.deliver(receipt.message)
        self.bytes_delivered_total += receipt.message.size_bytes
        if on_delivered is not None:
            on_delivered(receipt)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Network hosts={len(self._hosts)} links={len(self._links)}>"
