"""Mobile-agent migration: check-out, transfer, check-in, clone.

"Mobile agent will wrap the corresponding components, check out from the
current site, check in at the destination, inform the coordinator ... and
resume the execution." (paper §4.3.)

The protocol (weak mobility, as in JADE):

1. **check-out** -- the agent enters TRANSIT, its plain-data state is
   serialized into an :class:`~repro.agents.serialization.AgentSnapshot`
   (CPU cost proportional to size, scaled by the host's ``cpu_factor``),
   and it is deregistered from the source container.
2. **transfer** -- the snapshot (plus any queued messages) rides the
   simulated network, paying latency + size/bandwidth per hop.
3. **check-in** -- the destination container deserializes (CPU cost again),
   registers a fresh instance, re-activates it and calls ``after_move``.

``clone`` is identical except the original stays active and the copy gets a
new name and ``after_clone`` -- the primitive under clone-dispatch mobility.

Host-local clock stamps (``t1``..``t4`` style) are recorded on the results
so experiments can apply the paper's Fig. 7 round-trip correction.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, List, Optional

from repro.agents.acl import ACLMessage
from repro.agents.agent import Agent, AgentError, AgentState
from repro.agents.platform import TRANSFER_PROTOCOL
from repro.agents.serialization import AgentSnapshot
from repro.net.simnet import HostOfflineError, UnreachableHostError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.agents.platform import AgentContainer, AgentPlatform

#: Network errors worth retrying: a crashed host may restart, a partition
#: may heal.  Anything else (bad payload, unknown host) fails fast.
RETRYABLE_SEND_ERRORS = (HostOfflineError, UnreachableHostError)

# CPU cost of (de)serialization, scaled by each host's cpu_factor and
# calibrated so the two-PC / 10 Mbps testbed of the paper lands in the
# right regime: tens of ms of fixed agent overhead plus a size-proportional
# term.
CHECKOUT_BASE_MS = 60.0
SERIALIZE_MS_PER_MB = 40.0
CHECKIN_BASE_MS = 100.0
DESERIALIZE_MS_PER_MB = 60.0
#: Exponential retry backoff: retry ``n`` (0-based) waits
#: ``min(RETRY_BACKOFF_CAP_MS, RETRY_BACKOFF_MS * 2**n)`` plus a seeded
#: jitter of up to ``RETRY_JITTER_FRAC`` of that delay.
RETRY_BACKOFF_MS = 50.0
RETRY_BACKOFF_CAP_MS = 2_000.0
RETRY_JITTER_FRAC = 0.1


@dataclass
class CostModel:
    """The platform's transfer policy and (de)serialization costs.

    The costs are the module constants above; the fields are the
    transfer-policy values a fault configuration sets.
    """

    #: Per-chunk transfer retries before the migration is declared failed.
    max_transfer_retries: int = 3
    #: Seeds the backoff jitter: the same (seed, key, attempt) always
    #: yields the same delay, keeping runs reproducible.
    backoff_seed: int = 0
    #: Overall wall-clock (simulated) budget for one migration, measured
    #: from ``move()``; retries never push past it.  0 disables.
    migration_deadline_ms: float = 0.0
    #: Split transfers into chunks of this size so a mid-transfer failure
    #: resumes from the last acknowledged chunk instead of resending
    #: everything.  0 (default) sends the whole payload as one frame.
    transfer_chunk_bytes: int = 0
    #: Sliding-window size for chunked transfers: up to this many chunks
    #: ride the wire concurrently, so per-hop latency is paid once per
    #: window instead of once per chunk.  1 (default) is stop-and-wait,
    #: byte-identical in timing and trace to the pre-window engine.
    transfer_window: int = 1

    def __post_init__(self) -> None:
        if self.transfer_chunk_bytes < 0:
            raise ValueError(
                f"transfer_chunk_bytes must be >= 0: {self.transfer_chunk_bytes}")
        if self.transfer_window < 1:
            raise ValueError(
                f"transfer_window must be >= 1: {self.transfer_window}")
        if self.transfer_window > 1 and self.transfer_chunk_bytes <= 0:
            raise ValueError(
                "transfer_window > 1 requires transfer_chunk_bytes > 0 "
                "(pipelining rides the chunked transfer path)")
        if self.max_transfer_retries < 0:
            raise ValueError(
                f"max_transfer_retries must be >= 0: {self.max_transfer_retries}")

    def checkout_ms(self, size_bytes: int, cpu_factor: float) -> float:
        mb = size_bytes / 1e6
        return (CHECKOUT_BASE_MS + SERIALIZE_MS_PER_MB * mb) * cpu_factor

    def checkin_ms(self, size_bytes: int, cpu_factor: float) -> float:
        mb = size_bytes / 1e6
        return (CHECKIN_BASE_MS + DESERIALIZE_MS_PER_MB * mb) * cpu_factor

    def backoff_ms(self, attempt: int, key: str = "") -> float:
        """Delay before retry ``attempt`` (0-based): exponential, capped,
        with deterministic seeded jitter."""
        delay = min(RETRY_BACKOFF_CAP_MS, RETRY_BACKOFF_MS * (2 ** attempt))
        # random.Random seeds strings via SHA-512: stable across runs and
        # interpreter instances (unlike hash()).
        rng = random.Random(f"{self.backoff_seed}:{key}:{attempt}")
        return delay + delay * RETRY_JITTER_FRAC * rng.random()

    def chunk_sizes(self, size_bytes: int) -> List[int]:
        """Wire chunks for a payload (a single chunk when chunking is off).

        A zero-byte payload yields an empty plan; the transfer then sends
        one empty frame.
        """
        if size_bytes <= 0:
            return []
        chunk = self.transfer_chunk_bytes
        if chunk <= 0 or size_bytes <= chunk:
            return [size_bytes]
        full, rest = divmod(size_bytes, chunk)
        return [chunk] * full + ([rest] if rest else [])


class Outcome:
    """Completion callbacks and the span pair shared by every outcome.

    One root span covers the whole operation and one phase span at a time
    hangs under it.  Both ride on the outcome, which travels the whole
    protocol in-process, so each step can close its phase and open the
    next with the arriving host's local clock stamp (the Fig. 7 raw
    readings).  A plain mixin, not a dataclass: on Python 3.9 a dataclass
    base with defaulted fields rejects the subclasses' required fields.
    """

    _callbacks: tuple = ()
    _root_span = None
    _phase_span = None

    def on_complete(self, callback: Callable) -> None:
        if self.completed or self.failed:
            callback(self)
        else:
            self._callbacks += (callback,)

    def _finish(self) -> None:
        callbacks, self._callbacks = self._callbacks, ()
        for callback in callbacks:
            callback(self)

    def begin_spans(self, obs, name: str, category: str, host,
                    **attributes) -> None:
        """Open the root span (a no-op without a hub)."""
        if obs is not None:
            self._root_span = obs.tracer.begin_span(
                name, category=category, host=host, **attributes)

    def next_span(self, name: str, host, **attributes) -> None:
        """Close the current phase span and open ``name`` under the root."""
        root = self._root_span
        if root is None or root.finished:
            return
        self.end_phase_span(host)
        self._phase_span = root.child(name, host=host, **attributes)

    def end_phase_span(self, host=None, **attributes) -> None:
        if self._phase_span is not None:
            self._phase_span.end(host=host, **attributes)

    def end_spans(self, host=None, **attributes) -> None:
        """Seal the phase and root spans (success or failure)."""
        self.end_phase_span(host, **attributes)
        if self._root_span is not None:
            self._root_span.end(host=host, **attributes)


@dataclass
class MigrationResult(Outcome):
    """Observable outcome of one move; completed asynchronously."""

    agent_name: str
    source: str
    destination: str
    size_bytes: int = 0
    started_at: float = 0.0
    checked_out_at: float = 0.0
    arrived_at: float = 0.0
    checked_in_at: float = 0.0
    completed: bool = False
    failed: bool = False
    failure_reason: str = ""
    #: Host-local clock stamps (Fig. 7): departure on the source clock,
    #: arrival on the destination clock.
    depart_local: float = 0.0
    arrive_local: float = 0.0
    agent: Optional[Agent] = None
    #: Reliability accounting (all zero on an undisturbed migration).
    transfer_retries: int = 0
    transfer_resumed: bool = False
    dedup_hits: int = 0
    chunks_total: int = 0
    chunks_acked: int = 0
    #: Sliding-window accounting (1/1/0 on one-chunk or stop-and-wait runs).
    transfer_window: int = 1
    max_in_flight: int = 0
    #: Rough pipelining gain: (first-chunk RTT x chunks) - actual transfer
    #: time.  Only estimated when ``transfer_window > 1``.
    pipelined_saved_ms: float = 0.0
    recovery_log: List[str] = field(default_factory=list, repr=False)
    _arrived: bool = field(default=False, repr=False)

    @property
    def total_ms(self) -> float:
        return self.checked_in_at - self.started_at

    @property
    def transfer_ms(self) -> float:
        return self.arrived_at - self.checked_out_at


@dataclass
class CloneResult(MigrationResult):
    """Outcome of a clone; ``agent`` is the new copy at the destination."""

    clone_name: str = ""


@dataclass
class _Transfer:
    """In-flight transfer state: the sliding window plus resume cursor.

    ``next_chunk`` is the lowest unacknowledged chunk -- the go-back-N
    base and the checkpoint a retry resumes from.  ``next_to_send`` runs
    ahead of it by at most ``transfer_window`` chunks.
    """

    container: "AgentContainer"
    snapshot: AgentSnapshot
    carried: List[ACLMessage]
    result: MigrationResult
    kind: str
    transfer_id: int
    chunk_sizes: List[int]
    next_chunk: int = 0
    #: Retries of the *current* base chunk (resets when the base advances).
    attempt: int = 0
    last_error: str = ""
    #: Next chunk to put on the wire (window head).
    next_to_send: int = 0
    #: Chunks currently riding the wire.
    in_flight: int = 0
    #: Chunks >= base delivered out of order while an earlier one is
    #: outstanding (drained as the base advances).
    delivered: set = field(default_factory=set)
    #: Bumped on every go-back-N rewind; callbacks from a superseded
    #: window round are ignored.
    epoch: int = 0
    #: True while a retry backoff is pending -- the pump stays quiet.
    recovering: bool = False
    #: End-to-end time of the first chunk (serial-estimate baseline).
    first_chunk_ms: float = 0.0
    #: True while the current window round was booked analytically (one
    #: kernel event for the whole round); per-ack refills are deferred to
    #: the end of the round so the next round can batch too.
    analytic: bool = False


class MobilityService:
    """Implements move/clone for every container on the platform."""

    def __init__(self, platform: "AgentPlatform",
                 cost_model: Optional[CostModel] = None):
        self.platform = platform
        self.cost_model = cost_model if cost_model is not None else CostModel()
        self.moves_started = 0
        self.moves_completed = 0
        self.clones_completed = 0
        self.transfers_dropped = 0
        self.transfer_retries = 0
        self.transfers_resumed = 0
        self.dedup_hits = 0
        self._transfer_seq = 0
        # (destination host, transfer_id) -> chunk seqs already accepted.
        # Entries are purged on completion AND on failure/dedup (a failed
        # migration must not leak receiver state), and the table is bounded
        # as a backstop against pathological churn.
        self._rx_chunks: dict = {}
        # Same keys -> the payload of a final chunk that arrived while an
        # earlier chunk was still missing; dropped wherever _rx_chunks is.
        self._rx_final: dict = {}
        # Recently finished (completed or failed) transfer keys: stragglers
        # from a superseded window round dedup here instead of resurrecting
        # a fresh _rx_chunks entry.  Bounded FIFO.
        self._rx_done: dict = {}

    def attach(self, container: "AgentContainer") -> None:
        """Install the transfer protocol handler on a new container."""
        container.host.register_handler(TRANSFER_PROTOCOL,
                                        lambda m: self._on_transfer(container, m))

    # -- move -------------------------------------------------------------------

    def move(self, agent: Agent, destination_host: str) -> MigrationResult:
        """Start a follow-me style migration; returns immediately."""
        container = agent.container
        if container is None:
            raise AgentError("agent is not in a container")
        if agent.state is not AgentState.ACTIVE:
            raise AgentError(f"cannot move agent in state {agent.state}")
        if destination_host == container.host_name:
            raise AgentError("destination equals current host")
        if not self.platform.has_container(destination_host):
            raise AgentError(f"no agent container on {destination_host!r}")
        loop = self.platform.loop
        snapshot = AgentSnapshot(type(agent).__name__, agent.local_name,
                                 agent.get_state())
        result = MigrationResult(
            agent_name=agent.local_name,
            source=container.host_name,
            destination=destination_host,
            size_bytes=snapshot.size_bytes,
            started_at=loop.now,
        )
        self.moves_started += 1
        result.begin_spans(loop.observability, "agent.move", "agent",
                           container.host, agent=result.agent_name,
                           source=result.source,
                           destination=result.destination,
                           bytes=result.size_bytes)
        result.next_span("agent.checkout", container.host)
        agent.state = AgentState.TRANSIT
        checkout = self.cost_model.checkout_ms(snapshot.size_bytes,
                                               container.host.cpu_factor)
        loop.call_later(checkout, self._check_out, agent, container,
                        snapshot, result, "move")
        return result

    def clone(self, agent: Agent, destination_host: str,
              new_name: str) -> CloneResult:
        """Start a clone-dispatch: copy the agent to the destination."""
        container = agent.container
        if container is None:
            raise AgentError("agent is not in a container")
        if agent.state is not AgentState.ACTIVE:
            raise AgentError(f"cannot clone agent in state {agent.state}")
        if not self.platform.has_container(destination_host):
            raise AgentError(f"no agent container on {destination_host!r}")
        if self.platform.where_is(new_name) is not None:
            raise AgentError(f"agent name {new_name!r} already in use")
        loop = self.platform.loop
        snapshot = AgentSnapshot(type(agent).__name__, new_name,
                                 agent.get_state())
        result = CloneResult(
            agent_name=agent.local_name,
            source=container.host_name,
            destination=destination_host,
            size_bytes=snapshot.size_bytes,
            started_at=loop.now,
            clone_name=new_name,
        )
        result.begin_spans(loop.observability, "agent.clone", "agent",
                           container.host, agent=result.agent_name,
                           source=result.source,
                           destination=result.destination,
                           bytes=result.size_bytes)
        result.next_span("agent.checkout", container.host)
        checkout = self.cost_model.checkout_ms(snapshot.size_bytes,
                                               container.host.cpu_factor)
        # The original keeps running; only the snapshot departs.
        loop.call_later(checkout, self._send_snapshot, container, snapshot,
                        [], result, "clone")
        return result

    # -- protocol steps -------------------------------------------------------------

    def _check_out(self, agent: Agent, container: "AgentContainer",
                   snapshot: AgentSnapshot, result: MigrationResult,
                   kind: str) -> None:
        # Capture the queue now so messages that arrived during the
        # serialization delay migrate with the agent.
        carried = list(agent._queue)
        agent._queue.clear()
        container.remove_agent(agent)
        self._send_snapshot(container, snapshot, carried, result, kind)

    def _send_snapshot(self, container: "AgentContainer",
                       snapshot: AgentSnapshot, carried: List[ACLMessage],
                       result: MigrationResult, kind: str,
                       attempt: int = 0) -> None:
        result.checked_out_at = self.platform.loop.now
        result.depart_local = container.host.local_time()
        self._transfer_seq += 1
        # A zero-byte snapshot still crosses the wire, as one empty frame.
        sizes = self.cost_model.chunk_sizes(snapshot.size_bytes) or [0]
        result.chunks_total = len(sizes)
        if len(sizes) > 1:
            result.transfer_window = max(1, self.cost_model.transfer_window)
        self._transmit(_Transfer(
            container=container, snapshot=snapshot, carried=carried,
            result=result, kind=kind, transfer_id=self._transfer_seq,
            chunk_sizes=sizes, attempt=attempt))

    def _transmit(self, transfer: _Transfer) -> None:
        """Pump the transfer: fill the window.

        Transfers are pipelined go-back-N: up to ``transfer_window``
        chunks ride the wire at once, the simulator's delivery callback
        doubles as a zero-cost cumulative ack, and only the final chunk
        carries the actual payload.  A drop rewinds to the lowest unacked
        chunk after a seeded backoff, so bytes already acknowledged are
        never re-sent -- that is the checkpointed resume.  With
        ``transfer_window == 1`` this is stop-and-wait; a one-chunk plan
        (chunking off, or a payload within one chunk) is a single frame.
        """
        transfer.recovering = False
        result = transfer.result
        sizes = transfer.chunk_sizes
        window = max(1, self.cost_model.transfer_window)
        if (window > 1 and transfer.in_flight == 0
                and len(sizes) - transfer.next_to_send >= 2
                and self._send_window(transfer, window)):
            return
        while (not transfer.recovering and not result.failed
               and transfer.in_flight < window
               and transfer.next_to_send < len(sizes)):
            if not self._send_chunk(transfer, window):
                break

    def _send_window(self, transfer: _Transfer, window: int) -> bool:
        """Try to book a whole window round in one kernel event.

        Delegates to :meth:`Network.send_window`, which only takes the
        analytic fast path on a direct, deterministic, uncontended link
        and declines (``None``) otherwise; on decline -- or on any send
        error -- this returns ``False`` and the caller falls back to the
        per-chunk pump, whose event pattern, error handling and semantics
        are unchanged.
        """
        result = transfer.result
        sizes = transfer.chunk_sizes
        base = transfer.next_to_send
        count = min(window - transfer.in_flight, len(sizes) - base)
        chunks = [self._chunk(transfer, seq)
                  for seq in range(base, base + count)]
        try:
            receipts = self.platform.network.send_window(
                transfer.container.host_name, result.destination,
                TRANSFER_PROTOCOL, chunks)
        except RETRYABLE_SEND_ERRORS:
            return False  # the pump will re-raise and handle it
        if receipts is None:
            return False
        result.next_span("agent.transfer", transfer.container.host,
                         attempt=transfer.attempt, chunk=base,
                         chunks=len(sizes), window=window,
                         in_flight=transfer.in_flight, batched=count)
        transfer.analytic = True
        transfer.in_flight += count
        transfer.next_to_send = base + count
        if transfer.in_flight > result.max_in_flight:
            result.max_in_flight = transfer.in_flight
        obs = self.platform.loop.observability
        if obs is not None:
            occupancy = obs.metrics.histogram("migration.window.occupancy")
            for depth in range(transfer.in_flight - count + 1,
                               transfer.in_flight + 1):
                occupancy.observe(depth)
        self._emit_window(transfer, window)
        return True

    def _chunk(self, transfer: _Transfer, seq: int) -> tuple:
        """Chunk ``seq`` as ``(payload, size, on_delivered, on_dropped)``.

        Only the final chunk carries the agent.  Both callbacks are bound
        to the transfer's current epoch, so a superseded round's acks and
        drops are ignored.
        """
        result = transfer.result
        sizes = transfer.chunk_sizes
        final = seq == len(sizes) - 1
        payload = ("chunk", transfer.transfer_id, seq, len(sizes),
                   (transfer.snapshot, transfer.carried, transfer.kind,
                    result) if final else None)
        epoch = transfer.epoch

        def on_delivered(receipt):
            self._chunk_acked(transfer, seq, epoch, receipt)

        def on_dropped(receipt):
            self.transfers_dropped += 1
            if (epoch != transfer.epoch or result.failed
                    or result.completed):
                return  # a newer window round already took over
            self._chunk_lost(transfer, "lost in transit", lost_phase=True)

        return payload, sizes[seq], on_delivered, on_dropped

    def _emit_window(self, transfer: _Transfer, window: int) -> None:
        """Publish the window cursors to obs hooks (invariant checkers).

        Fired after every cursor mutation so a checker sees each
        intermediate state, not just the quiescent one.
        """
        obs = self.platform.loop.observability
        if obs is None or not obs.hooks:
            return
        obs.emit("migration.window",
                 agent=transfer.result.agent_name,
                 transfer_id=transfer.transfer_id,
                 base=transfer.next_chunk,
                 head=transfer.next_to_send,
                 in_flight=transfer.in_flight,
                 window=window,
                 total=len(transfer.chunk_sizes),
                 epoch=transfer.epoch)

    def _send_chunk(self, transfer: _Transfer, window: int) -> bool:
        """Put the window-head chunk on the wire; False stops the pump."""
        result = transfer.result
        sizes = transfer.chunk_sizes
        seq = transfer.next_to_send
        root = result._root_span
        if root is not None and not root.finished:
            attrs = {"attempt": transfer.attempt, "chunk": seq,
                     "chunks": len(sizes)}
            if window > 1:
                attrs["window"] = window
                attrs["in_flight"] = transfer.in_flight
            result.next_span("agent.transfer", transfer.container.host,
                             **attrs)
        payload, size, on_delivered, on_dropped = self._chunk(transfer, seq)
        epoch = transfer.epoch
        try:
            self.platform.network.send(
                transfer.container.host_name, result.destination,
                TRANSFER_PROTOCOL, payload, size,
                on_delivered=on_delivered, on_dropped=on_dropped)
        except RETRYABLE_SEND_ERRORS as exc:
            transfer.last_error = str(exc)
            self._chunk_lost(transfer, str(exc), lost_phase=False)
            return False
        except Exception as exc:
            self._fail(result, str(exc), transfer)
            return False
        if transfer.epoch != epoch or result.failed or result.completed:
            # A lossy link drops synchronously inside send(): on_dropped
            # already ran, _chunk_lost rewound the window and scheduled
            # the retransmit round -- do not advance the cursors it reset.
            return False
        transfer.in_flight += 1
        transfer.next_to_send = seq + 1
        if transfer.in_flight > result.max_in_flight:
            result.max_in_flight = transfer.in_flight
        if window > 1:
            obs = self.platform.loop.observability
            if obs is not None:
                obs.metrics.histogram("migration.window.occupancy").observe(
                    transfer.in_flight)
        self._emit_window(transfer, window)
        return True

    def _chunk_acked(self, transfer: _Transfer, seq: int, epoch: int,
                     receipt) -> None:
        """Delivery callback: slide the window past every contiguous ack."""
        result = transfer.result
        if epoch != transfer.epoch or result.failed:
            return  # superseded by a go-back-N retransmit round
        transfer.in_flight = max(0, transfer.in_flight - 1)
        transfer.delivered.add(seq)
        if seq == 0 and transfer.first_chunk_ms == 0.0:
            transfer.first_chunk_ms = receipt.transfer_ms
        advanced = False
        while transfer.next_chunk in transfer.delivered:
            transfer.delivered.discard(transfer.next_chunk)
            transfer.next_chunk += 1
            advanced = True
        if advanced:
            transfer.attempt = 0
            result.chunks_acked = max(result.chunks_acked,
                                      transfer.next_chunk)
        self._emit_window(transfer, max(1, self.cost_model.transfer_window))
        total = len(transfer.chunk_sizes)
        if transfer.next_chunk >= total:
            self._window_drained(transfer)
            return
        if transfer.analytic:
            if transfer.in_flight > 0:
                return  # round still replaying; refill when it drains
            transfer.analytic = False
        if not transfer.recovering:
            self._transmit(transfer)

    def _window_drained(self, transfer: _Transfer) -> None:
        """Every chunk acked: record the pipelined-vs-serial estimate."""
        result = transfer.result
        window = result.transfer_window
        if window <= 1:
            return
        actual = self.platform.loop.now - result.checked_out_at
        serial_estimate = transfer.first_chunk_ms * len(transfer.chunk_sizes)
        result.pipelined_saved_ms = max(0.0, serial_estimate - actual)
        obs = self.platform.loop.observability
        if obs is not None:
            obs.metrics.histogram("migration.window.saved_ms").observe(
                result.pipelined_saved_ms)

    def _chunk_lost(self, transfer: _Transfer, reason: str,
                    lost_phase: bool) -> None:
        """Go-back-N: rewind the window to the lowest unacked chunk."""
        transfer.epoch += 1
        transfer.recovering = True
        transfer.analytic = False
        transfer.in_flight = 0
        transfer.delivered.clear()
        transfer.next_to_send = transfer.next_chunk
        self._emit_window(transfer, max(1, self.cost_model.transfer_window))
        self._retry(transfer, reason, lost_phase=lost_phase)

    def _retry(self, transfer: _Transfer, reason: str,
               lost_phase: bool) -> None:
        """Schedule a retransmit of the current chunk, or give up."""
        result = transfer.result
        cost_model = self.cost_model
        loop = self.platform.loop
        if transfer.attempt >= cost_model.max_transfer_retries:
            message = (f"transfer to {result.destination!r} lost after "
                       f"{transfer.attempt + 1} attempts")
            if transfer.last_error:
                message += f" (last error: {transfer.last_error})"
            self._fail(result, message, transfer)
            return
        delay = cost_model.backoff_ms(
            transfer.attempt,
            key=f"{result.agent_name}:{transfer.transfer_id}:"
                f"{transfer.next_chunk}")
        deadline = cost_model.migration_deadline_ms
        if deadline > 0 and loop.now + delay - result.started_at > deadline:
            self._fail(result,
                       f"migration deadline ({deadline:g} ms) exceeded "
                       f"after {transfer.attempt + 1} attempts", transfer)
            return
        if lost_phase:
            result.end_phase_span(lost=True)
        transfer.attempt += 1
        result.transfer_retries += 1
        self.transfer_retries += 1
        result.recovery_log.append(
            f"[{loop.now:.1f} ms] retry {transfer.attempt} of chunk "
            f"{transfer.next_chunk}: {reason}; backoff {delay:.1f} ms")
        resumed = transfer.next_chunk > 0
        if resumed and not result.transfer_resumed:
            result.transfer_resumed = True
            self.transfers_resumed += 1
        obs = loop.observability
        if obs is not None:
            obs.metrics.counter("migration.retries").inc()
            if resumed:
                obs.metrics.counter("migration.transfer_resumed").inc()
        loop.call_later(delay, self._transmit, transfer)

    def _fail(self, result: MigrationResult, reason: str,
              transfer: Optional[_Transfer] = None) -> None:
        result.failed = True
        result.failure_reason = reason
        if transfer is not None:
            # A failed/abandoned migration must not leak receiver-side
            # dedup state; remember the key so stragglers dedup cleanly.
            key = (result.destination, transfer.transfer_id)
            self._rx_chunks.pop(key, None)
            self._rx_final.pop(key, None)
            self._mark_rx_done(key)
        result.end_spans(failed=True, reason=reason)
        result._finish()

    #: Bounds for receiver-side bookkeeping: backstops against pathological
    #: churn, far above anything a sane deployment accumulates now that
    #: entries are purged on completion, failure and dedup.
    _RX_CHUNKS_MAX = 1024
    _RX_DONE_MAX = 256

    def _mark_rx_done(self, key) -> None:
        self._rx_done[key] = True
        while len(self._rx_done) > self._RX_DONE_MAX:
            self._rx_done.pop(next(iter(self._rx_done)))

    def _on_transfer(self, container: "AgentContainer", net_message) -> None:
        _tag, transfer_id, seq, total, inner = net_message.payload
        key = (container.host_name, transfer_id)
        if key in self._rx_done:  # straggler of a finished transfer
            self._dedup(container, inner[3] if inner else None)
            return
        seen = self._rx_chunks.get(key)
        if seen is None:
            seen = self._rx_chunks[key] = set()
            while len(self._rx_chunks) > self._RX_CHUNKS_MAX:
                oldest = next(iter(self._rx_chunks))
                if oldest == key:
                    break  # never evict the transfer being served
                self._rx_chunks.pop(oldest)
                self._rx_final.pop(oldest, None)
        duplicate = seq in seen
        seen.add(seq)
        if inner is not None:
            self._rx_final[key] = inner
        elif duplicate:  # re-delivery of an already-accepted chunk
            self._dedup(container, None)
            return
        if len(seen) < total:
            # The final chunk outran an earlier one (a loss, or a route
            # that changed mid-transfer putting it on a shorter path): its
            # payload waits until whichever chunk completes the set.
            return
        inner = self._rx_final.pop(key)
        self._rx_chunks.pop(key, None)
        self._mark_rx_done(key)
        # A straggler whose key _rx_done has already forgotten gets here
        # too; the _arrived guard below dedups it.
        snapshot, carried, kind, result = inner
        if result._arrived:  # duplicate delivery of the whole transfer
            self._dedup(container, result)
            return
        result._arrived = True
        loop = self.platform.loop
        result.arrived_at = loop.now
        result.arrive_local = container.host.local_time()
        obs = loop.observability
        if obs is not None:
            obs.metrics.histogram("agent.transfer_ms").observe(
                result.arrived_at - result.checked_out_at)
        result.next_span("agent.checkin", container.host)
        checkin = self.cost_model.checkin_ms(snapshot.size_bytes,
                                             container.host.cpu_factor)
        loop.call_later(checkin, self._check_in, container, snapshot,
                        carried, kind, result)

    def _dedup(self, container: "AgentContainer",
               result: Optional[MigrationResult]) -> None:
        """Idempotent check-in: swallow a duplicate delivery and count it."""
        self.dedup_hits += 1
        if result is not None:
            result.dedup_hits += 1
        obs = self.platform.loop.observability
        if obs is not None:
            obs.metrics.counter("migration.dedup_hits").inc()
            obs.tracer.event("migration.dedup", category="agent",
                             host=container.host)

    def _check_in(self, container: "AgentContainer", snapshot: AgentSnapshot,
                  carried: List[ACLMessage], kind: str,
                  result: MigrationResult) -> None:
        try:
            agent = snapshot.instantiate()
        except Exception as exc:  # registration/restore failures surface here
            self._fail(result, str(exc))
            return
        agent.state = AgentState.TRANSIT
        container.add_agent(agent)
        agent.do_activate()
        for message in carried:
            agent.post(message)
        if kind == "move":
            agent.after_move()
            self.moves_completed += 1
        else:
            agent.after_clone()
            self.clones_completed += 1
        result.agent = agent
        result.checked_in_at = self.platform.loop.now
        result.completed = True
        obs = self.platform.loop.observability
        if obs is not None:
            obs.metrics.counter("agent.completed", kind=kind).inc()
        result.end_spans(host=container.host)
        result._finish()
