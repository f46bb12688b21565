"""The observability hub: one tracer + one metrics registry per study.

An :class:`Observability` instance is the single object user code threads
through a scenario::

    from repro.obs import Observability

    obs = Observability()
    d = Deployment(seed=1, observability=obs)   # attaches to d.loop
    ...run the scenario...
    obs.export_chrome_trace("trace.json")
    print(obs.dashboard())

Attachment sets ``loop.observability`` so every instrumented layer (kernel,
network, agent platform, middleware) can reach the hub with one attribute
read -- and, crucially, skip *all* instrumentation with a single ``is
None`` check when no hub is attached.  To run without observability, pass
no hub: that path records zero events and perturbs nothing.

One hub may observe several deployments in sequence (a parameter sweep);
call :meth:`begin_run` between them to partition the records.
"""

from __future__ import annotations

import hashlib
from typing import Any, Callable, Dict, List, Optional, TextIO, Union

from repro.obs.exporters import (
    export_chrome_trace,
    export_jsonl,
    render_dashboard,
    to_chrome_trace,
    to_jsonl,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Tracer


class Ledger:
    """Running sha256 over what the simulation *did*.

    The network appends every delivered or dropped message and the
    pipeline every migration's terminal record; nothing telemetry-shaped
    (span or metric names, callback names, queue internals) is ever
    recorded, so instrumentation can change without moving
    :func:`repro.simcheck.behaviour_digest`.
    """

    def __init__(self) -> None:
        self._sha = hashlib.sha256()
        self.records = 0

    def record(self, *fields: Any) -> None:
        self._sha.update(repr(fields).encode("utf-8"))
        self.records += 1

    def message(self, at: float, message: Any, delivered: bool) -> None:
        self.record(at, message.source, message.destination,
                    message.protocol, message.size_bytes, delivered)

    def outcome(self, token: str, outcome: Any) -> None:
        plan = outcome.plan
        self.record(token, plan.app_name, plan.source, plan.destination,
                    outcome.completed, outcome.failure_reason,
                    outcome.started_at, outcome.suspend_done_at,
                    outcome.migrate_done_at, outcome.resume_done_at)

    def hexdigest(self) -> str:
        return self._sha.hexdigest()


class Observability:
    """Bundles a :class:`Tracer`, a :class:`MetricsRegistry` and the
    behaviour :class:`Ledger`."""

    def __init__(self, trace: bool = True):
        #: ``trace=False`` keeps the hub (metrics + hooks) live but records
        #: no spans/events -- the lightweight mode digest pinning and SLO
        #: aggregation use on runs with hundreds of thousands of kernel
        #: events, where span objects would dominate memory and wall time.
        self.tracer = Tracer(enabled=trace)
        self.metrics = MetricsRegistry()
        self.ledger = Ledger()
        #: Synchronous listeners for structured runtime events (see
        #: :meth:`emit`).  Instrumented layers guard the emission with
        #: ``if obs.hooks:`` so the empty-list case costs one truthiness
        #: check -- hooks are opt-in plumbing for invariant checkers
        #: (:mod:`repro.simcheck`), not a second tracing channel.
        self.hooks: List[Callable[[str, Dict[str, Any]], None]] = []

    def add_hook(self, hook: Callable[[str, Dict[str, Any]], None]
                 ) -> Callable[[str, Dict[str, Any]], None]:
        """Register ``hook(kind, payload)`` for every :meth:`emit` call."""
        self.hooks.append(hook)
        return hook

    def emit(self, __event: str, **payload: Any) -> None:
        """Fan a structured runtime event out to every registered hook.

        Hooks run synchronously in registration order, inside the emitting
        event -- they must not schedule work or mutate simulation state.
        (The positional-only channel name keeps ``kind=...`` available as
        a payload key.)

        With no hooks registered this returns immediately; the
        keyword-payload dict is still built by Python at the call site,
        which is why hot-path emitters must guard with
        ``if obs.hooks:`` *before* assembling the payload -- the
        short-circuit here only protects emitters that did not.
        """
        if not self.hooks:
            return
        for hook in self.hooks:
            hook(__event, payload)

    def attach(self, loop: Any, run_label: Optional[str] = None
               ) -> "Observability":
        """Point the tracer at ``loop``'s clock and install the hub on it."""
        self.tracer.use_clock(lambda: loop.now)
        loop.observability = self
        if run_label is not None:
            self.begin_run(run_label)
        return self

    def begin_run(self, label: str = "") -> int:
        """Start a new record partition (one sweep point, one scenario)."""
        return self.tracer.begin_run(label)

    # -- convenience exporter front-ends ------------------------------------

    def dashboard(self, title: str = "observability dashboard") -> str:
        return render_dashboard(self, title=title)

    def to_chrome_trace(self) -> Dict[str, Any]:
        return to_chrome_trace(self)

    def export_chrome_trace(self, path: Union[str, TextIO]) -> None:
        export_chrome_trace(self, path)

    def to_jsonl(self) -> str:
        return to_jsonl(self)

    def export_jsonl(self, path: Union[str, TextIO]) -> None:
        export_jsonl(self, path)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<Observability spans={len(self.tracer.spans)} "
                f"events={len(self.tracer.events)} "
                f"series={len(self.metrics)}>")
