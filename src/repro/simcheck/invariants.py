"""Runtime invariant checkers riding the observability hook stream.

An :class:`InvariantChecker` attaches to a deployment's
:class:`~repro.obs.hub.Observability` hooks plus each host clock's
``on_regress`` seam, watches the run as it happens, and records
:class:`InvariantViolation`\\ s instead of raising -- a fuzz run should
always finish so the shrinker gets a complete, replayable scenario.

Checked invariants (the FIPA mobility correctness properties plus the
simulation's own conservation laws):

- **component conservation** -- after the run quiesces, every follow-me
  application has exactly one RUNNING instance, with no component
  duplicated and none of its original components missing;
- **sim-time monotonicity** -- the kernel clock never moves backwards,
  and a host clock only regresses when a scheduled ``clock_jump`` fault
  (or its revert) sanctioned the step;
- **byte accounting** -- every byte put on a wire comes off it, and the
  network's delivered total equals the sum of per-host receive counters;
- **window cursor sanity** -- for pipelined transfers,
  ``base <= head <= base + window`` with ``0 <= in_flight <= head - base``;
- **rx-table occupancy** -- the receiver-side chunk dedup tables stay
  bounded during the run and empty at quiescence;
- **registry cache coherence** -- every cache hit the federated registry
  serves carries a coherence token at least as new as the checker's own
  model of the write generations and lifecycle epochs (built from
  ``registry.invalidate`` hook events and the context bus), so a stale
  serve is caught the instant it happens;
- **registry message conservation** -- every ``registry.request`` hook
  event is balanced by exactly one ``registry.response`` or
  ``registry.fail`` by quiescence (a leaked in-flight request stays
  unbalanced).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List

from repro.context.model import TOPIC_APP
from repro.core.application import AppStatus
from repro.registry.federation import INVALIDATING_EVENTS


@dataclass
class InvariantViolation:
    """One observed invariant breach (recorded, never raised)."""

    kind: str
    detail: str
    at_ms: float = 0.0
    context: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {"kind": self.kind, "detail": self.detail,
                "at_ms": self.at_ms, "context": dict(self.context)}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "InvariantViolation":
        return cls(kind=str(data["kind"]), detail=str(data.get("detail", "")),
                   at_ms=float(data.get("at_ms", 0.0)),
                   context=dict(data.get("context", {})))

    def __str__(self) -> str:
        return f"[{self.at_ms:.1f} ms] {self.kind}: {self.detail}"


#: Every violation kind a checker can record (stable identifiers: repro
#: artifacts match on these strings).
VIOLATION_KINDS = (
    "component-conservation",
    "sim-time-monotonicity",
    "clock-monotonicity",
    "byte-accounting",
    "link-accounting",
    "window-cursor",
    "rx-table-bound",
    "rx-table-leak",
    "non-quiescent",
    "stale-cache-serve",
    "registry-conservation",
    "migration-terminal",
)


class InvariantChecker:
    """Streams runtime events into violation records for one deployment."""

    def __init__(self, deployment):
        self.deployment = deployment
        self.violations: List[InvariantViolation] = []
        self._expected: Dict[str, set] = {}
        self._jump_allowance: Dict[str, int] = {}
        self._last_kernel_now: float = float("-inf")
        # Independent model of registry coherence state, rebuilt from the
        # hook stream (registry.invalidate) and the context bus -- never
        # read back from the federation itself, so a federation that
        # *forgets* to invalidate diverges from this model and any serve
        # carrying the forgotten token gets flagged.
        self._app_gens: Dict[str, int] = {}
        self._app_epochs: Dict[str, int] = {}
        self._resource_gen = 0
        self._registry_requests = 0
        self._registry_answers = 0
        #: Optional ``callback(violation)`` fired the instant a violation
        #: is recorded -- the runner uses it to freeze the flight
        #: recorder's ring at the first breach, before later events
        #: overwrite the lead-up.
        self.on_violation = None

    # -- wiring -----------------------------------------------------------

    def install(self) -> "InvariantChecker":
        """Hook into the deployment's obs hub and every host clock."""
        obs = self.deployment.observability
        if obs is None:
            raise RuntimeError(
                "InvariantChecker needs a Deployment built with an "
                "Observability hub (observability=Observability())")
        obs.add_hook(self._on_event)
        for host in self.deployment.network.hosts:
            host.clock.on_regress = self._make_regress(host.name)
        bus = getattr(self.deployment, "bus", None)
        if bus is not None:
            # Mirror the federation's lifecycle-epoch bookkeeping.  The
            # federation subscribed first (at enable time), so its epoch
            # bump always lands before ours on the same publish -- the
            # checker's model never runs ahead of reality.
            bus.subscribe(TOPIC_APP, self._on_app_lifecycle)
        return self

    def expect_application(self, app) -> None:
        """Register an app's component set for conservation checking.

        Call after building (before or after launching) the application;
        the set the checker captures is the ground truth that must
        survive every subsequent migration.
        """
        self._expected[app.name] = {c.name for c in app.components}

    def record(self, kind: str, detail: str, **context: Any) -> None:
        violation = InvariantViolation(
            kind=kind, detail=detail, at_ms=self.deployment.loop.now,
            context=context)
        self.violations.append(violation)
        if self.on_violation is not None:
            self.on_violation(violation)

    # -- streaming checks -------------------------------------------------

    def _on_event(self, kind: str, payload: Dict[str, Any]) -> None:
        if kind == "kernel.event":
            self._check_kernel(payload)
        elif kind == "migration.window":
            self._check_window(payload)
        elif kind in ("fault.inject", "fault.revert"):
            self._note_fault(kind, payload)
        elif kind == "registry.request":
            self._registry_requests += 1
        elif kind in ("registry.response", "registry.fail"):
            self._registry_answers += 1
        elif kind == "registry.invalidate":
            self._note_invalidate(payload)
        elif kind == "registry.cache.serve":
            self._check_cache_serve(payload)

    def _check_kernel(self, payload: Dict[str, Any]) -> None:
        now = float(payload["now"])
        if now < self._last_kernel_now - 1e-9:
            self.record("sim-time-monotonicity",
                        f"kernel clock moved backwards: {now:.3f} after "
                        f"{self._last_kernel_now:.3f}")
        self._last_kernel_now = now
        mobility = self.deployment.platform.mobility
        if len(mobility._rx_chunks) > mobility._RX_CHUNKS_MAX:
            self.record("rx-table-bound",
                        f"receiver chunk table holds "
                        f"{len(mobility._rx_chunks)} transfers "
                        f"(bound {mobility._RX_CHUNKS_MAX})")

    def _check_window(self, payload: Dict[str, Any]) -> None:
        base = payload["base"]
        head = payload["head"]
        in_flight = payload["in_flight"]
        window = payload["window"]
        total = payload["total"]
        ok = (0 <= base <= head <= base + window
              and head <= total
              and 0 <= in_flight <= head - base)
        if not ok:
            self.record(
                "window-cursor",
                f"agent {payload.get('agent')!r}: base={base} head={head} "
                f"in_flight={in_flight} window={window} total={total}",
                **payload)

    def _note_fault(self, action: str, payload: Dict[str, Any]) -> None:
        if payload.get("kind") != "clock_jump":
            return
        jump = float(payload.get("params", {}).get("jump_ms", 0.0))
        # Injecting a negative jump steps the clock backwards; reverting a
        # positive one does too.  Either grants the host one sanctioned
        # regression.
        backwards = jump < 0 if action == "fault.inject" else jump > 0
        if backwards:
            host = payload["target"]
            self._jump_allowance[host] = \
                self._jump_allowance.get(host, 0) + 1

    # -- registry coherence ------------------------------------------------

    def _on_app_lifecycle(self, event) -> None:
        if event.attributes.get("event") in INVALIDATING_EVENTS:
            app = event.subject
            self._app_epochs[app] = self._app_epochs.get(app, 0) + 1

    def _note_invalidate(self, payload: Dict[str, Any]) -> None:
        if payload.get("scope") == "app":
            self._app_gens[str(payload["app"])] = int(payload["gen"])
        else:
            self._resource_gen = int(payload["resource_gen"])

    def _check_cache_serve(self, payload: Dict[str, Any]) -> None:
        where = payload.get("where")
        host = payload.get("host")
        if "resource_gen" in payload:
            served = int(payload["resource_gen"])
            if served < self._resource_gen:
                self.record(
                    "stale-cache-serve",
                    f"{where} cache on {host!r} served "
                    f"{payload.get('operation')!r} at resource generation "
                    f"{served} after generation {self._resource_gen}",
                    **payload)
            return
        if "app" not in payload:
            return
        app = str(payload["app"])
        gen = int(payload.get("gen", 0))
        epoch = int(payload.get("epoch", 0))
        current_gen = self._app_gens.get(app, 0)
        current_epoch = self._app_epochs.get(app, 0)
        if gen < current_gen or epoch < current_epoch:
            self.record(
                "stale-cache-serve",
                f"{where} cache on {host!r} served "
                f"{payload.get('operation')!r} for app {app!r} at "
                f"gen={gen}/epoch={epoch} after "
                f"gen={current_gen}/epoch={current_epoch}",
                **payload)

    def _make_regress(self, host_name: str):
        def on_regress(clock, previous: float, current: float) -> None:
            if self._jump_allowance.get(host_name, 0) > 0:
                self._jump_allowance[host_name] -= 1
                return
            self.record("clock-monotonicity",
                        f"host {host_name!r} clock regressed "
                        f"{previous:.3f} -> {current:.3f} without a "
                        f"scheduled clock_jump",
                        host=host_name, previous=previous, current=current)
        return on_regress

    # -- quiescence checks ------------------------------------------------

    def check_quiescent(self) -> List[InvariantViolation]:
        """Run the end-of-run conservation checks; returns all violations."""
        deployment = self.deployment
        if deployment.loop.pending:
            self.record("non-quiescent",
                        f"{deployment.loop.pending} events still queued "
                        f"after the drain")
        self._check_bytes()
        self._check_rx_tables()
        self._check_conservation()
        self._check_registry_ledger()
        self._check_migrations_terminal()
        return self.violations

    def _check_migrations_terminal(self) -> None:
        """Every migration that started must have reached a terminal
        pipeline phase (completed or failed) by quiescence -- a started
        outcome that is neither means the pipeline wedged mid-flight."""
        for token, outcome in sorted(self.deployment.outcomes.items()):
            if outcome.completed or outcome.failed:
                continue
            plan = outcome.plan
            self.record(
                "migration-terminal",
                f"migration {token!r} ({plan.app_name} "
                f"{plan.source}->{plan.destination}) never reached a "
                f"terminal phase", token=token)

    def _check_registry_ledger(self) -> None:
        if self._registry_requests != self._registry_answers:
            self.record(
                "registry-conservation",
                f"{self._registry_requests} registry requests vs "
                f"{self._registry_answers} responses+failures at "
                f"quiescence -- "
                f"{abs(self._registry_requests - self._registry_answers)} "
                f"request(s) leaked or double-answered")

    def _check_bytes(self) -> None:
        net = self.deployment.network
        if net.bytes_on_wire != net.bytes_off_wire:
            self.record("byte-accounting",
                        f"{net.bytes_on_wire - net.bytes_off_wire} bytes "
                        f"unaccounted for on the wire "
                        f"(on={net.bytes_on_wire} off={net.bytes_off_wire})")
        received = sum(h.bytes_received for h in net.hosts)
        if received != net.bytes_delivered_total:
            self.record("byte-accounting",
                        f"host receive counters ({received}) != network "
                        f"delivered total ({net.bytes_delivered_total})")
        # Per-link ledger reconciliation: every byte the network put on a
        # wire must show up in exactly one link's carried or dropped
        # counter (retired_link_bytes preserves the totals of links torn
        # down mid-run).  Under fair sharing and loss this catches a link
        # engine that double-books or forgets a flow's bytes.
        link_total = net.retired_link_bytes + sum(
            link.bytes_carried + link.bytes_dropped for link in net.links)
        if link_total != net.bytes_on_wire:
            self.record("link-accounting",
                        f"per-link counters ({link_total}) != bytes put on "
                        f"the wire ({net.bytes_on_wire}); carried+dropped "
                        f"must balance per link")

    def _check_rx_tables(self) -> None:
        mobility = self.deployment.platform.mobility
        if mobility._rx_chunks:
            keys = sorted(str(k) for k in mobility._rx_chunks)
            self.record("rx-table-leak",
                        f"receiver chunk table not empty at quiescence: "
                        f"{keys}")

    def _check_conservation(self) -> None:
        deployment = self.deployment
        for app_name, expected in sorted(self._expected.items()):
            instances = deployment.application_instances(app_name)
            running = [(host, app) for host, app in instances
                       if app.status is AppStatus.RUNNING]
            if len(running) != 1:
                hosts = sorted(host for host, _ in instances)
                states = {host: app.status.value for host, app in instances}
                self.record("component-conservation",
                            f"app {app_name!r} has {len(running)} RUNNING "
                            f"instances (instances on {hosts}: {states})",
                            app=app_name)
                continue
            host, app = running[0]
            names = [c.name for c in app.components]
            duplicates = sorted({n for n in names if names.count(n) > 1})
            if duplicates:
                self.record("component-conservation",
                            f"app {app_name!r} on {host!r} has duplicated "
                            f"components {duplicates}", app=app_name)
            missing = sorted(expected - set(names))
            if missing:
                self.record("component-conservation",
                            f"app {app_name!r} on {host!r} lost components "
                            f"{missing}", app=app_name)
