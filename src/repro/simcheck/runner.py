"""Scenario execution: build, run, check invariants, digest the behaviour.

:func:`run_scenario` is the single entry point the fuzzer, the shrinker
and artifact replay all share -- one scenario in, one
:class:`SimcheckReport` out.  Every id sequence belongs to an object of
the deployment it numbers, so a run depends on nothing an earlier run in
the same process left behind; :func:`check_determinism` asserts that two
back-to-back runs of one scenario give the same behaviour digest.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.simcheck.invariants import InvariantChecker, InvariantViolation
from repro.simcheck.scenario import (
    Scenario,
    SimcheckError,
    build_application,
    build_deployment,
)


def trace_digest(observability) -> str:
    """SHA-256 over the canonical JSONL trace (spans, events, metrics).

    The stream includes telemetry (span structure, metric names, callback
    names), so it is only meaningful run-to-run on one code version; pin
    behaviour with :func:`behaviour_digest`.
    """
    return hashlib.sha256(
        observability.to_jsonl().encode("utf-8")).hexdigest()


def behaviour_digest(observability, *deployments) -> str:
    """SHA-256 over what the simulation did.

    Folds the hub's :class:`~repro.obs.hub.Ledger` (every delivered or
    dropped message, every migration's terminal record) with each given
    deployment's totals at quiescence: the byte ledger and per-link
    carried bytes, the receiver and dedup table sizes, registry calls per
    client, host clock readings, and outcomes that never reached a
    terminal state.  Tracing, hooks and metric names cannot move it.
    """
    ledger = observability.ledger
    sha = hashlib.sha256(f"{ledger.records}:{ledger.hexdigest()}".encode())
    for deployment in deployments:
        net = deployment.network
        mobility = deployment.platform.mobility
        totals = (
            net.bytes_on_wire, net.bytes_off_wire, net.bytes_delivered_total,
            net.retired_link_bytes,
            [(link.a, link.b, link.bytes_carried, link.bytes_dropped)
             for link in net.links],
            len(mobility._rx_chunks), len(mobility._rx_done),
            sorted((host, client.calls)
                   for host, client in net.registry_clients.items()),
            [(host.name, host.clock.skew_ms, host.clock.drift_ppm)
             for host in net.hosts],
            sorted(token for token, outcome in deployment.outcomes.items()
                   if not (outcome.completed or outcome.failed)),
        )
        sha.update(repr(totals).encode("utf-8"))
    return sha.hexdigest()


# -- sabotage hooks (test-only) --------------------------------------------

def _sabotage_rx_ghost(deployment) -> None:
    """Plant a never-completed transfer in the receiver dedup table."""
    deployment.platform.mobility._rx_chunks[("ghost", 999_999_999)] = {0}


def _sabotage_clock_skip(deployment) -> None:
    """Step the first host's clock backwards without a clock_jump fault."""
    host = deployment.network.hosts[0]

    def warp() -> None:
        host.clock.now()
        host.clock.skew_ms -= 123.0
        host.clock.now()

    deployment.loop.call_later(1.0, warp)


def _sabotage_wire_skim(deployment) -> None:
    """Skim one byte off the conservation ledger."""

    def skim() -> None:
        deployment.network.bytes_on_wire += 1

    deployment.loop.call_later(1.0, skim)


def _sabotage_link_skim(deployment) -> None:
    """Inflate one link's carried counter (per-link ledger breach)."""

    def skim() -> None:
        links = deployment.network.links
        if links:
            links[0].bytes_carried += 7

    deployment.loop.call_later(1.0, skim)


def _ignore(result, error) -> None:
    """Callback for sabotage-issued registry reads (outcome irrelevant)."""


def _sabotage_stale_cache(deployment) -> None:
    """Break a client cache's coherence-token check, then write + re-read.

    The second read is TTL-valid but its stored token predates the
    deregistration, so serving it is exactly the stale-cache defect the
    ``stale-cache-serve`` invariant exists to catch.
    """
    fed = deployment.federation
    host = deployment.network.hosts[0].name
    client = fed.client_for(host)
    args = {"app_name": "stale-app", "host": host}

    def plant() -> None:
        shard = fed.shards[fed.space_with_shard(host)]
        shard.dispatch("register_application", {"record": {
            "app_name": "stale-app", "host": host,
            "components": ["logic"]}})
        client.call("components_at", dict(args), _ignore)

    def corrupt() -> None:
        client._skip_token_check = True
        shard = fed.shards[fed.space_with_shard(host)]
        shard.dispatch("deregister_application", dict(args))

    def reread() -> None:
        client.call("components_at", dict(args), _ignore)

    deployment.loop.call_later(1.0, plant)
    deployment.loop.call_later(60.0, corrupt)
    deployment.loop.call_later(90.0, reread)


def _sabotage_dropped_invalidation(deployment) -> None:
    """Suppress the lifecycle-event invalidation seam, then re-read.

    A ``stopped`` lifecycle event should bump the app's epoch and kill
    every cached read that depends on it; with the seam disabled the
    client cache happily serves its pre-stop entry.
    """
    from repro.context.model import TOPIC_APP, ContextEvent

    fed = deployment.federation
    host = deployment.network.hosts[0].name
    client = fed.client_for(host)
    args = {"app_name": "stale-app", "host": host}

    def plant() -> None:
        shard = fed.shards[fed.space_with_shard(host)]
        shard.dispatch("register_application", {"record": {
            "app_name": "stale-app", "host": host,
            "components": ["logic"]}})
        client.call("components_at", dict(args), _ignore)

    def corrupt() -> None:
        fed.invalidation_disabled = True
        deployment.bus.publish(ContextEvent(
            topic=TOPIC_APP, subject="stale-app",
            attributes={"event": "stopped"},
            timestamp=deployment.loop.now, source="sabotage"))

    def reread() -> None:
        client.call("components_at", dict(args), _ignore)

    deployment.loop.call_later(1.0, plant)
    deployment.loop.call_later(60.0, corrupt)
    deployment.loop.call_later(90.0, reread)


def _sabotage_lost_reply(deployment) -> None:
    """Leak one in-flight registry request (its reply finds nobody home)."""
    fed = deployment.federation
    caller = None
    for h in deployment.network.hosts:
        target, _space = fed.route(h.name, "application_hosts", {})
        if target is not None and target != h.name:
            caller = h.name  # its global reads really cross the wire
            break
    if caller is None:
        return  # single-host scenario: nothing can be in flight
    client = fed.client_for(caller)

    def plant() -> None:
        client.call("application_hosts", {"app_name": "anyone"}, _ignore)

    def leak() -> None:
        for timer in client._timers.values():
            timer.cancel()
        client._timers.clear()
        client._pending.clear()
        client._operations.clear()

    deployment.loop.call_later(1.0, plant)
    deployment.loop.call_later(1.05, leak)


def _sabotage_wedged_migration(deployment) -> None:
    """Plant a started-but-never-terminal migration outcome.

    Models a pipeline that lost a continuation mid-flight: the outcome is
    registered (the migration "started") but no phase ever completes or
    fails it, so it must trip the ``migration-terminal`` check.
    """
    from repro.core.binding import MigrationPlan
    from repro.core.metrics import MigrationOutcome

    def wedge() -> None:
        host = deployment.network.hosts[0].name
        plan = MigrationPlan(app_name="wedged-app", source=host,
                             destination=host, token="wedged-app#sabotage")
        deployment.outcomes["wedged-app#sabotage"] = MigrationOutcome(plan)

    deployment.loop.call_later(1.0, wedge)


#: Deliberate, deterministic defects the runner can plant after building a
#: deployment (``Scenario.sabotage``).  Test-only: they exist so the
#: invariant checkers and the shrinker can be validated against known
#: violations; fuzzing never generates them.
SABOTAGE_HOOKS = {
    "rx-ghost": _sabotage_rx_ghost,
    "clock-skip": _sabotage_clock_skip,
    "wire-skim": _sabotage_wire_skim,
    "link-skim": _sabotage_link_skim,
    "stale-cache": _sabotage_stale_cache,
    "dropped-invalidation": _sabotage_dropped_invalidation,
    "lost-reply": _sabotage_lost_reply,
    "wedged-migration": _sabotage_wedged_migration,
}

#: The violation kind each sabotage tag must produce.
SABOTAGE_VIOLATIONS = {
    "rx-ghost": "rx-table-leak",
    "clock-skip": "clock-monotonicity",
    "wire-skim": "byte-accounting",
    "link-skim": "link-accounting",
    "stale-cache": "stale-cache-serve",
    "dropped-invalidation": "stale-cache-serve",
    "lost-reply": "registry-conservation",
    "wedged-migration": "migration-terminal",
}

#: Tags that only make sense against a federated registry; the runner
#: flips ``scenario.federated_registry`` on for them before building.
SABOTAGE_NEEDS_FEDERATION = frozenset(
    {"stale-cache", "dropped-invalidation", "lost-reply"})


@dataclass
class LegResult:
    """Outcome of one scheduled migration leg."""

    app_name: str
    source: str
    destination: str
    status: str  # "completed" | "failed" | "skipped"
    detail: str = ""

    def to_dict(self) -> Dict[str, Any]:
        return {"app_name": self.app_name, "source": self.source,
                "destination": self.destination, "status": self.status,
                "detail": self.detail}


@dataclass
class SimcheckReport:
    """Everything one scenario run produced."""

    scenario: Scenario
    violations: List[InvariantViolation] = field(default_factory=list)
    legs: List[LegResult] = field(default_factory=list)
    stats: Dict[str, Any] = field(default_factory=dict)
    digest: str = ""
    #: Flight-recorder dump: the runtime events leading up to the *first*
    #: violation (empty on clean runs).  Ships inside repro artifacts so a
    #: failure's lead-up survives alongside its minimal scenario.
    flight: List[Dict[str, Any]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        legs = ", ".join(f"{l.app_name}->{l.destination}:{l.status}"
                         for l in self.legs) or "no legs"
        return (f"seed {self.scenario.seed}: "
                f"{'ok' if self.ok else f'{len(self.violations)} violations'}"
                f" ({self.scenario.describe()}; {legs}; "
                f"digest {self.digest[:12]})")

    def to_dict(self) -> Dict[str, Any]:
        return {
            "scenario": self.scenario.to_dict(),
            "violations": [v.to_dict() for v in self.violations],
            "legs": [l.to_dict() for l in self.legs],
            "stats": dict(self.stats),
            "digest": self.digest,
            "flight": [dict(e) for e in self.flight],
        }


def _running_host(deployment, app_name: str) -> Optional[str]:
    from repro.core.application import AppStatus
    for host, app in deployment.application_instances(app_name):
        if app.status is AppStatus.RUNNING:
            return host
    return None


def run_scenario(scenario: Scenario) -> SimcheckReport:
    """Build, run and invariant-check one scenario."""
    from repro.core import BindingPolicy
    from repro.core.errors import MiddlewareError, MigrationError
    from repro.obs import FlightRecorder, Observability

    if scenario.sabotage in SABOTAGE_NEEDS_FEDERATION:
        scenario.federated_registry = True
    observability = Observability()
    deployment = build_deployment(scenario, observability=observability)
    checker = InvariantChecker(deployment).install()
    # Black box: ring-buffer the hook stream and freeze it the instant the
    # first violation records, so the dump shows the breach's lead-up
    # rather than whatever happened to run last.
    recorder = FlightRecorder().attach(observability)
    flight_dump: List[Dict[str, Any]] = []

    def _freeze_flight(violation) -> None:
        if not flight_dump:
            flight_dump.extend(recorder.snapshot())

    checker.on_violation = _freeze_flight
    sabotage = SABOTAGE_HOOKS.get(scenario.sabotage)
    if scenario.sabotage and sabotage is None:
        raise SimcheckError(f"unknown sabotage tag {scenario.sabotage!r}")
    if sabotage is not None:
        sabotage(deployment)

    for spec in scenario.apps:
        app = build_application(spec)
        checker.expect_application(app)
        deployment.middleware(spec.launch_host).launch_application(app)
    deployment.run_all()
    deployment.loop.advance(scenario.warmup_ms)

    legs: List[LegResult] = []
    for leg in scenario.legs:
        deployment.loop.advance(leg.pause_before_ms)
        source = _running_host(deployment, leg.app_name)
        if source is None:
            legs.append(LegResult(leg.app_name, "?", leg.destination,
                                  "skipped", "no RUNNING instance"))
            continue
        if source == leg.destination:
            legs.append(LegResult(leg.app_name, source, leg.destination,
                                  "skipped", "already there"))
            continue
        policy = next(a.policy for a in scenario.apps
                      if a.name == leg.app_name)
        try:
            outcome = deployment.middleware(source).migrate(
                leg.app_name, leg.destination,
                policy=BindingPolicy(policy))
        except (MigrationError, MiddlewareError) as exc:
            legs.append(LegResult(leg.app_name, source, leg.destination,
                                  "skipped", str(exc)))
            continue
        deployment.run_all()
        legs.append(LegResult(
            leg.app_name, source, leg.destination,
            "completed" if outcome.completed else "failed",
            outcome.failure_reason if outcome.failed else ""))
    # Drain past the fault horizon so every scheduled revert has fired.
    deployment.run_all()
    if scenario.plan.horizon_ms:
        deployment.loop.advance(scenario.plan.horizon_ms + 1_000.0)
        deployment.run_all()

    checker.check_quiescent()
    return SimcheckReport(
        scenario=scenario,
        violations=checker.violations,
        legs=legs,
        stats=deployment.stats(),
        digest=behaviour_digest(observability, deployment),
        flight=flight_dump)


def check_determinism(scenario: Scenario) -> Dict[str, Any]:
    """Run a scenario twice in this process; compare behaviour digests.

    Returns ``{"deterministic": bool, "digests": [d1, d2]}``.
    """
    first = run_scenario(scenario)
    second = run_scenario(scenario)
    return {"deterministic": first.digest == second.digest,
            "digests": [first.digest, second.digest]}
