"""The migration stacks: named, ordered lists of phases one context walks.

MDAgent moves an application through one fixed sequence (paper Fig. 4,
§4.3): suspend (coordinator + snapshot manager), wrap (mobile agent),
migrate (agent platform check-out / transfer / check-in), then unwrap,
rebind, adapt and resume at the destination, after which the mobile
agent is deleted.  Each step is a :class:`MiddlewarePhase`; a
:class:`MigrationPipeline` is a name plus the ordered phases, and one
:class:`MigrationContext` walks them.  The source middleware runs every
phase up to and including the transfer; the mobile agent's arrival
completes the transfer and the destination middleware runs the rest.
Outcome timestamps follow the paper's three measured segments:
*suspension* (suspend + snapshot), *migration* (the mobile agent's
journey) and *resumption* (restore + rebind + adapt + remote-data open).
A phase that pays a sim-time cost (scaled by this module's cost
constants and the host's CPU factor) schedules ``ctx.complete_phase`` on
the loop for when the cost is paid.

The "fipa" stack replaces the free negotiation with a pre-transfer
``propose/accept/reject`` capability negotiation over ACL (platform
kind, serialization version, resource classes), modelled on the FIPA
interoperable-mobility proposal: an incompatible destination rejects the
proposal *before* the source application is suspended, so a platform
mismatch degrades to a clean failed :class:`MigrationOutcome` with the
source app still running.

Failure handling is uniform: when any phase fails, the context rolls the
migration back through every phase already passed (newest first), each
phase undoing only what it did -- resume a suspended source, delete an
arrived mobile agent, uninstall a half-installed destination copy,
restore and restart the source instance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.core.application import Application, AppStatus
from repro.core.binding import (
    BindingPolicy,
    MigrationKind,
    MigrationPlan,
    ResourceRebind,
)
from repro.core.errors import MigrationError, PipelineError
from repro.core.metrics import MigrationOutcome
from repro.core.mobile_agent import MDMobileAgent

#: ACL protocol of the FIPA capability-negotiation exchange.
CAPABILITY_PROTOCOL = "md-capability"
#: Deadline for one FIPA negotiation round trip.
NEGOTIATION_TIMEOUT_MS = 5_000.0


# Cost constants of the application-level migration phases, calibrated
# so the paper's testbed regime (10 Mbps link, single-PC-class hosts)
# lands near its reported phase magnitudes.  Every CPU-bound term scales
# with the host's ``cpu_factor``.

#: Suspension: stop the app + capture the snapshot.
SUSPEND_BASE_MS = 90.0
SNAPSHOT_MS_PER_MB = 25.0
#: Clone-dispatch does not stop the source app; it only snapshots.
CLONE_SNAPSHOT_BASE_MS = 25.0
#: Resumption: restore state, rebind resources, adapt, restart.
RESUME_BASE_MS = 180.0
RESTORE_MS_PER_MB = 40.0
REBIND_MS_PER_RESOURCE = 8.0
ADAPT_MS = 12.0
#: Remote data open ("played remotely through URL"): a fixed handshake
#: plus fetching this fraction of the file (seek tables / first buffer).
REMOTE_OPEN_BASE_MS = 100.0
REMOTE_OPEN_FRACTION = 0.04


def plan_to_dict(plan: MigrationPlan) -> Dict[str, Any]:
    """Plain-data wire form of a plan (rides inside the mobile agent)."""
    return {
        "app_name": plan.app_name,
        "source": plan.source,
        "destination": plan.destination,
        "kind": plan.kind.value,
        "policy": plan.policy.value,
        "carry_components": list(plan.carry_components),
        "reuse_components": list(plan.reuse_components),
        "remote_data": list(plan.remote_data),
        "remote_data_bytes": dict(plan.remote_data_bytes),
        "resource_rebinds": [
            {"binding_name": r.binding_name,
             "original_resource": r.original_resource,
             "target_resource": r.target_resource,
             "mode": r.mode}
            for r in plan.resource_rebinds],
        "estimated_bytes": plan.estimated_bytes,
        "token": plan.token,
        "prestage": plan.prestage,
    }


def plan_from_dict(data: Dict[str, Any]) -> MigrationPlan:
    return MigrationPlan(
        app_name=data["app_name"],
        source=data["source"],
        destination=data["destination"],
        kind=MigrationKind(data["kind"]),
        policy=BindingPolicy(data["policy"]),
        carry_components=list(data["carry_components"]),
        reuse_components=list(data["reuse_components"]),
        remote_data=list(data["remote_data"]),
        remote_data_bytes=dict(data.get("remote_data_bytes", {})),
        resource_rebinds=[
            ResourceRebind(r["binding_name"], r["original_resource"],
                           r["target_resource"], r["mode"])
            for r in data["resource_rebinds"]],
        estimated_bytes=data["estimated_bytes"],
        token=data.get("token", ""),
        prestage=data.get("prestage", False),
    )


# -- phases and context -----------------------------------------------------


class MiddlewarePhase:
    """One named step of a migration stack.

    Subclasses set :attr:`name` and implement :meth:`run`.  A phase
    either calls ``ctx.complete_phase()`` before returning (synchronous
    completion) or schedules work that calls it later; exceptions raised
    from :meth:`run` fail the migration through ``ctx.fail`` with
    :meth:`describe_error`'s rendering.
    """

    name: str = "phase"

    def run(self, ctx: "MigrationContext") -> None:
        raise NotImplementedError

    def rollback(self, ctx: "MigrationContext") -> None:
        """Undo this phase's effects after a later (or own) failure."""

    def describe_error(self, ctx: "MigrationContext",
                       exc: BaseException) -> str:
        return str(exc)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{type(self).__name__} {self.name!r}>"


@dataclass
class MigrationRequest:
    """What the caller asked for."""

    app_name: str
    destination: str
    kind: MigrationKind = MigrationKind.FOLLOW_ME
    policy: BindingPolicy = BindingPolicy.ADAPTIVE


class MigrationContext:
    """Typed, shared state one migration carries through its pipeline."""

    def __init__(self, pipeline: "MigrationPipeline",
                 middleware, request: MigrationRequest,
                 failpoints: Iterable[str] = ()):
        self.pipeline = pipeline
        #: Source middleware.
        self.middleware = middleware
        self.request = request
        self.app: Optional[Application] = None
        self.outcome: Optional[MigrationOutcome] = None
        self.token: str = ""
        self.plan: Optional[MigrationPlan] = None
        self.snapshot = None
        self.ma: Optional[MDMobileAgent] = None
        self.ma_arrived = False
        #: Destination middleware, set at mobile-agent arrival.
        self.destination_middleware = None
        #: The plan as unwrapped from the agent's cargo at the destination.
        self.arrived_plan: Optional[MigrationPlan] = None
        self.dest_app: Optional[Application] = None
        self.dest_installed = False
        self.snapshot_data: Optional[Dict[str, Any]] = None
        #: Test seam: phase names after which a failure is injected.
        self.failpoints = frozenset(failpoints)
        self.finished = False
        self._suspended_here = False
        self._transfer_started = False
        self._index = 0
        self._entered: Optional[MiddlewarePhase] = None
        self._completed: List[MiddlewarePhase] = []
        self._in_run = False

    # -- plumbing ----------------------------------------------------------

    @property
    def loop(self):
        return self.middleware.loop

    @property
    def observability(self):
        return self.loop.observability

    # -- progression -------------------------------------------------------

    def complete_phase(self) -> None:
        """Mark the current phase done and advance the pipeline."""
        if self.finished:
            return
        phase = self.pipeline.phases[self._index]
        self._completed.append(phase)
        self._index += 1
        if self._index >= len(self.pipeline.phases):
            self._close()
            return
        if phase.name in self.failpoints:
            self.fail(f"injected failure after phase {phase.name!r}")
            return
        if not self._in_run:
            self.pipeline._advance(self)

    def finish_early(self) -> None:
        """End the pipeline cleanly before the last phase (e.g. a prestage
        plan with nothing to ship)."""
        self._close()

    def _close(self) -> None:
        """Finish the context.  From here on the outcome is the
        migration's record, so it lets go of the context and with it the
        mobile agent and its cargo, the captured snapshot and the
        unwrapped plan.

        Keyed on the context finishing, not on the outcome turning
        terminal: the middleware can fail an outcome whose context still
        runs."""
        self.finished = True
        self.outcome._pipeline_ctx = None

    def arrive(self, destination_middleware, ma: MDMobileAgent) -> None:
        """The mobile agent checked in: complete the transfer phase and
        continue with the destination's phases."""
        self.destination_middleware = destination_middleware
        self.ma = ma
        self.ma_arrived = True
        self.arrived_plan = plan_from_dict(ma.plan)
        self.complete_phase()

    def fail(self, reason: str,
             before_finish: Optional[Callable[[], None]] = None) -> None:
        """Fail the migration: record the reason, roll back every phase
        passed so far (newest first), then finish the outcome.

        ``before_finish`` runs after the rollback chain but before the
        outcome's completion callbacks fire -- the transfer phase uses it
        to keep the classic failure-counter ordering.
        """
        if self.finished:
            return
        outcome = self.outcome
        if outcome.completed or outcome.failed:
            self._close()
            return
        self.finished = True
        outcome.failed = True
        outcome.failure_reason = reason
        chain: List[MiddlewarePhase] = []
        if self._entered is not None and \
                self._entered not in self._completed:
            chain.append(self._entered)
        chain.extend(reversed(self._completed))
        for phase in chain:
            try:
                phase.rollback(self)
            except Exception:  # pragma: no cover - rollback best-effort
                pass
        if before_finish is not None:
            before_finish()
        outcome._finish()
        self._close()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<MigrationContext {self.pipeline.name} "
                f"phase={self._index}/{len(self.pipeline.phases)}>")


# -- driver -----------------------------------------------------------------


class MigrationPipeline:
    """A named, ordered list of phases plus its trampoline driver.

    With a hub attached, every phase entry records a ``pipeline.phase``
    span and counter.
    """

    def __init__(self, name: str, phases: Sequence[MiddlewarePhase]):
        self.name = name
        self.phases: Tuple[MiddlewarePhase, ...] = tuple(phases)

    def start(self, ctx: MigrationContext) -> MigrationContext:
        self._advance(ctx)
        return ctx

    def _advance(self, ctx: MigrationContext) -> None:
        """Run phases until one completes asynchronously, fails, or the
        stack is exhausted.  Synchronous phases call
        ``ctx.complete_phase()`` inside :meth:`MiddlewarePhase.run`; the
        loop detects the advanced index and continues without any extra
        kernel event."""
        phases = self.phases
        while not ctx.finished and ctx._index < len(phases):
            phase = phases[ctx._index]
            ctx._entered = phase
            before = ctx._index
            ctx._in_run = True
            try:
                self._run_phase(ctx, phase)
            except Exception as exc:
                ctx._in_run = False
                if ctx.outcome is None:
                    # Admission-time errors (unknown app/destination...)
                    # surface synchronously to the caller, exactly like
                    # the classic monolithic migrate().
                    raise
                ctx.fail(phase.describe_error(ctx, exc))
                return
            ctx._in_run = False
            if ctx.finished or ctx._index == before:
                # Failed, finished, or waiting for an async completion
                # (timer, network round trip, agent arrival).
                return

    def _run_phase(self, ctx: MigrationContext,
                   phase: MiddlewarePhase) -> None:
        obs = ctx.observability
        if obs is None:
            phase.run(ctx)
            return
        if obs.tracer.enabled:
            with obs.tracer.span("pipeline.phase", category="pipeline",
                                 pipeline=self.name, phase=phase.name):
                phase.run(ctx)
        else:
            phase.run(ctx)
        obs.metrics.counter("pipeline.phase", pipeline=self.name,
                            phase=phase.name).inc()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<MigrationPipeline {self.name!r} "
                f"{[p.name for p in self.phases]}>")


# -- shared phase helpers ---------------------------------------------------


def receive(middleware, ma: MDMobileAgent,
            outcome: Optional[MigrationOutcome]) -> None:
    """Hand an arriving agent to its migration's running context, which
    completes its transfer phase and runs the destination's phases.

    Every agent carries the token of the outcome its transfer phase
    minted, and that outcome points at its context until the context
    finishes.  An agent whose outcome has no running context (it arrived
    after its migration finished, or its token names no outcome) is
    deleted and changes nothing else."""
    ctx = outcome._pipeline_ctx if outcome is not None else None
    if ctx is None:
        ma.do_delete()
        return
    ctx.arrive(middleware, ma)


def _mint_outcome(ctx: MigrationContext, app: Application,
                  provisional: MigrationPlan) -> None:
    """Register a new outcome under a fresh deployment token; the
    behaviour ledger records its terminal state."""
    deployment = ctx.middleware.deployment
    outcome = MigrationOutcome(provisional)
    token = deployment.new_outcome_token(provisional.app_name)
    deployment.outcomes[token] = outcome
    outcome._pipeline_ctx = ctx
    obs = ctx.observability
    if obs is not None:
        outcome.on_complete(lambda o: obs.ledger.outcome(token, o))
        outcome.on_complete(lambda o: o.end_spans(failed=o.failed))
    ctx.app = app
    ctx.outcome = outcome
    ctx.token = token
    ctx.complete_phase()


def _count_failure(loop, plan: MigrationPlan) -> None:
    """Counterpart of the ``migration.completed`` counter: without it a
    scheduler-driven fleet cannot tell a quiet deployment from one whose
    migrations all die in transit."""
    obs = loop.observability
    if obs is not None:
        obs.metrics.counter("migration.failed", kind=plan.kind.value).inc()


def _rollback(middleware, app: Application, snapshot,
              outcome: MigrationOutcome) -> None:
    """Fault tolerance: the agent was lost in transit -- restore the
    stopped source instance from its own snapshot and resume it, so the
    user keeps a working application ("stronger resilience capability",
    paper §1)."""
    if app.status is not AppStatus.INSTALLED:
        return  # nothing to roll back (clone, or already restarted)
    middleware.snapshot_manager.restore(app, snapshot)
    app.start(middleware)
    middleware.publish_app_event(app, "rolled-back")
    outcome.log(f"rolled back {app.name} at source "
                f"{middleware.host_name} after transfer failure")


# -- migration phases -------------------------------------------------------


class AdmissionPhase(MiddlewarePhase):
    """Validate the request, arm chaos, mint the outcome and its token."""

    name = "admission"

    def run(self, ctx: MigrationContext) -> None:
        middleware = ctx.middleware
        request = ctx.request
        app = middleware.application(request.app_name)
        if app.status is not AppStatus.RUNNING:
            raise MigrationError(f"{request.app_name!r} is not running")
        if request.destination == middleware.host_name:
            raise MigrationError("destination equals current host")
        if not middleware.network.has_host(request.destination):
            raise MigrationError(
                f"unknown destination host {request.destination!r}")
        middleware.deployment._arm_chaos("first-migration")
        _mint_outcome(ctx, app, MigrationPlan(
            request.app_name, middleware.host_name, request.destination,
            request.kind, request.policy))


class PlanningPhase(MiddlewarePhase):
    """Registry lookups (destination inventory, resource matches) and the
    binding resolver's plan.  Happens before the measured suspension
    phase begins, matching the paper's measurement window."""

    name = "planning"

    def run(self, ctx: MigrationContext) -> None:
        middleware = ctx.middleware
        app = ctx.app
        request = ctx.request
        outcome = ctx.outcome

        def with_components(components, error):
            if error is not None:
                ctx.fail(f"registry lookup failed: {error}")
                return
            required = [b.resource_id for b in app.resource_bindings]
            if not required:
                finish_plan(components or [], {})
                return
            middleware.registry_client.call(
                "rebind_map",
                {"required": required, "host": request.destination},
                lambda matches, err2: finish_plan(components or [],
                                                  matches or {})
                if err2 is None else ctx.fail(err2))

        def finish_plan(components: List[str],
                        matches: Dict[str, Optional[str]]):
            plan = middleware.resolver.plan(
                app, middleware.host_name, request.destination,
                destination_components=components,
                resource_matches=matches, kind=request.kind,
                policy=request.policy)
            plan.token = ctx.token  # type: ignore[attr-defined]
            outcome.plan = plan
            outcome.log(f"plan: {plan.summary()}")
            ctx.plan = plan
            ctx.complete_phase()

        middleware.registry_client.call(
            "components_at",
            {"app_name": request.app_name, "host": request.destination},
            with_components)


class DirectNegotiationPhase(MiddlewarePhase):
    """The classic protocol: the destination middleware is assumed
    homogeneous, so the capability grant is implicit and free -- no
    events, no messages."""

    name = "negotiation"

    def run(self, ctx: MigrationContext) -> None:
        ctx.complete_phase()


class FipaNegotiationPhase(MiddlewarePhase):
    """FIPA-shaped pre-transfer capability negotiation.

    The source's mobile-agent manager PROPOSEs its capability tuple
    (platform kind, serialization version, resource classes, device
    requirements) to the destination's manager over ACL; the destination
    answers ACCEPT-PROPOSAL with its own capabilities (the grant) or
    REJECT-PROPOSAL with a reason.  Rejection and timeout fail the
    migration *before* suspension, leaving the source app running.
    """

    name = "negotiation"

    def run(self, ctx: MigrationContext) -> None:
        from repro.agents.protocols import ProposeInitiator

        middleware = ctx.middleware
        plan = ctx.plan
        outcome = ctx.outcome
        proposal = middleware.capability_proposal(plan)
        responder_aid = f"mam-{plan.destination}@{plan.destination}"

        def on_accept(message):
            grant = message.content if isinstance(message.content, dict) \
                else {}
            outcome.log(
                f"negotiation: {plan.destination} accepted "
                f"({grant.get('platform_kind', '?')}"
                f"/v{grant.get('serialization_version', '?')})")
            ctx.complete_phase()

        def on_reject(message):
            detail = message.content.get("reason", "no reason given") \
                if isinstance(message.content, dict) else str(message.content)
            outcome.log(f"negotiation: {plan.destination} rejected "
                        f"proposal: {detail}")
            ctx.fail(f"migration proposal rejected by "
                     f"{plan.destination}: {detail}")

        def on_timeout():
            ctx.fail(f"capability negotiation with {plan.destination} "
                     f"timed out")

        outcome.log(f"negotiation: proposing "
                    f"{proposal['platform_kind']}"
                    f"/v{proposal['serialization_version']} to "
                    f"{plan.destination}")
        middleware.mam.add_behaviour(ProposeInitiator(
            responder_aid, proposal, CAPABILITY_PROTOCOL,
            on_accept=on_accept, on_reject=on_reject,
            on_timeout=on_timeout,
            timeout_ms=NEGOTIATION_TIMEOUT_MS,
            name=f"negotiate-{plan.app_name}"))


class SuspendPhase(MiddlewarePhase):
    """Stop the source instance (follow-me) and open the measured
    suspension window: status checks, counters, and the observability
    root span live here."""

    name = "suspend"

    def run(self, ctx: MigrationContext) -> None:
        middleware = ctx.middleware
        loop = middleware.loop
        app = ctx.app
        plan = ctx.plan
        outcome = ctx.outcome
        if app.status is not AppStatus.RUNNING:
            raise MigrationError(
                f"cannot migrate {app.name!r}: status is {app.status}")
        if plan.source != middleware.host_name:
            raise MigrationError(
                f"plan source {plan.source!r} is not this host "
                f"{middleware.host_name!r}")
        outcome.started_at = loop.now
        # The phase spans carry exactly the timestamps that feed the
        # outcome's suspend/migrate/resume figures (Fig. 8/9 series): both
        # are written from the same loop.now at the same call sites, so
        # trace and tables agree to the float bit.
        outcome.begin_spans(
            loop.observability, "app.migration", "migration",
            middleware.host, app=plan.app_name, source=plan.source,
            destination=plan.destination, kind=plan.kind.value,
            policy=plan.policy.value)
        outcome.next_span("suspend", middleware.host, app=plan.app_name)
        if plan.kind is MigrationKind.FOLLOW_ME:
            app.suspend()
            ctx._suspended_here = True
            outcome.log(f"suspended {app.name} at {loop.now:.1f}")
        ctx.complete_phase()

    def rollback(self, ctx: MigrationContext) -> None:
        # Only undo a suspension this phase performed, and only while the
        # transfer never started -- once the agent is in flight the
        # transfer phase owns the source instance's fate (stop/restore).
        if not ctx._suspended_here or ctx._transfer_started:
            return
        app = ctx.app
        if app.status is not AppStatus.SUSPENDED:
            return
        app.resume()
        middleware = ctx.middleware
        middleware.publish_app_event(app, "rolled-back")
        ctx.outcome.log(f"rolled back: resumed {app.name} at source "
                        f"{middleware.host_name}")


class CapturePhase(MiddlewarePhase):
    """Snapshot the application and pay the CPU-scaled suspension cost."""

    name = "capture"

    def run(self, ctx: MigrationContext) -> None:
        middleware = ctx.middleware
        loop = middleware.loop
        app = ctx.app
        plan = ctx.plan
        cpu = middleware.host.cpu_factor
        snapshot = middleware.snapshot_manager.capture(
            app, now=loop.now)
        ctx.snapshot = snapshot
        size_mb = snapshot.size_bytes / 1e6
        if plan.kind is MigrationKind.FOLLOW_ME:
            suspend_cost = (SUSPEND_BASE_MS
                            + SNAPSHOT_MS_PER_MB * size_mb) * cpu
        else:
            suspend_cost = (CLONE_SNAPSHOT_BASE_MS
                            + SNAPSHOT_MS_PER_MB * size_mb) * cpu
        loop.call_later(suspend_cost, ctx.complete_phase)


class TransferPhase(MiddlewarePhase):
    """Wrap the app in a mobile agent and ship it: manifest assembly,
    sync-master hand-over, remote-data stubs, check-out.  The phase
    completes when the agent checks in at the destination, whose
    middleware runs the phases after it; a transfer failure rolls the
    source back."""

    name = "transfer"

    def run(self, ctx: MigrationContext) -> None:
        middleware = ctx.middleware
        loop = middleware.loop
        app = ctx.app
        plan = ctx.plan
        outcome = ctx.outcome
        snapshot = ctx.snapshot
        ctx._transfer_started = True
        outcome.suspend_done_at = loop.now
        outcome.next_span("migrate", middleware.host, app=plan.app_name)
        manifest = app.to_manifest(plan.carry_components)
        # A migrating sync master hands its replica set over: the manifest
        # carries the list so the new host can re-point every replica.
        coordinator = app.coordinator
        if (plan.kind is MigrationKind.FOLLOW_ME
                and coordinator.sync_role.value == "master"
                and coordinator.replica_hosts):
            manifest["sync_master"] = {
                "replicas": list(coordinator.replica_hosts)}
        # Remote-bound data components still appear in the manifest as
        # lightweight stubs (size 0 on the wire) so the destination knows
        # the URL to stream from.
        for name in plan.remote_data:
            if app.has_component(name):
                component = app.component(name)
                stub = component.to_dict()
                stub["size_bytes"] = 0
                stub["__virtual_bytes__"] = 0
                stub["remote_url"] = f"md://{plan.source}/{app.name}/{name}"
                manifest["components"].append(stub)
        # Resource bindings are tiny metadata: they always travel so the
        # destination can re-establish them (to a local match or remotely).
        carried_names = {c["name"] for c in manifest["components"]}
        for rebind in plan.resource_rebinds:
            if rebind.binding_name in carried_names:
                continue
            if app.has_component(rebind.binding_name):
                manifest["components"].append(
                    app.component(rebind.binding_name).to_dict())
        ma_name = f"ma-{plan.app_name}-{next(middleware._ma_seq)}"
        ma = middleware.container.create_agent(MDMobileAgent, ma_name)
        ma.load_cargo(manifest, snapshot.to_dict(), plan_to_dict(plan))
        ctx.ma = ma
        result = ma.do_move(plan.destination)
        outcome.bytes_transferred = result.size_bytes
        outcome.depart_local = 0.0  # filled when checkout completes

        def on_moved(r):
            outcome.depart_local = r.depart_local
            outcome.arrive_local = r.arrive_local
            outcome.agent_departed_at = r.checked_out_at
            outcome.agent_arrived_at = r.arrived_at
            outcome.transfer_retries = r.transfer_retries
            outcome.transfer_resumed = r.transfer_resumed
            outcome.dedup_hits = r.dedup_hits
            for entry in r.recovery_log:
                outcome.log(f"transfer recovery: {entry}")
            if r.failed:
                ctx.fail(r.failure_reason,
                         before_finish=lambda: _count_failure(loop, plan))

        result.on_complete(on_moved)
        if plan.kind is MigrationKind.FOLLOW_ME:
            # Cut-paste: the source copy stops (data files stay on disk for
            # remote streaming, but the user-facing instance is gone).
            app.stop()
            outcome.log(f"source instance of {app.name} stopped")

    def rollback(self, ctx: MigrationContext) -> None:
        if ctx.ma_arrived:
            # The agent made it across but the destination failed to power
            # the app up: clean the courier out of the destination container.
            ctx.ma.do_delete()
        if ctx.plan.kind is MigrationKind.FOLLOW_ME:
            _rollback(ctx.middleware, ctx.app, ctx.snapshot, ctx.outcome)


def _unwrap(ctx: MigrationContext) -> None:
    """Check the arrived agent in: stamp the end of the migrate phase,
    then install the carried application here, or merge the carried
    components into the copy already installed."""
    middleware = ctx.destination_middleware
    ma = ctx.ma
    outcome = ctx.outcome
    now = middleware.loop.now
    outcome.migrate_done_at = now
    outcome.log(f"mobile agent {ma.local_name} checked in at {now:.1f}")
    app = middleware.applications.get(ctx.arrived_plan.app_name)
    if app is None:
        app = Application.from_manifest(ma.manifest)
        middleware.install_application(app, register=True)
        ctx.dest_installed = True
    else:
        merged = app.merge_components(ma.manifest)
        if merged:
            outcome.log(f"merged carried components: {merged}")
    ctx.dest_app = app


class CheckinPhase(MiddlewarePhase):
    """Destination check-in: close the migrate span, unwrap the cargo,
    and pay the restore cost."""

    name = "checkin"

    def run(self, ctx: MigrationContext) -> None:
        middleware = ctx.destination_middleware
        loop = middleware.loop
        plan = ctx.arrived_plan
        # The migrate phase ends here, on the destination's clock.
        ctx.outcome.next_span("resume", middleware.host, app=plan.app_name)
        _unwrap(ctx)
        snapshot_data = ctx.ma.snapshot
        ctx.snapshot_data = snapshot_data
        cpu = middleware.host.cpu_factor
        size_mb = snapshot_data.get("size_bytes", 0) / 1e6
        resume_cost = (RESUME_BASE_MS
                       + RESTORE_MS_PER_MB * size_mb
                       + REBIND_MS_PER_RESOURCE * len(plan.resource_rebinds)
                       + ADAPT_MS) * cpu
        loop.call_later(resume_cost, ctx.complete_phase)

    def rollback(self, ctx: MigrationContext) -> None:
        if not ctx.dest_installed:
            return
        middleware = ctx.destination_middleware
        app = ctx.dest_app
        if app.status is not AppStatus.RUNNING \
                and app.name in middleware.applications:
            middleware.uninstall_application(app.name)

    def describe_error(self, ctx: MigrationContext,
                       exc: BaseException) -> str:
        return (f"unwrap failed at {ctx.destination_middleware.host_name}: "
                f"{exc}")


class RebindPhase(MiddlewarePhase):
    """Re-establish resource bindings per the plan and open remote data
    streams ("played remotely through URL in the original host")."""

    name = "rebind"

    def run(self, ctx: MigrationContext) -> None:
        middleware = ctx.destination_middleware
        loop = middleware.loop
        app = ctx.dest_app
        plan = ctx.arrived_plan
        outcome = ctx.outcome
        for rebind in plan.resource_rebinds:
            if app.has_component(rebind.binding_name):
                binding = app.component(rebind.binding_name)
                binding.rebind(rebind.target_resource or
                               rebind.original_resource, rebind.mode)
                outcome.log(f"rebound {rebind.binding_name} -> "
                            f"{rebind.target_resource} ({rebind.mode})")
        remote_total = sum(plan.remote_data_bytes.values())
        if remote_total > 0:
            # "They will be played remotely through URL in the original
            # host": open the stream by fetching the initial fraction.
            fetch_bytes = int(remote_total * REMOTE_OPEN_FRACTION)
            loop.call_later(
                REMOTE_OPEN_BASE_MS, middleware.fetch_remote_data,
                plan.source, plan.app_name, fetch_bytes, ctx.complete_phase,
                ctx.fail)
            outcome.log(f"opening remote data: fetching {fetch_bytes} B "
                        f"from {plan.source}")
        else:
            ctx.complete_phase()


class PowerUpPhase(MiddlewarePhase):
    """Restore state, start, adapt, re-establish sync links, register and
    publish the resumption -- the app is running at the destination."""

    name = "powerup"

    def run(self, ctx: MigrationContext) -> None:
        from repro.core.snapshot import Snapshot

        middleware = ctx.destination_middleware
        loop = middleware.loop
        app = ctx.dest_app
        plan = ctx.arrived_plan
        outcome = ctx.outcome
        ma = ctx.ma
        snapshot = Snapshot.from_dict(ctx.snapshot_data)
        if app.status is AppStatus.RUNNING:
            # Already running here (e.g. a sync replica); just refresh state.
            middleware.snapshot_manager.restore(app, snapshot)
        else:
            middleware.snapshot_manager.restore(app, snapshot)
            app.start(middleware)
        # Adapt to the destination device and the owner's preferences.
        report = middleware.adaptor.adapt(app, middleware.device_profile,
                                          app.user_profile)
        if report.changes:
            outcome.log(f"adapted: {len(report.changes)} attribute changes")
        if plan.kind is MigrationKind.CLONE_DISPATCH:
            middleware.establish_sync_replica(app, plan.source)
            outcome.log(f"sync link established to master {plan.source}")
        sync_master = ma.manifest.get("sync_master")
        if sync_master is not None:
            # Master handoff: reclaim the replica set and re-point every
            # replica at this host.
            middleware.assume_sync_master(app, sync_master["replicas"])
            outcome.log(f"sync master moved; re-pointed replicas "
                        f"{sync_master['replicas']}")
        middleware.registry_write(
            "register_application",
            {"record": middleware._application_record(app).to_dict()})
        middleware.publish_app_event(app, "resumed")
        outcome.resume_done_at = loop.now
        outcome.completed = True
        outcome.end_spans(host=middleware.host,
                          bytes=outcome.bytes_transferred)
        obs = loop.observability
        if obs is not None:
            metrics = obs.metrics
            metrics.counter("migration.completed",
                            kind=plan.kind.value).inc()
            for phase_name, value in outcome.phases().items():
                metrics.histogram("migration.phase_ms", phase=phase_name,
                                  app=plan.app_name).observe(value)
        outcome._finish()
        ma.do_delete()
        ctx.complete_phase()


# -- pre-staging phases -----------------------------------------------------


class PrestageAdmissionPhase(MiddlewarePhase):
    """Validate a pre-staging request and mint its outcome."""

    name = "admission"

    def run(self, ctx: MigrationContext) -> None:
        middleware = ctx.middleware
        request = ctx.request
        app = middleware.application(request.app_name)
        if request.destination == middleware.host_name:
            raise MigrationError("cannot prestage to the current host")
        if not middleware.network.has_host(request.destination):
            raise MigrationError(
                f"unknown destination host {request.destination!r}")
        _mint_outcome(ctx, app, MigrationPlan(
            request.app_name, middleware.host_name, request.destination,
            MigrationKind.FOLLOW_ME, BindingPolicy.ADAPTIVE, prestage=True))


class PrestagePlanningPhase(MiddlewarePhase):
    """Plan which components to push ahead; completes the outcome early
    when the destination already holds every component kind."""

    name = "planning"

    def run(self, ctx: MigrationContext) -> None:
        middleware = ctx.middleware
        app = ctx.app
        request = ctx.request
        outcome = ctx.outcome

        def with_components(components, error):
            if error is not None:
                ctx.fail(f"registry lookup failed: {error}")
                return
            plan = middleware.resolver.plan(
                app, middleware.host_name, request.destination,
                destination_components=components or [],
                kind=MigrationKind.FOLLOW_ME,
                policy=BindingPolicy.ADAPTIVE)
            # Pre-staging ships code/UI only: data streams (or travels)
            # at real migration time, and resource bindings re-match then.
            plan.remote_data = []
            plan.remote_data_bytes = {}
            plan.resource_rebinds = []
            plan.prestage = True
            plan.token = ctx.token
            outcome.plan = plan
            ctx.plan = plan
            if not plan.carry_components:
                outcome.completed = True
                outcome.log("nothing to prestage: destination already has "
                            "every component kind")
                outcome._finish()
                ctx.finish_early()
                return
            outcome.log(f"prestage plan: {plan.summary()}")
            ctx.complete_phase()

        middleware.registry_client.call(
            "components_at",
            {"app_name": request.app_name, "host": request.destination},
            with_components)


class PackPhase(MiddlewarePhase):
    """Open the prestage span and pay the packing cost."""

    name = "pack"

    def run(self, ctx: MigrationContext) -> None:
        middleware = ctx.middleware
        loop = middleware.loop
        plan = ctx.plan
        outcome = ctx.outcome
        outcome.started_at = loop.now
        outcome.begin_spans(loop.observability, "app.prestage", "migration",
                            middleware.host, app=plan.app_name,
                            source=plan.source, destination=plan.destination)
        pack_cost = CLONE_SNAPSHOT_BASE_MS * middleware.host.cpu_factor
        loop.call_later(pack_cost, ctx.complete_phase)


class PrestageTransferPhase(MiddlewarePhase):
    """Ship the component package in a mobile agent; the app keeps
    running at the source untouched (so a transfer failure needs no
    rollback)."""

    name = "transfer"

    def run(self, ctx: MigrationContext) -> None:
        middleware = ctx.middleware
        loop = middleware.loop
        app = ctx.app
        plan = ctx.plan
        outcome = ctx.outcome
        outcome.suspend_done_at = loop.now
        manifest = app.to_manifest(plan.carry_components)
        empty_snapshot = {
            "app_name": app.name, "snapshot_id": 0,
            "taken_at": loop.now, "coordinator_state": {},
            "app_state": {}, "component_versions": {}, "size_bytes": 64,
        }
        ma_name = f"pre-{plan.app_name}-{next(middleware._ma_seq)}"
        ma = middleware.container.create_agent(MDMobileAgent, ma_name)
        ma.load_cargo(manifest, empty_snapshot, plan_to_dict(plan))
        ctx.ma = ma
        result = ma.do_move(plan.destination)
        outcome.bytes_transferred = result.size_bytes

        def on_moved(r):
            if r.failed:
                ctx.fail(r.failure_reason,
                         before_finish=lambda: _count_failure(loop, plan))

        result.on_complete(on_moved)


class InstallPhase(MiddlewarePhase):
    """Destination check-in for a prestage package: unwrap, merge the
    components and pay the install cost."""

    name = "install"

    def run(self, ctx: MigrationContext) -> None:
        middleware = ctx.destination_middleware
        _unwrap(ctx)
        install_cost = CLONE_SNAPSHOT_BASE_MS * middleware.host.cpu_factor
        middleware.loop.call_later(install_cost, ctx.complete_phase)

    describe_error = CheckinPhase.describe_error


class PrestageFinishPhase(MiddlewarePhase):
    """Register the pre-staged components and close the outcome."""

    name = "finish"

    def run(self, ctx: MigrationContext) -> None:
        middleware = ctx.destination_middleware
        loop = middleware.loop
        app = ctx.dest_app
        plan = ctx.arrived_plan
        outcome = ctx.outcome
        ma = ctx.ma
        middleware.registry_write(
            "register_application",
            {"record": middleware._application_record(app).to_dict()})
        outcome.resume_done_at = loop.now
        outcome.completed = True
        outcome.log(f"prestaged {plan.carry_components} on "
                    f"{middleware.host_name}")
        outcome._finish()
        ma.do_delete()
        ctx.complete_phase()


# -- stack builders ---------------------------------------------------------


#: Protocols a middleware config may select.
MIGRATION_PROTOCOLS = ("direct", "fipa")


def _unknown_protocol(protocol: str) -> PipelineError:
    return PipelineError(f"unknown migration protocol {protocol!r} "
                         f"(expected one of {MIGRATION_PROTOCOLS})")


def migration_phases(protocol: str = "direct"
                     ) -> Tuple[MiddlewarePhase, ...]:
    """The ordered phase objects of one migration stack."""
    if protocol == "direct":
        negotiation: MiddlewarePhase = DirectNegotiationPhase()
    elif protocol == "fipa":
        negotiation = FipaNegotiationPhase()
    else:
        raise _unknown_protocol(protocol)
    return (AdmissionPhase(), PlanningPhase(), negotiation, SuspendPhase(),
            CapturePhase(), TransferPhase(), CheckinPhase(), RebindPhase(),
            PowerUpPhase())


#: The three stacks, built once at import.  Phases keep no state of their
#: own (a migration's state lives in its :class:`MigrationContext`, its
#: failpoints on the middleware), so every host shares them.
_MIGRATION_PIPELINES: Dict[str, MigrationPipeline] = {
    protocol: MigrationPipeline(f"migration/{protocol}",
                                migration_phases(protocol))
    for protocol in MIGRATION_PROTOCOLS
}
_PRESTAGE_PIPELINE = MigrationPipeline("prestage/direct", (
    PrestageAdmissionPhase(), PrestagePlanningPhase(), PackPhase(),
    PrestageTransferPhase(), InstallPhase(), PrestageFinishPhase()))


def build_migration_pipeline(config) -> MigrationPipeline:
    """The migration stack for one middleware config."""
    protocol = getattr(config, "migration_protocol", "direct")
    if protocol not in _MIGRATION_PIPELINES:
        raise _unknown_protocol(protocol)
    return _MIGRATION_PIPELINES[protocol]


def build_prestage_pipeline(config) -> MigrationPipeline:
    """The pre-staging stack (always direct: it ships code, not state)."""
    return _PRESTAGE_PIPELINE
