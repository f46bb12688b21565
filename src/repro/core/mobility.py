"""The mobility manager: executes migration plans end-to-end.

Implements the Fig. 4 interaction: suspend (coordinator + snapshot manager),
wrap (mobile agent), migrate (agent platform check-out / transfer /
check-in), unwrap + rebind + adapt + resume at the destination, and --
for clone-dispatch -- establish the synchronization link back to the master.

Phase timing matches the paper's three measured segments: *suspension*
(suspend + snapshot), *migration* (the mobile agent's journey), and
*resumption* (restore + rebind + adapt + remote-data open).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, Optional

from repro.core.application import AppStatus, Application
from repro.core.binding import (
    BindingPolicy,
    MigrationKind,
    MigrationPlan,
    ResourceRebind,
)
from repro.core.metrics import MigrationOutcome
from repro.core.mobile_agent import MDMobileAgent

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.middleware import MDAgentMiddleware


@dataclass
class MobilityConfig:
    """Cost knobs for the application-level migration phases.

    Calibrated so the paper's testbed regime (10 Mbps link, single-PC-class
    hosts) lands near its reported phase magnitudes; all CPU-bound terms
    scale with the host's ``cpu_factor``.
    """

    #: Suspension: stop the app + capture the snapshot.
    suspend_base_ms: float = 90.0
    snapshot_ms_per_mb: float = 25.0
    #: Clone-dispatch does not stop the source app; it only snapshots.
    clone_snapshot_base_ms: float = 25.0
    #: Resumption: restore state, rebind resources, adapt, restart.
    resume_base_ms: float = 180.0
    restore_ms_per_mb: float = 40.0
    rebind_ms_per_resource: float = 8.0
    adapt_ms: float = 12.0
    #: Remote data open ("played remotely through URL"): a fixed handshake
    #: plus fetching this fraction of the file (seek tables / first buffer).
    remote_open_base_ms: float = 100.0
    remote_open_fraction: float = 0.04


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


def end_outcome_spans(outcome: MigrationOutcome, **attributes) -> None:
    """Seal any observability spans still open on ``outcome``.

    The phase spans (suspend/migrate/resume) and their ``app.migration``
    root ride the outcome object across hosts; every failure path funnels
    through :meth:`MigrationOutcome._finish`, so the mobility manager
    registers this as an ``on_complete`` callback to guarantee no span is
    left dangling.
    """
    for attr in ("_obs_phase", "_obs_root"):
        span = getattr(outcome, attr, None)
        if span is not None and not span.finished:
            span.end(**attributes)


class MobilityManager:
    """Source-side executor of migration plans (one per middleware).

    Since the pipeline refactor the phase *logic* lives in
    :mod:`repro.core.pipeline`; this class keeps the cost knobs, the
    mobile-agent name sequence, the rollback/failure-accounting helpers,
    and the timer continuation methods (``_wrap_and_send`` and friends).
    Those methods are the monolith's historical timer targets: the kernel
    records every dispatched callback's qualified name in the trace, so
    keeping the names -- as one-line continuations into the pipeline --
    keeps the golden and pinned scenario digests byte-identical.
    """

    def __init__(self, middleware: "MDAgentMiddleware",
                 config: Optional[MobilityConfig] = None):
        self.middleware = middleware
        self.config = config if config is not None else MobilityConfig()
        # Per-instance so identical deployments produce identical agent
        # names (and therefore bit-identical wire sizes).
        self._ma_seq = itertools.count(1)
        self.migrations_started = 0

    @property
    def loop(self):
        return self.middleware.loop

    # -- pipeline timer continuations ---------------------------------------
    # Scheduled via loop.call_later by the pipeline phases; each marks the
    # paid cost window done and hands control back to the stack.

    def _wrap_and_send(self, ctx) -> None:
        """State capture cost paid: continue with the transfer phase."""
        ctx.complete_phase()

    def _rebind_and_open(self, ctx) -> None:
        """Restore cost paid at the destination: continue with rebind."""
        ctx.complete_phase()

    def _send_prestage(self, ctx) -> None:
        """Packing cost paid: continue with the prestage transfer."""
        ctx.complete_phase()

    def _finish_prestage(self, ctx) -> None:
        """Install cost paid at the destination: finish the prestage."""
        ctx.complete_phase()

    def _count_failure(self, plan: MigrationPlan) -> None:
        """Counterpart of the ``migration.completed`` counter: without it
        a scheduler-driven fleet cannot tell a quiet deployment from one
        whose migrations all die in transit."""
        obs = self.loop.observability
        if obs is not None:
            obs.metrics.counter("migration.failed",
                                kind=plan.kind.value).inc()

    def _rollback(self, app: Application, snapshot,
                  outcome: MigrationOutcome) -> None:
        """Fault tolerance: the agent was lost in transit -- restore the
        stopped source instance from its own snapshot and resume it, so the
        user keeps a working application ("stronger resilience capability",
        paper §1)."""
        middleware = self.middleware
        if app.status is not AppStatus.INSTALLED:
            return  # nothing to roll back (clone, or already restarted)
        middleware.snapshot_manager.restore(app, snapshot)
        app.start(middleware)
        middleware.publish_app_event(app, "rolled-back")
        outcome.log(f"rolled back {app.name} at source "
                    f"{middleware.host_name} after transfer failure")

    # -- destination side (invoked by the middleware on MA arrival) --------

    def receive(self, ma: MDMobileAgent, outcome: Optional[MigrationOutcome]
                ) -> None:
        """Continue an arriving agent's pipeline past the hand-off phase.

        When the source-side context travelled with the outcome (the
        normal in-deployment case) the arrival completes its transfer
        phase; otherwise a destination-only context is synthesised so
        agents from foreign deployments still power up."""
        middleware = self.middleware
        ctx = None
        if outcome is not None:
            ctx = getattr(outcome, "_pipeline_ctx", None)
        if ctx is None:
            plan = plan_from_dict(ma.plan)
            pipeline = (middleware.prestage_pipeline if plan.prestage
                        else middleware.migration_pipeline)
            ctx = pipeline.arrival_context(middleware, ma, outcome)
        ctx.arrive(middleware, ma)
