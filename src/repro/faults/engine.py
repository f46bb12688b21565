"""The chaos engine: executes a fault plan against a deployment.

Faults are ordinary events on the deterministic event loop, so a plan
replays identically run-to-run: same plan + seed => byte-identical fault
schedule (:meth:`ChaosEngine.schedule_digest`), trace and outcome tables.

Every fault fires an observability event (``fault.inject`` /
``fault.revert``) and bumps the ``faults.fired`` / ``faults.reverted``
counters; duration faults additionally open a ``fault`` span covering the
degraded window, so a trace shows exactly what broke, when, and for how
long.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional

from repro.faults.plan import (
    FaultPlan,
    FaultPlanError,
    FaultSpec,
    random_plan,
    split_link_target,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.middleware import Deployment


@dataclass
class FaultConfig:
    """Fault injection + reliability settings for one deployment.

    ``plan`` wins when given; otherwise ``random_faults > 0`` generates a
    seeded-random plan against the deployment's topology at arm time.
    """

    plan: Optional[FaultPlan] = None
    #: Seed for random plan generation (and recorded for provenance).
    seed: int = 0
    #: Number of seeded-random faults to generate when ``plan`` is None.
    random_faults: int = 0
    #: Horizon of generated random plans, relative to arming.
    horizon_ms: float = 5_000.0
    #: When to arm: "first-migration" (default -- fault times are relative
    #: to the first migration, which is what migration-robustness studies
    #: want), "first-run" (relative to the first ``run``/``run_all``), or
    #: "manual" (call ``deployment.chaos.arm()`` yourself).
    arm: str = "first-migration"
    # -- reliability hardening applied to the deployment ------------------
    #: Chunked, checkpoint-resumable agent transfers (0 sends each
    #: transfer as one frame).
    transfer_chunk_bytes: int = 0
    #: Sliding-window size for chunked transfers: up to this many chunks in
    #: flight at once (pipelined go-back-N).  1 keeps stop-and-wait, whose
    #: timings are byte-identical to the pre-window engine; > 1 requires
    #: ``transfer_chunk_bytes > 0``.
    transfer_window: int = 1
    #: Overall migration deadline (0 disables).
    migration_deadline_ms: float = 0.0
    #: Per-chunk retry budget under faults (None keeps the cost model's
    #: default of 3).  With exponential backoff, 8 retries give a ~7 s
    #: recovery window -- enough to ride out sub-second link flaps; the
    #: migration deadline is the real upper bound.
    max_transfer_retries: Optional[int] = None

    def __post_init__(self) -> None:
        if self.arm not in ("first-migration", "first-run", "manual"):
            raise FaultPlanError(
                f"arm must be 'first-migration', 'first-run' or 'manual': "
                f"{self.arm!r}")
        if self.transfer_window < 1:
            raise FaultPlanError(
                f"transfer_window must be >= 1: {self.transfer_window}")
        if self.transfer_window > 1 and self.transfer_chunk_bytes <= 0:
            raise FaultPlanError(
                "transfer_window > 1 requires transfer_chunk_bytes > 0 "
                "(pipelining rides the chunked transfer path)")


@dataclass
class FaultRecord:
    """One entry of the engine's append-only fault log."""

    at_ms: float
    action: str  # "inject" | "revert" | "skip"
    kind: str
    target: str
    detail: str = ""

    def __str__(self) -> str:
        suffix = f" ({self.detail})" if self.detail else ""
        return (f"[{self.at_ms:10.1f} ms] {self.action:<6} {self.kind:<11} "
                f"{self.target}{suffix}")


class ChaosEngine:
    """Schedules and applies one :class:`FaultPlan` on a deployment."""

    def __init__(self, deployment: "Deployment", config: FaultConfig):
        self.deployment = deployment
        self.config = config
        self.plan: Optional[FaultPlan] = config.plan
        self.armed = False
        self.armed_at: float = 0.0
        self.log: List[FaultRecord] = []
        self.faults_fired = 0
        self.faults_reverted = 0
        self.faults_skipped = 0
        self._apply_reliability()

    # -- reliability hardening --------------------------------------------

    def _apply_reliability(self) -> None:
        config = self.config
        cost_model = self.deployment.platform.mobility.cost_model
        if config.transfer_chunk_bytes > 0:
            cost_model.transfer_chunk_bytes = config.transfer_chunk_bytes
        if config.transfer_window > 1:
            cost_model.transfer_window = config.transfer_window
        if config.migration_deadline_ms > 0:
            cost_model.migration_deadline_ms = config.migration_deadline_ms
        if config.max_transfer_retries is not None:
            cost_model.max_transfer_retries = config.max_transfer_retries
        cost_model.backoff_seed = config.seed

    # -- arming ------------------------------------------------------------

    def arm(self) -> None:
        """Schedule every fault at ``loop.now + spec.at_ms`` (idempotent)."""
        if self.armed:
            return
        self.armed = True
        loop = self.deployment.loop
        self.armed_at = loop.now
        if self.plan is None:
            self.plan = self._generate_plan()
        self.plan.validate()
        for spec in self.plan.sorted_faults():
            loop.call_at(self.armed_at + spec.at_ms, self._fire, spec)

    def _generate_plan(self) -> FaultPlan:
        if self.config.random_faults <= 0:
            return FaultPlan(seed=self.config.seed)
        network = self.deployment.network
        topology = self.deployment.topology
        gateways = {g.name for g in topology.gateways}
        return random_plan(
            self.config.seed,
            links=[link.endpoints() for link in network.links],
            hosts=[h.name for h in network.hosts if h.name not in gateways],
            spaces=[s.name for s in topology.spaces
                    if s.gateway_name is not None],
            count=self.config.random_faults,
            horizon_ms=self.config.horizon_ms)

    # -- firing ------------------------------------------------------------

    def _record(self, action: str, spec: FaultSpec, detail: str = "") -> None:
        record = FaultRecord(self.deployment.loop.now, action, spec.kind,
                             spec.target, detail)
        self.log.append(record)
        obs = self.deployment.loop.observability
        if obs is not None:
            obs.tracer.event(f"fault.{action}", category="fault",
                             kind=spec.kind, target=spec.target,
                             detail=detail)
            obs.metrics.counter(f"faults.{action}" if action != "inject"
                                else "faults.fired", kind=spec.kind).inc()
            if obs.hooks:
                # Invariant checkers (repro.simcheck) consume these to
                # whitelist fault-induced anomalies, e.g. a clock_jump's
                # backwards step is a sanctioned monotonicity break.
                obs.emit(f"fault.{action}", kind=spec.kind,
                         target=spec.target, params=dict(spec.params),
                         detail=detail)

    def _fire(self, spec: FaultSpec) -> None:
        try:
            saved = self._apply(spec)
        except _FaultSkipped as exc:
            self.faults_skipped += 1
            self._record("skip", spec, str(exc))
            return
        self.faults_fired += 1
        self._record("inject", spec, self._describe(spec))
        obs = self.deployment.loop.observability
        span = None
        if obs is not None and spec.duration_ms is not None:
            span = obs.tracer.begin_span(
                "fault", category="fault", kind=spec.kind, target=spec.target,
                duration_ms=spec.duration_ms)
        if spec.duration_ms is not None:
            self.deployment.loop.call_later(spec.duration_ms, self._revert,
                                            spec, saved, span)
        elif span is not None:  # pragma: no cover - defensive
            span.end()

    def _revert(self, spec: FaultSpec, saved: Dict[str, Any], span) -> None:
        try:
            self._undo(spec, saved)
        except _FaultSkipped as exc:
            self.faults_skipped += 1
            self._record("skip", spec, f"revert: {exc}")
        else:
            self.faults_reverted += 1
            self._record("revert", spec)
        if span is not None:
            span.end()

    @staticmethod
    def _describe(spec: FaultSpec) -> str:
        if spec.duration_ms is not None:
            return f"for {spec.duration_ms:g} ms"
        return "permanent"

    # -- fault application -------------------------------------------------

    def _apply(self, spec: FaultSpec) -> Dict[str, Any]:
        return getattr(self, f"_apply_{spec.kind}")(spec)

    def _undo(self, spec: FaultSpec, saved: Dict[str, Any]) -> None:
        getattr(self, f"_undo_{spec.kind}")(spec, saved)

    def _link(self, spec: FaultSpec):
        a, b = split_link_target(spec.target)
        link = self.deployment.network.link_between(a, b)
        if link is None:
            raise _FaultSkipped(f"no link {a!r}<->{b!r}")
        return link

    def _apply_link_down(self, spec: FaultSpec) -> Dict[str, Any]:
        link = self._link(spec)
        drop = bool(spec.params.get("drop_in_flight", False))
        self.deployment.network.disconnect(link.a, link.b,
                                           drop_in_flight=drop)
        return {"a": link.a, "b": link.b,
                "bandwidth_mbps": link.bandwidth_mbps,
                "latency_ms": link.latency_ms, "jitter_ms": link.jitter_ms,
                "loss_rate": link.loss_rate}

    def _undo_link_down(self, spec: FaultSpec, saved: Dict[str, Any]) -> None:
        network = self.deployment.network
        if network.link_between(saved["a"], saved["b"]) is not None:
            raise _FaultSkipped("link re-appeared before revert")
        network.connect(saved["a"], saved["b"],
                        bandwidth_mbps=saved["bandwidth_mbps"],
                        latency_ms=saved["latency_ms"],
                        jitter_ms=saved["jitter_ms"],
                        loss_rate=saved["loss_rate"])

    def _apply_bandwidth(self, spec: FaultSpec) -> Dict[str, Any]:
        link = self._link(spec)
        saved = {"bandwidth_mbps": link.bandwidth_mbps}
        if "bandwidth_mbps" in spec.params:
            new_mbps = float(spec.params["bandwidth_mbps"])
        else:
            new_mbps = link.bandwidth_mbps * float(spec.params["factor"])
        if new_mbps <= 0:
            raise _FaultSkipped("degraded bandwidth must stay positive")
        # set_bandwidth settles in-progress fair-share service at the old
        # rate before the change, so concurrent bulk transfers slow down
        # (or speed up on revert) mid-flight instead of keeping stale
        # finish times.
        link.set_bandwidth(new_mbps, now=self.deployment.loop.now)
        return saved

    def _undo_bandwidth(self, spec: FaultSpec, saved: Dict[str, Any]) -> None:
        self._link(spec).set_bandwidth(saved["bandwidth_mbps"],
                                       now=self.deployment.loop.now)

    def _apply_loss(self, spec: FaultSpec) -> Dict[str, Any]:
        link = self._link(spec)
        saved = {"loss_rate": link.loss_rate}
        link.loss_rate = float(spec.params["loss_rate"])
        return saved

    def _undo_loss(self, spec: FaultSpec, saved: Dict[str, Any]) -> None:
        self._link(spec).loss_rate = saved["loss_rate"]

    def _host(self, name: str):
        network = self.deployment.network
        if not network.has_host(name):
            raise _FaultSkipped(f"unknown host {name!r}")
        return network.host(name)

    def _apply_host_crash(self, spec: FaultSpec) -> Dict[str, Any]:
        host = self._host(spec.target)
        if not host.online:
            raise _FaultSkipped(f"host {host.name!r} already offline")
        host.online = False
        return {"host": host.name}

    def _undo_host_crash(self, spec: FaultSpec, saved: Dict[str, Any]) -> None:
        self._host(saved["host"]).online = True

    def _apply_partition(self, spec: FaultSpec) -> Dict[str, Any]:
        try:
            space = self.deployment.topology.space(spec.target)
        except Exception:
            raise _FaultSkipped(f"unknown space {spec.target!r}") from None
        if space.gateway_name is None:
            raise _FaultSkipped(f"space {spec.target!r} has no gateway")
        gateway = self._host(space.gateway_name)
        if not gateway.online:
            raise _FaultSkipped(f"gateway {gateway.name!r} already offline")
        gateway.online = False
        return {"host": gateway.name}

    def _undo_partition(self, spec: FaultSpec, saved: Dict[str, Any]) -> None:
        self._host(saved["host"]).online = True

    def _apply_clock_jump(self, spec: FaultSpec) -> Dict[str, Any]:
        host = self._host(spec.target)
        jump = float(spec.params["jump_ms"])
        host.clock.skew_ms += jump
        return {"jump_ms": jump}

    def _undo_clock_jump(self, spec: FaultSpec, saved: Dict[str, Any]) -> None:
        self._host(spec.target).clock.skew_ms -= saved["jump_ms"]

    # -- introspection -----------------------------------------------------

    def schedule_digest(self) -> str:
        """Canonical text form of the fault log (one line per record).

        Two runs of the same plan + seed produce byte-identical digests --
        the determinism acceptance check.
        """
        return "\n".join(
            f"{r.at_ms:.6f} {r.action} {r.kind} {r.target} {r.detail}"
            for r in self.log)

    def stats(self) -> Dict[str, int]:
        return {"faults_fired": self.faults_fired,
                "faults_reverted": self.faults_reverted,
                "faults_skipped": self.faults_skipped}

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        planned = len(self.plan) if self.plan is not None else 0
        return (f"<ChaosEngine armed={self.armed} planned={planned} "
                f"fired={self.faults_fired}>")


class _FaultSkipped(Exception):
    """Internal: the fault's target is not applicable right now."""
