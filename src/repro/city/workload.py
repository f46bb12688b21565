"""The streaming fleet runner: a city's day through the middleware.

:class:`CityWorkload` synthesizes a city, launches every commuter's apps
at home, then plays the population's mobility trace in sim-time order by
keeping exactly **one pending timer per user** -- each fired move
executes, then schedules that user's next move from their lazy day-plan
iterator.  The full leg list is never materialized: 50,000 users cost
50,000 pending events, not 170,000 sorted legs, which is what lets the
``full`` tier exist at all.

Migrations flow through the deployment's
:class:`~repro.core.middleware.MigrationScheduler` (admission control,
per-destination serialization, EDF ordering) and morning commutes tip the
:class:`~repro.core.prestage.PrestagingService` off through its explicit
placement fast path, so office arrivals find components pre-staged.  The
run deliberately avoids ``announce_location``: a fused location event
fans out to every middleware's context bridge, which is O(hosts) ACL
traffic per move -- fine for a building, quadratic misery for a city.

Fleet SLOs come from :class:`~repro.obs.slo.SLOAggregator` over the
scheduler's request ledger: migration p50/p95/p99, deadline-miss rate,
prestage hit rate, per-class link utilization.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional

from repro.city.params import CITY_TIERS
from repro.city.population import HOUR_MS, Population, TraceEvent, UserSpec
from repro.city.topology import CityTopology, build_deployment, synthesize


@dataclass
class CityConfig:
    """Everything one city run depends on (plain data, seeded)."""

    seed: int = 11
    spaces: int = 200
    users: int = 2_000
    #: Scheduler admission limit -- concurrent migrations fleet-wide.
    admission_limit: int = 32
    #: Soft deadline every leg carries (None = no deadlines).
    deadline_ms: Optional[float] = 180_000.0
    #: Pre-stage office components during the morning commute.
    prestage: bool = True
    #: Replace the flat registry center with per-space shards and
    #: gateway aggregators (see :mod:`repro.registry.federation`).
    federated_registry: bool = False
    meeting_probability: float = 0.5
    #: Event budget for draining the day (full tier needs tens of
    #: millions; the kernel raises SimulationError beyond this).
    max_events: int = 50_000_000

    @classmethod
    def for_tier(cls, tier: str, seed: int = 11, **overrides) -> "CityConfig":
        """Config at a named scale tier (see ``repro.city.params``)."""
        try:
            point = CITY_TIERS[tier]
        except KeyError:
            raise ValueError(
                f"unknown city tier {tier!r} "
                f"(have: {', '.join(CITY_TIERS)})") from None
        return cls(seed=seed, spaces=point.spaces, users=point.users,
                   **overrides)

    def tier_name(self) -> str:
        for name, point in CITY_TIERS.items():
            if (point.spaces, point.users) == (self.spaces, self.users):
                return name
        return "custom"


@dataclass
class CityResult:
    """What one simulated day produced."""

    tier: str
    spaces: int
    hosts: int
    users: int
    apps: int
    moves: int
    legs_submitted: int
    legs_completed: int
    legs_failed: int
    legs_rejected: int
    #: Legs re-submitted because the user moved on mid-migration.
    follow_ups: int
    prestage_pushes: int
    prestage_hits: int
    hourly_moves: List[int]
    sim_makespan_ms: float
    events_processed: int
    #: Canonical population-trace digest (pre-sim, pure generator).
    trace_digest: str
    #: Digest over the runner's own leg ledger (post-sim facts).
    fleet_digest: str
    slo: object = None  # SLOReport
    invariant_violations: List[object] = field(default_factory=list)

    def summary(self) -> str:
        lines = [
            f"city: {self.spaces} spaces / {self.hosts} hosts / "
            f"{self.users} users / {self.apps} apps ({self.tier} tier)",
            f"moves: {self.moves}  legs: {self.legs_submitted} submitted, "
            f"{self.legs_completed} completed, {self.legs_failed} failed, "
            f"{self.legs_rejected} rejected, {self.follow_ups} follow-ups",
            f"prestage: {self.prestage_pushes} pushes, "
            f"{self.prestage_hits} hits",
            f"sim day: {self.sim_makespan_ms / HOUR_MS:.1f} h in "
            f"{self.events_processed} events",
            f"trace digest: {self.trace_digest[:16]}  "
            f"fleet digest: {self.fleet_digest[:16]}",
        ]
        rush = max(range(24), key=lambda h: self.hourly_moves[h])
        lines.append(f"rush hour: {rush:02d}:00 with "
                     f"{self.hourly_moves[rush]} moves")
        return "\n".join(lines)


class CityWorkload:
    """Builds a city deployment and streams one day of commuting through
    it.  Construct, then :meth:`run` exactly once."""

    def __init__(self, config: CityConfig, observability=None):
        self.config = config
        self.observability = observability
        self.city: Optional[CityTopology] = None
        self.deployment = None
        self.population: Optional[Population] = None
        #: app name -> host it currently runs on (runner's own tracking;
        #: updated from scheduler completions).
        self.app_host: Dict[str, str] = {}
        self._app_user: Dict[str, UserSpec] = {}
        #: app name -> desired space while a leg is in flight.
        self._in_flight: Dict[str, str] = {}
        self._retarget: Dict[str, str] = {}
        self._users: List[UserSpec] = []
        self.moves = 0
        self.follow_ups = 0
        self.hourly_moves = [0] * 24
        self._fleet_digest = hashlib.sha256()
        self._built = False
        self._ran = False

    # -- construction ------------------------------------------------------

    def build(self):
        """Synthesize the city, build the deployment, launch every app at
        its owner's home.  Idempotent."""
        if self._built:
            return self.deployment
        from repro.simcheck.scenario import AppSpec, build_application

        config = self.config
        self.city = synthesize(config.spaces, seed=config.seed)
        self.deployment = build_deployment(
            self.city, observability=self.observability,
            admission_limit=config.admission_limit,
            federated=config.federated_registry)
        if config.prestage:
            self.deployment.enable_prestaging()
        self.population = Population(
            self.city, config.users, seed=config.seed,
            meeting_probability=config.meeting_probability)
        for user in self.population.users():
            self._users.append(user)
            home_hosts = self.city.space(user.home).hosts
            host = home_hosts[user.index % len(home_hosts)]
            for user_app in user.apps:
                spec = AppSpec(name=user_app.name, kind=user_app.kind,
                               owner=user.name,
                               payload_bytes=user_app.payload_bytes,
                               launch_host=host)
                app = build_application(spec)
                self.deployment.middleware(host).launch_application(app)
                self.app_host[user_app.name] = host
                self._app_user[user_app.name] = user
        self._built = True
        return self.deployment

    # -- placement helpers -------------------------------------------------

    def _host_in(self, user: UserSpec, space: str) -> str:
        hosts = self.city.space(space).hosts
        return hosts[user.index % len(hosts)]

    def _space_of_app(self, app_name: str) -> str:
        return self.deployment.topology.space_of(self.app_host[app_name])

    # -- the streaming day -------------------------------------------------

    def _schedule_next(self, user: UserSpec,
                       events: Iterator[TraceEvent], t0: float) -> None:
        event = next(events, None)
        if event is None:
            return
        self.deployment.loop.call_at(
            t0 + event.at_ms, self._fire, user, event, events, t0)

    def _fire(self, user: UserSpec, event: TraceEvent,
              events: Iterator[TraceEvent], t0: float) -> None:
        self.moves += 1
        self.hourly_moves[min(23, int(event.at_ms // HOUR_MS))] += 1
        if event.dwell:
            for user_app in user.apps:
                self._follow(user, user_app.name, event.to_space)
        elif self.config.prestage and event.phase == "commute-out":
            # The commuter just boarded: their day's destination is the
            # office, so push components ahead over the morning's idle
            # wire.  The explicit placements skip the fleet scan.
            service = self.deployment.prestaging
            placements = []
            for user_app in user.apps:
                if user_app.name in self._in_flight:
                    continue
                middleware = self.deployment.middleware(
                    self.app_host[user_app.name])
                placements.append(
                    (middleware, middleware.applications[user_app.name]))
            if placements:
                service.stage(user.name, user.office, placements=placements)
        self._schedule_next(user, events, t0)

    def _follow(self, user: UserSpec, app_name: str, space: str) -> None:
        if app_name in self._in_flight:
            # Leg in progress; remember the newest target and re-submit
            # from the completion callback.
            if self._in_flight[app_name] != space:
                self._retarget[app_name] = space
            return
        if self._space_of_app(app_name) == space:
            return
        source = self.app_host[app_name]
        destination = self._host_in(user, space)
        self._in_flight[app_name] = space
        self.deployment.scheduler.submit(
            source, app_name, destination,
            deadline_ms=self.config.deadline_ms,
            on_done=self._on_leg_done)

    def _on_leg_done(self, request) -> None:
        app_name = request.app_name
        if request.state == "done" and request.outcome is not None \
                and request.outcome.completed:
            self.app_host[app_name] = request.destination
        self._fleet_digest.update(
            (f"{request.seq}|{app_name}|{request.source}|"
             f"{request.destination}|{request.state}|"
             f"{request.queued_at:.1f}\n").encode("ascii"))
        self._in_flight.pop(app_name, None)
        desired = self._retarget.pop(app_name, None)
        if desired is not None and self._space_of_app(app_name) != desired:
            self.follow_ups += 1
            self._follow(self._app_user[app_name], app_name, desired)

    # -- driving -----------------------------------------------------------

    def run(self, check_invariants: bool = False) -> CityResult:
        """Play the whole day and aggregate fleet SLOs.

        ``check_invariants`` installs the :mod:`repro.simcheck` runtime
        checkers (conservation, byte accounting, clock monotonicity) over
        the run -- slower, but any violation lands in
        ``result.invariant_violations`` ready for scenario compilation
        and shrinking (see :mod:`repro.city.scenario_io`).
        """
        if self._ran:
            raise RuntimeError("CityWorkload.run() already consumed")
        self._ran = True
        if check_invariants and self.observability is None \
                and not self._built:
            # The checkers hook the obs stream; give them a hub to hook.
            from repro.obs import Observability
            self.observability = Observability(trace=False)
        self.build()
        d = self.deployment
        # Settle launches first: the checkers' registry ledger must see
        # each request it counts answered, and registration needs live
        # apps.
        d.run_all(max_events=self.config.max_events)
        checker = None
        if check_invariants:
            from repro.simcheck.invariants import InvariantChecker
            checker = InvariantChecker(d).install()
            for _host, app in d.application_instances():
                checker.expect_application(app)
        t0 = d.loop.now
        for user in self._users:
            self._schedule_next(
                user, self.population.iter_user_events(user), t0)
        d.run_all(max_events=self.config.max_events)
        makespan = d.loop.now - t0

        scheduler = d.scheduler
        requests = scheduler.requests
        completed = sum(
            1 for r in requests
            if r.outcome is not None and r.outcome.completed)
        failed = sum(
            1 for r in requests
            if r.state == "done" and (r.outcome is None
                                      or not r.outcome.completed))
        violations = []
        if checker is not None:
            violations = list(checker.check_quiescent())

        from repro.obs.slo import SLOAggregator
        slo = SLOAggregator(d, window_ms=makespan or None).report()
        service = d.prestaging
        return CityResult(
            tier=self.config.tier_name(),
            spaces=len(self.city.spaces),
            hosts=self.city.host_count,
            users=len(self._users),
            apps=len(self.app_host),
            moves=self.moves,
            legs_submitted=len(requests),
            legs_completed=completed,
            legs_failed=failed,
            legs_rejected=scheduler.rejected,
            follow_ups=self.follow_ups,
            prestage_pushes=(service.prestages_started if service else 0),
            prestage_hits=(service.hits if service else 0),
            hourly_moves=list(self.hourly_moves),
            sim_makespan_ms=makespan,
            events_processed=d.loop.processed,
            trace_digest=self.population.trace_digest(),
            fleet_digest=self._fleet_digest.hexdigest(),
            slo=slo,
            invariant_violations=violations,
        )
