"""Concurrency and scale benchmarks for the fair-share link model.

The paper's §5 testbed migrates one application at a time, so the original
exclusive-reservation link model was never exercised by overlapping
transfers.  These experiments measure what the contention rework buys:

- :func:`concurrent_migration_experiment` -- K follow-me migrations whose
  routes share a backbone link, run twice on identical rigs: serialized
  (scheduler admission limit 1) and concurrent (limit K).  Fair sharing
  cannot shrink the wire time of equal flows, so the speedup comes from
  overlapping the CPU-bound suspend/snapshot/restore/resume phases of one
  migration with the wire time of another.
- :func:`scale_benchmark` -- a deployment of ≥50 hosts and ≥200 running
  applications driving many concurrent migration legs through the
  :class:`~repro.core.middleware.MigrationScheduler`, recording the
  simulated makespan and per-class link utilization (``class_busy_ms``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.apps.music_player import MusicPlayerApp
from repro.core import BindingPolicy, Deployment
from repro.net.simnet import BULK, CONTROL
from repro.net.topology import LinkSpec
from repro.obs.slo import SLOAggregator, SLOReport


def _build_backbone_rig(migrations: int, payload_bytes: int, seed: int,
                        bandwidth_mbps: float, latency_ms: float,
                        observability=None):
    """Two spaces bridged by one backbone: src-i in west, dst-i in east.

    Every migration leg crosses the single west--east link, so concurrent
    runs contend there while the per-host access links stay private.
    """
    lan = LinkSpec(bandwidth_mbps=bandwidth_mbps, latency_ms=latency_ms)
    d = Deployment(seed=seed, observability=observability)
    d.add_space("west", lan=lan)
    d.add_space("east", lan=lan)
    for i in range(migrations):
        d.add_host(f"src-{i}", "west")
        d.add_host(f"dst-{i}", "east")
    d.add_gateway("gw-west", "west")
    d.add_gateway("gw-east", "east")
    d.connect_spaces("west", "east", lan)
    for i in range(migrations):
        app = MusicPlayerApp.build(f"app-{i}", f"user-{i}",
                                   track_bytes=payload_bytes)
        d.middleware(f"src-{i}").launch_application(app)
    d.run_all()
    return d


@dataclass
class ConcurrentMigrationResult:
    """Serialized vs concurrent makespan of K shared-backbone migrations."""

    migrations: int
    payload_bytes: int
    serialized_ms: float
    concurrent_ms: float
    #: Mean single-migration time within the serialized run.
    single_ms: float
    #: Simulated wire occupancy of the backbone link, per traffic class,
    #: from the concurrent run.
    backbone_busy_ms: Dict[str, float] = field(default_factory=dict)
    max_queue_wait_ms: float = 0.0

    @property
    def speedup(self) -> float:
        return (self.serialized_ms / self.concurrent_ms
                if self.concurrent_ms else 1.0)


def _run_legs(migrations: int, payload_bytes: int, seed: int, limit: int,
              bandwidth_mbps: float, latency_ms: float,
              policy: BindingPolicy, observability=None):
    """One rig, ``migrations`` legs through a scheduler with ``limit``."""
    d = _build_backbone_rig(migrations, payload_bytes, seed,
                            bandwidth_mbps, latency_ms, observability)
    scheduler = d.enable_migration_scheduler(limit=limit)
    started = d.loop.now
    handles = [
        scheduler.submit(f"src-{i}", f"app-{i}", f"dst-{i}", policy=policy)
        for i in range(migrations)
    ]
    d.run_all()
    elapsed = d.loop.now - started
    for handle in handles:
        if handle.outcome is None or not handle.outcome.completed:
            raise RuntimeError(
                f"leg {handle.app_name} failed: "
                f"{handle.error or handle.outcome.failure_reason}")
    backbone = d.network.link_between("gw-west", "gw-east")
    return d, handles, elapsed, backbone


def concurrent_migration_experiment(
        migrations: int = 2,
        payload_bytes: int = 200_000,
        bandwidth_mbps: float = 10.0,
        latency_ms: float = 2.0,
        seed: int = 13,
        policy: BindingPolicy = BindingPolicy.ADAPTIVE,
        observability=None) -> ConcurrentMigrationResult:
    """Measure the makespan win of admitting migrations concurrently.

    Both runs use identical topologies, seeds and payloads; only the
    scheduler's admission limit differs (1 vs ``migrations``).  With the
    old exclusive-reservation link model the concurrent run would degrade
    to the serialized one plus head-of-line blocking on control traffic;
    under fair sharing it overlaps CPU phases against wire time and
    finishes well under ``migrations x single_ms``.
    """
    _, serial_handles, serialized_ms, _ = _run_legs(
        migrations, payload_bytes, seed, 1, bandwidth_mbps, latency_ms,
        policy, observability)
    single_ms = sum(h.outcome.total_ms for h in serial_handles) / migrations
    _, handles, concurrent_ms, backbone = _run_legs(
        migrations, payload_bytes, seed, migrations, bandwidth_mbps,
        latency_ms, policy, observability)
    return ConcurrentMigrationResult(
        migrations=migrations,
        payload_bytes=payload_bytes,
        serialized_ms=serialized_ms,
        concurrent_ms=concurrent_ms,
        single_ms=single_ms,
        backbone_busy_ms=dict(backbone.class_busy_ms),
        max_queue_wait_ms=max(h.queue_wait_ms for h in handles),
    )


@dataclass
class ScaleResult:
    """One scale-benchmark run."""

    hosts: int
    applications: int
    legs: int
    admission_limit: int
    #: Simulated makespan of the migration wave.
    sim_makespan_ms: float
    completed: int
    rejected: int
    max_queue_depth: int
    #: Summed wire occupancy per traffic class across every link.
    class_busy_ms: Dict[str, float] = field(default_factory=dict)
    #: Utilization (busy / makespan) of the single busiest link, per class.
    peak_link_utilization: Dict[str, float] = field(default_factory=dict)
    #: Fleet SLO view over the migration wave (latency percentiles,
    #: deadline misses, prestage hits, per-class utilization).
    slo: Optional[SLOReport] = None

    def summary(self) -> str:
        util = ", ".join(f"{cls}={value:.2f}"
                         for cls, value in
                         sorted(self.peak_link_utilization.items()))
        return (f"{self.hosts} hosts / {self.applications} apps: "
                f"{self.completed}/{self.legs} legs in "
                f"{self.sim_makespan_ms:.0f} sim-ms, peak link util {util}")


def scale_benchmark(spaces: int = 10,
                    hosts_per_space: int = 5,
                    apps_per_host: int = 4,
                    legs: int = 40,
                    admission_limit: int = 8,
                    payload_bytes: int = 60_000,
                    bandwidth_mbps: float = 10.0,
                    latency_ms: float = 2.0,
                    seed: int = 21,
                    deadline_ms: Optional[float] = None,
                    prestage_fraction: float = 0.0,
                    observability=None) -> ScaleResult:
    """A multi-space campus under a concurrent migration wave.

    Defaults build 50 hosts in 10 gatewayed spaces on a backbone ring and
    launch 200 small applications, then migrate ``legs`` of them to the
    next space over, all submitted at once.  The scheduler fans them out
    ``admission_limit`` at a time; per-class ``class_busy_ms`` ledgers
    show how much wire time bulk transfers versus control chatter consumed.

    ``deadline_ms`` (if set) is attached to every submitted leg, so the
    resulting :class:`~repro.obs.slo.SLOReport` has a real deadline-miss
    rate.  ``prestage_fraction`` warms that fraction of the legs'
    destinations with an explicit prestage push *before* the wave, which
    shows up in the report as prestage hits (warm-start migrations).
    """
    lan = LinkSpec(bandwidth_mbps=bandwidth_mbps, latency_ms=latency_ms)
    d = Deployment(seed=seed, observability=observability)
    names: List[List[str]] = []
    for s in range(spaces):
        space = f"space-{s}"
        d.add_space(space, lan=lan)
        row = []
        for h in range(hosts_per_space):
            row.append(d.add_host(f"h{s}-{h}", space).host_name)
        d.add_gateway(f"gw-{s}", space)
        names.append(row)
    for s in range(spaces):  # backbone ring
        d.connect_spaces(f"space-{s}", f"space-{(s + 1) % spaces}", lan)
    app_count = 0
    for s, row in enumerate(names):
        for h, host in enumerate(row):
            for a in range(apps_per_host):
                app = MusicPlayerApp.build(
                    f"app-{s}-{h}-{a}", f"user-{s}-{h}-{a}",
                    track_bytes=payload_bytes)
                d.middleware(host).launch_application(app)
                app_count += 1
    d.run_all()
    scheduler = d.enable_migration_scheduler(limit=admission_limit)

    def _leg(i: int):
        s = i % spaces
        h = (i // spaces) % hosts_per_space
        a = (i // (spaces * hosts_per_space)) % apps_per_host
        return names[s][h], f"app-{s}-{h}-{a}", names[(s + 1) % spaces][h]

    # Warm phase (untimed): push the first fraction of legs' components to
    # their destinations so those migrations land as prestage hits.
    warm = int(legs * prestage_fraction)
    for i in range(warm):
        source, app_name, target = _leg(i)
        d.middleware(source).prestage(app_name, target)
    d.run_all()

    sim_start = d.loop.now
    submitted = 0
    for i in range(legs):
        source, app_name, target = _leg(i)
        scheduler.submit(source, app_name, target, deadline_ms=deadline_ms)
        submitted += 1
    d.run_all()
    makespan = d.loop.now - sim_start
    class_totals: Dict[str, float] = {CONTROL: 0.0, BULK: 0.0}
    peak: Dict[str, float] = {CONTROL: 0.0, BULK: 0.0}
    for link in d.network.links:
        for cls, busy in link.class_busy_ms.items():
            class_totals[cls] = class_totals.get(cls, 0.0) + busy
            if makespan > 0:
                peak[cls] = max(peak.get(cls, 0.0),
                                min(1.0, busy / makespan))
    return ScaleResult(
        hosts=spaces * hosts_per_space,
        applications=app_count,
        legs=submitted,
        admission_limit=admission_limit,
        sim_makespan_ms=makespan,
        completed=scheduler.completed,
        rejected=scheduler.rejected,
        max_queue_depth=scheduler.max_queue_depth,
        class_busy_ms=class_totals,
        peak_link_utilization=peak,
        slo=SLOAggregator(d, window_ms=makespan or None).report(),
    )
