"""Experiment harness reproducing the paper's §5 evaluation setup.

The paper's testbed: two PCs (P4 1.7 GHz / 256 MB and PM 1.6 GHz / 512 MB)
on 10 Mbps Ethernet; "the destination host contains the application user
interface but no music data nor application logic"; music files of
2.0-7.5 MB; clocks not synchronized (hence the Fig. 7 round-trip trick).

:func:`build_paper_testbed` recreates that deployment;
:class:`MigrationExperiment` runs follow-me migrations across it and
returns per-phase timings, sweeping file size and binding policy exactly as
Figs. 8-10 do.
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import mean
from typing import Dict, List, Optional

from repro.apps.music_player import MusicPlayerApp
from repro.apps.slideshow import SlideShowApp
from repro.core import (
    BindingPolicy,
    Deployment,
    DeviceProfile,
    MigrationKind,
    MigrationOutcome,
)
from repro.core.components import LogicComponent, PresentationComponent
from repro.core.middleware import MiddlewareConfig
from repro.net.clock import round_trip_cost
from repro.net.topology import LinkSpec

#: CPU factor of the source PC (P4 1.7 GHz, 256 MB).
SOURCE_CPU_FACTOR = 1.0
#: CPU factor of the destination PC (PM 1.6 GHz, 512 MB; slightly slower).
DEST_CPU_FACTOR = 1.06


@dataclass
class TestbedConfig:
    """Parameters of the two-host testbed."""

    __test__ = False  # not a pytest test class despite the name

    bandwidth_mbps: float = 10.0
    latency_ms: float = 1.0
    #: Per-message uniform latency jitter; nonzero makes repeated runs
    #: vary (use with ``sweep(..., repeats=N)`` for error bars).
    jitter_ms: float = 0.0
    #: Destination clocks are NOT synchronized with the source.
    dest_skew_ms: float = -2_000.0
    #: What the destination already has installed (paper: UI only).
    dest_has_ui: bool = True
    dest_has_logic: bool = False
    dest_has_data: bool = False
    gateway: bool = False
    gateway_delay_ms: float = 5.0
    seed: int = 7
    middleware: Optional[MiddlewareConfig] = None


def build_paper_testbed(config: Optional[TestbedConfig] = None,
                        app_name: str = "player",
                        observability=None,
                        faults=None):
    """Two hosts, one (or two gatewayed) space(s), partial app at dest.

    Returns ``(deployment, source_middleware, destination_middleware)``.
    Pass a :class:`repro.faults.FaultConfig` as ``faults`` to run the
    testbed under injected failures.
    """
    config = config if config is not None else TestbedConfig()
    lan = LinkSpec(bandwidth_mbps=config.bandwidth_mbps,
                   latency_ms=config.latency_ms,
                   jitter_ms=config.jitter_ms)
    d = Deployment(seed=config.seed, config=config.middleware,
                   observability=observability, faults=faults)
    d.add_space("lab-a", lan=lan)
    source = d.add_host(
        "host1", "lab-a",
        profile=DeviceProfile("host1", cpu_factor=SOURCE_CPU_FACTOR))
    if config.gateway:
        d.add_space("lab-b", lan=lan)
        destination = d.add_host(
            "host2", "lab-b",
            profile=DeviceProfile("host2",
                                  cpu_factor=DEST_CPU_FACTOR),
            skew_ms=config.dest_skew_ms)
        d.add_gateway("gw-a", "lab-a", config.gateway_delay_ms)
        d.add_gateway("gw-b", "lab-b", config.gateway_delay_ms)
        d.connect_spaces("lab-a", "lab-b", lan)
    else:
        destination = d.add_host(
            "host2", "lab-a",
            profile=DeviceProfile("host2",
                                  cpu_factor=DEST_CPU_FACTOR),
            skew_ms=config.dest_skew_ms)
    _preinstall_partial(destination, config, app_name)
    return d, source, destination


def _preinstall_partial(destination, config: TestbedConfig,
                        app_name: str) -> None:
    """Install at the destination whatever the scenario says it has."""
    if not (config.dest_has_ui or config.dest_has_logic
            or config.dest_has_data):
        return
    partial = MusicPlayerApp(app_name, "alice")
    if config.dest_has_ui:
        partial.add_component(PresentationComponent("player-ui", 250_000))
    if config.dest_has_logic:
        partial.add_component(LogicComponent("codec", 150_000))
    if config.dest_has_data:
        from repro.apps.media import make_track
        partial.add_component(make_track("track-01", 1))
    destination.install_application(partial)


@dataclass
class SweepRow:
    """One point of a Fig. 8/9-style sweep (mean over repeats)."""

    size_mb: float
    policy: str
    suspend_ms: float
    migrate_ms: float
    resume_ms: float
    total_ms: float
    bytes_transferred: int
    repeats: int = 1


class MigrationExperiment:
    """Runs follow-me migrations across fresh paper testbeds.

    Pass an :class:`repro.obs.Observability` hub to trace every run; each
    ``run_once`` becomes a tracer *run* (a Chrome-trace process) labelled
    with the size/policy/kind of that migration.
    """

    def __init__(self, config: Optional[TestbedConfig] = None,
                 observability=None, faults=None):
        self.config = config if config is not None else TestbedConfig()
        self.observability = observability
        #: Optional :class:`repro.faults.FaultConfig` applied to every run.
        self.faults = faults
        self.last_outcomes: List[MigrationOutcome] = []

    def run_once(self, file_size_bytes: int,
                 policy: BindingPolicy = BindingPolicy.ADAPTIVE,
                 kind: MigrationKind = MigrationKind.FOLLOW_ME,
                 seed_offset: int = 0,
                 warmup_ms: float = 1_000.0) -> MigrationOutcome:
        """One migration on a fresh deterministic testbed.

        Without faults a failed migration raises; under a fault config
        failures are expected, so the (failed) outcome is returned for the
        caller to tally.
        """
        config = TestbedConfig(**{**self.config.__dict__,
                                  "seed": self.config.seed + seed_offset})
        obs = self.observability
        if obs is not None:
            obs.begin_run(f"{file_size_bytes / 1e6:g}MB/{policy.value}/"
                          f"{kind.value}#{seed_offset}")
        d, source, destination = build_paper_testbed(
            config, observability=obs, faults=self.faults)
        app = MusicPlayerApp.build("player", "alice",
                                   track_bytes=file_size_bytes)
        source.launch_application(app)
        d.run_all()
        d.loop.advance(warmup_ms)  # some playback before the user moves
        outcome = source.migrate("player", "host2", kind=kind, policy=policy)
        d.run_all()
        if not outcome.completed and self.faults is None:
            raise RuntimeError(
                f"migration failed: {outcome.failure_reason}")
        self.last_outcomes.append(outcome)
        return outcome

    def sweep(self, sizes_mb, policy: BindingPolicy,
              repeats: int = 1) -> List[SweepRow]:
        """The Fig. 8/9 sweep: one row per file size.

        Under a fault config, failed runs are excluded from the means (a
        size where every run failed raises).
        """
        rows = []
        for size_mb in sizes_mb:
            outcomes = [
                self.run_once(int(size_mb * 1e6), policy,
                              seed_offset=r)
                for r in range(repeats)
            ]
            outcomes = [o for o in outcomes if o.completed]
            if not outcomes:
                raise RuntimeError(
                    f"every migration at {size_mb} MB failed")
            rows.append(SweepRow(
                size_mb=size_mb,
                policy=policy.value,
                suspend_ms=mean(o.suspend_ms for o in outcomes),
                migrate_ms=mean(o.migrate_ms for o in outcomes),
                resume_ms=mean(o.resume_ms for o in outcomes),
                total_ms=mean(o.total_ms for o in outcomes),
                bytes_transferred=int(mean(o.bytes_transferred
                                           for o in outcomes)),
                repeats=repeats,
            ))
        return rows


@dataclass
class AvailabilityRow:
    """One point of a failure-rate sweep: reliability under injected loss."""

    loss_rate: float
    runs: int
    completed: int
    mean_total_ms: float  # over completed runs; 0.0 when none completed
    mean_retries: float
    resumed: int

    @property
    def success_rate(self) -> float:
        return self.completed / self.runs if self.runs else 0.0


def availability_experiment(loss_rates=(0.0, 0.1, 0.2, 0.3),
                            runs: int = 10,
                            size_mb: float = 5.0,
                            seed: int = 0,
                            reliability: bool = True,
                            config: Optional[TestbedConfig] = None,
                            observability=None) -> List[AvailabilityRow]:
    """Sweep injected packet-loss rate vs migration success and latency.

    Each cell runs ``runs`` fresh testbeds whose host1--host2 link suffers a
    permanent ``loss`` fault (armed at the first migration).  With
    ``reliability`` on, migrations use chunked checkpoint-resumable
    transfers plus a deadline; off reproduces the bare retry behaviour --
    the availability ablation the paper's healthy testbed never shows.

    Static binding is used so the whole application (data included) rides
    the hardened agent transfer; adaptive binding would stream the data
    remotely after check-in over plain unretried messages, measuring the
    streaming channel rather than migration availability.
    """
    from repro.faults import FaultConfig, FaultPlan, FaultSpec, link_target

    base = config if config is not None else TestbedConfig()
    rows: List[AvailabilityRow] = []
    for rate in loss_rates:
        plan = FaultPlan(seed=seed)
        if rate > 0:
            plan.add(FaultSpec(at_ms=0.0, kind="loss",
                               target=link_target("host1", "host2"),
                               params={"loss_rate": rate}))
        completed: List[MigrationOutcome] = []
        retries = 0
        resumed = 0
        for r in range(runs):
            faults = FaultConfig(
                plan=FaultPlan.from_dict(plan.to_dict()),
                seed=seed + r,
                transfer_chunk_bytes=256_000 if reliability else 0,
                migration_deadline_ms=60_000.0 if reliability else 0.0,
                max_transfer_retries=8 if reliability else None)
            experiment = MigrationExperiment(
                TestbedConfig(**{**base.__dict__, "seed": base.seed + r}),
                observability=observability, faults=faults)
            outcome = experiment.run_once(int(size_mb * 1e6),
                                          policy=BindingPolicy.STATIC)
            retries += outcome.transfer_retries
            resumed += 1 if outcome.transfer_resumed else 0
            if outcome.completed:
                completed.append(outcome)
        rows.append(AvailabilityRow(
            loss_rate=rate,
            runs=runs,
            completed=len(completed),
            mean_total_ms=(mean(o.total_ms for o in completed)
                           if completed else 0.0),
            mean_retries=retries / runs if runs else 0.0,
            resumed=resumed,
        ))
    return rows


@dataclass
class WindowRow:
    """One point of a transfer-window sweep on the high-latency route."""

    window: int
    chunks: int
    transfer_ms: float
    total_ms: float
    max_in_flight: int
    #: Transfer-time speedup vs the window=1 (stop-and-wait) row.
    speedup: float = 1.0


def transfer_window_experiment(windows=(1, 2, 4, 8),
                               payload_bytes: int = 1_000_000,
                               chunk_bytes: int = 65_536,
                               latency_ms: float = 40.0,
                               bandwidth_mbps: float = 10.0,
                               seed: int = 5,
                               observability=None) -> List[WindowRow]:
    """Sweep ``transfer_window`` over a 2-hop gateway route.

    The scenario the pipelined engine exists for: a ~1 MB agent crossing
    host--gateway--host links with tens of ms of per-hop latency.
    Stop-and-wait (window=1) pays the full two-hop latency once per chunk;
    a window of *w* keeps up to *w* chunks on the wire, so latency is paid
    once per window-load.  One deterministic migration per window size on a
    fresh identical rig; window=1 is the exact pre-pipelining engine.
    """
    from repro.agents.agent import Agent
    from repro.agents.mobility import CostModel
    from repro.agents.platform import AgentPlatform
    from repro.agents.serialization import register_agent_type
    from repro.net.kernel import EventLoop
    from repro.net.simnet import Network

    @register_agent_type
    class _PayloadCourier(Agent):
        blob: bytes = b""

        def get_state(self):
            return {"blob": type(self).blob}

        def restore_state(self, state):
            pass

    _PayloadCourier.blob = bytes(payload_bytes)
    rows: List[WindowRow] = []
    for window in windows:
        loop = EventLoop()
        loop.observability = observability
        net = Network(loop, seed=seed)
        for name in ("edge-a", "gateway", "edge-b"):
            net.create_host(name)
        net.connect("edge-a", "gateway", bandwidth_mbps=bandwidth_mbps,
                    latency_ms=latency_ms)
        net.connect("gateway", "edge-b", bandwidth_mbps=bandwidth_mbps,
                    latency_ms=latency_ms)
        platform = AgentPlatform(net)
        platform.mobility.cost_model = CostModel(
            transfer_chunk_bytes=chunk_bytes, transfer_window=window)
        source = platform.create_container("edge-a")
        platform.create_container("edge-b")
        agent = source.create_agent(_PayloadCourier, "courier")
        result = agent.do_move("edge-b")
        loop.run()
        if not result.completed:
            raise RuntimeError(
                f"window={window} migration failed: {result.failure_reason}")
        rows.append(WindowRow(
            window=window,
            chunks=result.chunks_total,
            transfer_ms=result.transfer_ms,
            total_ms=result.total_ms,
            max_in_flight=result.max_in_flight,
        ))
    baseline = next((r for r in rows if r.window == 1), rows[0])
    for row in rows:
        row.speedup = (baseline.transfer_ms / row.transfer_ms
                       if row.transfer_ms else 1.0)
    return rows


def round_trip_experiment(size_mb: float = 5.0,
                          skew_ms: float = 12_345.0,
                          observability=None) -> Dict[str, float]:
    """Fig. 7: migrate out and back across unsynchronized clocks.

    Returns the skew-polluted one-way readings, the Fig. 7 corrected
    round-trip sum, and the (simulation-only) ground truth.
    """
    config = TestbedConfig(dest_skew_ms=skew_ms)
    if observability is not None:
        observability.begin_run(f"round-trip/{size_mb:g}MB/skew{skew_ms:g}")
    d, source, destination = build_paper_testbed(
        config, observability=observability)
    app = MusicPlayerApp.build("player", "alice",
                               track_bytes=int(size_mb * 1e6))
    source.launch_application(app)
    d.run_all()
    out = source.migrate("player", "host2")
    d.run_all()
    back = destination.migrate("player", "host1")
    d.run_all()
    if not (out.completed and back.completed):
        raise RuntimeError("round-trip migration failed")
    polluted_out = out.arrive_local - out.depart_local
    polluted_back = back.arrive_local - back.depart_local
    corrected = round_trip_cost(out.depart_local, out.arrive_local,
                                back.depart_local, back.arrive_local)
    # Ground truth: the agent's actual two-way transfer time on the global
    # simulation clock (unobservable on a real testbed; that is the point
    # of the correction).
    true_total = ((out.agent_arrived_at - out.agent_departed_at)
                  + (back.agent_arrived_at - back.agent_departed_at))
    return {
        "skew_ms": skew_ms,
        "one_way_out_local_ms": polluted_out,
        "one_way_back_local_ms": polluted_back,
        "corrected_round_trip_ms": corrected,
        "true_round_trip_ms": true_total,
        "correction_error_ms": abs(corrected - true_total),
    }


def clone_dispatch_experiment(room_count: int = 3, slide_count: int = 40,
                              per_slide_bytes: int = 120_000,
                              carry_full_app: bool = False,
                              seed: int = 11,
                              observability=None) -> Dict[str, object]:
    """The lecture scenario: clone the slide show to N overflow rooms.

    ``carry_full_app=False`` models the paper's setup (rooms already have
    the presentation app + projector, only slides travel); ``True`` ships
    logic + UI + slides, the naive alternative.
    """
    if observability is not None:
        observability.begin_run(
            f"clone-dispatch/{room_count}rooms/"
            f"{'full' if carry_full_app else 'partial'}")
    d = Deployment(seed=seed, observability=observability)
    d.add_space("main-room")
    main = d.add_host("main-pc", "main-room")
    d.add_gateway("gw-main", "main-room")
    rooms = []
    for i in range(room_count):
        space = f"room-{i + 2}"
        d.add_space(space)
        pc = d.add_host(f"pc-{i + 2}", space)
        d.add_gateway(f"gw-{i + 2}", space)
        d.connect_spaces("main-room", space)
        if not carry_full_app:
            partial = SlideShowApp("lecture", "speaker")
            partial.add_component(LogicComponent("impress-logic", 400_000))
            partial.add_component(PresentationComponent("slide-ui", 300_000))
            pc.install_application(partial)
        rooms.append(pc)
    show = SlideShowApp.build("lecture", "speaker", slide_count=slide_count,
                              per_slide_bytes=per_slide_bytes)
    main.launch_application(show)
    d.run_all()
    outcomes = []
    start = d.loop.now
    for i in range(room_count):
        outcomes.append(main.migrate("lecture", f"pc-{i + 2}",
                                     kind=MigrationKind.CLONE_DISPATCH))
    d.run_all()
    dispatch_done = d.loop.now
    for outcome in outcomes:
        if not outcome.completed:
            raise RuntimeError(f"clone failed: {outcome.failure_reason}")
    # One slide flip must reach every room; measure propagation.
    flip_start = d.loop.now
    show.goto_slide(2)
    d.run_all()
    sync_ms = d.loop.now - flip_start
    assert all(r.application("lecture").displayed_slide == 2 for r in rooms)
    return {
        "room_count": room_count,
        "carry_full_app": carry_full_app,
        "total_dispatch_ms": dispatch_done - start,
        "mean_clone_ms": mean(o.total_ms for o in outcomes),
        "max_clone_ms": max(o.total_ms for o in outcomes),
        "bytes_per_clone": outcomes[0].bytes_transferred,
        "slide_sync_ms": sync_ms,
    }
