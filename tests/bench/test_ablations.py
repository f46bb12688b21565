"""The ablations, robustness sweeps and macro day as tier-1 tests.

Design-choice experiments beyond the paper's figures (EXPERIMENTS.md
A1-A10 and the macro workload), plus the availability, concurrency and
transfer-window sweeps.  Everything is deterministic simulated time; A3
counts rule firings and fixpoint rounds, never wall time.  Each module
fixture re-seeds the global id counters itself, because module fixtures
run before the autouse reset.
"""

import functools

import pytest

from repro.agents.mobility import CostModel
from repro.apps.music_player import MusicPlayerApp
from repro.bench.harness import (
    MigrationExperiment,
    TestbedConfig,
    availability_experiment,
    clone_dispatch_experiment,
    transfer_window_experiment,
)
from repro.bench.scale import concurrent_migration_experiment, scale_benchmark
from repro.city import CityConfig, CityWorkload
from repro.city.params import (
    BANDWIDTH_SWEEP_MBPS,
    CLONE_FANOUTS,
    PAPER_FILE_SIZES_MB,
    mb,
)
from repro.core import (
    BindingPolicy,
    Deployment,
    MiddlewareConfig,
    MigrationKind,
    UserProfile,
)
from repro.core.application import AppStatus
from repro.core.rulesets import paper_rules
from repro.faults import FaultConfig, FaultPlan, FaultSpec, link_target
from repro.net.topology import LinkSpec
from repro.ontology.matching import ResourceMatcher, base_resource_ontology
from repro.ontology.reasoner import ForwardChainingReasoner
from repro.ontology.triples import Graph, Literal
from repro.registry.records import ResourceRecord
from repro.registry.registry import RegistryCenter

# -- A1: clone-dispatch fan-out (the lecture scenario) ----------------------
#
# Clone the slide show to N overflow rooms across gateways: the paper's
# setup (rooms hold the presentation app, clones carry only the slides)
# against shipping the full application.


@pytest.fixture(scope="module")
def fanout_rows():
    return [clone_dispatch_experiment(room_count=rooms, carry_full_app=full)
            for rooms in CLONE_FANOUTS for full in (False, True)]


def test_a1_slides_only_cheaper_than_full_app(fanout_rows):
    by_key = {(r["room_count"], r["carry_full_app"]): r for r in fanout_rows}
    for rooms in CLONE_FANOUTS:
        slides_only = by_key[(rooms, False)]
        full_app = by_key[(rooms, True)]
        assert slides_only["bytes_per_clone"] < full_app["bytes_per_clone"]
        assert slides_only["mean_clone_ms"] < full_app["mean_clone_ms"]


def test_a1_dispatch_scales_with_rooms(fanout_rows):
    """Total dispatch time grows with fan-out, but sub-linearly: the
    gateways parallelize the last hops."""
    slides = sorted((r for r in fanout_rows if not r["carry_full_app"]),
                    key=lambda r: r["room_count"])
    totals = [r["total_dispatch_ms"] for r in slides]
    assert all(b > a for a, b in zip(totals, totals[1:]))
    assert totals[-1] < totals[0] * CLONE_FANOUTS[-1]


def test_a1_clones_sharing_the_uplink_finish_together(fanout_rows):
    """The equal-size clone flows share the main room's uplink fairly, so
    they drain together: every clone takes the slowest clone's time."""
    for row in fanout_rows:
        assert row["mean_clone_ms"] == pytest.approx(row["max_clone_ms"])


def test_a1_sync_reaches_all_rooms(fanout_rows):
    """A slide flip propagates to every replica in well under a second."""
    for row in fanout_rows:
        assert row["slide_sync_ms"] < 500.0


# -- A2: semantic vs syntactic resource matching ----------------------------
#
# Destination inventories whose resources never share names with the
# source's requirements, only ontology classes.


def build_center(host_count=4, per_host=4):
    """Hosts with differently-named printers/displays/speakers.

    With ``per_host=4`` every host carries one resource of each semantic
    category, under host-specific names.
    """
    center = RegistryCenter()
    onto = center.ontology
    onto.declare_class("imcl:hpLaserJet", parents=["imcl:Printer"])
    onto.declare_class("imcl:canonInkjet", parents=["imcl:Printer"])
    onto.declare_class("imcl:sonyBravia", parents=["imcl:Display"])
    onto.declare_class("imcl:boseSpeaker", parents=["imcl:Speaker"])
    classes = ["imcl:hpLaserJet", "imcl:canonInkjet", "imcl:sonyBravia",
               "imcl:boseSpeaker"]
    for h in range(host_count):
        for i in range(per_host):
            cls = classes[(h + i) % len(classes)]
            center.register_resource(ResourceRecord(
                f"imcl:{cls.split(':')[1]}-h{h}-{i}", f"host{h}", [cls]))
    return center


def test_a2_semantic_beats_syntactic():
    center = build_center()
    requirements = [r.resource_id for r in center.resources_on("host0")]
    for dest in ("host1", "host2", "host3"):
        inventory = [r.resource_id for r in center.resources_on(dest)]
        semantic_hits = sum(1 for req in requirements
                            if center.find_compatible(req, dest).matched)
        syntactic_hits = sum(1 for req in requirements if req in inventory)
        assert syntactic_hits == 0  # names never collide
        assert semantic_hits == len(requirements)


def test_a2_matching_respects_class_specificity():
    """Among candidates, the most specific shared class wins."""
    onto = base_resource_ontology()
    onto.declare_class("imcl:hpLaserJet", parents=["imcl:Printer"])
    onto.individual("imcl:need", "imcl:hpLaserJet")
    onto.individual("imcl:same-model", "imcl:hpLaserJet")
    onto.individual("imcl:any-printer", "imcl:Printer")
    result = ResourceMatcher(onto).match(
        "imcl:need", ["imcl:any-printer", "imcl:same-model"])
    assert result.candidate == "imcl:same-model"


# -- A3: forward-chaining work vs fact-base size ----------------------------
#
# locatedIn chains exercise the transitive Rule 1; compatibility facts feed
# Rules 2-3.  Rule 3's body joins two unconstrained address patterns with
# the compatibility pairs, so work grows as pairs^4: the pair counts stay
# modest (a real deployment decides about one destination at a time).

SCALING_INPUTS = ((5, 2), (10, 3), (20, 4), (30, 5))
STRATEGY_INPUTS = ((10, 3), (20, 4), (30, 5))


def build_fact_base(chain_length: int, printer_pairs: int) -> Graph:
    g = Graph()
    for i in range(chain_length):
        g.assert_(f"imcl:loc{i}", "imcl:locatedIn", f"imcl:loc{i + 1}")
    g.assert_("imcl:hpLaserJet", "imcl:printerObj", Literal("printer"))
    for i in range(printer_pairs):
        g.assert_(f"imcl:src{i}", "rdf:type", "imcl:hpLaserJet")
        g.assert_(f"imcl:dst{i}", "imcl:printerObj", "imcl:hpLaserJet")
        g.assert_(f"imcl:addr-s{i}", "imcl:address", Literal(f"10.0.0.{i}"))
        g.assert_(f"imcl:addr-d{i}", "imcl:address", Literal(f"10.0.1.{i}"))
    g.assert_("imcl:net", "imcl:responseTime", Literal(500.0, "xsd:double"))
    return g


@functools.lru_cache(maxsize=None)
def reason(chain_length: int, printer_pairs: int, strategy: str):
    """Chain one fact base to fixpoint, once per input; report the work."""
    graph = build_fact_base(chain_length, printer_pairs)
    reasoner = ForwardChainingReasoner(paper_rules(), schema=False,
                                       strategy=strategy)
    inferred = reasoner.run(graph)
    return {
        "asserted_facts": len(graph),
        "inferred_facts": len(inferred) - len(graph),
        "compatible": len(list(inferred.match(None, "imcl:compatible",
                                              None))),
        "rounds": reasoner.rounds_run,
        "firings": reasoner.rule_firings,
    }


def test_a3_inference_scales():
    """The transitive closure of a chain of n edges adds n*(n-1)/2 facts,
    on top of every derived compatibility."""
    for chain, pairs in SCALING_INPUTS:
        row = reason(chain, pairs, "seminaive")
        assert row["inferred_facts"] >= chain * (chain - 1) // 2


def test_a3_compatibility_derived_for_all_pairs():
    # Every source printer matches every destination printer.
    assert reason(5, 4, "seminaive")["compatible"] == 4 * 4


def test_a3_fixpoint_rounds_bounded():
    """Rounds grow with the longest transitive chain (path doubling),
    not with the number of printer pairs."""
    assert (reason(20, 2, "seminaive")["rounds"]
            == reason(20, 5, "seminaive")["rounds"])


def test_a3_seminaive_beats_naive():
    """Semi-naive (the default) does 3.2-3.8x fewer rule firings than the
    naive reference.  That both reach the same closure is asserted by
    tests/ontology/test_differential.py."""
    for chain, pairs in STRATEGY_INPUTS:
        ratio = (reason(chain, pairs, "naive")["firings"]
                 / reason(chain, pairs, "seminaive")["firings"])
        assert 3.2 < ratio < 3.8


# -- A4: bandwidth sensitivity of the adaptive-binding win ------------------


def ratio_at(bandwidth_mbps: float, size_mb: float = 7.5):
    experiment = MigrationExperiment(
        TestbedConfig(bandwidth_mbps=bandwidth_mbps))
    adaptive = experiment.run_once(mb(size_mb), BindingPolicy.ADAPTIVE)
    static = experiment.run_once(mb(size_mb), BindingPolicy.STATIC)
    return {
        "bandwidth_mbps": bandwidth_mbps,
        "adaptive_total_ms": adaptive.total_ms,
        "static_total_ms": static.total_ms,
        "static_over_adaptive": static.total_ms / adaptive.total_ms,
    }


@pytest.fixture(scope="module")
def bandwidth_rows():
    return [ratio_at(bw) for bw in BANDWIDTH_SWEEP_MBPS]


def test_a4_adaptive_wins_across_bandwidths(bandwidth_rows):
    for row in bandwidth_rows:
        assert row["static_over_adaptive"] > 1.0


def test_a4_gap_shrinks_with_bandwidth(bandwidth_rows):
    ratios = [r["static_over_adaptive"] for r in bandwidth_rows]
    assert all(b < a for a, b in zip(ratios, ratios[1:]))
    assert ratios[0] > 8.0  # at 1 Mbps the whole-app transfer is crippling
    assert ratios[-1] < 4.0  # at 100 Mbps the gap narrows considerably


def test_a4_slow_link_hurts_static_more(bandwidth_rows):
    by_bw = {r["bandwidth_mbps"]: r for r in bandwidth_rows}
    static_slowdown = (by_bw[1.0]["static_total_ms"]
                       / by_bw[100.0]["static_total_ms"])
    adaptive_slowdown = (by_bw[1.0]["adaptive_total_ms"]
                         / by_bw[100.0]["adaptive_total_ms"])
    assert static_slowdown > 3 * adaptive_slowdown


# -- A5: context pipeline latency -------------------------------------------
#
# From the user physically moving to the migration starting: Cricket
# sampling -> fusion window -> bus -> AA decision -> MAM request ->
# suspension.


def pipeline_latency(sample_period_ms: float, window_size: int = 3):
    d = Deployment(seed=13)
    d.fusion.window_size = window_size
    d.add_space("office")
    d.add_space("lab")
    office_pc = d.add_host("office-pc", "office")
    d.add_host("lab-pc", "lab")
    d.add_gateway("gw-office", "office")
    d.add_gateway("gw-lab", "lab")
    d.connect_spaces("office", "lab")
    app = MusicPlayerApp.build(
        "player", "alice", track_bytes=mb(2.0),
        user_profile=UserProfile("alice", preferences={"follow_user": True}))
    office_pc.launch_application(app)
    d.enable_location_sensing(sample_period_ms=sample_period_ms,
                              noise_sigma_m=0.05)
    d.add_beacon("office")
    d.add_beacon("lab")
    d.add_user("alice", "badge-1", "office")
    d.run(until=20 * sample_period_ms)  # initial fix settles
    moved_at = d.loop.now
    d.move_user("badge-1", "lab")
    d.run(until=moved_at + 60_000.0)  # sensors run forever; bound the sim
    d.sensors.stop()
    d.run_all()
    outcomes = list(d.outcomes.values())
    assert outcomes and outcomes[0].completed
    return {
        "sample_period_ms": sample_period_ms,
        "fusion_window": window_size,
        "detect_to_suspend_ms": outcomes[0].started_at - moved_at,
        "move_to_resumed_ms": outcomes[0].resume_done_at - moved_at,
    }


@pytest.fixture(scope="module")
def latency_rows():
    return [pipeline_latency(period) for period in (100.0, 200.0, 500.0)]


def test_a5_pipeline_latency(latency_rows):
    for row in latency_rows:
        # Detection waits for a fusion window of samples (2x margin).
        floor = row["sample_period_ms"] * row["fusion_window"]
        assert row["detect_to_suspend_ms"] >= floor * 0.5
        assert row["move_to_resumed_ms"] > row["detect_to_suspend_ms"]


def test_a5_faster_sampling_reduces_latency(latency_rows):
    detects = [r["detect_to_suspend_ms"] for r in latency_rows]
    assert detects[0] < detects[-1]


# -- A6: the Fig. 1 mobility matrix -----------------------------------------
#
# The same 5 MB migration within one space and across two gatewayed
# spaces, for follow-me and clone-dispatch and both binding policies.


def run_cell(kind: MigrationKind, policy: BindingPolicy, gateway: bool):
    experiment = MigrationExperiment(
        TestbedConfig(gateway=gateway, gateway_delay_ms=10.0))
    return experiment.run_once(mb(5.0), policy, kind=kind).total_ms


@pytest.fixture(scope="module")
def matrix_rows():
    return [{"mode": kind.value,
             "domain": "inter-space" if gateway else "intra-space",
             "adaptive_ms": run_cell(kind, BindingPolicy.ADAPTIVE, gateway),
             "static_ms": run_cell(kind, BindingPolicy.STATIC, gateway)}
            for kind in (MigrationKind.FOLLOW_ME,
                         MigrationKind.CLONE_DISPATCH)
            for gateway in (False, True)]


def test_a6_full_mobility_matrix(matrix_rows):
    assert len(matrix_rows) == 4  # all four Fig. 1 cells exercised


def test_a6_gateway_adds_cost(matrix_rows):
    by_key = {(r["mode"], r["domain"]): r for r in matrix_rows}
    for mode in ("follow-me", "clone-dispatch"):
        intra = by_key[(mode, "intra-space")]
        inter = by_key[(mode, "inter-space")]
        assert inter["adaptive_ms"] > intra["adaptive_ms"]
        assert inter["static_ms"] > intra["static_ms"]


def test_a6_adaptive_wins_in_every_cell(matrix_rows):
    for row in matrix_rows:
        assert row["static_ms"] > row["adaptive_ms"]


# -- A7: predictor-driven pre-staging ---------------------------------------


def run_migration(track_bytes: int, prestage: bool):
    d = Deployment(seed=31)
    d.add_space("office")
    d.add_space("lab")
    office_pc = d.add_host("office-pc", "office")
    d.add_host("lab-pc", "lab")
    d.add_gateway("gw-office", "office")
    d.add_gateway("gw-lab", "lab")
    d.connect_spaces("office", "lab")
    app = MusicPlayerApp.build(
        "player", "alice", track_bytes=track_bytes,
        user_profile=UserProfile("alice",
                                 preferences={"follow_user": False}))
    office_pc.launch_application(app)
    d.run_all()
    if prestage:
        staged = office_pc.prestage("player", "lab-pc")
        d.run_all()
        assert staged.completed
    outcome = office_pc.migrate("player", "lab-pc")
    d.run_all()
    assert outcome.completed, outcome.failure_reason
    return outcome


@pytest.fixture(scope="module")
def prestage_rows():
    rows = []
    for size_mb in PAPER_FILE_SIZES_MB:
        cold = run_migration(mb(size_mb), prestage=False)
        warm = run_migration(mb(size_mb), prestage=True)
        rows.append({
            "size_mb": size_mb,
            "cold_total_ms": cold.total_ms,
            "prestaged_total_ms": warm.total_ms,
            "saved_ms": cold.total_ms - warm.total_ms,
            "cold_wire_bytes": cold.bytes_transferred,
            "prestaged_wire_bytes": warm.bytes_transferred,
        })
    return rows


def test_a7_prestaging_cuts_migration_latency(prestage_rows):
    for row in prestage_rows:
        assert row["prestaged_total_ms"] < row["cold_total_ms"]
        assert row["prestaged_wire_bytes"] < row["cold_wire_bytes"]


def test_a7_savings_are_size_independent(prestage_rows):
    """Pre-staging removes the whole component-transfer term -- a constant
    saving across file sizes (the residual growth in both columns is the
    remote-stream open, same as Fig. 8's resume phase)."""
    savings = [r["saved_ms"] for r in prestage_rows]
    assert max(savings) - min(savings) < 50.0
    assert min(savings) > 300.0


# -- A8: registry-center placement ------------------------------------------
#
# Every migration decision pays registry round trips before suspension
# begins, so registry placement sets the floor of the decision latency.

REGISTRY_PLACEMENTS = ("co-located", "dedicated-same-space",
                       "across-gateways")


def run_with_registry(placement: str):
    d = Deployment(seed=23)
    d.add_space("room-a")
    if placement == "dedicated-same-space":
        d.install_registry("room-a", host_name="registry")
    elif placement == "across-gateways":
        d.add_space("registry-room")
        d.install_registry("registry-room", host_name="registry")
        d.add_gateway("gw-reg", "registry-room", processing_delay_ms=10.0)
    src = d.add_host("pc1", "room-a")  # co-located: registry lands here
    d.add_host("pc2", "room-a")
    if placement == "across-gateways":
        d.add_gateway("gw-a", "room-a", processing_delay_ms=10.0)
        d.connect_spaces("room-a", "registry-room")
    app = MusicPlayerApp.build("player", "alice", track_bytes=2_000_000)
    src.launch_application(app)
    d.run_all()
    request_at = d.loop.now
    outcome = src.migrate("player", "pc2")
    d.run_all()
    assert outcome.completed, outcome.failure_reason
    return {
        "placement": placement,
        "planning_ms": outcome.started_at - request_at,
        "total_from_request_ms": outcome.resume_done_at - request_at,
        "measured_total_ms": outcome.total_ms,
    }


@pytest.fixture(scope="module")
def registry_rows():
    return [run_with_registry(p) for p in REGISTRY_PLACEMENTS]


def test_a8_planning_latency_orders_by_distance(registry_rows):
    by = {r["placement"]: r for r in registry_rows}
    assert by["co-located"]["planning_ms"] <= \
        by["dedicated-same-space"]["planning_ms"] < \
        by["across-gateways"]["planning_ms"]


def test_a8_measured_phases_exclude_planning(registry_rows):
    """The paper measures from suspension start, so the three placements
    report (near-)identical suspend+migrate+resume."""
    totals = [r["measured_total_ms"] for r in registry_rows]
    assert max(totals) - min(totals) < 10.0


# -- A9: transfer retries under message loss --------------------------------

LOSS_SEEDS = range(25)


def run_lossy(loss_rate: float, retries: int, seed: int):
    d = Deployment(seed=seed)
    d.add_space("room", lan=LinkSpec(bandwidth_mbps=10.0, latency_ms=1.0,
                                     loss_rate=loss_rate))
    src = d.add_host("pc1", "room")
    d.add_host("pc2", "room")
    d.platform.mobility.cost_model = CostModel(max_transfer_retries=retries)
    app = MusicPlayerApp.build("player", "alice", track_bytes=200_000)
    src.launch_application(app)
    d.run_all()
    outcome = src.migrate("player", "pc2")
    d.run_all()
    rolled_back = outcome.failed and app.status is AppStatus.RUNNING
    return outcome, rolled_back


def sweep_cell(loss_rate: float, retries: int):
    completed, totals, rollbacks = 0, [], 0
    for seed in LOSS_SEEDS:
        outcome, rolled_back = run_lossy(loss_rate, retries, seed)
        if outcome.completed:
            completed += 1
            totals.append(outcome.total_ms)
        elif rolled_back:
            rollbacks += 1
    return {
        "loss_rate": loss_rate,
        "retries": retries,
        "success_rate": round(completed / len(LOSS_SEEDS), 2),
        "rollbacks": rollbacks,
        "mean_total_ms": round(sum(totals) / len(totals), 1) if totals
        else 0.0,
    }


@pytest.fixture(scope="module")
def fault_rows():
    return [sweep_cell(loss, retries)
            for loss in (0.0, 0.05, 0.15, 0.30) for retries in (0, 3)]


def test_a9_retries_recover_losses(fault_rows):
    by = {(r["loss_rate"], r["retries"]): r for r in fault_rows}
    # No loss -> always succeeds either way.
    assert by[(0.0, 0)]["success_rate"] == 1.0
    assert by[(0.0, 3)]["success_rate"] == 1.0
    # Under loss, retries dominate no-retries at every loss rate.
    for loss in (0.05, 0.15, 0.30):
        assert by[(loss, 3)]["success_rate"] >= \
            by[(loss, 0)]["success_rate"]
    # At heavy loss the gap is substantial.
    assert by[(0.30, 3)]["success_rate"] - by[(0.30, 0)]["success_rate"] \
        >= 0.2


def test_a9_every_failure_is_rolled_back(fault_rows):
    """No failure mode loses the user's application: failures all ended in
    a rollback (the success_rate + rollback count covers every seed)."""
    for row in fault_rows:
        failures = len(LOSS_SEEDS) - round(row["success_rate"]
                                           * len(LOSS_SEEDS))
        assert row["rollbacks"] == failures


def test_a9_retries_cost_latency_under_loss(fault_rows):
    """Recovered migrations pay retry latency: mean total under loss with
    retries is at least the loss-free mean."""
    by = {(r["loss_rate"], r["retries"]): r for r in fault_rows}
    assert by[(0.30, 3)]["mean_total_ms"] >= by[(0.0, 3)]["mean_total_ms"]


# -- A10: destination selection, contract-net vs first-fit ------------------
#
# Six users walk, one after another, into a space with three equivalent
# hosts.


def run_influx(strategy: str, users: int = 6, lab_hosts: int = 3):
    d = Deployment(seed=27,
                   config=MiddlewareConfig(destination_strategy=strategy))
    d.add_space("office")
    d.add_space("lab")
    office = d.add_host("office-pc", "office")
    for i in range(lab_hosts):
        d.add_host(f"lab-{i}", "lab")
    d.add_gateway("gw-office", "office")
    d.add_gateway("gw-lab", "lab")
    d.connect_spaces("office", "lab")
    for u in range(users):
        user = f"user{u}"
        app = MusicPlayerApp.build(
            f"{user}-music", user, track_bytes=200_000,
            user_profile=UserProfile(user,
                                     preferences={"follow_user": True}))
        office.launch_application(app)
    d.run_all()
    for u in range(users):
        d.announce_location(f"user{u}", "lab", previous="office")
        d.run_all()
    loads = [sum(1 for a in d.middleware(f"lab-{i}").applications.values()
                 if a.status.value == "running")
             for i in range(lab_hosts)]
    return {
        "strategy": strategy,
        "apps_placed": sum(loads),
        "max_host_load": max(loads),
        "spread": max(loads) - min(loads),
    }


@pytest.fixture(scope="module")
def influx_rows():
    return {strategy: run_influx(strategy)
            for strategy in ("first-fit", "contract-net")}


def test_a10_contract_net_balances_load(influx_rows):
    first_fit, contract_net = (influx_rows["first-fit"],
                               influx_rows["contract-net"])
    # Both strategies place every app...
    assert first_fit["apps_placed"] == 6
    assert contract_net["apps_placed"] == 6
    # ... but first-fit stacks them on one host while contract-net spreads.
    assert first_fit["max_host_load"] == 6
    assert contract_net["max_host_load"] <= 3
    assert contract_net["spread"] < first_fit["spread"]


def test_a10_balanced_placement_is_even(influx_rows):
    # 6 apps on 3 hosts, arriving sequentially: perfect balance is 2/2/2.
    assert influx_rows["contract-net"]["spread"] <= 1


# -- Availability: migration under injected link loss -----------------------
#
# A permanent seeded ``loss`` fault on the host1--host2 link, with the
# hardened stack (chunked checkpointed transfers, deep exponential-backoff
# retry budget, deadline) against the bare legacy retries.  The table
# prints with ``python -m repro sweep --availability``.

AVAILABILITY_LOSS_RATES = (0.0, 0.1, 0.2, 0.3)
AVAILABILITY_RUNS = 6


@pytest.fixture(scope="module")
def hardened_rows():
    return availability_experiment(AVAILABILITY_LOSS_RATES,
                                   runs=AVAILABILITY_RUNS, reliability=True)


@pytest.fixture(scope="module")
def bare_rows():
    return availability_experiment(AVAILABILITY_LOSS_RATES,
                                   runs=AVAILABILITY_RUNS, reliability=False)


def flap_run(reliability: bool):
    """One 5 MB static migration through a 600 ms mid-transfer link cut."""
    plan = FaultPlan(seed=3)
    plan.add(FaultSpec(at_ms=1_500.0, kind="link_down",
                       target=link_target("host1", "host2"),
                       duration_ms=600.0,
                       params={"drop_in_flight": True}))
    faults = FaultConfig(
        plan=plan, seed=3,
        transfer_chunk_bytes=256_000 if reliability else 0,
        migration_deadline_ms=60_000.0 if reliability else 0.0,
        max_transfer_retries=8 if reliability else None)
    experiment = MigrationExperiment(TestbedConfig(), faults=faults)
    return experiment.run_once(mb(5.0), policy=BindingPolicy.STATIC)


def test_hardened_survives_loss(hardened_rows):
    by = {r.loss_rate: r for r in hardened_rows}
    # Loss-free cell is perfect and needs no recovery machinery.
    assert by[0.0].success_rate == 1.0
    assert by[0.0].mean_retries == 0.0
    # The hardened stack keeps migrations succeeding under heavy loss.
    for rate in (0.1, 0.2, 0.3):
        assert by[rate].success_rate >= 0.8
        assert by[rate].mean_retries > 0
    # Recoveries resume from checkpoints rather than restarting transfers.
    assert sum(r.resumed for r in hardened_rows) > 0


def test_hardened_never_below_bare(hardened_rows, bare_rows):
    hardened = {r.loss_rate: r for r in hardened_rows}
    bare = {r.loss_rate: r for r in bare_rows}
    for rate in AVAILABILITY_LOSS_RATES:
        assert hardened[rate].success_rate >= bare[rate].success_rate


def test_flap_hardened_resumes_bare_dies():
    """A 600 ms link cut mid-transfer outlasts the bare retry window
    (~385 ms over 3 exponential retries) but not the hardened one; the
    hardened run resumes from acknowledged chunks instead of resending."""
    hardened = flap_run(reliability=True)
    bare = flap_run(reliability=False)
    assert hardened.completed
    assert hardened.transfer_retries > 0
    assert hardened.transfer_resumed
    assert bare.failed
    assert "lost after" in bare.failure_reason


def test_latency_degrades_gracefully(hardened_rows):
    """Retries buy availability with latency: mean total rises with loss
    but stays bounded (well under the 60 s migration deadline)."""
    by = {r.loss_rate: r for r in hardened_rows}
    assert by[0.3].mean_total_ms >= by[0.0].mean_total_ms
    for row in hardened_rows:
        if row.completed:
            assert row.mean_total_ms < 60_000.0


# -- Concurrency: fair-share contention vs serialized legs ------------------
#
# K follow-me migrations over one shared backbone, serialized vs admitted
# concurrently; fair sharing overlaps the CPU-bound suspend/resume phases
# of one migration with the wire time of another.


@pytest.fixture(scope="module")
def two_leg_result():
    return concurrent_migration_experiment(migrations=2)


def test_concurrent_beats_serialized_by_1_5x(two_leg_result):
    """Two migrations over one shared backbone finish >= 1.5x faster when
    admitted concurrently."""
    assert two_leg_result.speedup >= 1.5


def test_concurrent_finishes_under_k_times_single(two_leg_result):
    """K concurrent adaptive migrations must beat K x the single-migration
    time (otherwise concurrency bought nothing)."""
    r = two_leg_result
    assert r.concurrent_ms < r.migrations * r.single_ms


def test_backbone_carries_both_classes(two_leg_result):
    busy = two_leg_result.backbone_busy_ms
    assert busy.get("bulk", 0.0) > 0.0
    assert busy.get("control", 0.0) > 0.0
    # Migration payloads dominate the backbone wire time.
    assert busy["bulk"] > busy["control"]


def test_scale_benchmark_50_hosts_200_apps():
    result = scale_benchmark()
    assert result.hosts >= 50
    assert result.applications >= 200
    assert result.completed == result.legs
    assert result.rejected == 0
    # Bulk transfers, not control chatter, dominate the wire.
    assert result.class_busy_ms["bulk"] > result.class_busy_ms["control"]


# -- Transfer window: sliding window vs stop-and-wait -----------------------
#
# A 1 MB agent over a 2-hop 40 ms gateway route in 64 KiB chunks.  Window 8
# within 40 % of stop-and-wait is asserted by
# tests/faults/test_transfer_window.py::
# test_pipelined_window_beats_stop_and_wait_on_high_latency_route; the
# table prints with ``python -m repro sweep --window-sweep``.


@pytest.fixture(scope="module")
def window_rows():
    return transfer_window_experiment((1, 2, 4, 8))


def test_transfer_time_monotone_in_window(window_rows):
    """Widening the window never slows the transfer down."""
    times = [r.transfer_ms for r in window_rows]
    assert times == sorted(times, reverse=True)
    assert all(r.speedup >= 1.0 for r in window_rows)


def test_window1_row_is_the_stop_and_wait_baseline(window_rows):
    by = {r.window: r for r in window_rows}
    assert by[1].max_in_flight == 1
    assert by[1].speedup == 1.0
    # Same payload, same chunk plan on every row.
    assert len({r.chunks for r in window_rows}) == 1


# -- Macro workload: a small city's day of commuter churn -------------------
#
# Seeded commuters flow home -> transit -> office -> home through the
# middleware; the generator is repro.city, the one ``python -m repro city``
# drives at 200..2,000 spaces.


def run_city(spaces: int, users: int, seed: int = 11):
    workload = CityWorkload(CityConfig(
        seed=seed, spaces=spaces, users=users, admission_limit=16))
    return workload, workload.run()


@pytest.fixture(scope="module")
def workload_rows():
    rows = []
    for spaces, users in ((10, 10), (16, 40), (24, 80)):
        _, result = run_city(spaces, users)
        latency = result.slo.to_dict()["latency_ms"]
        rows.append({
            "spaces": result.spaces,
            "users": result.users,
            "apps": result.apps,
            "legs": result.legs_submitted,
            "failed": result.legs_failed,
            "prestage_hits": result.prestage_hits,
            "p50_ms": latency["p50"],
            "p99_ms": latency["p99"],
        })
    return rows


def test_city_every_leg_lands(workload_rows):
    for row in workload_rows:
        assert row["failed"] == 0
        # Every dwell away from home chases the user's apps.
        assert row["legs"] >= row["apps"]


def test_city_apps_end_the_day_back_home():
    workload, result = run_city(12, 20)
    assert result.legs_failed == 0
    d = workload.deployment
    for app_name, host in workload.app_host.items():
        user = workload._app_user[app_name]
        assert d.topology.space_of(host) == user.home, (
            f"{app_name} ended on {host}, not at {user.name}'s home")
        app = d.middleware(host).applications[app_name]
        assert app.status.value == "running"


def test_city_migration_latency_bounded(workload_rows):
    for row in workload_rows:
        assert row["p99_ms"] < 10_000.0
        assert row["p50_ms"] <= row["p99_ms"]
