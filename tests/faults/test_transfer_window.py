"""Pipelined sliding-window transfers + the transfer-path bug-sweep fixes.

Covers the window protocol (pipelining, go-back-N resume, determinism of
window=1 against the frozen stop-and-wait golden) and the satellite
regressions: the ``_rx_chunks`` leak, a final chunk that arrives before
an earlier one (a fixed case and a property), cost-model validation, and
the zero-byte degenerate chunk plan.
"""

import importlib.util
import json
import pathlib

import pytest
from hypothesis import given, strategies as st

from repro.agents.agent import Agent
from repro.agents.mobility import (
    CostModel,
    MigrationResult,
)
from repro.agents.platform import AgentPlatform
from repro.agents.serialization import AgentSnapshot, register_agent_type
from repro.bench.harness import (
    MigrationExperiment,
    TestbedConfig,
    transfer_window_experiment,
)
from repro.core import BindingPolicy
from repro.faults import FaultConfig, FaultPlan, FaultPlanError, FaultSpec, link_target
from repro.net.kernel import EventLoop
from repro.net.simnet import Network

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"


def _load_capture_module():
    spec = importlib.util.spec_from_file_location(
        "capture_stop_and_wait", GOLDEN_DIR / "capture_stop_and_wait.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# -- cost-model validation (satellite: chunk_sizes edge cases) ---------------

def test_zero_byte_payload_has_empty_chunk_plan():
    model = CostModel(transfer_chunk_bytes=400)
    assert model.chunk_sizes(0) == []
    assert CostModel().chunk_sizes(0) == []


def test_cost_model_rejects_bad_window():
    with pytest.raises(ValueError):
        CostModel(transfer_window=0)
    with pytest.raises(ValueError):
        CostModel(transfer_window=-3, transfer_chunk_bytes=100)


def test_cost_model_rejects_window_without_chunking():
    with pytest.raises(ValueError):
        CostModel(transfer_window=4)  # chunking off: nothing to pipeline
    CostModel(transfer_window=4, transfer_chunk_bytes=1024)  # fine


def test_cost_model_rejects_negative_chunk_and_retries():
    with pytest.raises(ValueError):
        CostModel(transfer_chunk_bytes=-1)
    with pytest.raises(ValueError):
        CostModel(max_transfer_retries=-1)


def test_fault_config_validates_window():
    with pytest.raises(FaultPlanError):
        FaultConfig(transfer_window=0)
    with pytest.raises(FaultPlanError):
        FaultConfig(transfer_window=8)  # no chunking configured
    FaultConfig(transfer_window=8, transfer_chunk_bytes=64_000)


# -- pipelining speedup -------------------------------------------------------

def test_pipelined_window_beats_stop_and_wait_on_high_latency_route():
    rows = {r.window: r for r in transfer_window_experiment(windows=(1, 8))}
    serial, pipelined = rows[1], rows[8]
    assert pipelined.total_ms <= 0.40 * serial.total_ms
    assert pipelined.transfer_ms < serial.transfer_ms
    assert pipelined.max_in_flight > 1
    assert serial.max_in_flight == 1
    assert pipelined.chunks == serial.chunks  # same bytes, same chunk plan


def test_window_sweep_is_deterministic():
    a = transfer_window_experiment(windows=(1, 4))
    b = transfer_window_experiment(windows=(1, 4))
    assert a == b


def test_windowed_result_records_savings_estimate():
    rows = transfer_window_experiment(windows=(8,))
    # The estimate is advisory, but on this route pipelining saves seconds.
    assert rows[0].speedup == 1.0  # no window=1 row to compare against
    loop = EventLoop()
    net = Network(loop, seed=5)
    for name in ("a", "g", "b"):
        net.create_host(name)
    net.connect("a", "g", latency_ms=40.0)
    net.connect("g", "b", latency_ms=40.0)
    platform = AgentPlatform(net)
    platform.mobility.cost_model = CostModel(transfer_chunk_bytes=32,
                                             transfer_window=8)
    c1 = platform.create_container("a")
    platform.create_container("b")
    agent = c1.create_agent(WindowCourier, "ma")
    result = agent.do_move("b")
    loop.run()
    assert result.completed
    assert result.transfer_window == 8
    assert result.max_in_flight > 1
    assert result.pipelined_saved_ms > 0


# -- window=1 is byte-identical to the frozen stop-and-wait engine -----------

def test_window1_reproduces_stop_and_wait_golden_byte_for_byte():
    capture = _load_capture_module()
    golden = json.loads((GOLDEN_DIR / "stop_and_wait_window1.json").read_text())
    fresh = {"flap": capture.run(capture.flap_faults(), "golden/flap"),
             "clean": capture.run(capture.clean_faults(), "golden/clean")}
    for scenario in ("flap", "clean"):
        for field, expected in golden[scenario].items():
            assert fresh[scenario][field] == expected, (
                f"{scenario}.{field} diverged from stop-and-wait golden")


def test_explicit_window1_matches_default():
    def run(window):
        plan = FaultPlan(seed=3)
        plan.add(FaultSpec(at_ms=1_500.0, kind="link_down",
                           target=link_target("host1", "host2"),
                           duration_ms=600.0,
                           params={"drop_in_flight": True}))
        faults = FaultConfig(plan=plan, seed=3, transfer_chunk_bytes=256_000,
                             transfer_window=window,
                             migration_deadline_ms=60_000.0,
                             max_transfer_retries=8)
        experiment = MigrationExperiment(TestbedConfig(), faults=faults)
        return experiment.run_once(int(5e6), policy=BindingPolicy.STATIC)

    a, b = run(1), run(1)
    assert a.phases() == b.phases()
    assert a.events == b.events


# -- windowed transfers under faults ------------------------------------------

@register_agent_type
class WindowCourier(Agent):
    def get_state(self):
        return {"blob": "x" * 4_000}

    def restore_state(self, state):
        pass


def windowed_flap_run(window=8, duration_ms=600.0, deadline_ms=60_000.0,
                      retries=8):
    plan = FaultPlan(seed=3)
    plan.add(FaultSpec(at_ms=1_500.0, kind="link_down",
                       target=link_target("host1", "host2"),
                       duration_ms=duration_ms,
                       params={"drop_in_flight": True}))
    faults = FaultConfig(plan=plan, seed=3, transfer_chunk_bytes=256_000,
                         transfer_window=window,
                         migration_deadline_ms=deadline_ms,
                         max_transfer_retries=retries)
    experiment = MigrationExperiment(TestbedConfig(), faults=faults)
    return experiment, experiment.run_once(int(5e6),
                                           policy=BindingPolicy.STATIC)


def test_windowed_migration_survives_link_flap():
    _, outcome = windowed_flap_run()
    assert outcome.completed
    assert outcome.transfer_retries > 0
    assert outcome.transfer_resumed  # resumed from the lowest unacked chunk


def test_windowed_flap_runs_are_deterministic():
    _, a = windowed_flap_run()
    _, b = windowed_flap_run()
    assert a.phases() == b.phases()
    assert a.events == b.events
    assert a.transfer_retries == b.transfer_retries


def test_windowed_migration_survives_lossy_link():
    plan = FaultPlan(seed=11)
    plan.add(FaultSpec(at_ms=0.0, kind="loss",
                       target=link_target("host1", "host2"),
                       params={"loss_rate": 0.15}))
    faults = FaultConfig(plan=plan, seed=11, transfer_chunk_bytes=128_000,
                         transfer_window=4, migration_deadline_ms=120_000.0,
                         max_transfer_retries=16)
    experiment = MigrationExperiment(TestbedConfig(), faults=faults)
    outcome = experiment.run_once(int(5e6), policy=BindingPolicy.STATIC)
    assert outcome.completed
    assert outcome.transfer_retries > 0  # the loss actually bit


# -- receiver chunk tables ----------------------------------------------------

class FakeMessage:
    def __init__(self, payload):
        self.payload = payload


def rig():
    loop = EventLoop()
    net = Network(loop)
    net.create_host("h1")
    net.create_host("h2")
    net.connect("h1", "h2", bandwidth_mbps=10.0, latency_ms=1.0)
    platform = AgentPlatform(net)
    c1 = platform.create_container("h1")
    c2 = platform.create_container("h2")
    return loop, net, platform, c1, c2


def test_failed_migration_purges_receiver_chunk_state():
    """Regression: a deadline/retry-exhausted migration used to leave its
    (host, transfer_id) dedup set in _rx_chunks forever."""
    loop, net, platform, c1, c2 = rig()
    model = platform.mobility.cost_model
    model.transfer_chunk_bytes = 1_000
    model.max_transfer_retries = 1
    model.migration_deadline_ms = 2_000.0
    agent = c1.create_agent(WindowCourier, "ma")
    # Cut the link after check-out (~60 ms) once the first chunks have
    # been accepted at h2, so receiver-side dedup state exists.
    loop.call_later(65.0, net.disconnect, "h1", "h2", True)
    result = agent.do_move("h2")
    loop.run()
    assert result.failed
    assert result.chunks_acked > 0  # some receiver state existed
    assert platform.mobility._rx_chunks == {}


def test_chaos_loop_keeps_rx_chunks_bounded():
    """Long-run boundedness: repeated forced failures must not accumulate
    receiver-side dedup state."""
    loop, net, platform, c1, c2 = rig()
    model = platform.mobility.cost_model
    model.transfer_chunk_bytes = 500
    model.max_transfer_retries = 0
    for i in range(25):
        agent = c1.create_agent(WindowCourier, f"ma{i}")
        loop.call_later(3.0, net.disconnect, "h1", "h2", True)
        result = agent.do_move("h2")
        loop.run()
        assert result.failed or result.completed
        if net.link_between("h1", "h2") is None:
            net.connect("h1", "h2", bandwidth_mbps=10.0, latency_ms=1.0)
    assert platform.mobility._rx_chunks == {}
    assert len(platform.mobility._rx_done) <= platform.mobility._RX_DONE_MAX


def test_rx_chunks_table_is_bounded():
    loop, net, platform, c1, c2 = rig()
    mobility = platform.mobility

    for transfer_id in range(2 * mobility._RX_CHUNKS_MAX):
        mobility._on_transfer(
            c2, FakeMessage(("chunk", transfer_id, 0, 3, None)))
    assert len(mobility._rx_chunks) <= mobility._RX_CHUNKS_MAX


def test_straggler_chunk_after_completion_dedups_without_resurrecting():
    loop, net, platform, c1, c2 = rig()
    platform.mobility.cost_model.transfer_chunk_bytes = 1_000
    agent = c1.create_agent(WindowCourier, "ma")
    result = agent.do_move("h2")
    loop.run()
    assert result.completed
    assert platform.mobility._rx_chunks == {}

    # A delayed duplicate of an intermediate chunk arrives after check-in.
    key_id = next(iter(platform.mobility._rx_done))[1]
    platform.mobility._on_transfer(
        c2, FakeMessage(("chunk", key_id, 0, result.chunks_total, None)))
    assert platform.mobility._rx_chunks == {}  # not resurrected
    assert platform.mobility.dedup_hits >= 1


def test_final_chunk_before_an_intermediate_one_checks_in_once():
    """Nothing lost, but the final chunk arrived first (a shorter route):
    its payload waits for the chunk that completes the set."""
    loop, net, platform, c1, c2 = rig()
    mobility = platform.mobility
    result = MigrationResult(agent_name="early", source="h1",
                             destination="h2")
    inner = (AgentSnapshot("WindowCourier", "early", {}), [], "move", result)
    for seq in (0, 2, 1):
        mobility._on_transfer(c2, FakeMessage(
            ("chunk", 7, seq, 3, inner if seq == 2 else None)))
    loop.run()
    assert result.completed
    assert mobility.moves_completed == 1
    assert mobility.dedup_hits == 0
    assert c2.has_agent("early")
    assert mobility._rx_chunks == {}
    assert mobility._rx_final == {}


@register_agent_type
class DetourCourier(Agent):
    blob = ""

    def get_state(self):
        return {"blob": self.blob}

    def restore_state(self, state):
        pass


_SNAPSHOT_OVERHEAD = AgentSnapshot("DetourCourier", "x", {"blob": ""}).size_bytes


@given(chunk=st.integers(400, 4_000), full_chunks=st.integers(1, 4),
       last_share=st.floats(0.05, 0.95), back_chunks=st.integers(1, 5),
       window=st.integers(2, 4), back_after_ms=st.floats(0.0, 20.0),
       restore_ms=st.floats(60.0, 90.0))
def test_a_final_chunk_that_overtakes_on_a_lossless_link_checks_in_once(
        chunk, full_chunks, last_share, back_chunks, window, back_after_ms,
        restore_ms):
    """Both agents check in exactly once and the receiver tables drain.

    The direct h1-h2 link is down when the move starts, so the first
    chunks take the two-hop detour through h3; when it comes back
    mid-transfer, later chunks take the one-hop route and a short final
    chunk can overtake its predecessor with nothing lost.  An
    opposite-direction move contends for the same links.  (Fair sharing
    alone never reorders: each flow is FIFO.)
    """
    loop, net, platform, c1, c2 = rig()
    net.create_host("h3")
    net.connect("h1", "h3", bandwidth_mbps=10.0, latency_ms=1.0)
    net.connect("h3", "h2", bandwidth_mbps=10.0, latency_ms=1.0)
    net.disconnect("h1", "h2")
    loop.call_later(restore_ms, net.connect, "h1", "h2", 10.0, 1.0)
    mobility = platform.mobility
    mobility.cost_model.transfer_chunk_bytes = chunk
    mobility.cost_model.transfer_window = window
    out = c1.create_agent(DetourCourier, "out")
    last_chunk = max(1, int(last_share * chunk))  # short: < chunk
    out.blob = "x" * (full_chunks * chunk + last_chunk - _SNAPSHOT_OVERHEAD)
    back = c2.create_agent(DetourCourier, "back")
    back.blob = "y" * (back_chunks * chunk - _SNAPSHOT_OVERHEAD)
    results = [out.do_move("h2")]
    loop.call_later(back_after_ms,
                    lambda: results.append(back.do_move("h1")))
    loop.run()
    assert results[0].chunks_total == full_chunks + 1
    assert all(result.completed for result in results)
    assert mobility.moves_completed == 2
    assert mobility.dedup_hits == 0
    assert mobility._rx_chunks == {}
    assert mobility._rx_final == {}


# -- zero-byte degenerate transfer --------------------------------------------

def test_zero_byte_snapshot_sends_one_empty_frame():
    loop, net, platform, c1, c2 = rig()
    platform.mobility.cost_model.transfer_chunk_bytes = 1_000
    snapshot = AgentSnapshot("WindowCourier", "zb", {})
    snapshot.size_bytes = 0
    result = MigrationResult(agent_name="zb", source="h1", destination="h2")
    platform.mobility._send_snapshot(c1, snapshot, [], result, "move")
    loop.run()
    assert result.completed
    assert result.chunks_total == result.chunks_acked == 1
    assert platform.mobility._rx_chunks == {}
    assert c2.has_agent("zb")
