"""Reliability layer: backoff, chunked resume, deadlines, dedup."""

import pytest

from repro.agents import mobility
from repro.agents.agent import Agent
from repro.agents.mobility import (
    RETRY_BACKOFF_CAP_MS,
    RETRY_BACKOFF_MS,
    RETRY_JITTER_FRAC,
    CostModel,
)
from repro.agents.platform import AgentPlatform
from repro.agents.serialization import register_agent_type
from repro.bench.harness import MigrationExperiment, TestbedConfig
from repro.core import BindingPolicy
from repro.faults import FaultConfig, FaultPlan, FaultSpec, link_target
from repro.net.kernel import EventLoop
from repro.net.simnet import Network


# -- exponential backoff (satellite 1) ---------------------------------------

def test_backoff_grows_exponentially_and_caps(monkeypatch):
    monkeypatch.setattr(mobility, "RETRY_JITTER_FRAC", 0.0)
    model = CostModel()
    base = RETRY_BACKOFF_MS
    assert model.backoff_ms(0) == base
    assert model.backoff_ms(1) == 2 * base
    assert model.backoff_ms(2) == 4 * base
    assert model.backoff_ms(3) == 8 * base
    # The cap bounds the delay no matter how deep the retry goes.
    assert model.backoff_ms(10) == RETRY_BACKOFF_CAP_MS
    assert model.backoff_ms(50) == RETRY_BACKOFF_CAP_MS


def test_backoff_jitter_is_deterministic_and_bounded():
    model = CostModel(backoff_seed=7)
    # Same (seed, key, attempt) -> same delay, every time.
    assert model.backoff_ms(2, key="ma:1:0") == model.backoff_ms(2,
                                                                 key="ma:1:0")
    # Different attempt or key decorrelates the jitter.
    assert model.backoff_ms(2, key="ma:1:0") != model.backoff_ms(2,
                                                                 key="ma:1:1")
    # Jitter only ever adds, and at most RETRY_JITTER_FRAC of the delay.
    for attempt in range(8):
        base = min(RETRY_BACKOFF_CAP_MS, RETRY_BACKOFF_MS * 2 ** attempt)
        delay = model.backoff_ms(attempt, key="k")
        assert base <= delay <= base * (1 + RETRY_JITTER_FRAC)


def test_backoff_seed_changes_jitter():
    a = CostModel(backoff_seed=1)
    b = CostModel(backoff_seed=2)
    assert a.backoff_ms(3, key="x") != b.backoff_ms(3, key="x")


def test_chunk_sizes():
    model = CostModel(transfer_chunk_bytes=0)
    assert model.chunk_sizes(1_000_000) == [1_000_000]
    model.transfer_chunk_bytes = 400
    assert model.chunk_sizes(1_000) == [400, 400, 200]
    assert model.chunk_sizes(800) == [400, 400]
    assert model.chunk_sizes(300) == [300]


# -- end-to-end migration under faults ---------------------------------------

def flap_config(at_ms=1_500.0, duration_ms=600.0, deadline_ms=60_000.0,
                retries=8, chunk=256_000):
    plan = FaultPlan(seed=3)
    plan.add(FaultSpec(at_ms=at_ms, kind="link_down",
                       target=link_target("host1", "host2"),
                       duration_ms=duration_ms,
                       params={"drop_in_flight": True}))
    return FaultConfig(plan=plan, seed=3, transfer_chunk_bytes=chunk,
                       migration_deadline_ms=deadline_ms,
                       max_transfer_retries=retries)


def run_migration(faults, size_bytes=int(5e6)):
    experiment = MigrationExperiment(TestbedConfig(), faults=faults)
    return experiment.run_once(size_bytes, policy=BindingPolicy.STATIC)


def test_migration_survives_mid_transfer_link_flap():
    """The flagship e2e: a 600 ms link cut mid-transfer, survived by
    resuming from the last acknowledged chunk instead of restarting."""
    outcome = run_migration(flap_config())
    assert outcome.completed
    assert outcome.transfer_retries > 0
    assert outcome.transfer_resumed
    assert any("retry" in line for line in outcome.events
               if "transfer recovery" in line)


def test_flap_is_fatal_without_reliability_layer():
    plan = FaultPlan(seed=3)
    plan.add(FaultSpec(at_ms=1_500.0, kind="link_down",
                       target=link_target("host1", "host2"),
                       duration_ms=600.0, params={"drop_in_flight": True}))
    outcome = run_migration(FaultConfig(plan=plan, seed=3))
    assert outcome.failed
    assert "lost after" in outcome.failure_reason


def test_migration_deadline_bounds_recovery():
    """A permanent link cut cannot be retried past the deadline."""
    outcome = run_migration(flap_config(duration_ms=None,
                                        deadline_ms=3_000.0, retries=100))
    assert outcome.failed
    assert "migration deadline" in outcome.failure_reason
    assert "3000 ms" in outcome.failure_reason


def test_send_errors_are_retried_then_reported():
    """A crashed destination raises at send time; the retry loop keeps
    trying and the final failure carries the last error."""
    plan = FaultPlan(seed=3)
    plan.add(FaultSpec(at_ms=1_500.0, kind="host_crash", target="host2",
                       duration_ms=None))
    faults = FaultConfig(plan=plan, seed=3, transfer_chunk_bytes=256_000,
                         max_transfer_retries=2)
    outcome = run_migration(faults)
    assert outcome.failed
    assert "lost after 3 attempts" in outcome.failure_reason
    assert "last error" in outcome.failure_reason


def test_fault_free_run_with_reliability_on_is_clean():
    outcome = run_migration(FaultConfig(plan=FaultPlan(),
                                        transfer_chunk_bytes=256_000,
                                        migration_deadline_ms=60_000.0))
    assert outcome.completed
    assert outcome.transfer_retries == 0
    assert not outcome.transfer_resumed


def test_flap_outcomes_are_deterministic():
    a = run_migration(flap_config())
    b = run_migration(flap_config())
    assert a.transfer_retries == b.transfer_retries
    assert a.phases() == b.phases()
    assert a.events == b.events


# -- idempotent check-in dedup ------------------------------------------------

@register_agent_type
class Wanderer(Agent):
    def get_state(self):
        return {}

    def restore_state(self, state):
        pass


class FakeMessage:
    def __init__(self, payload):
        self.payload = payload


def make_rig():
    loop = EventLoop()
    net = Network(loop)
    net.create_host("h1")
    net.create_host("h2")
    net.connect("h1", "h2", bandwidth_mbps=10.0, latency_ms=1.0)
    platform = AgentPlatform(net)
    c1 = platform.create_container("h1")
    c2 = platform.create_container("h2")
    return loop, net, platform, c1, c2


def test_duplicate_final_delivery_is_swallowed():
    loop, net, platform, c1, c2 = make_rig()
    agent = c1.create_agent(Wanderer, "ma")
    result = agent.do_move("h2")
    loop.run()
    assert result.completed
    assert c2.has_agent("ma")
    # Replay the one-chunk final frame: the agent must not re-arrive.
    mobility = platform.mobility
    frame = ("chunk", mobility._transfer_seq, 0, 1, (None, [], "move", result))
    mobility._on_transfer(c2, FakeMessage(frame))
    loop.run()
    assert c2.has_agent("ma")
    assert result.dedup_hits == 1
    assert mobility.dedup_hits == 1


def test_duplicate_chunk_is_ack_only():
    loop, net, platform, c1, c2 = make_rig()
    mobility = platform.mobility
    mobility._rx_chunks[("h2", 99)] = {0}
    mobility._on_transfer(c2, FakeMessage(("chunk", 99, 0, 3, None)))
    assert mobility.dedup_hits == 1
    # An unseen intermediate chunk is recorded but triggers no check-in.
    mobility._on_transfer(c2, FakeMessage(("chunk", 99, 1, 3, None)))
    assert mobility.dedup_hits == 1
    assert mobility._rx_chunks[("h2", 99)] == {0, 1}


def test_chunked_move_acks_every_chunk():
    loop, net, platform, c1, c2 = make_rig()
    platform.mobility.cost_model.transfer_chunk_bytes = 32
    agent = c1.create_agent(Wanderer, "ma")
    result = agent.do_move("h2")
    loop.run()
    assert result.completed
    assert result.chunks_total > 1
    assert result.chunks_acked == result.chunks_total
    assert not platform.mobility._rx_chunks  # bookkeeping drained
