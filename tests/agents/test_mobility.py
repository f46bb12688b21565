"""Tests for mobile-agent migration and cloning."""

import pytest

from repro.agents.acl import ACLMessage, Performative
from repro.agents.agent import Agent, AgentError, AgentState
from repro.agents.mobility import (
    CHECKIN_BASE_MS,
    CHECKOUT_BASE_MS,
    DESERIALIZE_MS_PER_MB,
    SERIALIZE_MS_PER_MB,
    CostModel,
)
from repro.agents.platform import AgentPlatform
from repro.agents.serialization import SerializationError, register_agent_type
from repro.net.clock import round_trip_cost
from repro.net.kernel import EventLoop
from repro.net.simnet import Network


@register_agent_type
class Courier(Agent):
    """A migratable agent carrying a payload of configurable size."""

    def __init__(self, local_name):
        super().__init__(local_name)
        self.payload = b""
        self.trips = 0
        self.clone_generation = 0

    def get_state(self):
        return {"payload": self.payload, "trips": self.trips,
                "clone_generation": self.clone_generation}

    def restore_state(self, state):
        self.payload = state["payload"]
        self.trips = state["trips"]
        self.clone_generation = state["clone_generation"]

    def after_move(self):
        self.trips += 1

    def after_clone(self):
        self.clone_generation += 1


class UnregisteredAgent(Agent):
    pass


def make_rig(skew2=0.0, bandwidth=10.0):
    loop = EventLoop()
    net = Network(loop)
    net.create_host("h1")
    net.create_host("h2", skew_ms=skew2)
    net.connect("h1", "h2", bandwidth_mbps=bandwidth, latency_ms=1.0)
    platform = AgentPlatform(net)
    c1 = platform.create_container("h1")
    c2 = platform.create_container("h2")
    return loop, net, platform, c1, c2


def test_move_relocates_agent():
    loop, net, platform, c1, c2 = make_rig()
    agent = c1.create_agent(Courier, "ma")
    agent.payload = b"x" * 1000
    result = agent.do_move("h2")
    loop.run()
    assert result.completed
    assert not c1.has_agent("ma")
    assert c2.has_agent("ma")
    moved = c2.agent("ma")
    assert moved.state is AgentState.ACTIVE
    assert moved.payload == b"x" * 1000
    assert moved.trips == 1
    assert platform.where_is("ma") == "h2"


def test_agent_without_behaviours_takes_no_step(monkeypatch):
    """Neither creation nor check-in schedules a step for an agent with
    nothing to run."""
    steps = []
    step = Agent._step

    def counting_step(agent):
        steps.append(agent.local_name)
        step(agent)

    monkeypatch.setattr(Agent, "_step", counting_step)
    loop, net, platform, c1, c2 = make_rig()
    agent = c1.create_agent(Courier, "ma")
    result = agent.do_move("h2")
    loop.run()
    assert result.completed
    assert c2.agent("ma").state is AgentState.ACTIVE
    assert steps == []


def test_move_costs_scale_with_payload():
    small_loop, *_ = self_run(payload=100_000)
    big_loop, *_ = self_run(payload=5_000_000)
    assert big_loop > small_loop


def self_run(payload):
    loop, net, platform, c1, c2 = make_rig()
    agent = c1.create_agent(Courier, "ma")
    agent.payload = b"x" * payload
    result = agent.do_move("h2")
    loop.run()
    assert result.completed
    return result.total_ms, result


def test_transfer_dominated_by_bandwidth():
    """5 MB over 10 Mbps must take ~4 s of transfer."""
    loop, net, platform, c1, c2 = make_rig()
    agent = c1.create_agent(Courier, "ma")
    agent.payload = b"x" * 5_000_000
    result = agent.do_move("h2")
    loop.run()
    assert result.transfer_ms == pytest.approx(5_000_000 * 8 / 10e6 * 1e3 + 1.0,
                                               rel=0.01)


def test_move_phases_ordered():
    _, result = self_run(payload=1000)
    assert (result.started_at < result.checked_out_at < result.arrived_at
            < result.checked_in_at)


def test_move_validations():
    loop, net, platform, c1, c2 = make_rig()
    agent = c1.create_agent(Courier, "ma")
    with pytest.raises(AgentError):
        agent.do_move("h1")  # same host
    with pytest.raises(AgentError):
        agent.do_move("h9")  # no container
    agent.state = AgentState.TRANSIT
    with pytest.raises(AgentError):
        agent.do_move("h2")


def test_unregistered_agent_type_cannot_move():
    loop, net, platform, c1, c2 = make_rig()
    agent = c1.create_agent(UnregisteredAgent, "ua")
    result = agent.do_move("h2")
    loop.run()
    assert result.failed
    assert "not registered" in result.failure_reason


def test_queued_messages_carried_across_move():
    loop, net, platform, c1, c2 = make_rig()
    agent = c1.create_agent(Courier, "ma")
    sender = c1.create_agent(Agent, "s")
    sender.send(ACLMessage(Performative.INFORM, receivers=["ma@h1"],
                           content="before-move"))
    loop.run()
    assert agent.queue_size == 1
    agent.do_move("h2")
    loop.run()
    moved = c2.agent("ma")
    msg = moved.receive()
    assert msg is not None and msg.content == "before-move"


def test_messages_during_transit_buffered_at_destination():
    loop, net, platform, c1, c2 = make_rig()
    agent = c1.create_agent(Courier, "ma")
    agent.payload = b"x" * 5_000_000  # slow transfer
    sender = c2.create_agent(Agent, "s")
    agent.do_move("h2")
    loop.advance(100.0)  # mid-flight
    sender.send(ACLMessage(Performative.INFORM, receivers=["ma@h2"],
                           content="mid-flight"))
    loop.run()
    moved = c2.agent("ma")
    msg = moved.receive()
    assert msg is not None and msg.content == "mid-flight"


def test_on_complete_callback():
    loop, net, platform, c1, c2 = make_rig()
    agent = c1.create_agent(Courier, "ma")
    seen = []
    result = agent.do_move("h2")
    result.on_complete(lambda r: seen.append(r.destination))
    loop.run()
    assert seen == ["h2"]
    # late registration fires immediately
    result.on_complete(lambda r: seen.append("late"))
    assert seen == ["h2", "late"]


def test_round_trip_with_skewed_clocks():
    """Fig. 7: local clock stamps differ, round-trip sum cancels the skew."""
    loop, net, platform, c1, c2 = make_rig(skew2=12_345.0)
    agent = c1.create_agent(Courier, "ma")
    agent.payload = b"x" * 1_000_000
    out = agent.do_move("h2")
    loop.run()
    back = c2.agent("ma").do_move("h1")
    loop.run()
    assert back.completed
    # One-way local-clock difference is skew-polluted:
    polluted = out.arrive_local - out.depart_local
    true_out = out.arrived_at - out.checked_out_at
    assert abs(polluted - true_out) > 10_000  # skew dominates
    # ... but the Fig. 7 round-trip sum is not:
    measured = round_trip_cost(out.depart_local, out.arrive_local,
                               back.depart_local, back.arrive_local)
    true_total = (out.arrived_at - out.checked_out_at) + \
                 (back.arrived_at - back.checked_out_at)
    assert measured == pytest.approx(true_total, abs=1e-6)


def test_clone_keeps_original():
    loop, net, platform, c1, c2 = make_rig()
    agent = c1.create_agent(Courier, "ma")
    agent.payload = b"slides"
    result = agent.do_clone("h2", "ma-room2")
    loop.run()
    assert result.completed
    assert c1.has_agent("ma")            # original still home
    assert c2.has_agent("ma-room2")      # copy at destination
    copy = c2.agent("ma-room2")
    assert copy.payload == b"slides"
    assert copy.clone_generation == 1
    assert c1.agent("ma").clone_generation == 0


def test_clone_to_same_host_allowed():
    loop, net, platform, c1, c2 = make_rig()
    agent = c1.create_agent(Courier, "ma")
    result = agent.do_clone("h1", "ma-copy")
    loop.run()
    assert result.completed
    assert c1.has_agent("ma") and c1.has_agent("ma-copy")


def test_clone_name_collision_rejected():
    loop, net, platform, c1, c2 = make_rig()
    agent = c1.create_agent(Courier, "ma")
    c2.create_agent(Agent, "taken")
    with pytest.raises(AgentError):
        agent.do_clone("h2", "taken")


def test_cost_model_scaling():
    cm = CostModel()
    base, per_mb = CHECKOUT_BASE_MS, SERIALIZE_MS_PER_MB
    assert cm.checkout_ms(0, 1.0) == pytest.approx(base)
    assert cm.checkout_ms(1_000_000, 1.0) == pytest.approx(base + per_mb)
    # A slow CPU pays proportionally more.
    assert cm.checkout_ms(1_000_000, 2.0) == pytest.approx(2 * (base + per_mb))
    base, per_mb = CHECKIN_BASE_MS, DESERIALIZE_MS_PER_MB
    assert cm.checkin_ms(2_000_000, 1.0) == pytest.approx(base + 2 * per_mb)


def test_slow_host_pays_more_checkin():
    def run(cpu):
        loop = EventLoop()
        net = Network(loop)
        net.create_host("h1")
        net.create_host("h2", cpu_factor=cpu)
        net.connect("h1", "h2")
        platform = AgentPlatform(net)
        c1 = platform.create_container("h1")
        platform.create_container("h2")
        agent = c1.create_agent(Courier, "ma")
        agent.payload = b"x" * 2_000_000
        result = agent.do_move("h2")
        loop.run()
        return result.checked_in_at - result.arrived_at

    assert run(cpu=4.0) == pytest.approx(4.0 * run(cpu=1.0))


def test_migration_counters():
    loop, net, platform, c1, c2 = make_rig()
    agent = c1.create_agent(Courier, "ma")
    agent.do_move("h2")
    loop.run()
    c2.agent("ma").do_clone("h1", "ma2")
    loop.run()
    assert platform.mobility.moves_started == 1
    assert platform.mobility.moves_completed == 1
    assert platform.mobility.clones_completed == 1
