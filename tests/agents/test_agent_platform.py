"""Tests for agents, behaviours, containers and messaging."""

import pytest

from repro.agents.acl import ACLMessage, Performative
from repro.agents.agent import Agent, AgentError, AgentState
from repro.agents.behaviours import CyclicBehaviour
from repro.agents.platform import AgentPlatform, PlatformError
from repro.net.kernel import EventLoop
from repro.net.simnet import Network


@pytest.fixture
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


class EchoAgent(Agent):
    """Replies CONFIRM to every REQUEST."""

    def setup(self):
        agent = self

        class Pump(CyclicBehaviour):
            def action(self):
                msg = agent.receive(performative=Performative.REQUEST)
                if msg is None:
                    self.block()
                    return
                agent.send(msg.create_reply(Performative.CONFIRM,
                                            content=msg.content))

        self.add_behaviour(Pump())


class TestLifecycle:
    def test_create_agent_activates_and_calls_setup(self, rig):
        loop, net, platform, c1, c2 = rig
        calls = []

        class A(Agent):
            def setup(self):
                calls.append("setup")

        agent = c1.create_agent(A, "a1")
        assert agent.state is AgentState.ACTIVE
        assert calls == ["setup"]
        assert agent.aid == "a1@h1"

    def test_invalid_local_name(self):
        with pytest.raises(AgentError):
            Agent("bad@name")
        with pytest.raises(AgentError):
            Agent("")

    def test_duplicate_name_same_container_rejected(self, rig):
        loop, net, platform, c1, c2 = rig
        c1.create_agent(Agent, "dup")
        with pytest.raises(PlatformError):
            c1.create_agent(Agent, "dup")

    def test_duplicate_name_across_containers_rejected(self, rig):
        loop, net, platform, c1, c2 = rig
        c1.create_agent(Agent, "dup")
        with pytest.raises(PlatformError):
            c2.create_agent(Agent, "dup")

    def test_bad_transitions_rejected(self, rig):
        loop, net, platform, c1, c2 = rig
        agent = c1.create_agent(Agent, "a1")
        with pytest.raises(AgentError):
            agent.do_activate()  # already active

    def test_delete_calls_take_down_and_removes(self, rig):
        loop, net, platform, c1, c2 = rig
        calls = []

        class A(Agent):
            def take_down(self):
                calls.append("down")

        agent = c1.create_agent(A, "a1")
        agent.do_delete()
        assert calls == ["down"]
        assert not c1.has_agent("a1")
        assert platform.where_is("a1") is None


class TestMessaging:
    def test_local_request_reply(self, rig):
        loop, net, platform, c1, c2 = rig
        c1.create_agent(EchoAgent, "echo")
        sender = c1.create_agent(Agent, "s")
        sender.send(ACLMessage(Performative.REQUEST, receivers=["echo@h1"],
                               content=42, reply_with="q-1"))
        loop.run()
        reply = sender.receive()
        assert reply is not None
        assert reply.performative is Performative.CONFIRM
        assert reply.content == 42
        assert reply.sender == "echo@h1"
        assert reply.in_reply_to == "q-1"

    def test_remote_messaging_pays_network_cost(self, rig):
        loop, net, platform, c1, c2 = rig
        c2.create_agent(EchoAgent, "echo")
        sender = c1.create_agent(Agent, "s")
        arrival = []
        sender.send(ACLMessage(Performative.REQUEST, receivers=["echo@h2"],
                               content="x"))
        loop.run()
        reply = sender.receive()
        assert reply is not None
        assert loop.now > 2.0  # two link traversals at >= 1ms latency each

    def test_selective_receive(self, rig):
        loop, net, platform, c1, c2 = rig
        agent = c1.create_agent(Agent, "a1")
        other = c1.create_agent(Agent, "a2")
        other.send(ACLMessage(Performative.INFORM, receivers=["a1@h1"],
                              conversation_id="c-A"))
        other.send(ACLMessage(Performative.REQUEST, receivers=["a1@h1"],
                              conversation_id="c-B"))
        loop.run()
        got = agent.receive(conversation_id="c-B")
        assert got is not None and got.conversation_id == "c-B"
        assert agent.queue_size == 1

    def test_receive_returns_none_when_empty(self, rig):
        loop, net, platform, c1, c2 = rig
        agent = c1.create_agent(Agent, "a1")
        assert agent.receive() is None

    def test_send_requires_receivers(self, rig):
        loop, net, platform, c1, c2 = rig
        agent = c1.create_agent(Agent, "a1")
        with pytest.raises(PlatformError):
            agent.send(ACLMessage(Performative.INFORM))

    def test_send_to_unknown_host_counts_failure(self, rig):
        loop, net, platform, c1, c2 = rig
        agent = c1.create_agent(Agent, "a1")
        agent.send(ACLMessage(Performative.INFORM, receivers=["ghost@h9"]))
        loop.run()
        assert platform.messages_failed == 1

    def test_multicast(self, rig):
        loop, net, platform, c1, c2 = rig
        r1 = c1.create_agent(Agent, "r1")
        r2 = c2.create_agent(Agent, "r2")
        sender = c1.create_agent(Agent, "s")
        sender.send(ACLMessage(Performative.INFORM,
                               receivers=["r1@h1", "r2@h2"], content="all"))
        loop.run()
        assert r1.queue_size == 1
        assert r2.queue_size == 1

    def test_ams_reroutes_stale_address(self, rig):
        """Messages addressed to the old host follow the AMS location."""
        loop, net, platform, c1, c2 = rig
        target = c2.create_agent(Agent, "t")
        sender = c1.create_agent(Agent, "s")
        # Address says h1 but the AMS knows the agent is on h2.
        sender.send(ACLMessage(Performative.INFORM, receivers=["t@h1"]))
        loop.run()
        assert target.queue_size == 1


class TestWherePages:
    def test_where_is(self, rig):
        loop, net, platform, c1, c2 = rig
        c2.create_agent(Agent, "a1")
        assert platform.where_is("a1") == "h2"
        assert platform.where_is("a1@h2") == "h2"
        assert platform.where_is("ghost") is None

    def test_agent_resolution(self, rig):
        loop, net, platform, c1, c2 = rig
        agent = c1.create_agent(Agent, "a1")
        assert platform.agent("a1") is agent
        with pytest.raises(PlatformError):
            platform.agent("ghost")

    def test_agents_listing(self, rig):
        loop, net, platform, c1, c2 = rig
        c1.create_agent(Agent, "a1")
        c2.create_agent(Agent, "a2")
        assert {a.local_name for a in platform.agents} == {"a1", "a2"}


class TestBehaviours:
    def test_blocked_behaviour_wakes_on_message(self, rig):
        loop, net, platform, c1, c2 = rig
        agent = c1.create_agent(EchoAgent, "echo")
        loop.run()
        pump = agent.behaviours[0]
        assert pump.blocked
        other = c1.create_agent(Agent, "o")
        other.send(ACLMessage(Performative.REQUEST, receivers=["echo@h1"]))
        loop.run()
        assert other.queue_size == 1  # echo woke up and replied
