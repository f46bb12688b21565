"""Agent containers and the platform AMS / message transport.

One :class:`AgentContainer` runs per host (as in JADE); the
:class:`AgentPlatform` spans the deployment, routing ACL messages between
containers over the simulated network and tracking where each agent lives
(AMS white pages).

Messages to agents that are mid-migration are buffered at the destination
container and flushed on check-in, so conversations survive a move.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Type

from repro.agents.acl import ACLMessage, split_aid
from repro.agents.agent import Agent
from repro.agents.serialization import SerializationError, deep_size_bytes
from repro.net.kernel import EventLoop
from repro.net.simnet import Host, Message, Network, register_bulk_protocol

ACL_PROTOCOL = "agents.acl"
TRANSFER_PROTOCOL = "agents.transfer"
# Agent state transfers are bulk traffic: chunks of one migration queue
# FIFO within their flow, concurrent migrations share link bandwidth
# fairly, and ACL control messages never wait behind them.
register_bulk_protocol(TRANSFER_PROTOCOL)

#: Fallback wire size when message content cannot be sized.
_DEFAULT_CONTENT_SIZE = 256
#: Envelope overhead per ACL message.
_ENVELOPE_SIZE = 128


class PlatformError(RuntimeError):
    """Raised on invalid platform operations."""


def estimate_message_size(message: ACLMessage) -> int:
    """Wire size of an ACL message: explicit, else deep-sized content."""
    if message.size_bytes > 0:
        return message.size_bytes + _ENVELOPE_SIZE
    try:
        return deep_size_bytes(message.content) + _ENVELOPE_SIZE
    except SerializationError:
        return _DEFAULT_CONTENT_SIZE + _ENVELOPE_SIZE


class AgentContainer:
    """The per-host agent runtime."""

    def __init__(self, platform: "AgentPlatform", host: Host):
        self.platform = platform
        self.host = host
        self._agents: Dict[str, Agent] = {}
        # Messages for agents expected to arrive (mid-migration buffering).
        self._early_messages: Dict[str, List[ACLMessage]] = {}
        host.register_handler(ACL_PROTOCOL, self._on_network_message)

    @property
    def host_name(self) -> str:
        return self.host.name

    @property
    def loop(self) -> EventLoop:
        return self.host.loop

    @property
    def mobility(self):
        return self.platform.mobility

    # -- agent management ----------------------------------------------------

    def create_agent(self, agent_class: Type[Agent], local_name: str,
                     *args, **kwargs) -> Agent:
        """Instantiate, register and start an agent in this container."""
        agent = agent_class(local_name, *args, **kwargs)
        self.add_agent(agent)
        agent.do_activate()
        return agent

    def add_agent(self, agent: Agent, flush_early: bool = True) -> Agent:
        """Register an (unstarted or checked-in) agent with this container."""
        if agent.local_name in self._agents:
            raise PlatformError(
                f"container {self.host_name!r} already has an agent named "
                f"{agent.local_name!r}")
        self.platform._register_location(agent.local_name, self.host_name)
        agent.container = self
        self._agents[agent.local_name] = agent
        if flush_early:
            for message in self._early_messages.pop(agent.local_name, []):
                agent.post(message)
        return agent

    def remove_agent(self, agent: Agent) -> None:
        if self._agents.get(agent.local_name) is agent:
            del self._agents[agent.local_name]
            self.platform._unregister_location(agent.local_name,
                                               self.host_name)
        agent.container = None

    def agent(self, local_name: str) -> Agent:
        try:
            return self._agents[local_name]
        except KeyError:
            raise PlatformError(
                f"no agent {local_name!r} on host {self.host_name!r}") from None

    def has_agent(self, local_name: str) -> bool:
        return local_name in self._agents

    @property
    def agents(self) -> List[Agent]:
        return list(self._agents.values())

    # -- message delivery ---------------------------------------------------------

    def post_to(self, local_name: str, message: ACLMessage) -> None:
        """Deliver locally, or buffer briefly if the agent is in flight."""
        agent = self._agents.get(local_name)
        obs = self.loop.observability
        if obs is not None:
            obs.tracer.event(
                "acl.receive", category="acl", host=self.host,
                agent=local_name, performative=message.performative.value,
                buffered=agent is None)
        if agent is not None:
            agent.post(message)
        else:
            self._early_messages.setdefault(local_name, []).append(message)

    def _on_network_message(self, net_message: Message) -> None:
        acl: ACLMessage = net_message.payload
        local_name, _ = split_aid(acl.receivers[0])
        self.post_to(local_name, acl)


class AgentPlatform:
    """The deployment-wide agent platform (AMS + transport)."""

    def __init__(self, network: Network):
        self.network = network
        self.loop = network.loop
        self._containers: Dict[str, AgentContainer] = {}
        # AMS white pages: local agent name -> host name.
        self._locations: Dict[str, str] = {}
        self.messages_sent = 0
        self.messages_failed = 0
        #: Conversation ids of the FIPA initiators this platform's agents
        #: run (:mod:`repro.agents.protocols`).
        self.conversation_ids = itertools.count(1)
        from repro.agents.mobility import MobilityService
        self.mobility = MobilityService(self)

    # -- containers -----------------------------------------------------------

    def create_container(self, host_name: str) -> AgentContainer:
        if host_name in self._containers:
            raise PlatformError(f"host {host_name!r} already has a container")
        container = AgentContainer(self, self.network.host(host_name))
        self._containers[host_name] = container
        self.mobility.attach(container)
        return container

    def container(self, host_name: str) -> AgentContainer:
        try:
            return self._containers[host_name]
        except KeyError:
            raise PlatformError(f"no container on host {host_name!r}") from None

    def has_container(self, host_name: str) -> bool:
        return host_name in self._containers

    @property
    def containers(self) -> List[AgentContainer]:
        return list(self._containers.values())

    # -- AMS white pages ---------------------------------------------------------

    def _register_location(self, local_name: str, host_name: str) -> None:
        existing = self._locations.get(local_name)
        if existing is not None and existing != host_name:
            raise PlatformError(
                f"agent name {local_name!r} already in use on {existing!r}")
        self._locations[local_name] = host_name

    def _unregister_location(self, local_name: str, host_name: str) -> None:
        if self._locations.get(local_name) == host_name:
            del self._locations[local_name]

    def where_is(self, name: str) -> Optional[str]:
        """Host of an agent by local name or full aid (None if unknown)."""
        local = name.split("@", 1)[0]
        return self._locations.get(local)

    def agent(self, name: str) -> Agent:
        """Resolve an agent object by local name or aid."""
        host = self.where_is(name)
        if host is None:
            raise PlatformError(f"unknown agent {name!r}")
        return self.container(host).agent(name.split("@", 1)[0])

    @property
    def agents(self) -> List[Agent]:
        return [a for c in self.containers for a in c.agents]

    # -- transport -----------------------------------------------------------------

    def send_message(self, message: ACLMessage) -> None:
        """Route an ACL message to each receiver (unicast per receiver).

        Local receivers get same-instant loop delivery; remote ones ride the
        simulated network and pay latency + bandwidth for the content size.
        """
        if not message.receivers:
            raise PlatformError(f"message has no receivers: {message}")
        if not message.sender:
            raise PlatformError(f"message has no sender: {message}")
        message.sent_at = self.loop.now
        _, sender_host = split_aid(message.sender)
        obs = self.loop.observability
        for receiver in message.receivers:
            local_name, receiver_host = split_aid(receiver)
            # The AMS may know the agent moved; prefer its current location.
            current = self.where_is(local_name)
            target_host = current if current is not None else receiver_host
            copy = message.copy()
            copy.receivers = [f"{local_name}@{target_host}"]
            self.messages_sent += 1
            if obs is not None:
                obs.metrics.counter(
                    "acl.messages",
                    performative=message.performative.value).inc()
                obs.tracer.event(
                    "acl.send", category="acl", sender=message.sender,
                    receiver=copy.receivers[0],
                    performative=message.performative.value,
                    size_bytes=estimate_message_size(copy),
                    remote=target_host != sender_host)
            if target_host == sender_host:
                container = self.container(target_host)
                self.loop.call_soon(container.post_to, local_name, copy)
            else:
                if target_host not in self._containers:
                    self.messages_failed += 1
                    continue
                self.network.send(sender_host, target_host, ACL_PROTOCOL,
                                  copy, estimate_message_size(copy))
