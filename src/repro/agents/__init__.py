"""Agent platform substrate: a JADE-style runtime in pure Python.

The paper's prototype runs on JADE 3.4; "both autonomous agents and mobile
agents are implemented as specific agents inheriting JADE's Agent class".
This package provides the slice of JADE the middleware runs -- agent
lifecycle, messaging and weak migration -- and nothing more:

- :mod:`repro.agents.acl` -- FIPA-ACL messages and performatives.
- :mod:`repro.agents.agent` -- the Agent base class with the JADE lifecycle
  (initiated / active / transit / deleted) and a message queue.
- :mod:`repro.agents.behaviours` -- the behaviour base and the cyclic
  message pump, scheduled cooperatively.
- :mod:`repro.agents.protocols` -- the FIPA Propose and Contract Net roles.
- :mod:`repro.agents.platform` -- per-host containers, the platform AMS and
  the message transport over :mod:`repro.net`.
- :mod:`repro.agents.serialization` -- size-accounted state serialization.
- :mod:`repro.agents.mobility` -- the check-out / transfer / check-in mobile
  agent migration protocol, plus cloning for clone-dispatch mobility.
"""

from repro.agents.acl import ACLMessage, Performative
from repro.agents.agent import Agent, AgentError, AgentState
from repro.agents.behaviours import Behaviour, CyclicBehaviour
from repro.agents.mobility import CloneResult, MigrationResult, MobilityService
from repro.agents.platform import AgentContainer, AgentPlatform, PlatformError
from repro.agents.serialization import (
    AgentSnapshot,
    SerializationError,
    deep_size_bytes,
    register_agent_type,
    registered_agent_type,
)

__all__ = [
    "ACLMessage",
    "Agent",
    "AgentContainer",
    "AgentError",
    "AgentPlatform",
    "AgentSnapshot",
    "AgentState",
    "Behaviour",
    "CloneResult",
    "CyclicBehaviour",
    "MigrationResult",
    "MobilityService",
    "Performative",
    "PlatformError",
    "SerializationError",
    "deep_size_bytes",
    "register_agent_type",
    "registered_agent_type",
]
