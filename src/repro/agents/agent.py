"""The Agent base class with the JADE lifecycle.

Agents live in a container on a host; their activity is a set of
:mod:`behaviours <repro.agents.behaviours>` stepped by the container, and
they exchange :mod:`ACL messages <repro.agents.acl>` through the platform.

Lifecycle (JADE's agent FSM): INITIATED -> ACTIVE, ACTIVE -> TRANSIT
(migration in flight) -> ACTIVE at the destination, any -> DELETED.
Messages that arrive while an agent is in transit are carried or buffered
and handed to it at the destination -- which is exactly what application
components rely on across a migration.
"""

from __future__ import annotations

import enum
from collections import deque
from typing import TYPE_CHECKING, Any, Deque, Dict, List, Optional

from repro.agents.acl import ACLMessage
from repro.agents.behaviours import Behaviour

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.agents.platform import AgentContainer
    from repro.net.kernel import EventLoop


class AgentError(RuntimeError):
    """Invalid agent operation (bad lifecycle transition, no container...)."""


class AgentState(enum.Enum):
    INITIATED = "initiated"
    ACTIVE = "active"
    TRANSIT = "transit"
    DELETED = "deleted"


class Agent:
    """Base agent.  Subclass and override :meth:`setup`.

    For migratable agents also override :meth:`get_state` /
    :meth:`restore_state` (plain-data only) and decorate the class with
    :func:`~repro.agents.serialization.register_agent_type`.
    """

    def __init__(self, local_name: str):
        if not local_name or "@" in local_name:
            raise AgentError(f"invalid agent local name {local_name!r}")
        self.local_name = local_name
        self.state = AgentState.INITIATED
        self.container: Optional["AgentContainer"] = None
        self.behaviours: List[Behaviour] = []
        self._queue: Deque[ACLMessage] = deque()
        self._step_scheduled = False

    # -- identity ----------------------------------------------------------

    @property
    def aid(self) -> str:
        """Full agent id ``name@host`` (requires a container)."""
        if self.container is None:
            raise AgentError(f"agent {self.local_name!r} is not in a container")
        return f"{self.local_name}@{self.container.host_name}"

    @property
    def here(self) -> str:
        """The host this agent currently runs on."""
        if self.container is None:
            raise AgentError(f"agent {self.local_name!r} is not in a container")
        return self.container.host_name

    @property
    def loop(self) -> "EventLoop":
        if self.container is None:
            raise AgentError(f"agent {self.local_name!r} is not in a container")
        return self.container.loop

    @property
    def now(self) -> float:
        """Host-local clock reading (skewed!); use for paper-style timing."""
        if self.container is None:
            raise AgentError(f"agent {self.local_name!r} is not in a container")
        return self.container.host.local_time()

    # -- lifecycle hooks ------------------------------------------------------

    def setup(self) -> None:
        """Called once when the agent starts; add initial behaviours here."""

    def take_down(self) -> None:
        """Called when the agent is deleted."""

    def after_move(self) -> None:
        """Called at the destination after a successful migration."""

    def after_clone(self) -> None:
        """Called on the *clone* at the destination after cloning."""

    # -- migration state (weak mobility) -----------------------------------------

    def get_state(self) -> Dict[str, Any]:
        """Plain-data state to carry across a migration.  Override."""
        return {}

    def restore_state(self, state: Dict[str, Any]) -> None:
        """Restore state captured by :meth:`get_state`.  Override."""

    # -- behaviours -------------------------------------------------------------

    def add_behaviour(self, behaviour: Behaviour) -> Behaviour:
        behaviour.agent = self
        self.behaviours.append(behaviour)
        if self.state is AgentState.ACTIVE:
            behaviour.on_start()
            self.schedule_step()
        else:
            behaviour._needs_start = True  # started when the agent activates
        return behaviour

    def remove_behaviour(self, behaviour: Behaviour) -> None:
        if behaviour in self.behaviours:
            self.behaviours.remove(behaviour)

    # -- messaging ----------------------------------------------------------------

    def send(self, message: ACLMessage) -> None:
        """Send through the platform; sender is stamped automatically."""
        if self.container is None:
            raise AgentError(f"agent {self.local_name!r} cannot send: "
                             f"not in a container")
        message.sender = self.aid
        self.container.platform.send_message(message)

    def post(self, message: ACLMessage) -> None:
        """Deliver a message into this agent's queue (transport side)."""
        self._queue.append(message)
        if self.state is AgentState.ACTIVE:
            for behaviour in self.behaviours:
                behaviour.restart()
            self.schedule_step()

    def receive(self, **template: Any) -> Optional[ACLMessage]:
        """Pop the first queued message matching the template, else None.

        Template keys are those of :meth:`ACLMessage.matches`
        (performative, sender, conversation_id, in_reply_to, protocol).
        """
        for i, message in enumerate(self._queue):
            if message.matches(**template):
                del self._queue[i]
                return message
        return None

    @property
    def queue_size(self) -> int:
        return len(self._queue)

    # -- scheduling (driven by the container) ---------------------------------------

    def schedule_step(self) -> None:
        # An agent without behaviours (such as a mobile agent) has nothing
        # to step.
        if self.container is not None and not self._step_scheduled \
                and self.state is AgentState.ACTIVE and self.behaviours:
            self._step_scheduled = True
            self.loop.call_soon(self._step)

    def _step(self) -> None:
        self._step_scheduled = False
        if self.state is not AgentState.ACTIVE:
            return
        progressed = False
        for behaviour in list(self.behaviours):
            if behaviour.blocked or behaviour not in self.behaviours:
                continue
            behaviour.action()
            progressed = True
            if behaviour.done():
                behaviour.on_end()
                self.remove_behaviour(behaviour)
        runnable = any(not b.blocked for b in self.behaviours)
        if runnable and progressed:
            # Yield through the loop so same-time events interleave fairly.
            self._step_scheduled = True
            self.loop.call_later(self.step_quantum_ms, self._step)

    #: Delay between consecutive steps of never-blocking behaviours; nonzero
    #: so a spinning behaviour advances simulated time instead of livelocking.
    step_quantum_ms: float = 0.1

    # -- lifecycle transitions -----------------------------------------------------

    def do_activate(self) -> None:
        """INITIATED/TRANSIT -> ACTIVE."""
        if self.state not in (AgentState.INITIATED, AgentState.TRANSIT):
            raise AgentError(f"cannot activate from {self.state}")
        first_start = self.state is AgentState.INITIATED
        self.state = AgentState.ACTIVE
        if first_start:
            self.setup()
        for behaviour in self.behaviours:
            if getattr(behaviour, "_needs_start", False):
                behaviour._needs_start = False
                behaviour.on_start()
        self.schedule_step()

    def do_delete(self) -> None:
        if self.state is AgentState.DELETED:
            return
        self.state = AgentState.DELETED
        self.take_down()
        if self.container is not None:
            self.container.remove_agent(self)

    def do_move(self, destination_host: str):
        """Migrate to another host; returns the in-flight MigrationResult.

        Delegates to the container's mobility service (check-out, transfer,
        check-in).  The agent object at the source becomes TRANSIT and is
        discarded; a fresh instance resumes at the destination.
        """
        if self.container is None:
            raise AgentError("cannot move: agent not in a container")
        return self.container.mobility.move(self, destination_host)

    def do_clone(self, destination_host: str, new_name: str):
        """Clone this agent onto another host (clone-dispatch mobility)."""
        if self.container is None:
            raise AgentError("cannot clone: agent not in a container")
        return self.container.mobility.clone(self, destination_host, new_name)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        where = self.container.host_name if self.container else "nowhere"
        return f"<Agent {self.local_name}@{where} {self.state.value}>"
