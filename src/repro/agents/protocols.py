"""FIPA interaction protocols the middleware runs.

JADE ships initiator/responder behaviours for the FIPA interaction
protocols; the platform provides the two MDAgent's migration path uses:

- :class:`ContractNetInitiator` / :class:`ContractNetResponder` -- FIPA
  Contract Net.  With ``destination_strategy="contract-net"`` the
  autonomous agent sends a hosting CFP to every candidate host's MA
  manager and awards the app to the best bid (load, then CPU speed).
- :class:`ProposeInitiator` / :class:`ProposeResponder` -- FIPA propose.
  The ``fipa`` migration protocol's negotiation phase proposes the source
  platform's capabilities to the destination before anything is
  suspended; ACCEPT-PROPOSAL grants the migration, REJECT-PROPOSAL refuses
  it.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.agents.acl import ACLMessage, Performative
from repro.agents.behaviours import Behaviour
from repro.net.simnet import HostOfflineError, UnreachableHostError


class ContractNetInitiator(Behaviour):
    """FIPA Contract Net: CFP to several contractors, award the best bid.

    Sends PROPOSE-soliciting CFPs (modelled as REQUESTs with ``cfp`` dicts),
    collects PROPOSE/REFUSE replies until all contractors answered or the
    deadline passes, then calls ``select`` with the proposals and INFORMs
    the winner (award) -- the rest receive nothing (implicit rejection,
    keeping the message count low for the middleware's hot path).

    ``on_award(winner_aid, proposal)`` fires after awarding; with no valid
    proposals it fires with ``(None, None)``.
    """

    def __init__(self, contractors, task: Any, protocol: str,
                 select: Callable[[dict], Optional[str]],
                 on_award: Callable[[Optional[str], Any], None],
                 deadline_ms: float = 1_000.0, name: str = ""):
        super().__init__(name or "contract-net")
        self.contractors = list(contractors)
        self.task = task
        self.protocol = protocol
        self.select = select
        self.on_award = on_award
        self.deadline_ms = deadline_ms
        #: Drawn from the agent platform's counter when the behaviour starts.
        self.conversation_id = ""
        #: contractor aid -> proposal content
        self.proposals: dict = {}
        self.refusals: list = []
        self._awarded = False
        self._deadline_timer = None

    def on_start(self) -> None:
        platform = self.agent.container.platform
        self.conversation_id = f"cnp-{next(platform.conversation_ids)}"
        if not self.contractors:
            self._award()
            return
        for contractor in self.contractors:
            self.agent.send(ACLMessage(
                Performative.REQUEST,
                receivers=[contractor],
                content={"cfp": self.task},
                conversation_id=self.conversation_id,
                protocol=self.protocol,
            ))
        self._deadline_timer = self.agent.loop.call_later(
            self.deadline_ms, self._deadline)

    def _deadline(self) -> None:
        self._deadline_timer = None
        if not self._awarded:
            self._award()
            self.restart()
            self.agent.schedule_step()

    def action(self) -> None:
        if self._awarded:
            return
        message = self.agent.receive(conversation_id=self.conversation_id)
        if message is None:
            self.block()
            return
        if message.performative is Performative.PROPOSE:
            self.proposals[message.sender] = message.content
        elif message.performative is Performative.REFUSE:
            self.refusals.append(message.sender)
        if len(self.proposals) + len(self.refusals) >= len(self.contractors):
            self._award()

    def _award(self) -> None:
        self._awarded = True
        if self._deadline_timer is not None:
            self._deadline_timer.cancel()
        winner = self.select(self.proposals) if self.proposals else None
        if winner is not None:
            self.agent.send(ACLMessage(
                Performative.INFORM,
                receivers=[winner],
                content={"award": self.task},
                conversation_id=self.conversation_id,
                protocol=self.protocol,
            ))
            self.on_award(winner, self.proposals.get(winner))
        else:
            self.on_award(None, None)

    def done(self) -> bool:
        return self._awarded


class ContractNetResponder(Behaviour):
    """Contract Net contractor: answers CFPs with bids.

    ``bid(cfp_content) -> proposal | None``; None means REFUSE.
    ``on_award(award_content)`` fires when this contractor wins.
    """

    def __init__(self, protocol: str,
                 bid: Callable[[Any], Optional[Any]],
                 on_award: Optional[Callable[[Any], None]] = None,
                 name: str = ""):
        super().__init__(name or f"contractor-{protocol}")
        self.protocol = protocol
        self.bid = bid
        self.on_award = on_award

    def action(self) -> None:
        message = self.agent.receive(protocol=self.protocol,
                                     performative=Performative.REQUEST)
        if message is not None and isinstance(message.content, dict) \
                and "cfp" in message.content:
            proposal = self.bid(message.content["cfp"])
            if proposal is None:
                self.agent.send(message.create_reply(Performative.REFUSE))
            else:
                self.agent.send(message.create_reply(Performative.PROPOSE,
                                                     proposal))
            return
        message = self.agent.receive(protocol=self.protocol,
                                     performative=Performative.INFORM)
        if message is not None and isinstance(message.content, dict) \
                and "award" in message.content:
            if self.on_award is not None:
                self.on_award(message.content["award"])
            return
        self.block()

    def done(self) -> bool:
        return False


class ProposeInitiator(Behaviour):
    """One FIPA-propose conversation from the initiator side.

    Sends a PROPOSE and waits for ACCEPT-PROPOSAL / REJECT-PROPOSAL (the
    FIPA interoperable-mobility shape: capabilities are negotiated before
    any state moves).  Callbacks: ``on_accept``, ``on_reject`` (each
    optional, receiving the ACL message) and ``on_timeout``.
    """

    def __init__(self, receiver: str, content: Any, protocol: str,
                 on_accept: Optional[Callable[[ACLMessage], None]] = None,
                 on_reject: Optional[Callable[[ACLMessage], None]] = None,
                 on_timeout: Optional[Callable[[], None]] = None,
                 timeout_ms: Optional[float] = None, name: str = ""):
        super().__init__(name or f"propose-to-{receiver}")
        self.receiver = receiver
        self.content = content
        self.protocol = protocol
        self.on_accept = on_accept
        self.on_reject = on_reject
        self.on_timeout = on_timeout
        self.timeout_ms = timeout_ms
        #: Drawn from the agent platform's counter when the behaviour starts.
        self.conversation_id = ""
        self.state = "start"
        self._deadline_timer = None

    def on_start(self) -> None:
        platform = self.agent.container.platform
        self.conversation_id = f"prop-{next(platform.conversation_ids)}"
        self.agent.send(ACLMessage(
            Performative.PROPOSE,
            receivers=[self.receiver],
            content=self.content,
            conversation_id=self.conversation_id,
            protocol=self.protocol,
        ))
        self.state = "waiting"
        if self.timeout_ms is not None:
            self._deadline_timer = self.agent.loop.call_later(
                self.timeout_ms, self._timeout)

    def _timeout(self) -> None:
        if self.state != "done":
            self.state = "done"
            if self.on_timeout is not None:
                self.on_timeout()
            self.restart()
            self.agent.schedule_step()

    def action(self) -> None:
        if self.state == "done":
            return
        message = self.agent.receive(conversation_id=self.conversation_id)
        if message is None:
            self.block()
            return
        if message.performative is Performative.ACCEPT_PROPOSAL:
            self._finish()
            if self.on_accept is not None:
                self.on_accept(message)
        elif message.performative is Performative.REJECT_PROPOSAL:
            self._finish()
            if self.on_reject is not None:
                self.on_reject(message)

    def _finish(self) -> None:
        self.state = "done"
        if self._deadline_timer is not None:
            self._deadline_timer.cancel()

    def done(self) -> bool:
        return self.state == "done"


def _send_reply(agent, reply: ACLMessage) -> None:
    """Send a responder's reply, dropping (and counting) one that cannot be
    routed -- e.g. across a partition.  The initiator's own deadline then
    fails the exchange, exactly as for a reply lost in flight."""
    try:
        agent.send(reply)
    except (UnreachableHostError, HostOfflineError):
        agent.container.platform.messages_failed += 1


class ProposeResponder(Behaviour):
    """Serves FIPA proposals for one protocol, forever.

    ``handler(message) -> (accept: bool, payload)``; the payload rides in
    the ACCEPT-PROPOSAL (a capability grant) or the REJECT-PROPOSAL (the
    rejection reason).
    """

    def __init__(self, protocol: str,
                 handler: Callable[[ACLMessage], "tuple"],
                 name: str = ""):
        super().__init__(name or f"proposals-{protocol}")
        self.protocol = protocol
        self.handler = handler
        self.accepted = 0
        self.rejected = 0

    def action(self) -> None:
        message = self.agent.receive(performative=Performative.PROPOSE,
                                     protocol=self.protocol)
        if message is None:
            self.block()
            return
        accept, payload = self.handler(message)
        if accept:
            self.accepted += 1
            _send_reply(self.agent, message.create_reply(
                Performative.ACCEPT_PROPOSAL, payload))
        else:
            self.rejected += 1
            _send_reply(self.agent, message.create_reply(
                Performative.REJECT_PROPOSAL, payload))

    def done(self) -> bool:
        return False
