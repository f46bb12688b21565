"""FIPA interaction-protocol helpers.

JADE ships AchieveRE initiator/responder behaviours implementing the FIPA
Request protocol (REQUEST -> AGREE/REFUSE -> INFORM/FAILURE).  The MDAgent
middleware's Fig. 4 interactions follow this shape (the AA REQUESTs the MA
manager, which AGREEs and later reports), so the platform provides the same
conveniences:

- :class:`RequestInitiator` -- send a REQUEST, collect the responses, get
  callbacks per outcome.
- :class:`RequestResponder` -- serve REQUESTs matching a protocol with a
  handler that returns (agree, result) and optionally completes later.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Optional

from repro.agents.acl import ACLMessage, Performative
from repro.agents.behaviours import Behaviour
from repro.net.simnet import HostOfflineError, UnreachableHostError

#: Handler signature for responders: (request) -> (agree: bool, payload).
RequestHandler = Callable[[ACLMessage], "ResponderDecision"]


class ResponderDecision:
    """What a responder decided about one request.

    ``agree`` drives the AGREE/REFUSE response; for agreed requests the
    result payload is sent as the closing INFORM (or FAILURE when
    ``failed``).  ``defer()`` lets the handler complete the request later
    (e.g. after an asynchronous migration finishes).
    """

    def __init__(self, agree: bool, payload: Any = None,
                 failed: bool = False):
        self.agree = agree
        self.payload = payload
        self.failed = failed
        self.deferred = False
        self._complete_callback: Optional[Callable[["ResponderDecision"], None]] = None

    @classmethod
    def refuse(cls, reason: Any = None) -> "ResponderDecision":
        return cls(False, reason)

    @classmethod
    def agree_with(cls, payload: Any = None) -> "ResponderDecision":
        return cls(True, payload)

    def defer(self) -> "ResponderDecision":
        """Mark the final INFORM as pending; call complete()/fail() later."""
        self.deferred = True
        return self

    def complete(self, payload: Any = None) -> None:
        self.payload = payload
        self.failed = False
        if self._complete_callback is not None:
            self._complete_callback(self)

    def fail(self, reason: Any = None) -> None:
        self.payload = reason
        self.failed = True
        if self._complete_callback is not None:
            self._complete_callback(self)


class RequestInitiator(Behaviour):
    """One FIPA-request conversation from the initiator side.

    Callbacks: ``on_agree``, ``on_refuse``, ``on_inform``, ``on_failure``
    (each optional, receiving the ACL message).  The behaviour finishes
    after the closing INFORM/FAILURE, after a REFUSE, or on timeout.
    """

    _conversation_ids = itertools.count(1)

    def __init__(self, receiver: str, content: Any, protocol: str,
                 on_agree: Optional[Callable[[ACLMessage], None]] = None,
                 on_refuse: Optional[Callable[[ACLMessage], None]] = None,
                 on_inform: Optional[Callable[[ACLMessage], None]] = None,
                 on_failure: Optional[Callable[[ACLMessage], None]] = None,
                 timeout_ms: Optional[float] = None, name: str = ""):
        super().__init__(name or f"request-to-{receiver}")
        self.receiver = receiver
        self.content = content
        self.protocol = protocol
        self.on_agree = on_agree
        self.on_refuse = on_refuse
        self.on_inform = on_inform
        self.on_failure = on_failure
        self.timeout_ms = timeout_ms
        self.conversation_id = f"req-{next(self._conversation_ids)}"
        self.state = "start"
        self.timed_out = False
        self._deadline_timer = None

    def on_start(self) -> None:
        request = ACLMessage(
            Performative.REQUEST,
            receivers=[self.receiver],
            content=self.content,
            conversation_id=self.conversation_id,
            protocol=self.protocol,
        ).with_reply_id()
        self.agent.send(request)
        self.state = "waiting"
        if self.timeout_ms is not None:
            self._deadline_timer = self.agent.loop.call_later(
                self.timeout_ms, self._timeout)

    def _timeout(self) -> None:
        if self.state not in ("done",):
            self.timed_out = True
            self.state = "done"
            self.restart()
            self.agent.schedule_step()

    def action(self) -> None:
        if self.state == "done":
            return
        message = self.agent.receive(conversation_id=self.conversation_id)
        if message is None:
            self.block()
            return
        if message.performative is Performative.AGREE:
            if self.on_agree is not None:
                self.on_agree(message)
        elif message.performative is Performative.REFUSE:
            if self.on_refuse is not None:
                self.on_refuse(message)
            self._finish()
        elif message.performative is Performative.INFORM:
            if self.on_inform is not None:
                self.on_inform(message)
            self._finish()
        elif message.performative is Performative.FAILURE:
            if self.on_failure is not None:
                self.on_failure(message)
            self._finish()

    def _finish(self) -> None:
        self.state = "done"
        if self._deadline_timer is not None:
            self._deadline_timer.cancel()

    def done(self) -> bool:
        return self.state == "done"


class SubscriptionInitiator(Behaviour):
    """FIPA-subscribe initiator: SUBSCRIBE once, receive INFORMs forever.

    ``on_notification`` fires for every INFORM in the conversation; call
    :meth:`cancel` to send CANCEL and end the behaviour.
    """

    _conversation_ids = itertools.count(1)

    def __init__(self, receiver: str, content: Any, protocol: str,
                 on_notification: Callable[[ACLMessage], None],
                 name: str = ""):
        super().__init__(name or f"subscribe-to-{receiver}")
        self.receiver = receiver
        self.content = content
        self.protocol = protocol
        self.on_notification = on_notification
        self.conversation_id = f"sub-{next(self._conversation_ids)}"
        self.cancelled = False
        self.notifications = 0

    def on_start(self) -> None:
        self.agent.send(ACLMessage(
            Performative.SUBSCRIBE,
            receivers=[self.receiver],
            content=self.content,
            conversation_id=self.conversation_id,
            protocol=self.protocol,
        ))

    def cancel(self) -> None:
        if not self.cancelled:
            self.cancelled = True
            self.agent.send(ACLMessage(
                Performative.CANCEL,
                receivers=[self.receiver],
                conversation_id=self.conversation_id,
                protocol=self.protocol,
            ))

    def action(self) -> None:
        message = self.agent.receive(conversation_id=self.conversation_id,
                                     performative=Performative.INFORM)
        if message is None:
            self.block()
            return
        self.notifications += 1
        self.on_notification(message)

    def done(self) -> bool:
        return self.cancelled


class SubscriptionResponder(Behaviour):
    """FIPA-subscribe responder: tracks subscribers, pushes notifications.

    Call :meth:`notify` to INFORM every live subscriber.  CANCEL removes a
    subscriber.  An optional ``on_subscribe`` filter may reject
    subscriptions (REFUSE).
    """

    def __init__(self, protocol: str,
                 on_subscribe: Optional[Callable[[ACLMessage], bool]] = None,
                 name: str = ""):
        super().__init__(name or f"subscriptions-{protocol}")
        self.protocol = protocol
        self.on_subscribe = on_subscribe
        #: conversation_id -> subscriber aid
        self.subscribers: dict = {}

    def action(self) -> None:
        message = self.agent.receive(protocol=self.protocol,
                                     performative=Performative.SUBSCRIBE)
        if message is None:
            message = self.agent.receive(protocol=self.protocol,
                                         performative=Performative.CANCEL)
            if message is None:
                self.block()
                return
            self.subscribers.pop(message.conversation_id, None)
            return
        if self.on_subscribe is not None and not self.on_subscribe(message):
            self.agent.send(message.create_reply(Performative.REFUSE))
            return
        self.subscribers[message.conversation_id] = message.sender
        self.agent.send(message.create_reply(Performative.AGREE))

    def notify(self, content: Any) -> int:
        """Push one notification to every subscriber; returns the count."""
        for conversation_id, subscriber in list(self.subscribers.items()):
            self.agent.send(ACLMessage(
                Performative.INFORM,
                receivers=[subscriber],
                content=content,
                conversation_id=conversation_id,
                protocol=self.protocol,
            ))
        return len(self.subscribers)

    def done(self) -> bool:
        return False


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

    _conversation_ids = itertools.count(1)

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
        self.conversation_id = f"cnp-{next(self._conversation_ids)}"
        #: contractor aid -> proposal content
        self.proposals: dict = {}
        self.refusals: list = []
        self._awarded = False
        self._deadline_timer = None

    def on_start(self) -> None:
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
        self.bids_made = 0
        self.awards_won = 0

    def action(self) -> None:
        message = self.agent.receive(protocol=self.protocol,
                                     performative=Performative.REQUEST)
        if message is not None and isinstance(message.content, dict) \
                and "cfp" in message.content:
            proposal = self.bid(message.content["cfp"])
            if proposal is None:
                self.agent.send(message.create_reply(Performative.REFUSE))
            else:
                self.bids_made += 1
                self.agent.send(message.create_reply(Performative.PROPOSE,
                                                     proposal))
            return
        message = self.agent.receive(protocol=self.protocol,
                                     performative=Performative.INFORM)
        if message is not None and isinstance(message.content, dict) \
                and "award" in message.content:
            self.awards_won += 1
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

    _conversation_ids = itertools.count(1)

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
        self.conversation_id = f"prop-{next(self._conversation_ids)}"
        self.state = "start"
        self.timed_out = False
        self._deadline_timer = None

    def on_start(self) -> None:
        proposal = ACLMessage(
            Performative.PROPOSE,
            receivers=[self.receiver],
            content=self.content,
            conversation_id=self.conversation_id,
            protocol=self.protocol,
        ).with_reply_id()
        self.agent.send(proposal)
        self.state = "waiting"
        if self.timeout_ms is not None:
            self._deadline_timer = self.agent.loop.call_later(
                self.timeout_ms, self._timeout)

    def _timeout(self) -> None:
        if self.state != "done":
            self.timed_out = True
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
        self.served = 0
        self.accepted = 0
        self.rejected = 0

    def action(self) -> None:
        message = self.agent.receive(performative=Performative.PROPOSE,
                                     protocol=self.protocol)
        if message is None:
            self.block()
            return
        self.served += 1
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


class RequestResponder(Behaviour):
    """Serves FIPA requests for one protocol, forever.

    The handler returns a :class:`ResponderDecision`; AGREE/REFUSE is sent
    immediately, and the closing INFORM/FAILURE either right away or when a
    deferred decision completes.
    """

    def __init__(self, protocol: str, handler: RequestHandler,
                 name: str = ""):
        super().__init__(name or f"responder-{protocol}")
        self.protocol = protocol
        self.handler = handler
        self.served = 0

    def action(self) -> None:
        message = self.agent.receive(performative=Performative.REQUEST,
                                     protocol=self.protocol)
        if message is None:
            self.block()
            return
        self.served += 1
        decision = self.handler(message)
        if not decision.agree:
            _send_reply(self.agent, message.create_reply(
                Performative.REFUSE, decision.payload))
            return
        _send_reply(self.agent, message.create_reply(Performative.AGREE))
        if decision.deferred:
            agent = self.agent

            def finish(d: ResponderDecision) -> None:
                performative = (Performative.FAILURE if d.failed
                                else Performative.INFORM)
                _send_reply(agent, message.create_reply(performative,
                                                        d.payload))

            decision._complete_callback = finish
        else:
            performative = (Performative.FAILURE if decision.failed
                            else Performative.INFORM)
            _send_reply(self.agent, message.create_reply(performative,
                                                         decision.payload))

    def done(self) -> bool:
        return False
