"""FIPA-ACL style agent messages.

Agents "communicate through message passing" (paper §4.1); we model the
FIPA-ACL envelope JADE uses: a performative, sender/receiver agent ids
(``name@host``), free-form content, and the conversation bookkeeping fields
(``conversation_id``, ``reply_with``, ``in_reply_to``) the interaction
diagram (Fig. 4) relies on.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from typing import Any, List, Optional, Tuple


class Performative(enum.Enum):
    """The FIPA performatives the middleware uses."""

    INFORM = "inform"
    REQUEST = "request"
    AGREE = "agree"
    REFUSE = "refuse"
    CONFIRM = "confirm"
    FAILURE = "failure"
    PROPOSE = "propose"
    ACCEPT_PROPOSAL = "accept-proposal"
    REJECT_PROPOSAL = "reject-proposal"


def split_aid(aid: str) -> Tuple[str, str]:
    """Split ``name@host`` into its parts."""
    name, sep, host = aid.partition("@")
    if not sep or not name or not host:
        raise ValueError(f"malformed agent id {aid!r} (want name@host)")
    return name, host


@dataclass
class ACLMessage:
    """One agent-to-agent message."""

    performative: Performative
    sender: str = ""
    receivers: List[str] = field(default_factory=list)
    content: Any = None
    conversation_id: str = ""
    reply_with: str = ""
    in_reply_to: str = ""
    protocol: str = ""
    ontology: str = ""
    #: Explicit payload size for transfer-cost accounting; when zero the
    #: transport estimates from the content.
    size_bytes: int = 0
    sent_at: float = 0.0

    def __post_init__(self) -> None:
        if isinstance(self.performative, str):
            self.performative = Performative(self.performative)

    def add_receiver(self, aid: str) -> "ACLMessage":
        split_aid(aid)  # validate
        self.receivers.append(aid)
        return self

    def create_reply(self, performative: Performative,
                     content: Any = None) -> "ACLMessage":
        """A reply addressed back to the sender with conversation fields
        threaded through."""
        if not self.sender:
            raise ValueError("cannot reply to a message without a sender")
        return ACLMessage(
            performative=performative,
            receivers=[self.sender],
            content=content,
            conversation_id=self.conversation_id,
            in_reply_to=self.reply_with,
            protocol=self.protocol,
            ontology=self.ontology,
        )

    def matches(self, performative: Optional[Performative] = None,
                sender: Optional[str] = None,
                conversation_id: Optional[str] = None,
                in_reply_to: Optional[str] = None,
                protocol: Optional[str] = None) -> bool:
        """Template matching for selective receive (JADE MessageTemplate)."""
        if performative is not None and self.performative is not performative:
            return False
        if sender is not None and self.sender != sender:
            return False
        if conversation_id is not None and self.conversation_id != conversation_id:
            return False
        if in_reply_to is not None and self.in_reply_to != in_reply_to:
            return False
        if protocol is not None and self.protocol != protocol:
            return False
        return True

    def copy(self) -> "ACLMessage":
        return replace(self, receivers=list(self.receivers))

    def __str__(self) -> str:
        return (f"<ACL {self.performative.value} {self.sender} -> "
                f"{','.join(self.receivers)} conv={self.conversation_id!r}>")
