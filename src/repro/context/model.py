"""Context event model.

Context is "any information that can be used to characterize the situation
of an entity relevant to the interaction between a user and an application"
(Dey & Abowd, quoted in the paper §3.4).  Events carry a topic, a subject
(whose context it is), free-form attributes, a timestamp and a confidence.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict

#: Well-known topics produced by the built-in pipeline.
TOPIC_RAW_CRICKET = "raw.cricket"
TOPIC_RAW_NETWORK = "raw.network"
TOPIC_LOCATION = "context.location"
TOPIC_NETWORK = "context.network"
TOPIC_USER_COMMAND = "context.command"
TOPIC_APP = "context.app"


@dataclass
class ContextEvent:
    """One piece of context information flowing through the bus."""

    topic: str
    subject: str
    attributes: Dict[str, Any] = field(default_factory=dict)
    timestamp: float = 0.0
    source: str = ""
    confidence: float = 1.0

    def __post_init__(self) -> None:
        if not self.topic:
            raise ValueError("event topic must be non-empty")
        if not self.subject:
            raise ValueError("event subject must be non-empty")
        if not 0.0 <= self.confidence <= 1.0:
            raise ValueError(f"confidence must be in [0, 1]: {self.confidence}")

    def get(self, key: str, default: Any = None) -> Any:
        return self.attributes.get(key, default)

    def __str__(self) -> str:
        return (f"[{self.timestamp:.1f}ms {self.topic} {self.subject} "
                f"{self.attributes} conf={self.confidence:.2f}]")
