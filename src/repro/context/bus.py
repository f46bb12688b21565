"""Publish/subscribe context kernel.

"Context kernel employs a publish/subscribe design pattern.  When the
subscribed events occur, the information will be multicast to the registered
listeners." (paper §5.)

Listeners subscribe to an exact topic with an optional predicate.  Delivery
is asynchronous through the event loop -- a publish never reenters
subscriber code synchronously, which keeps agent callback ordering sane --
but costs zero simulated time (intra-host bus).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.context.model import ContextEvent
from repro.net.kernel import EventLoop

Listener = Callable[[ContextEvent], None]
Predicate = Callable[[ContextEvent], bool]


class ContextBus:
    """Topic-based pub/sub multicast over the simulation event loop."""

    def __init__(self, loop: EventLoop):
        self.loop = loop
        self._listeners: Dict[str, List[Tuple[Listener,
                                              Optional[Predicate]]]] = {}
        self.published = 0

    def subscribe(self, topic: str, listener: Listener,
                  predicate: Optional[Predicate] = None) -> None:
        """Register a listener for ``topic``.

        ``predicate`` further filters events ("agents will filter and find
        their interested subjects").
        """
        if not topic:
            raise ValueError("topic must be non-empty")
        self._listeners.setdefault(topic, []).append((listener, predicate))

    def publish(self, event: ContextEvent) -> int:
        """Multicast ``event``; returns the number of listeners scheduled.

        The event timestamp is stamped with the current simulated time if
        unset (zero).  With a hub attached, the event is also recorded on
        its tracer (category ``context``): the deployment's timeline.
        """
        if event.timestamp == 0.0 and self.loop.now > 0.0:
            event.timestamp = self.loop.now
        self.published += 1
        obs = self.loop.observability
        if obs is not None:
            record = obs.tracer.event(event.topic, category="context",
                                      at=event.timestamp,
                                      subject=event.subject)
            if record is not None:
                record.attributes.update(event.attributes)
        count = 0
        for listener, predicate in self._listeners.get(event.topic, ()):
            if predicate is None or predicate(event):
                count += 1
                self.loop.call_soon(listener, event)
        return count
