"""Publish/subscribe context kernel.

"Context kernel employs a publish/subscribe design pattern.  When the
subscribed events occur, the information will be multicast to the registered
listeners." (paper §5.)

Listeners subscribe by topic (exact or prefix with ``*``) and an optional
predicate.  Delivery is asynchronous through the event loop -- a publish
never reenters subscriber code synchronously, which keeps agent callback
ordering sane -- but costs zero simulated time by default (intra-host bus).
"""

from __future__ import annotations

import itertools
from typing import Callable, Dict, List, Optional

from repro.context.model import ContextEvent
from repro.net.kernel import EventLoop

Listener = Callable[[ContextEvent], None]
Predicate = Callable[[ContextEvent], bool]


class Subscription:
    """Handle returned by subscribe(); call cancel() to stop receiving."""

    _ids = itertools.count(1)

    def __init__(self, bus: "ContextBus", topic: str, listener: Listener,
                 predicate: Optional[Predicate]):
        self.subscription_id = next(self._ids)
        self.topic = topic
        self.listener = listener
        self.predicate = predicate
        self._bus = bus
        self.active = True
        self.delivered = 0

    def cancel(self) -> None:
        if self.active:
            self.active = False
            self._bus._remove(self)

    def matches(self, event: ContextEvent) -> bool:
        if not self.active:
            return False
        if self.topic.endswith("*"):
            if not event.topic.startswith(self.topic[:-1]):
                return False
        elif event.topic != self.topic:
            return False
        if self.predicate is not None and not self.predicate(event):
            return False
        return True

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "active" if self.active else "cancelled"
        return f"<Subscription #{self.subscription_id} {self.topic} {state}>"


class ContextBus:
    """Topic-based pub/sub multicast over the simulation event loop."""

    def __init__(self, loop: EventLoop, delivery_delay_ms: float = 0.0):
        self.loop = loop
        self.delivery_delay_ms = float(delivery_delay_ms)
        self._subscriptions: List[Subscription] = []
        self._exact_index: Dict[str, List[Subscription]] = {}
        self.published = 0

    def subscribe(self, topic: str, listener: Listener,
                  predicate: Optional[Predicate] = None) -> Subscription:
        """Register a listener for ``topic``.

        ``topic`` may end with ``*`` for prefix matching (e.g. ``"raw.*"``).
        ``predicate`` further filters events ("agents will filter and find
        their interested subjects").
        """
        if not topic:
            raise ValueError("topic must be non-empty")
        subscription = Subscription(self, topic, listener, predicate)
        self._subscriptions.append(subscription)
        if not topic.endswith("*"):
            self._exact_index.setdefault(topic, []).append(subscription)
        return subscription

    def _remove(self, subscription: Subscription) -> None:
        try:
            self._subscriptions.remove(subscription)
        except ValueError:
            pass
        bucket = self._exact_index.get(subscription.topic)
        if bucket and subscription in bucket:
            bucket.remove(subscription)

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
        # Exact-topic fast path plus any wildcard subscriptions.
        candidates = list(self._exact_index.get(event.topic, ()))
        candidates.extend(s for s in self._subscriptions
                          if s.topic.endswith("*"))
        for subscription in candidates:
            if subscription.matches(event):
                count += 1
                self.loop.call_later(self.delivery_delay_ms,
                                     self._deliver, subscription, event)
        return count

    @staticmethod
    def _deliver(subscription: Subscription, event: ContextEvent) -> None:
        if subscription.active:
            subscription.delivered += 1
            subscription.listener(event)

    @property
    def subscription_count(self) -> int:
        return len(self._subscriptions)
