"""Context fusion: raw sensor data -> useful information.

"Usually, the underlying sensors can only collect raw data such as distance,
badge (listener) identity, etc.  To map these data to useful information such
as location, user identity, etc. requires context fusion mechanisms."
(paper §3.4.)

:class:`LocationFusion` windows raw Cricket readings per badge, votes on the
nearest beacon's space (weighted by inverse distance) and publishes a fused
``context.location`` event carrying the user's identity (resolved through
the :class:`IdentityRegistry`) and a confidence equal to the winning space's
weight share.  A fused event is only emitted when the location *changes* or
on the first fix, so downstream consumers see transitions, not samples.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.context.bus import ContextBus
from repro.context.model import (
    ContextEvent,
    TOPIC_LOCATION,
    TOPIC_RAW_CRICKET,
)


class IdentityRegistry:
    """badge id -> user id mapping (the "identity data" fusion input)."""

    def __init__(self) -> None:
        self._users: Dict[str, str] = {}

    def register(self, badge_id: str, user_id: str) -> None:
        self._users[badge_id] = user_id

    def user_for(self, badge_id: str) -> Optional[str]:
        return self._users.get(badge_id)


@dataclass
class _Window:
    readings: List[Tuple[float, str, float]] = field(default_factory=list)
    last_location: Optional[str] = None


class LocationFusion:
    """Nearest-beacon fusion with inverse-distance voting.

    Subscribes to ``raw.cricket``; after each ``window_size`` readings for a
    badge, the space whose beacons accumulated the largest inverse-distance
    weight wins.  Emits ``context.location`` events with attributes
    ``location`` (space name), ``previous`` and ``badge``.
    """

    def __init__(self, bus: ContextBus, identities: IdentityRegistry,
                 window_size: int = 3, min_confidence: float = 0.5):
        if window_size < 1:
            raise ValueError("window size must be >= 1")
        self.bus = bus
        self.identities = identities
        self.window_size = window_size
        self.min_confidence = min_confidence
        self._windows: Dict[str, _Window] = {}
        bus.subscribe(TOPIC_RAW_CRICKET, self._on_raw)

    def _on_raw(self, event: ContextEvent) -> None:
        window = self._windows.setdefault(event.subject, _Window())
        window.readings.append((
            event.get("distance_m"),
            event.get("beacon_space"),
            event.timestamp,
        ))
        if len(window.readings) >= self.window_size:
            self._fuse(event.subject, window, event.timestamp)
            window.readings.clear()

    def _fuse(self, badge_id: str, window: _Window, now: float) -> None:
        weights: Dict[str, float] = {}
        for distance, space, _ in window.readings:
            weight = 1.0 / (0.1 + max(0.0, distance))
            weights[space] = weights.get(space, 0.0) + weight
        total = sum(weights.values())
        if total <= 0:
            return
        space, weight = max(weights.items(), key=lambda kv: (kv[1], kv[0]))
        confidence = weight / total
        if confidence < self.min_confidence:
            return
        if space == window.last_location:
            return
        previous = window.last_location
        window.last_location = space
        user = self.identities.user_for(badge_id) or badge_id
        self.bus.publish(ContextEvent(
            topic=TOPIC_LOCATION,
            subject=user,
            attributes={"location": space, "previous": previous,
                        "badge": badge_id},
            timestamp=now,
            source="fusion.location",
            confidence=confidence,
        ))

    def current_location(self, badge_id: str) -> Optional[str]:
        window = self._windows.get(badge_id)
        return window.last_location if window else None
