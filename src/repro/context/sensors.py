"""Simulated sensor layer: Cricket location sensors and network probes.

"Dozens of Cricket Sensors are deployed to collect user's location and
identity data" (paper §5).  A Cricket deployment has ceiling *beacons* at
known positions and user-carried *listeners* (badges).  The substrate keeps
a :class:`PhysicalWorld` of true user positions; each sampling tick, every
beacon within range of a badge emits a raw ``(beacon, badge, distance)``
reading with Gaussian noise -- exactly the kind of "frequently inaccurate"
raw data the paper says cannot be used directly by upper layers.

:class:`NetworkSensor` probes link response times ("network connectivity,
latency, etc."), feeding the Rule 3 `responseTime` threshold.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.context.bus import ContextBus
from repro.context.model import (
    ContextEvent,
    TOPIC_RAW_CRICKET,
    TOPIC_RAW_NETWORK,
)
from repro.net.kernel import EventLoop
from repro.net.simnet import Network


@dataclass
class Position:
    """A point inside a named smart space (meters)."""

    space: str
    x: float
    y: float

    def distance_to(self, other: "Position") -> Optional[float]:
        """Euclidean distance, or None across space boundaries (ultrasound
        does not cross walls)."""
        if self.space != other.space:
            return None
        return math.hypot(self.x - other.x, self.y - other.y)


@dataclass
class UserBadge:
    """A Cricket listener carried by a user."""

    badge_id: str
    user_id: str
    position: Position


class PhysicalWorld:
    """Ground truth the sensors observe: users and their true positions."""

    def __init__(self) -> None:
        self._badges: Dict[str, UserBadge] = {}

    def add_user(self, user_id: str, badge_id: str, space: str,
                 x: float = 0.0, y: float = 0.0) -> UserBadge:
        if badge_id in self._badges:
            raise ValueError(f"duplicate badge {badge_id!r}")
        badge = UserBadge(badge_id, user_id, Position(space, x, y))
        self._badges[badge_id] = badge
        return badge

    def move_user(self, badge_id: str, space: str, x: float = 0.0,
                  y: float = 0.0) -> None:
        """Teleport a badge (scenario scripts drive this between ticks)."""
        self.badge(badge_id).position = Position(space, x, y)

    def badge(self, badge_id: str) -> UserBadge:
        try:
            return self._badges[badge_id]
        except KeyError:
            raise KeyError(f"unknown badge {badge_id!r}") from None

    @property
    def badges(self) -> List[UserBadge]:
        return list(self._badges.values())


@dataclass
class CricketBeacon:
    """A ceiling-mounted ultrasound beacon at a fixed position."""

    beacon_id: str
    position: Position
    range_m: float = 10.0


class CricketListener:
    """The receiving side: pairs a badge with the beacons that can hear it."""

    def __init__(self, badge: UserBadge):
        self.badge = badge

    def readings(self, beacons: List[CricketBeacon], rng: random.Random,
                 noise_sigma_m: float) -> List[Tuple[str, float]]:
        """Noisy (beacon_id, distance) pairs for in-range beacons."""
        result = []
        for beacon in beacons:
            distance = beacon.position.distance_to(self.badge.position)
            if distance is None or distance > beacon.range_m:
                continue
            noisy = max(0.0, distance + rng.gauss(0.0, noise_sigma_m))
            result.append((beacon.beacon_id, noisy))
        return result


class CricketSensorNetwork:
    """Drives periodic sampling of all badges and publishes raw readings.

    Each tick, each (badge, in-range beacon) pair yields one raw event on
    ``raw.cricket`` with attributes ``beacon``, ``distance_m`` and
    ``beacon_space``.
    """

    def __init__(self, loop: EventLoop, bus: ContextBus, world: PhysicalWorld,
                 sample_period_ms: float = 200.0, noise_sigma_m: float = 0.3,
                 seed: int = 0):
        if sample_period_ms <= 0:
            raise ValueError("sample period must be positive")
        self.loop = loop
        self.bus = bus
        self.world = world
        self.sample_period_ms = float(sample_period_ms)
        self.noise_sigma_m = float(noise_sigma_m)
        self.rng = random.Random(seed)
        self.beacons: List[CricketBeacon] = []
        self._beacon_space: Dict[str, str] = {}
        self._running = False
        self.samples_published = 0

    def add_beacon(self, beacon_id: str, space: str, x: float, y: float,
                   range_m: float = 10.0) -> CricketBeacon:
        if beacon_id in self._beacon_space:
            raise ValueError(f"duplicate beacon {beacon_id!r}")
        beacon = CricketBeacon(beacon_id, Position(space, x, y), range_m)
        self.beacons.append(beacon)
        self._beacon_space[beacon_id] = space
        return beacon

    def start(self) -> None:
        if self._running:
            return
        self._running = True
        self.loop.call_later(self.sample_period_ms, self._tick)

    def stop(self) -> None:
        self._running = False

    def _tick(self) -> None:
        if not self._running:
            return
        for badge in self.world.badges:
            listener = CricketListener(badge)
            for beacon_id, distance in listener.readings(
                    self.beacons, self.rng, self.noise_sigma_m):
                event = ContextEvent(
                    topic=TOPIC_RAW_CRICKET,
                    subject=badge.badge_id,
                    attributes={
                        "beacon": beacon_id,
                        "distance_m": distance,
                        "beacon_space": self._beacon_space[beacon_id],
                    },
                    timestamp=self.loop.now,
                    source="cricket",
                )
                self.bus.publish(event)
                self.samples_published += 1
        self.loop.call_later(self.sample_period_ms, self._tick)


class NetworkSensor:
    """Probes response time between a home host and peers.

    Publishes ``raw.network`` events with ``peer`` and ``response_time_ms``
    -- the quantity the paper's Rule 3 thresholds at 1000 ms.  Response time
    is measured with a real zero-byte probe message over the simulated
    network, so congestion shows up in the readings.
    """

    PROTOCOL = "sensor.ping"

    def __init__(self, loop: EventLoop, bus: ContextBus, network: Network,
                 home: str, peers: List[str], probe_period_ms: float = 1000.0):
        self.loop = loop
        self.bus = bus
        self.network = network
        self.home = home
        self.peers = list(peers)
        self.probe_period_ms = float(probe_period_ms)
        self._running = False
        self._install_echo_handlers()

    def _install_echo_handlers(self) -> None:
        for name in [self.home, *self.peers]:
            host = self.network.host(name)
            if not host.handles(self.PROTOCOL):
                host.register_handler(self.PROTOCOL, self._on_ping)

    def _on_ping(self, message) -> None:
        kind, origin, sent_at = message.payload
        if kind == "ping":
            self.network.send(message.destination, origin, self.PROTOCOL,
                              ("pong", origin, sent_at), 0)
        else:
            rtt = self.loop.now - sent_at
            self.bus.publish(ContextEvent(
                topic=TOPIC_RAW_NETWORK,
                subject=self.home,
                attributes={"peer": message.source, "response_time_ms": rtt},
                timestamp=self.loop.now,
                source="netprobe",
            ))

    def start(self) -> None:
        if self._running:
            return
        self._running = True
        self.loop.call_soon(self._probe)

    def stop(self) -> None:
        self._running = False

    def _probe(self) -> None:
        if not self._running:
            return
        for peer in self.peers:
            self.network.send(self.home, peer, self.PROTOCOL,
                              ("ping", self.home, self.loop.now), 0)
        self.loop.call_later(self.probe_period_ms, self._probe)
