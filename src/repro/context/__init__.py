"""Context substrate: the Sensor and Context layers of Fig. 2.

The pipeline mirrors the paper's prototype:

1. :mod:`repro.context.sensors` -- simulated Cricket beacons/listeners and
   network probes produce *raw* readings ("distance, badge (listener)
   identity, etc.").
2. :mod:`repro.context.fusion` -- context fusion maps raw data to useful
   information (room-level location, user identity) with confidence scores.
3. :mod:`repro.context.prediction` -- Markov next-location prediction.

Everything communicates over the publish/subscribe :class:`ContextBus`
("context kernel employs a publish/subscribe design pattern ... the
information will be multicast to the registered listeners").  The paper's
context monitor ("if some predefined conditions occur, the autonomous
agents will be triggered") is a subscription: each host's middleware
bridges the fused location and command topics to its autonomous agent,
which acts on the event itself.  No decision reads stored context, so the
temporal classifier and its databases are not modelled.
"""

from repro.context.bus import ContextBus
from repro.context.fusion import IdentityRegistry, LocationFusion
from repro.context.model import ContextEvent
from repro.context.prediction import MarkovPredictor
from repro.context.sensors import (
    CricketBeacon,
    CricketListener,
    CricketSensorNetwork,
    NetworkSensor,
    PhysicalWorld,
)

__all__ = [
    "ContextBus",
    "ContextEvent",
    "CricketBeacon",
    "CricketListener",
    "CricketSensorNetwork",
    "IdentityRegistry",
    "LocationFusion",
    "MarkovPredictor",
    "NetworkSensor",
    "PhysicalWorld",
]
