"""City topology synthesis: thousands of smart spaces in a gateway tree.

The paper's evaluation wires a handful of rooms by hand; the roadmap's
"heavy traffic from millions of users" arc needs the same middleware under
a *city*: homes on thin access links, transit hubs forming the backbone,
offices on metro fiber and meeting rooms hanging off office campuses.
:func:`synthesize` derives that hierarchy deterministically from a target
space count, and :func:`build_deployment` materializes it as a
:class:`~repro.core.middleware.Deployment` with per-tier
:class:`~repro.net.topology.LinkSpec` profiles.

Everything is a pure function of ``(spaces, seed)``: no global RNG, no
ambient state, so two syntheses with the same inputs are byte-identical
-- the property every digest in :mod:`repro.city.population` rests on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.net.topology import LinkSpec

#: Space kinds, in synthesis order (hubs first: the registry center and
#: the backbone live there, and hub names must exist before anything can
#: attach to them).
SPACE_KINDS = ("transit", "office", "meeting", "home")

#: Inter-space link profiles per edge tier.  Numbers follow the shape of
#: real metro deployments rather than any one ISP: fat short backbone,
#: decent office fiber, thin last-mile home access.
TIER_LINKS: Dict[str, LinkSpec] = {
    "backbone": LinkSpec(bandwidth_mbps=1000.0, latency_ms=3.0),
    "metro": LinkSpec(bandwidth_mbps=200.0, latency_ms=4.0),
    "campus": LinkSpec(bandwidth_mbps=100.0, latency_ms=2.0),
    "access": LinkSpec(bandwidth_mbps=30.0, latency_ms=12.0),
}

#: Intra-space LAN profile per space kind (the full mesh Topology wires).
LAN_BY_KIND: Dict[str, LinkSpec] = {
    "transit": LinkSpec(bandwidth_mbps=50.0, latency_ms=2.0),
    "office": LinkSpec(bandwidth_mbps=100.0, latency_ms=1.0),
    "meeting": LinkSpec(bandwidth_mbps=54.0, latency_ms=1.0),
    "home": LinkSpec(bandwidth_mbps=25.0, latency_ms=2.0),
}

#: Middleware hosts per space kind.  Offices are dense (hot desks),
#: transit hubs keep a pair of kiosks, homes and meeting rooms one box.
HOSTS_BY_KIND: Dict[str, int] = {
    "transit": 2, "office": 3, "meeting": 1, "home": 1,
}

#: Gateway store-and-forward delay per space kind (hubs switch fast).
GATEWAY_DELAY_MS: Dict[str, float] = {
    "transit": 1.0, "office": 3.0, "meeting": 3.0, "home": 5.0,
}


@dataclass(frozen=True)
class SpaceSpec:
    """One synthesized smart space and its place in the hierarchy."""

    name: str
    kind: str  # one of SPACE_KINDS
    #: Middleware host names inside the space (gateway excluded).
    hosts: Tuple[str, ...]
    gateway: str
    #: The transit hub this space uplinks through (hubs name themselves;
    #: meeting rooms name their parent office's hub).
    hub: str
    #: Meeting rooms only: the office space they hang off.
    parent: str = ""


@dataclass
class CityTopology:
    """The synthesized city: spaces plus the tiered edge list.

    ``edges`` entries are ``(space_a, space_b, tier)`` with ``tier`` a
    :data:`TIER_LINKS` key; order is deterministic and load-bearing for
    trace digests.
    """

    seed: int
    spaces: List[SpaceSpec] = field(default_factory=list)
    edges: List[Tuple[str, str, str]] = field(default_factory=list)

    def __post_init__(self) -> None:
        self._by_name = {s.name: s for s in self.spaces}

    def space(self, name: str) -> SpaceSpec:
        return self._by_name[name]

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def of_kind(self, kind: str) -> List[SpaceSpec]:
        return [s for s in self.spaces if s.kind == kind]

    @property
    def hubs(self) -> List[SpaceSpec]:
        return self.of_kind("transit")

    @property
    def offices(self) -> List[SpaceSpec]:
        return self.of_kind("office")

    @property
    def meetings(self) -> List[SpaceSpec]:
        return self.of_kind("meeting")

    @property
    def homes(self) -> List[SpaceSpec]:
        return self.of_kind("home")

    @property
    def host_count(self) -> int:
        return sum(len(s.hosts) for s in self.spaces)

    def describe(self) -> str:
        return (f"{len(self.spaces)} spaces "
                f"({len(self.hubs)} hubs, {len(self.offices)} offices, "
                f"{len(self.meetings)} meeting rooms, "
                f"{len(self.homes)} homes), {self.host_count} hosts, "
                f"{len(self.edges)} inter-space links")


def composition(spaces: int) -> Dict[str, int]:
    """Split a total space count into per-kind counts.

    Roughly one transit hub per 25 spaces, one office per 5, one meeting
    room per 16; the rest are homes.  Floors keep tiny cities viable
    (>= 2 hubs so the backbone is a real ring, >= 1 of everything else).
    """
    if spaces < 8:
        raise ValueError(f"city needs >= 8 spaces: {spaces}")
    hubs = max(2, spaces // 25)
    offices = max(2, spaces // 5)
    meetings = max(1, spaces // 16)
    homes = spaces - hubs - offices - meetings
    if homes < 1:
        raise ValueError(f"no room left for homes at {spaces} spaces")
    return {"transit": hubs, "office": offices, "meeting": meetings,
            "home": homes}


def synthesize(spaces: int, seed: int = 0) -> CityTopology:
    """Derive the full city hierarchy from ``(spaces, seed)``.

    Structure: transit hubs form a backbone ring (plus a star to hub 0
    when the ring grows past 4, bounding any route to a few hops);
    offices uplink to hubs round-robin over metro fiber; meeting rooms
    hang off offices round-robin over campus links; homes uplink to hubs
    round-robin over access links.
    """
    counts = composition(spaces)
    specs: List[SpaceSpec] = []
    edges: List[Tuple[str, str, str]] = []

    def make(kind: str, name: str, hub: str, parent: str = "") -> SpaceSpec:
        hosts = tuple(f"{name}-h{j}" for j in range(HOSTS_BY_KIND[kind]))
        spec = SpaceSpec(name=name, kind=kind, hosts=hosts,
                         gateway=f"gw-{name}", hub=hub, parent=parent)
        specs.append(spec)
        return spec

    hub_names = [f"hub-{i:02d}" for i in range(counts["transit"])]
    for name in hub_names:
        make("transit", name, hub=name)
    n_hubs = len(hub_names)
    for i in range(n_hubs - 1):
        edges.append((hub_names[i], hub_names[i + 1], "backbone"))
    if n_hubs > 2:
        edges.append((hub_names[-1], hub_names[0], "backbone"))
    if n_hubs > 4:
        # Star chords to hub 0: any hub pair is <= 2 backbone hops.
        for i in range(2, n_hubs - 1):
            edges.append((hub_names[0], hub_names[i], "backbone"))

    office_specs = []
    for i in range(counts["office"]):
        hub = hub_names[i % n_hubs]
        spec = make("office", f"office-{i:03d}", hub=hub)
        office_specs.append(spec)
        edges.append((spec.name, hub, "metro"))

    for i in range(counts["meeting"]):
        parent = office_specs[i % len(office_specs)]
        spec = make("meeting", f"meeting-{i:03d}", hub=parent.hub,
                    parent=parent.name)
        edges.append((spec.name, parent.name, "campus"))

    for i in range(counts["home"]):
        hub = hub_names[i % n_hubs]
        spec = make("home", f"home-{i:04d}", hub=hub)
        edges.append((spec.name, hub, "access"))

    return CityTopology(seed=seed, spaces=specs, edges=edges)


def build_deployment(city: CityTopology, observability=None,
                     config=None, admission_limit: Optional[int] = None,
                     federated: bool = False):
    """Materialize a synthesized city as a live Deployment.

    The registry center gets a dedicated host in hub 0's space (installed
    before any middleware host, so no kiosk doubles as the fleet's
    directory), every space gets its gateway, and each edge gets its
    tier's link profile.  Returns the deployment; the caller launches
    applications and drives traffic.

    With ``federated`` the flat center becomes a federation placed along
    the city's hierarchy: transit/office/meeting shards live on their own
    gateways, home shards aggregate on their hub's gateway (keeping the
    slow access link off the shard path), and each hub gateway is the
    aggregator for the spaces it serves.
    """
    from repro.core.middleware import Deployment

    d = Deployment(seed=city.seed, observability=observability,
                   config=config)
    if federated:
        d.enable_federated_registry(auto_shards=False)
    first = city.spaces[0]
    d.add_space(first.name, lan=LAN_BY_KIND[first.kind])
    d.install_registry(first.name, host_name="registry")
    for spec in city.spaces:
        if spec.name != first.name:
            d.add_space(spec.name, lan=LAN_BY_KIND[spec.kind])
        for host in spec.hosts:
            d.add_host(host, spec.name)
        d.add_gateway(spec.gateway, spec.name,
                      processing_delay_ms=GATEWAY_DELAY_MS[spec.kind])
        if federated:
            fed = d.federation
            if spec.kind == "transit":
                # Hub gateways aggregate: they fan global lookups out and
                # host their homes' shards (transit spaces come first in
                # city.spaces, so every hub gateway exists by the time a
                # home needs it).
                fed.install_aggregator(spec.gateway)
                fed.install_shard(spec.name, spec.gateway)
            elif spec.kind == "home":
                fed.install_shard(spec.name, f"gw-{spec.hub}")
            else:
                fed.install_shard(spec.name, spec.gateway)
            fed.assign_aggregator(spec.name, f"gw-{spec.hub}")
    for space_a, space_b, tier in city.edges:
        d.connect_spaces(space_a, space_b, TIER_LINKS[tier])
    if admission_limit is not None:
        d.enable_migration_scheduler(limit=admission_limit)
    return d
