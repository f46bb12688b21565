"""Application & resource registry center (the jUDDI + MySQL replacement).

"Applications first register themselves to the application and resource
registry centers with their interface descriptions and other parameters
such as specific device requirements, user preferences, etc, in a WSDL-like
format." (paper §4.2.2.)

- :mod:`repro.registry.records` -- WSDL-like interface descriptions and the
  application / resource records stored in the registry.
- :mod:`repro.registry.registry` -- the :class:`RegistryCenter` itself plus
  a network-backed :class:`RegistryServer` / :class:`RegistryClient` pair so
  remote lookups pay real (simulated) round trips.
- :mod:`repro.registry.federation` -- the federated architecture: per-space
  :class:`RegistryShard` s, aggregating :class:`FederationNode` s that fan
  cross-space lookups out over the network, and coherence-token TTL caches.
"""

from repro.registry.federation import (
    FederatedRegistryClient,
    FederationNode,
    RegistryFederation,
    RegistryShard,
)
from repro.registry.records import (
    ApplicationRecord,
    InterfaceDescription,
    Operation,
    RecordError,
    ResourceRecord,
)
from repro.registry.registry import (
    READ_OPERATIONS,
    WRITE_OPERATIONS,
    CachingRegistryClient,
    RegistryCenter,
    RegistryClient,
    RegistryError,
    RegistryServer,
    install_registry,
)

__all__ = [
    "ApplicationRecord",
    "CachingRegistryClient",
    "FederatedRegistryClient",
    "FederationNode",
    "InterfaceDescription",
    "Operation",
    "READ_OPERATIONS",
    "RecordError",
    "RegistryCenter",
    "RegistryClient",
    "RegistryError",
    "RegistryFederation",
    "RegistryServer",
    "RegistryShard",
    "ResourceRecord",
    "WRITE_OPERATIONS",
    "install_registry",
]
