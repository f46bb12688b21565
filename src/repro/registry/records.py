"""Registry records: WSDL-like interface descriptions, application and
resource registrations.

Records are plain-data serializable (``to_dict`` / ``from_dict``) so they can
travel over the simulated network between registry replicas and clients.
:class:`Operation` and :class:`InterfaceDescription` are immutable values
with tuple fields, so a registry center can keep one instance of each and
share it between every record that repeats it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple


class RecordError(ValueError):
    """Raised on malformed records."""


@dataclass(frozen=True)
class Operation:
    """One operation in a WSDL-like interface description."""

    name: str
    inputs: Tuple[str, ...] = ()
    outputs: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if type(self.inputs) is not tuple:
            object.__setattr__(self, "inputs", tuple(self.inputs))
        if type(self.outputs) is not tuple:
            object.__setattr__(self, "outputs", tuple(self.outputs))

    def to_dict(self) -> Dict[str, Any]:
        return {"name": self.name, "inputs": list(self.inputs),
                "outputs": list(self.outputs)}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Operation":
        return cls(data["name"], tuple(data.get("inputs", ())),
                   tuple(data.get("outputs", ())))


@dataclass(frozen=True)
class InterfaceDescription:
    """A WSDL-like service interface: operations plus a binding address."""

    service_name: str
    operations: Tuple[Operation, ...] = ()
    binding: str = ""  # e.g. "acl://coordinator@host1"
    description: str = ""

    def __post_init__(self) -> None:
        if not self.service_name:
            raise RecordError("service name must be non-empty")
        if type(self.operations) is not tuple:
            object.__setattr__(self, "operations", tuple(self.operations))

    def operation(self, name: str) -> Optional[Operation]:
        for op in self.operations:
            if op.name == name:
                return op
        return None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "service_name": self.service_name,
            "operations": [op.to_dict() for op in self.operations],
            "binding": self.binding,
            "description": self.description,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "InterfaceDescription":
        return cls(
            data["service_name"],
            tuple([Operation.from_dict(op)
                   for op in data.get("operations", ())]),
            data.get("binding", ""),
            data.get("description", ""),
        )


@dataclass
class ApplicationRecord:
    """A registered application (or application component set) on a host."""

    app_name: str
    host: str
    #: Component kinds present at this host, e.g. ("interface", "logic").
    components: Tuple[str, ...] = ()
    interface: Optional[InterfaceDescription] = None
    device_requirements: Mapping[str, Any] = field(default_factory=dict)
    user_preferences: Mapping[str, Any] = field(default_factory=dict)
    version: int = 1

    def __post_init__(self) -> None:
        if not self.app_name or not self.host:
            raise RecordError("application record needs app_name and host")
        self.components = tuple(self.components)

    def has_component(self, kind: str) -> bool:
        return kind in self.components

    def to_dict(self) -> Dict[str, Any]:
        return {
            "app_name": self.app_name,
            "host": self.host,
            "components": list(self.components),
            "interface": self.interface.to_dict() if self.interface else None,
            "device_requirements": dict(self.device_requirements),
            "user_preferences": dict(self.user_preferences),
            "version": self.version,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ApplicationRecord":
        interface = data.get("interface")
        return cls(
            data["app_name"],
            data["host"],
            tuple(data.get("components", ())),
            InterfaceDescription.from_dict(interface) if interface else None,
            dict(data.get("device_requirements", {})),
            dict(data.get("user_preferences", {})),
            data.get("version", 1),
        )


@dataclass
class ResourceRecord:
    """A registered resource individual on a host.

    ``classes`` are ontology QNames (e.g. ``imcl:hpLaserJet``); the registry
    asserts ``rdf:type`` triples for them so semantic matching sees the
    resource.  ``properties`` become datatype property triples.
    """

    resource_id: str
    host: str
    classes: List[str] = field(default_factory=list)
    properties: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.resource_id or not self.host:
            raise RecordError("resource record needs resource_id and host")
        if not self.classes:
            raise RecordError(
                f"resource {self.resource_id!r} needs at least one class")

    def to_dict(self) -> Dict[str, Any]:
        return {
            "resource_id": self.resource_id,
            "host": self.host,
            "classes": list(self.classes),
            "properties": dict(self.properties),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ResourceRecord":
        return cls(data["resource_id"], data["host"],
                   list(data.get("classes", ())),
                   dict(data.get("properties", {})))
