"""Size-accounted agent/component serialization.

Migration cost in the paper is driven by how many bytes the mobile agent
wraps ("It will decrease the performance when the applications' size grows
up").  We never need real wire bytes inside one Python process, but we do
need *honest sizes*: :func:`deep_size_bytes` walks plain-data state and
charges realistic per-value costs, and :class:`AgentSnapshot` carries a
class reference plus state dict -- the weak-mobility model JADE uses (code
is assumed present or shipped alongside; execution restarts from a method
boundary rather than an instruction pointer).

Agent classes that migrate must be registered with
:func:`register_agent_type` so the destination container can re-instantiate
them from the snapshot (the moral equivalent of having the class on the
destination's classpath).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Type

#: Byte-size model for primitive values (roughly Java serialization scale).
_OVERHEAD_PER_OBJECT = 16
_SIZE_BOOL = 1
_SIZE_NUMBER = 8


class SerializationError(RuntimeError):
    """Raised when state cannot be serialized or a type is unregistered."""


def deep_size_bytes(value: Any) -> int:
    """Estimate the serialized size of a plain-data value.

    Accepts None, bool, int, float, str, bytes and (nested) list / tuple /
    set / dict.  Anything else is rejected -- agent state must be plain data
    to migrate, exactly like Java's ``Serializable`` contract.

    The walk is iterative (an explicit stack), so deeply nested state is
    sized without recursion limits, and a container that reaches itself --
    directly or through any number of levels -- raises
    :class:`SerializationError` the way a real serializer would reject a
    cyclic object graph.
    """
    # Scalar fast path: no stack, no ancestor set.
    if value is None:
        return 1
    if isinstance(value, bool):
        return _SIZE_BOOL
    if isinstance(value, (int, float)):
        return _SIZE_NUMBER
    if isinstance(value, str):
        return _OVERHEAD_PER_OBJECT + len(value.encode("utf-8"))
    if isinstance(value, (bytes, bytearray)):
        return _OVERHEAD_PER_OBJECT + len(value)
    total = 0
    stack = [value]
    # Identity set of *container* ancestors on the current DFS path: a
    # container re-encountered while still open is a cycle.  A container
    # pushes its id and the ``_CLOSE`` marker below its children; popping
    # the marker closes it, so shared (diamond) references are still
    # legal and charged once per occurrence.
    open_ids: set = set()
    while stack:
        node = stack.pop()
        kind = type(node)
        # The commonest nodes first, by exact type; their subclasses fall
        # through to the isinstance checks below, which size them alike.
        if kind is str:
            total += _OVERHEAD_PER_OBJECT + (
                len(node) if node.isascii() else len(node.encode("utf-8")))
            continue
        if kind is int or kind is float:
            total += _SIZE_NUMBER
            continue
        if node is _CLOSE:
            open_ids.discard(stack.pop())
            continue
        if isinstance(node, dict):
            ident = id(node)
            if ident in open_ids:
                raise SerializationError(
                    "cannot size cyclic agent state: a dict contains "
                    "itself")
            open_ids.add(ident)
            total += _OVERHEAD_PER_OBJECT
            # Virtual payloads: domain objects (media files, code bundles)
            # are not materialized in memory, but their wire size must be
            # honest.
            virtual = node.get("__virtual_bytes__")
            if type(virtual) is int and virtual > 0:
                total += virtual
            stack.append(ident)
            stack.append(_CLOSE)
            for k, v in node.items():
                stack.append(k)
                stack.append(v)
            continue
        if node is None:
            total += 1
            continue
        if isinstance(node, bool):
            total += _SIZE_BOOL
            continue
        if isinstance(node, (int, float)):
            total += _SIZE_NUMBER
            continue
        if isinstance(node, str):
            total += _OVERHEAD_PER_OBJECT + len(node.encode("utf-8"))
            continue
        if isinstance(node, (bytes, bytearray)):
            total += _OVERHEAD_PER_OBJECT + len(node)
            continue
        if isinstance(node, (list, tuple, set, frozenset)):
            ident = id(node)
            if ident in open_ids:
                raise SerializationError(
                    "cannot size cyclic agent state: a "
                    f"{type(node).__name__} contains itself")
            open_ids.add(ident)
            total += _OVERHEAD_PER_OBJECT
            stack.append(ident)
            stack.append(_CLOSE)
            stack.extend(node)
            continue
        declared = getattr(node, "size_bytes", None)
        if type(declared) is int:
            # Domain objects (e.g. data components) may declare their own
            # size.  ``type`` (not ``isinstance``) on purpose: ``bool`` is
            # an ``int`` subclass, and ``size_bytes=True`` is a bug to
            # reject, not a 1-byte payload.
            total += _OVERHEAD_PER_OBJECT + declared
            continue
        raise SerializationError(
            f"cannot size value of type {type(node).__name__}; agent state "
            f"must be plain data")
    return total


#: Stack marker of :func:`deep_size_bytes`: the id below it leaves the
#: open-ancestor set.
_CLOSE = object()


#: Registry of migratable agent classes by symbolic name.
_AGENT_TYPES: Dict[str, Type] = {}


def register_agent_type(cls: Type) -> Type:
    """Class decorator: make an Agent subclass re-instantiable after
    migration.  The symbolic name is the class's qualified name."""
    _AGENT_TYPES[cls.__name__] = cls
    return cls


def registered_agent_type(name: str) -> Type:
    try:
        return _AGENT_TYPES[name]
    except KeyError:
        raise SerializationError(
            f"agent type {name!r} is not registered for migration; "
            f"decorate it with @register_agent_type") from None


@dataclass
class AgentSnapshot:
    """The wire form of a migrating agent: class reference + state."""

    agent_type: str
    local_name: str
    state: Dict[str, Any]
    size_bytes: int = 0

    def __post_init__(self) -> None:
        if self.size_bytes == 0:
            # The two names are sized inline, by deep_size_bytes' rule.
            self.size_bytes = (3 * _OVERHEAD_PER_OBJECT
                               + len(self.agent_type.encode("utf-8"))
                               + len(self.local_name.encode("utf-8"))
                               + deep_size_bytes(self.state))

    def instantiate(self) -> Any:
        """Build a fresh agent object from the snapshot (not yet started)."""
        cls = registered_agent_type(self.agent_type)
        agent = cls(self.local_name)
        agent.restore_state(dict(self.state))
        return agent
