"""The registry center, its network server and client.

:class:`RegistryCenter` is the in-memory database (the MySQL stand-in): it
stores application and resource records, mirrors resources into a resource
ontology, and answers the questions autonomous agents ask before a
migration -- "whether the devices are compatible, if the application
components exist there, whether the network situation allows the local data
to be copied" (paper §4.3).

:class:`RegistryServer` exposes the center over the simulated network so
remote lookups cost a round trip, and :class:`RegistryClient` is the
host-side stub with async callbacks.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from repro.net.simnet import Message, Network
from repro.ontology.matching import MatchResult, ResourceMatcher, base_resource_ontology
from repro.ontology.query import Query
from repro.ontology.schema import materialize
from repro.ontology.triples import Literal
from repro.registry.records import (
    ApplicationRecord,
    InterfaceDescription,
    Operation,
    ResourceRecord,
)

REGISTRY_PROTOCOL = "registry.rpc"
#: Approximate wire size of a registry request/response.
_REQUEST_SIZE = 512
_RESPONSE_SIZE = 2048
#: How long a client (or a federation node fanning out) waits for an
#: answer before it reports the call as failed.
REGISTRY_TIMEOUT_MS = 5_000.0
#: Service time of one request at a registry server or federation node.
REGISTRY_PROCESSING_MS = 2.0

#: The RPC read surface (cacheable) and write surface (invalidating).
READ_OPERATIONS = frozenset({
    "lookup_application", "components_at", "application_hosts",
    "resources_on", "find_compatible", "rebind_map", "semantic_query",
    "describe_resources",
})
WRITE_OPERATIONS = frozenset({
    "register_application", "deregister_application",
    "register_resource", "deregister_resource",
})


class RegistryError(RuntimeError):
    """Raised on invalid registry operations."""


def _map_key(mapping: Mapping[Any, Any]) -> Tuple[Any, ...]:
    """The content key of a requirement or preference map: its entries in
    order, each tagged with its types and the value's repr, so maps that
    hold ``True``, ``1`` and ``1.0`` (or ``0.0`` and ``-0.0``) never share
    one instance.  Hashing it raises ``TypeError`` for an unhashable value."""
    return ("map",) + tuple((type(key), key, type(value), value, repr(value))
                            for key, value in mapping.items())


def cache_key(operation: str, args: Dict[str, Any]) -> str:
    """The read-cache key of one call: independent of argument order."""
    return repr((operation, sorted(args.items(), key=lambda kv: kv[0])))


# -- telemetry (recorded whenever a hub is attached) --------------------------

def count_registry_message(network: Network, source: str,
                           destination: str) -> None:
    """Account one registry message, weighted by the links it traverses."""
    obs = network.loop.observability
    if obs is None:
        return
    if source == destination:
        return
    try:
        hops = max(1, len(network.route(source, destination)) - 1)
    except Exception:
        hops = 1
    obs.metrics.counter("registry.messages").inc(hops)


def count_registry_request(network: Network) -> None:
    obs = network.loop.observability
    if obs is not None:
        obs.metrics.counter("registry.requests").inc()


def emit_registry_event(network: Network, event: str, **payload: Any) -> None:
    """Ledger events (``registry.request``/``response``/``fail``) for the
    simcheck message-conservation invariant."""
    obs = network.loop.observability
    if obs is not None and obs.hooks:
        obs.emit(event, **payload)


def observe_lookup_latency(network: Network, latency_ms: float) -> None:
    obs = network.loop.observability
    if obs is not None:
        obs.metrics.histogram("registry.lookup.latency_ms").observe(
            latency_ms)


class RegistryCenter:
    """Application + resource registry with semantic resource matching."""

    def __init__(self):
        self.ontology = base_resource_ontology()
        self.matcher = ResourceMatcher(self.ontology)
        # app name -> host -> record
        self._applications: Dict[str, Dict[str, ApplicationRecord]] = {}
        # resource id -> record
        self._resources: Dict[str, ResourceRecord] = {}
        #: This center's one instance of each value its application records
        #: repeat (component kinds, operation lists, bindings, read-only
        #: requirement and preference maps), keyed by content.
        self._shared: Dict[Tuple[Any, ...], Any] = {}
        self.lookups = 0

    # -- applications -----------------------------------------------------

    def _share_map(self, mapping: Mapping[Any, Any]) -> Mapping[Any, Any]:
        try:
            key = _map_key(mapping)
            shared = self._shared.get(key)
        except TypeError:  # an unhashable value: a private read-only copy
            return MappingProxyType(dict(mapping))
        if shared is None:
            shared = self._shared[key] = MappingProxyType(dict(mapping))
        return shared

    def _share_interface(self, service_name: str, operations: List[Tuple],
                         binding: str, description: str
                         ) -> InterfaceDescription:
        """An interface on this center's instances of its operation list
        and binding.  ``operations`` holds ``(name, inputs, outputs)`` per
        operation, inputs and outputs as tuples; a list the center holds
        already builds no :class:`Operation`."""
        key = ("operations",) + tuple(operations)
        shared = self._shared.get(key)
        if shared is None:
            shared = self._shared[key] = tuple(
                [Operation(*fields) for fields in operations])
        return InterfaceDescription(
            service_name, shared,
            self._shared.setdefault(("binding", binding), binding),
            description)

    def _share_fields(self, record: ApplicationRecord) -> None:
        """Point ``record`` at this center's instance of each value that
        other records repeat; the maps become read-only."""
        share = self._shared.setdefault
        record.components = share(("components", record.components),
                                  record.components)
        interface = record.interface
        if interface is not None:
            record.interface = self._share_interface(
                interface.service_name,
                [(op.name, op.inputs, op.outputs)
                 for op in interface.operations],
                interface.binding, interface.description)
        record.device_requirements = self._share_map(record.device_requirements)
        record.user_preferences = self._share_map(record.user_preferences)

    def _parse_application(self, data: Dict[str, Any]) -> ApplicationRecord:
        """:meth:`ApplicationRecord.from_dict` onto this center's shared
        values: what :meth:`_share_fields` would make of the parsed record,
        without building the values it would throw away."""
        interface = data.get("interface")
        if interface:
            interface = self._share_interface(
                interface["service_name"],
                [(op["name"], tuple(op.get("inputs", ())),
                  tuple(op.get("outputs", ())))
                 for op in interface.get("operations", ())],
                interface.get("binding", ""), interface.get("description", ""))
        components = tuple(data.get("components", ()))
        return ApplicationRecord(
            data["app_name"], data["host"],
            self._shared.setdefault(("components", components), components),
            interface or None,
            self._share_map(data.get("device_requirements", {})),
            self._share_map(data.get("user_preferences", {})),
            data.get("version", 1))

    def register_application(self, record: ApplicationRecord) -> None:
        self._share_fields(record)
        self._store_application(record)

    def _store_application(self, record: ApplicationRecord) -> None:
        by_host = self._applications.setdefault(record.app_name, {})
        existing = by_host.get(record.host)
        if existing is not None:
            record.version = existing.version + 1
        by_host[record.host] = record

    def deregister_application(self, app_name: str, host: str) -> bool:
        by_host = self._applications.get(app_name, {})
        if host in by_host:
            del by_host[host]
            if not by_host:
                del self._applications[app_name]
            return True
        return False

    def lookup_application(self, app_name: str,
                           host: Optional[str] = None
                           ) -> List[ApplicationRecord]:
        """Records for an application, optionally restricted to one host."""
        self.lookups += 1
        by_host = self._applications.get(app_name, {})
        if host is not None:
            record = by_host.get(host)
            return [record] if record is not None else []
        return sorted(by_host.values(), key=lambda r: r.host)

    def application_hosts(self, app_name: str) -> List[str]:
        return sorted(self._applications.get(app_name, {}))

    def components_at(self, app_name: str, host: str) -> List[str]:
        """Which components of ``app_name`` already exist at ``host``.

        This is the query that drives adaptive binding: "autonomous agent
        first check whether the application exists or not in the
        destination.  If it exists, mobile agent just wraps the state and
        migrates.  Otherwise, it will also carry the logics and user
        interface as well as the states."
        """
        self.lookups += 1
        record = self._applications.get(app_name, {}).get(host)
        return list(record.components) if record is not None else []

    # -- resources ----------------------------------------------------------

    def register_resource(self, record: ResourceRecord) -> None:
        if record.resource_id in self._resources:
            # Re-registration updates host/properties.
            self._deregister_resource_triples(record.resource_id)
        self._resources[record.resource_id] = record
        self.ontology.individual(record.resource_id, record.classes,
                                 dict(record.properties))
        # Where the resource lives, for OWL-QL-style host-scoped queries.
        self.ontology.graph.assert_(record.resource_id, "imcl:hostedOn",
                                    Literal(record.host))

    def _deregister_resource_triples(self, resource_id: str) -> None:
        graph = self.ontology.graph
        for triple in list(graph.match(resource_id, None, None)):
            graph.remove(triple)

    def deregister_resource(self, resource_id: str) -> bool:
        if resource_id not in self._resources:
            return False
        del self._resources[resource_id]
        self._deregister_resource_triples(resource_id)
        return True

    def resource(self, resource_id: str) -> Optional[ResourceRecord]:
        return self._resources.get(resource_id)

    def resources_on(self, host: str) -> List[ResourceRecord]:
        self.lookups += 1
        return sorted((r for r in self._resources.values() if r.host == host),
                      key=lambda r: r.resource_id)

    def describe_resources(self, resource_ids: List[str]
                           ) -> Dict[str, Dict[str, Any]]:
        """Semantic classification of known resources: inferred (non-marker)
        classes plus substitutability.  This is what a federated peer needs
        to match one of *our* resources against *its* inventory without
        holding our records (see :mod:`repro.registry.federation`)."""
        self.lookups += 1
        info: Dict[str, Dict[str, Any]] = {}
        for resource_id in sorted(set(resource_ids)):
            if resource_id not in self._resources:
                continue
            info[resource_id] = {
                "classes": sorted(self.matcher.semantic_classes(resource_id)),
                "substitutable": self.matcher.is_substitutable(resource_id),
            }
        return info

    def find_compatible(self, required_resource: str,
                        host: str) -> MatchResult:
        """Best semantically compatible resource for ``required_resource``
        among the destination host's inventory (Rule 2 semantics)."""
        self.lookups += 1
        candidates = [r.resource_id for r in self.resources_on(host)]
        if not self.matcher.is_substitutable(required_resource):
            plan = self.matcher.rebind_plan([required_resource], candidates)
            return plan[required_resource]
        return self.matcher.match(required_resource, candidates)

    def rebind_plan(self, required: List[str],
                    host: str) -> Dict[str, MatchResult]:
        """Match a whole requirement list against one host's inventory."""
        self.lookups += 1
        candidates = [r.resource_id for r in self.resources_on(host)]
        return self.matcher.rebind_plan(required, candidates)

    # -- OWL-QL-style semantic queries ----------------------------------------

    def semantic_query(self, patterns: List[str],
                       variables: Optional[List[str]] = None
                       ) -> List[Dict[str, str]]:
        """Run an OWL-QL-style conjunctive query over the *inferred*
        resource ontology (schema closure included), the way autonomous
        agents "retrieve the resources available in the destination host
        from the registry center in the standard OWL Query Language".

        Returns binding rows with literal values unwrapped to strings.
        """
        self.lookups += 1
        inferred = materialize(self.ontology.graph)
        rows = Query(patterns, select=variables).run(inferred)
        plain: List[Dict[str, str]] = []
        for row in rows:
            plain.append({
                var: (str(value.value) if isinstance(value, Literal)
                      else value)
                for var, value in row.items()
            })
        return plain

    # -- RPC dispatch (server side) -----------------------------------------

    def dispatch(self, operation: str, args: Dict[str, Any]) -> Any:
        """Execute one named operation (the RPC surface)."""
        if operation == "register_application":
            return self._store_application(
                self._parse_application(args["record"]))
        if operation == "deregister_application":
            return self.deregister_application(args["app_name"], args["host"])
        if operation == "lookup_application":
            return [r.to_dict() for r in
                    self.lookup_application(args["app_name"],
                                            args.get("host"))]
        if operation == "components_at":
            return self.components_at(args["app_name"], args["host"])
        if operation == "application_hosts":
            return self.application_hosts(args["app_name"])
        if operation == "register_resource":
            return self.register_resource(
                ResourceRecord.from_dict(args["record"]))
        if operation == "deregister_resource":
            return self.deregister_resource(args["resource_id"])
        if operation == "resources_on":
            return [r.to_dict() for r in self.resources_on(args["host"])]
        if operation == "find_compatible":
            result = self.find_compatible(args["required_resource"],
                                          args["host"])
            return {"matched": result.matched, "candidate": result.candidate,
                    "reason": result.reason, "score": result.score}
        if operation == "rebind_map":
            plan = self.rebind_plan(list(args["required"]), args["host"])
            return {resource: result.candidate if result.matched else None
                    for resource, result in plan.items()}
        if operation == "semantic_query":
            return self.semantic_query(list(args["patterns"]),
                                       args.get("variables"))
        if operation == "describe_resources":
            return self.describe_resources(list(args["resource_ids"]))
        raise RegistryError(f"unknown registry operation {operation!r}")


class RegistryServer:
    """Hosts a RegistryCenter on a network host and answers RPCs."""

    def __init__(self, network: Network, host_name: str):
        self.network = network
        self.host_name = host_name
        self.center = RegistryCenter()
        self.requests_served = 0
        network.host(host_name).register_handler(REGISTRY_PROTOCOL,
                                                 self._on_request)

    def _on_request(self, message: Message) -> None:
        kind, request_id, operation, args = message.payload
        if kind != "request":  # a response riding back to a client
            client = self.network.registry_clients.get(message.destination)
            if client is not None:
                client._on_response(message)
            return
        self.network.loop.call_later(REGISTRY_PROCESSING_MS, self._serve,
                                     message.source, request_id, operation,
                                     args)

    def _serve(self, reply_to: str, request_id: int, operation: str,
               args: Dict[str, Any]) -> None:
        self.requests_served += 1
        try:
            result = self.center.dispatch(operation, args)
            payload = ("response", request_id, result, None)
        except Exception as exc:
            payload = ("response", request_id, None, str(exc))
        try:
            self.network.send(self.host_name, reply_to, REGISTRY_PROTOCOL,
                              payload, _RESPONSE_SIZE)
        except Exception:
            return  # requester vanished; its client times out
        count_registry_message(self.network, self.host_name, reply_to)


class RegistryClient:
    """Host-side stub: async calls to the registry server.

    Each ``call`` pays a request + response trip over the simulated network
    plus the server's processing delay; the callback receives
    ``(result, error)``.  Unreachable/crashed servers and lost messages
    surface as an error through the callback (after
    :data:`REGISTRY_TIMEOUT_MS` for silent losses) -- a registry outage
    must never hang or crash a caller.
    """

    def __init__(self, network: Network, host_name: str, server_host: str):
        self.network = network
        self.host_name = host_name
        self.server_host = server_host
        self._pending: Dict[int, Callable[[Any, Optional[str]], None]] = {}
        self._timers: Dict[int, Any] = {}
        self._operations: Dict[int, str] = {}
        self.calls = 0
        self.timeouts = 0
        network.registry_clients[host_name] = self
        host = network.host(host_name)
        if not host.handles(REGISTRY_PROTOCOL):
            host.register_handler(REGISTRY_PROTOCOL, self._on_response)

    def call(self, operation: str, args: Dict[str, Any],
             callback: Callable[[Any, Optional[str]], None],
             server: Optional[str] = None) -> None:
        self.calls += 1
        loop = self.network.loop
        target = self.server_host if server is None else server
        count_registry_request(self.network)
        if operation in READ_OPERATIONS and loop.observability is not None:
            started = loop.now
            inner = callback

            def timed(result: Any, error: Optional[str]) -> None:
                observe_lookup_latency(self.network, loop.now - started)
                inner(result, error)

            callback = timed
        emit_registry_event(self.network, "registry.request",
                            operation=operation, source=self.host_name,
                            target=target)
        if self.host_name == target:
            # Local registry access: no network trip, immediate dispatch.
            def local():
                try:
                    center = self.network.registry_centers.get(target)
                    if center is None:
                        raise RegistryError(
                            f"no registry center on host {target!r}")
                    result = center.dispatch(operation, args)
                except Exception as exc:
                    emit_registry_event(self.network, "registry.fail",
                                        operation=operation, error=str(exc))
                    callback(None, str(exc))
                    return
                emit_registry_event(self.network, "registry.response",
                                    operation=operation)
                callback(result, None)

            loop.call_soon(local)
            return
        request_id = next(self.network.registry_request_ids)
        self._pending[request_id] = callback
        self._operations[request_id] = operation
        try:
            self.network.send(self.host_name, target,
                              REGISTRY_PROTOCOL,
                              ("request", request_id, operation, args),
                              _REQUEST_SIZE,
                              on_dropped=lambda receipt: self._fail(
                                  request_id, "registry request lost"))
        except Exception as exc:
            self._fail(request_id, f"registry unreachable: {exc}")
            return
        count_registry_message(self.network, self.host_name, target)
        self._timers[request_id] = loop.call_later(REGISTRY_TIMEOUT_MS,
                                                   self._timeout, request_id)

    def _cancel_timer(self, request_id: int) -> None:
        timer = self._timers.pop(request_id, None)
        if timer is not None:
            timer.cancel()

    def _fail(self, request_id: int, error: str) -> None:
        self._cancel_timer(request_id)
        callback = self._pending.pop(request_id, None)
        operation = self._operations.pop(request_id, None)
        if callback is not None:
            emit_registry_event(self.network, "registry.fail",
                                operation=operation, error=error)
            callback(None, error)

    def _timeout(self, request_id: int) -> None:
        if request_id in self._pending:
            self.timeouts += 1
            self._fail(request_id,
                       f"registry call timed out after "
                       f"{REGISTRY_TIMEOUT_MS} ms")

    def _on_response(self, message: Message) -> None:
        kind, request_id, result, error = message.payload
        if kind != "response":
            return
        self._cancel_timer(request_id)
        callback = self._pending.pop(request_id, None)
        operation = self._operations.pop(request_id, None)
        if callback is not None:
            # Only a still-pending request counts as answered; a reply to
            # a leaked/failed request must not balance the ledger.
            emit_registry_event(self.network, "registry.response",
                                operation=operation)
            callback(result, error)


class CachingRegistryClient(RegistryClient):
    """A registry client with a TTL read cache.

    Read operations (lookups, inventory queries, rebind maps) are cached
    for ``cache_ttl_ms`` of simulated time, so repeated planning against
    the same destination skips the network round trip.  Write operations
    pass through and invalidate the whole cache (simple and safe: writes
    are rare compared to the AA's read bursts).
    """

    READ_OPERATIONS = READ_OPERATIONS

    def __init__(self, network: Network, host_name: str, server_host: str,
                 cache_ttl_ms: float = 10_000.0):
        super().__init__(network, host_name, server_host)
        self.cache_ttl_ms = float(cache_ttl_ms)
        # key -> (expires_at, result)
        self._cache: Dict[str, Tuple[float, Any]] = {}
        self.cache_hits = 0
        self.cache_misses = 0

    def call(self, operation: str, args: Dict[str, Any],
             callback: Callable[[Any, Optional[str]], None]) -> None:
        loop = self.network.loop
        if operation not in self.READ_OPERATIONS:
            self._cache.clear()  # writes invalidate everything
            super().call(operation, args, callback)
            return
        key = cache_key(operation, args)
        cached = self._cache.get(key)
        if cached is not None and cached[0] > loop.now:
            self.cache_hits += 1
            loop.call_soon(callback, cached[1], None)
            return
        self.cache_misses += 1

        def remember(result, error):
            if error is None:
                self._cache[key] = (loop.now + self.cache_ttl_ms, result)
            callback(result, error)

        super().call(operation, args, remember)

    def invalidate(self) -> None:
        """Drop every cached read (e.g. after learning of remote changes)."""
        self._cache.clear()


def install_registry(network: Network, host_name: str) -> RegistryServer:
    """Create a RegistryServer and record it for local-client shortcuts."""
    server = RegistryServer(network, host_name)
    network.registry_centers[host_name] = server.center
    return server
