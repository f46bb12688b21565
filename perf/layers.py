"""Per-layer wall-clock tracing, installed from outside ``repro``.

:class:`LayerTracer` wraps the public entry points of every layer (and
every kernel callback) in spans, charges each span's *self* time -- its
duration minus its child spans -- to the layer that owns the code, and
restores every wrapped attribute on :meth:`LayerTracer.uninstall`.
Nothing inside ``src/repro`` changes; the simulation runs the same
events in the same order, so a traced run has the same sim digest as an
untraced one.

Time that no span covers during a phase lands on the phase's root frame
and is reported as ``trace.unattributed_share``.  Garbage-collector
pauses are measured through ``gc.callbacks`` and subtracted from the
span they interrupted, so they show up as the ``gc`` layer instead of
being charged to whichever callback happened to allocate.
"""

from __future__ import annotations

import functools
import gc
import json
import os
import sys
from time import perf_counter_ns
from typing import Any, Callable, Dict, List, Optional, Tuple

#: The layers, in report order.
LAYERS = ("kernel", "net", "agents", "core", "registry", "context",
          "ontology", "faults", "obs", "driver")
GC = len(LAYERS)
UNATTRIBUTED = GC + 1
_NAMES = LAYERS + ("gc", "unattributed")

#: Module -> layer.  An entry matches the module itself and everything
#: below it; the longest match wins.
MODULE_LAYERS = (
    ("repro.net.kernel", "kernel"),
    ("repro.net", "net"),
    ("repro.agents", "agents"),
    ("repro.core", "core"),
    ("repro.apps", "core"),
    ("repro.registry", "registry"),
    ("repro.context", "context"),
    ("repro.ontology", "ontology"),
    ("repro.faults", "faults"),
    ("repro.obs", "obs"),
    ("repro.city", "driver"),
    ("repro.simcheck", "driver"),
    ("repro.bench", "driver"),
    ("repro.__main__", "driver"),
)

#: The benchmark's own modules (``run`` is ``__main__`` in a child).
PERF_MODULES = frozenset({"workloads", "layers", "run", "__main__"})

#: Raw spans kept for ``spans.jsonl``.
MAX_SPANS = 100_000


def layer_of_module(module: Optional[str]) -> Optional[str]:
    """The layer owning ``module``, or None for code outside the map."""
    if not module:
        return None
    if module in PERF_MODULES:
        return "driver"
    best, best_len = None, -1
    for prefix, layer in MODULE_LAYERS:
        if (module == prefix or module.startswith(prefix + ".")) \
                and len(prefix) > best_len:
            best, best_len = layer, len(prefix)
    return best


def _callable_info(fn: Any) -> Tuple[str, Optional[str]]:
    """(qualified name, module) of a function, bound method or callable."""
    target = getattr(fn, "__func__", fn)
    if isinstance(target, functools.partial):
        target = target.func
    name = getattr(target, "__qualname__", None)
    module = getattr(target, "__module__", None)
    if name is None:
        name = type(target).__qualname__
        module = type(target).__module__
    return name, module


class _Frame:
    __slots__ = ("layer", "bucket", "start", "child", "span_id", "name",
                 "caused_by")

    def __init__(self, layer, bucket, start, span_id, name, caused_by):
        self.layer = layer
        self.bucket = bucket
        self.start = start
        self.child = 0
        self.span_id = span_id
        self.name = name
        self.caused_by = caused_by


class _TracedCallback:
    """A kernel callback that runs as a span caused by its scheduler."""

    __slots__ = ("tracer", "fn", "name", "layer", "caused_by")

    def __init__(self, tracer, fn, name, layer, caused_by):
        self.tracer = tracer
        self.fn = fn
        self.name = name
        self.layer = layer
        self.caused_by = caused_by

    def __call__(self, *args):
        tracer = self.tracer
        if not tracer.stack:
            return self.fn(*args)
        tracer.enter(self.name, self.layer, None, self.caused_by)
        try:
            return self.fn(*args)
        finally:
            tracer.exit()


class LayerTracer:
    """Installs span wrappers, aggregates self time online per phase."""

    def __init__(self, max_spans: int = MAX_SPANS):
        self.max_spans = max_spans
        self.stack: List[_Frame] = []
        self.spans: List[tuple] = []
        self._next_id = 1
        self._phase = ""
        #: phase -> [self ns per layer], [calls per layer]
        self.self_ns: Dict[str, List[int]] = {}
        self.calls: Dict[str, List[int]] = {}
        #: Wall ns spent inside each phase (sum over visits).
        self.phase_ns: Dict[str, int] = {}
        #: bucket -> self ns (run phase only), e.g. core.phase.suspend.
        self.buckets: Dict[str, int] = {}
        self.gc_collections: Dict[str, int] = {}
        self._gc_start = 0
        self.timers = 0
        self.timers_cancelled = 0
        self.max_heap_depth = 0
        self.window_calls = 0
        self.window_fast = 0
        self._patches: List[Tuple[Any, str, Any]] = []
        self._layer_cache: Dict[Any, Tuple[str, int]] = {}
        self._perf_dir = os.path.dirname(os.path.abspath(__file__))

    # -- span core -----------------------------------------------------------

    def enter(self, name: str, layer: int, bucket: Optional[str],
              caused_by: int = 0) -> None:
        span_id = self._next_id
        self._next_id = span_id + 1
        self.stack.append(_Frame(layer, bucket, perf_counter_ns(), span_id,
                                 name, caused_by))

    def exit(self) -> None:
        end = perf_counter_ns()
        frame = self.stack.pop()
        duration = end - frame.start
        own = duration - frame.child
        self._self[frame.layer] += own
        self._calls[frame.layer] += 1
        if frame.bucket is not None and self._phase == "run":
            self.buckets[frame.bucket] = self.buckets.get(frame.bucket, 0) + own
        parent = self.stack[-1]
        parent.child += duration
        if len(self.spans) < self.max_spans:
            self.spans.append((frame.span_id, frame.name, frame.layer,
                               self._phase, frame.start, end,
                               parent.span_id, frame.caused_by))

    def phase(self, name: str) -> "_PhaseScope":
        """Context manager: everything inside runs under phase ``name``."""
        return _PhaseScope(self, name)

    def _on_gc(self, stage: str, info: Dict[str, Any]) -> None:
        if not self.stack:
            return
        if stage == "start":
            self._gc_start = perf_counter_ns()
            return
        pause = perf_counter_ns() - self._gc_start
        self._self[GC] += pause
        self._calls[GC] += 1
        self.gc_collections[self._phase] = \
            self.gc_collections.get(self._phase, 0) + 1
        self.stack[-1].child += pause

    # -- wrapping ------------------------------------------------------------

    def _layer_index(self, fn: Any) -> Tuple[str, int]:
        """(span name, layer index) of a callback, cached per code object
        so per-call closures share one entry."""
        target = getattr(fn, "__func__", fn)
        key = getattr(target, "__code__", target)
        try:
            cached = self._layer_cache.get(key)
        except TypeError:  # unhashable callable
            cached = None
        if cached is None:
            name, module = _callable_info(fn)
            layer = layer_of_module(module)
            if layer is None:
                source = getattr(sys.modules.get(module or ""), "__file__",
                                 "") or ""
                layer = "driver" if source.startswith(self._perf_dir) \
                    else None
            cached = (name, LAYERS.index(layer) if layer else UNATTRIBUTED)
            try:
                self._layer_cache[key] = cached
            except TypeError:
                pass
        return cached

    def span(self, fn: Callable, layer: str, bucket: Optional[str] = None,
             name: Optional[str] = None) -> Callable:
        """``fn`` wrapped so each call is a span of ``layer``."""
        tracer = self
        index = LAYERS.index(layer)
        label = name or _callable_info(fn)[0]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.stack:
                return fn(*args, **kwargs)
            tracer.enter(label, index, bucket)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.exit()

        wrapper.__perf_wrapped__ = fn
        return wrapper

    def traced_callable(self, fn: Callable) -> Callable:
        """Wrap a handler/listener as a span of the layer defining it."""
        if getattr(fn, "__perf_wrapped__", None) is not None:
            return fn
        name, index = self._layer_index(fn)
        if index == UNATTRIBUTED:
            return fn
        return self.span(fn, LAYERS[index], name=name)

    def patch(self, owner: Any, attr: str, replacement: Any) -> None:
        """Replace ``owner.attr``; :meth:`uninstall` puts it back."""
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def wrap_method(self, cls: type, attr: str, layer: str,
                    bucket: Optional[str] = None) -> None:
        """Wrap a method the class itself defines (inherited ones are
        wrapped once, on the class that defines them)."""
        self.patch(cls, attr, self.span(cls.__dict__[attr], layer, bucket))

    def wrap_function_everywhere(self, module, attr: str, layer: str) -> None:
        """Wrap a module-level function at *every* module-level binding
        of it (``from x import f`` copies the reference)."""
        fn = getattr(module, attr)
        wrapped = self.span(fn, layer)
        for mod in list(sys.modules.values()):
            namespace = getattr(mod, "__dict__", None)
            if not namespace:
                continue
            for key, value in list(namespace.items()):
                if value is fn:
                    self.patch(mod, key, wrapped)

    # -- install / uninstall -------------------------------------------------

    def install(self) -> "LayerTracer":
        """Wrap every layer's public entry points (see the module doc)."""
        import repro.agents.serialization as serialization
        import repro.city.topology as city_topology
        import repro.ontology.matching as matching
        import repro.ontology.rules as rules
        import repro.ontology.schema as schema
        import repro.simcheck.scenario as scenario
        from repro.agents.mobility import MobilityService
        from repro.agents.platform import AgentContainer, AgentPlatform
        from repro.city.population import Population
        from repro.city.workload import CityWorkload
        from repro.context.bus import ContextBus
        from repro.core.middleware import (
            Deployment,
            MDAgentMiddleware,
            MiddlewareConfig,
            MigrationScheduler,
        )
        from repro.core.pipeline import MiddlewarePhase, build_prestage_pipeline
        from repro.faults.engine import ChaosEngine
        from repro.net.kernel import EventLoop, Timer
        from repro.net.simnet import Host, Network
        from repro.net.topology import Topology
        from repro.obs.slo import SLOAggregator
        from repro.ontology.query import Query
        from repro.ontology.reasoner import ForwardChainingReasoner
        from repro.ontology.schema import SchemaReasoner
        from repro.registry.federation import (
            FederatedRegistryClient,
            FederationNode,
            RegistryFederation,
            RegistryShard,
        )
        from repro.registry.registry import (
            CachingRegistryClient,
            RegistryCenter,
            RegistryClient,
        )

        tracer = self
        kernel = LAYERS.index("kernel")

        # Kernel: the dispatch loop, and every scheduled callback becomes
        # a span of the layer defining it, caused by the scheduling span.
        self.wrap_method(EventLoop, "run", "kernel")
        original_call_at = EventLoop.call_at

        def call_at(loop, when, callback, *args):
            if not tracer.stack:
                return original_call_at(loop, when, callback, *args)
            if type(callback) is _TracedCallback:
                callback = callback.fn
            name, index = tracer._layer_index(callback)
            traced = _TracedCallback(tracer, callback, name, index,
                                     tracer.stack[-1].span_id)
            tracer.enter("EventLoop.call_at", kernel, None)
            try:
                timer = original_call_at(loop, when, traced, *args)
            finally:
                tracer.exit()
            tracer.timers += 1
            depth = loop.heap_depth
            if depth > tracer.max_heap_depth:
                tracer.max_heap_depth = depth
            return timer

        self.patch(EventLoop, "call_at", call_at)
        original_cancel = Timer.cancel

        def cancel(timer):
            if tracer.stack and timer.active:
                tracer.timers_cancelled += 1
            return original_cancel(timer)

        self.patch(Timer, "cancel", cancel)

        # Network.
        self.wrap_method(Network, "send", "net")
        send_window = self.span(Network.send_window, "net")

        def counted_send_window(network, *args, **kwargs):
            receipts = send_window(network, *args, **kwargs)
            if tracer.stack:
                tracer.window_calls += 1
                if receipts is not None:
                    tracer.window_fast += 1
            return receipts

        self.patch(Network, "send_window", counted_send_window)
        for attr in ("add_space", "add_host", "add_gateway",
                     "connect_spaces"):
            self.wrap_method(Topology, attr, "net")
        original_register = Host.register_handler

        def register_handler(host, protocol, handler):
            return original_register(host, protocol,
                                     tracer.traced_callable(handler))

        self.patch(Host, "register_handler", register_handler)

        # Agent platform.
        self.wrap_method(AgentPlatform, "send_message", "agents")
        self.wrap_method(AgentPlatform, "create_container", "agents")
        self.wrap_method(AgentContainer, "create_agent", "agents")
        self.wrap_method(MobilityService, "move", "agents")
        self.wrap_method(MobilityService, "clone", "agents")
        for attr in ("deep_size_bytes", "register_agent_type",
                     "registered_agent_type"):
            self.wrap_function_everywhere(serialization, attr, "agents")

        # Middleware core: facade, scheduler, deployment construction and
        # every pipeline phase (prestage phases pooled in one bucket).
        self.wrap_method(MigrationScheduler, "submit", "core")
        for attr in ("migrate", "prestage", "launch_application"):
            self.wrap_method(MDAgentMiddleware, attr, "core")
        for attr in ("__init__", "add_host", "add_space", "add_gateway",
                     "connect_spaces", "enable_federated_registry",
                     "enable_prestaging", "enable_migration_scheduler"):
            self.wrap_method(Deployment, attr, "core")
        prestage_phases = {type(p) for p in
                           build_prestage_pipeline(MiddlewareConfig()).phases}
        for cls in _subclasses(MiddlewarePhase):
            if "run" in cls.__dict__:
                bucket = "core.prestage" if cls in prestage_phases \
                    else f"core.phase.{cls.name}"
                self.wrap_method(cls, "run", "core", bucket)

        # Registry.
        for cls in (RegistryClient, CachingRegistryClient,
                    FederatedRegistryClient):
            self.wrap_method(cls, "call", "registry")
        for cls in (RegistryCenter, RegistryShard):
            self.wrap_method(cls, "dispatch", "registry")
            self.wrap_method(cls, "__init__", "registry")
        self.wrap_method(RegistryFederation, "__init__", "registry")
        self.wrap_method(FederationNode, "__init__", "registry")

        # Context bus: publish, and every subscribed listener.
        self.wrap_method(ContextBus, "publish", "context")
        original_subscribe = ContextBus.subscribe

        def subscribe(bus, topic, listener, predicate=None):
            return original_subscribe(bus, topic,
                                      tracer.traced_callable(listener),
                                      predicate)

        self.patch(ContextBus, "subscribe", subscribe)

        # Ontology: rule parsing, reasoners, matching, queries.
        for module, attr in ((rules, "parse_rule"), (rules, "parse_rules"),
                             (schema, "materialize"),
                             (matching, "base_resource_ontology")):
            self.wrap_function_everywhere(module, attr, "ontology")
        self.wrap_method(ForwardChainingReasoner, "run", "ontology")
        self.wrap_method(SchemaReasoner, "__init__", "ontology")
        for attr in ("match", "rebind_plan", "semantic_classes"):
            self.wrap_method(matching.ResourceMatcher, attr, "ontology")
        self.wrap_method(Query, "run", "ontology")

        # Faults and observability.
        self.wrap_method(ChaosEngine, "__init__", "faults")
        self.wrap_method(ChaosEngine, "arm", "faults")
        self.wrap_method(SLOAggregator, "report", "obs")

        # Workload driver: city synthesis, scenario materialization.
        self.wrap_method(CityWorkload, "build", "driver")
        self.wrap_method(CityWorkload, "run", "driver")
        self.wrap_method(Population, "__init__", "driver")
        for module, attr in ((city_topology, "synthesize"),
                             (city_topology, "build_deployment"),
                             (scenario, "generate_scenario"),
                             (scenario, "build_application"),
                             (scenario, "build_deployment")):
            self.wrap_function_everywhere(module, attr, "driver")

        gc.callbacks.append(self._on_gc)
        return self

    def uninstall(self) -> None:
        """Restore every wrapped attribute, newest first."""
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    @property
    def installed(self) -> bool:
        return bool(self._patches)

    # -- results -------------------------------------------------------------

    def report(self) -> Dict[str, Any]:
        """Per-layer aggregates (ms, counts, shares) for both phases."""
        run_self = self.self_ns.get("run", [0] * len(_NAMES))
        run_calls = self.calls.get("run", [0] * len(_NAMES))
        setup_self = self.self_ns.get("setup", [0] * len(_NAMES))
        run_ns = self.phase_ns.get("run", 0) or 1
        layers = {}
        for i, name in enumerate(_NAMES):
            layers[name] = {
                "self_ms": run_self[i] / 1e6,
                "share": run_self[i] / run_ns,
                "calls": run_calls[i],
                "setup_ms": setup_self[i] / 1e6,
            }
        return {
            "run_ms": self.phase_ns.get("run", 0) / 1e6,
            "setup_ms": self.phase_ns.get("setup", 0) / 1e6,
            "layers": layers,
            "buckets_ms": {k: v / 1e6 for k, v in sorted(self.buckets.items())},
            "gc_collections": self.gc_collections.get("run", 0),
            "timers": self.timers,
            "timers_cancelled": self.timers_cancelled,
            "max_heap_depth": self.max_heap_depth,
            "window_calls": self.window_calls,
            "window_fast": self.window_fast,
            "spans_recorded": len(self.spans),
            "spans_total": self._next_id - 1,
        }

    def write_spans(self, path: str) -> None:
        """First ``max_spans`` raw spans as JSON lines."""
        with open(path, "w", encoding="utf-8") as out:
            for (span_id, name, layer, phase, start, end, parent,
                 caused_by) in self.spans:
                out.write(json.dumps({
                    "id": span_id, "name": name, "layer": _NAMES[layer],
                    "phase": phase, "start_ns": start, "end_ns": end,
                    "parent": parent, "caused_by": caused_by,
                }) + "\n")


class _PhaseScope:
    """Root frame for one visit to a phase; its self time is unattributed."""

    def __init__(self, tracer: LayerTracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        tracer = self.tracer
        tracer._phase = self.name
        size = len(_NAMES)
        tracer._self = tracer.self_ns.setdefault(self.name, [0] * size)
        tracer._calls = tracer.calls.setdefault(self.name, [0] * size)
        self.start = perf_counter_ns()
        tracer.stack.append(_Frame(UNATTRIBUTED, None, self.start, 0,
                                   self.name, 0))
        return self

    def __exit__(self, *exc):
        tracer = self.tracer
        end = perf_counter_ns()
        frame = tracer.stack.pop()
        tracer._self[UNATTRIBUTED] += (end - frame.start) - frame.child
        tracer.phase_ns[self.name] = \
            tracer.phase_ns.get(self.name, 0) + (end - self.start)
        return False


def _subclasses(cls: type) -> List[type]:
    found, todo = [], [cls]
    while todo:
        for sub in todo.pop().__subclasses__():
            if sub not in found:
                found.append(sub)
                todo.append(sub)
    return found
