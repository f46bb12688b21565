"""The per-host MDAgent middleware facade and the deployment builder.

:class:`MDAgentMiddleware` wires all four layers of Fig. 2 on one host:
sensors/context feed the resident autonomous agent, which commands the
mobile agent manager, which drives the application layer through the
coordinator / snapshot manager / adaptor.  :class:`Deployment` builds
multi-space, multi-host scenarios (network + topology + agent platform +
context kernel + registry) with a few calls.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.agents.acl import ACLMessage, Performative
from repro.agents.platform import AgentContainer, AgentPlatform
from repro.context.bus import ContextBus
from repro.context.fusion import IdentityRegistry, LocationFusion
from repro.context.model import (
    ContextEvent,
    TOPIC_APP,
    TOPIC_LOCATION,
    TOPIC_NETWORK,
    TOPIC_RAW_NETWORK,
    TOPIC_USER_COMMAND,
)
from repro.context.prediction import MarkovPredictor
from repro.context.sensors import CricketSensorNetwork, PhysicalWorld
from repro.core.adaptor import Adaptor
from repro.core.application import Application, AppStatus
from repro.core.autonomous_agent import MDAutonomousAgent, MDMobileAgentManager
from repro.core.binding import (
    BindingPolicy,
    BindingResolver,
    MigrationKind,
    MigrationPlan,
)
from repro.core.errors import MigrationError, MiddlewareError
from repro.core.metrics import MigrationOutcome
from repro.core.mobile_agent import MDMobileAgent
from repro.core.pipeline import (
    MigrationContext,
    MigrationRequest,
    build_migration_pipeline,
    build_prestage_pipeline,
    receive,
)
from repro.core.profiles import DeviceProfile
from repro.core.rulesets import default_migration_rules
from repro.core.snapshot import SnapshotManager
from repro.net.kernel import EventLoop
from repro.net.simnet import (
    Host,
    Message,
    Network,
    NetworkError,
    register_bulk_protocol,
)
from repro.net.topology import LinkSpec, Topology
from repro.ontology.rules import RuleSet
from repro.registry.records import ApplicationRecord, InterfaceDescription, Operation
from repro.registry.registry import (
    RegistryClient,
    RegistryServer,
    install_registry,
)

SYNC_PROTOCOL = "md.sync"
DATA_PROTOCOL = "md.data"
#: Wire size of one coordinator sync update.
SYNC_MESSAGE_SIZE = 96
#: RTT assumed for a peer no probe has measured yet.
PROBE_DEFAULT_RTT_MS = 10.0
#: Capability tuple advertised during FIPA negotiation: a host's platform
#: kind unless ``Deployment.add_host`` names another, and the wire format
#: every host speaks.
PLATFORM_KIND = "mdagent"
SERIALIZATION_VERSION = 1
#: Remote-data fetch attempts (with the platform cost model's seeded
#: backoff between them) before the failure is reported to the caller.
REMOTE_FETCH_ATTEMPTS = 3
# Remote-data streaming moves multi-MB payloads: classify it as bulk so it
# fair-shares links with agent transfers instead of head-of-line blocking
# sync/ACL control traffic (md.sync stays control).
register_bulk_protocol(DATA_PROTOCOL)


@dataclass
class MiddlewareConfig:
    """Tunables for one middleware instance."""

    #: How autonomous agents pick among several compatible destination
    #: hosts: "first-fit" (deterministic order) or "contract-net" (CFP to
    #: every candidate's MA manager, award to the least-loaded bidder).
    destination_strategy: str = "first-fit"
    #: Migration protocol: "direct" (classic homogeneous deployment, the
    #: capability grant is implicit and free) or "fipa" (pre-transfer
    #: propose/accept-proposal/reject-proposal negotiation over ACL).
    migration_protocol: str = "direct"
    #: Per-attempt deadline on remote-data fetches; 0 (the default) keeps
    #: the classic no-deadline behaviour.
    remote_fetch_timeout_ms: float = 0.0


class MDAgentMiddleware:
    """The middleware runtime on one host."""

    def __init__(self, deployment: "Deployment", host: Host,
                 container: AgentContainer, device_profile: DeviceProfile,
                 config: Optional[MiddlewareConfig] = None,
                 platform_kind: Optional[str] = None,
                 accepted_platform_kinds: Optional[Tuple[str, ...]] = None):
        self.deployment = deployment
        self.host = host
        self.container = container
        self.device_profile = device_profile
        self.config = config if config is not None else MiddlewareConfig()
        # Interop identity: a host accepts agents of its own platform kind
        # and of any kind in ``accepted_platform_kinds``.
        self.platform_kind = platform_kind or PLATFORM_KIND
        self.accepted_platform_kinds = tuple(accepted_platform_kinds or ())
        self.serialization_version = SERIALIZATION_VERSION
        # The middleware stacks this host runs migrations with.
        self.migration_pipeline = build_migration_pipeline(self.config)
        self.prestage_pipeline = build_prestage_pipeline(self.config)
        #: Test seam: phase names after which an injected failure fires.
        self.pipeline_failpoints: frozenset = frozenset()
        self.applications: Dict[str, Application] = {}
        self.snapshot_manager = SnapshotManager()
        self.adaptor = Adaptor()
        self.resolver = BindingResolver()
        # Per-instance so identical deployments produce identical agent
        # names (and therefore bit-identical wire sizes).
        self._ma_seq = itertools.count(1)
        if deployment.federation is not None:
            self.registry_client = deployment.federation.client_for(host.name)
        else:
            self.registry_client = RegistryClient(
                deployment.network, host.name, deployment.registry_host)
        self._response_times: Dict[str, float] = {}
        self._fetch_callbacks: Dict[int, Callable[[], None]] = {}
        self._fetch_requests: Dict[int, Dict[str, Any]] = {}
        self._fetch_ids = itertools.count(1)
        host.middleware = self  # type: ignore[attr-defined]
        host.register_handler(SYNC_PROTOCOL, self._on_sync)
        host.register_handler(DATA_PROTOCOL, self._on_data)
        # Resident agents (Fig. 2's agent layer).
        self.aa: MDAutonomousAgent = container.create_agent(
            MDAutonomousAgent, f"aa-{host.name}")
        self.aa.attach(self)
        self.mam: MDMobileAgentManager = container.create_agent(
            MDMobileAgentManager, f"mam-{host.name}")
        self.mam.attach(self)
        if self.config.migration_protocol == "fipa":
            # Only the FIPA protocol serves capability proposals.
            self.mam.enable_capability_responder()
        # Context bridges: location events and explicit user commands wake
        # the AA; network probes feed the response-time cache Rule 3
        # thresholds against.
        deployment.bus.subscribe(TOPIC_LOCATION, self._bridge_location)
        deployment.bus.subscribe(TOPIC_USER_COMMAND, self._bridge_command)
        deployment.bus.subscribe(
            TOPIC_RAW_NETWORK, self._on_network_probe,
            predicate=lambda e: e.subject == host.name)

    # -- identity -----------------------------------------------------------

    @property
    def host_name(self) -> str:
        return self.host.name

    @property
    def loop(self) -> EventLoop:
        return self.deployment.loop

    @property
    def network(self) -> Network:
        return self.deployment.network

    @property
    def ma_manager_aid(self) -> str:
        return f"mam-{self.host_name}@{self.host_name}"

    # -- application management -------------------------------------------------

    def install_application(self, app: Application,
                            register: bool = True) -> Application:
        """Make an application (or partial installation) present here."""
        if app.name in self.applications:
            raise MiddlewareError(
                f"application {app.name!r} already installed on "
                f"{self.host_name!r}")
        self.applications[app.name] = app
        app.host = self.host_name
        app.coordinator.host = self.host_name
        app.coordinator.attach_sync_transport(self._send_sync)
        if register:
            self.registry_write(
                "register_application",
                {"record": self._application_record(app).to_dict()})
        return app

    def launch_application(self, app: Application) -> Application:
        """Install, adapt and start an application on this host.

        Raises AdaptationError when this device cannot satisfy the app's
        hard requirements.
        """
        if app.name not in self.applications:
            self.install_application(app)
        self.adaptor.adapt(app, self.device_profile, app.user_profile)
        app.start(self)
        self.publish_app_event(app, "started")
        return app

    def uninstall_application(self, app_name: str) -> None:
        app = self.applications.pop(app_name, None)
        if app is None:
            return
        if app.status is AppStatus.RUNNING:
            app.stop()
        # Lifecycle listeners (e.g. the pre-staging service's staged-pair
        # invalidation) need to hear about explicit stops too.
        self.publish_app_event(app, "stopped")
        self.registry_write("deregister_application",
                            {"app_name": app_name, "host": self.host_name})

    def application(self, name: str) -> Application:
        try:
            return self.applications[name]
        except KeyError:
            raise MiddlewareError(
                f"no application {name!r} on {self.host_name!r}") from None

    def register_resource(self, resource_id: str, classes: List[str],
                          properties: Optional[Dict[str, Any]] = None) -> None:
        """Advertise a local resource to the registry center."""
        self.registry_write(
            "register_resource",
            {"record": {"resource_id": resource_id, "host": self.host_name,
                        "classes": list(classes),
                        "properties": dict(properties or {})}})

    def registry_write(self, operation: str, args: Dict[str, Any]) -> None:
        """Send one registry write without waiting for its answer.

        Nothing retries a failed write; it is reported as a
        ``registry-write-failed`` fault (hook event and
        ``fault.middleware`` counter), the way a failed fetch is.
        """
        def report(_result: Any, error: Optional[str]) -> None:
            if error is not None:
                self._emit_fault("registry-write-failed",
                                 operation=operation, error=error)

        self.registry_client.call(operation, args, report)

    def _application_record(self, app: Application) -> ApplicationRecord:
        return ApplicationRecord(
            app_name=app.name,
            host=self.host_name,
            components=app.component_kinds(),
            interface=InterfaceDescription(
                app.name,
                (Operation("suspend"), Operation("resume"),
                 Operation("update", ("key", "value"))),
                binding=f"acl://{self.ma_manager_aid}",
            ),
            device_requirements=dict(app.device_requirements),
            user_preferences=dict(app.user_profile.preferences),
        )

    # -- migration ------------------------------------------------------------------

    def migrate(self, app_name: str, destination: str,
                kind: MigrationKind = MigrationKind.FOLLOW_ME,
                policy: BindingPolicy = BindingPolicy.ADAPTIVE
                ) -> MigrationOutcome:
        """Plan and execute a migration through the middleware pipeline;
        returns the (async) outcome.

        The pipeline runs its phases in order -- admission, planning,
        capability negotiation, suspend, capture, transfer, check-in,
        rebind, power-up -- with planning's registry lookups happening
        before the measured suspension phase begins, which matches the
        paper's measurement window.  Admission errors (unknown app, bad
        destination) raise synchronously; everything later fails the
        outcome.
        """
        request = MigrationRequest(app_name=app_name,
                                   destination=destination,
                                   kind=kind, policy=policy)
        ctx = MigrationContext(self.migration_pipeline, self, request,
                               failpoints=self.pipeline_failpoints)
        self.migration_pipeline.start(ctx)
        return ctx.outcome

    def prestage(self, app_name: str, destination: str) -> MigrationOutcome:
        """Push this app's missing components to ``destination`` ahead of a
        predicted move; execution stays here, but a later migration finds
        the components installed and wraps only the state."""
        request = MigrationRequest(app_name=app_name,
                                   destination=destination)
        ctx = MigrationContext(self.prestage_pipeline, self, request,
                               failpoints=self.pipeline_failpoints)
        self.prestage_pipeline.start(ctx)
        return ctx.outcome

    # -- FIPA capability negotiation ---------------------------------------

    def capability_proposal(self, plan: MigrationPlan) -> Dict[str, Any]:
        """The capability tuple PROPOSEd to a destination pre-transfer."""
        app = self.applications.get(plan.app_name)
        resource_classes: List[str] = []
        requirements: Dict[str, Any] = {}
        if app is not None:
            seen = set()
            for binding in app.resource_bindings:
                if binding.resource_class not in seen:
                    seen.add(binding.resource_class)
                    resource_classes.append(binding.resource_class)
            requirements = dict(app.device_requirements)
        return {
            "action": "migrate-propose",
            "app_name": plan.app_name,
            "source": plan.source,
            "destination": plan.destination,
            "kind": plan.kind.value,
            "platform_kind": self.platform_kind,
            "serialization_version": self.serialization_version,
            "estimated_bytes": plan.estimated_bytes,
            "resource_classes": resource_classes,
            "device_requirements": requirements,
        }

    def evaluate_migration_proposal(self, proposal: Dict[str, Any]
                                    ) -> Tuple[bool, Dict[str, Any]]:
        """Destination-side policy for a FIPA capability proposal.

        Returns ``(accept, payload)``: on accept the payload is this
        host's capability grant, on reject it carries the reason.  A
        rejection here is *graceful* -- the source has not suspended
        anything yet, so its application keeps running.
        """
        version = proposal.get("serialization_version")
        if version != self.serialization_version:
            return False, {"reason": f"serialization version {version!r} "
                                     f"unsupported (speaks "
                                     f"v{self.serialization_version})"}
        kind = proposal.get("platform_kind")
        accepted = {self.platform_kind, *self.accepted_platform_kinds}
        if kind not in accepted:
            return False, {"reason": f"platform kind {kind!r} not accepted "
                                     f"(accepts {sorted(accepted)})"}
        requirements = proposal.get("device_requirements") or {}
        if not self.device_profile.satisfies(requirements):
            return False, {"reason": "device profile cannot satisfy the "
                                     "application's requirements"}
        return True, {"platform_kind": self.platform_kind,
                      "serialization_version": self.serialization_version,
                      "host": self.host_name}

    @staticmethod
    def _fail(outcome: MigrationOutcome, reason: str) -> None:
        outcome.failed = True
        outcome.failure_reason = reason
        outcome._finish()

    def _on_mobile_agent_arrival(self, ma: MDMobileAgent) -> None:
        token = ma.plan.get("token", "")
        outcome = self.deployment.outcomes.get(token)
        try:
            receive(self, ma, outcome)
        except Exception as exc:
            # Unwrapping failed (e.g. unregistered application type at the
            # destination); surface through the outcome instead of crashing
            # the destination host's event handling.
            if outcome is not None:
                self._fail(outcome, f"unwrap failed at {self.host_name}: "
                                    f"{exc}")
            ma.do_delete()

    # -- coordinator sync links ---------------------------------------------------------

    def _send_sync(self, peer_host: str, app_name: str, key: str, value: Any,
                   origin_host: str) -> None:
        self.network.send(self.host_name, peer_host, SYNC_PROTOCOL,
                          ("update", app_name, key, value, origin_host),
                          SYNC_MESSAGE_SIZE)

    def establish_sync_replica(self, app: Application,
                               master_host: str) -> None:
        """Configure a freshly arrived clone as a sync replica."""
        app.coordinator.attach_sync_transport(self._send_sync)
        app.coordinator.become_replica(master_host)
        self.network.send(self.host_name, master_host, SYNC_PROTOCOL,
                          ("control", "add_replica", app.name,
                           self.host_name), 64)

    def assume_sync_master(self, app: Application,
                           replicas: List[str]) -> None:
        """Take over as sync master (after a master migrated here)."""
        app.coordinator.attach_sync_transport(self._send_sync)
        app.coordinator.become_master()
        for replica in replicas:
            if replica == self.host_name:
                continue
            app.coordinator.add_replica(replica)
            self.network.send(self.host_name, replica, SYNC_PROTOCOL,
                              ("control", "set_master", app.name,
                               self.host_name), 64)

    def _on_sync(self, message: Message) -> None:
        # Sync traffic can legally race a migration: the app may already be
        # suspended, stopped or uninstalled here when the update lands.
        # Nothing that arrives over this protocol may raise through
        # Host.deliver -- drop and account instead.
        try:
            self._handle_sync(message)
        except Exception as exc:
            self._drop_middleware_message(SYNC_PROTOCOL, message, exc)

    def _handle_sync(self, message: Message) -> None:
        payload = message.payload
        if payload[0] == "update":
            _, app_name, key, value, origin = payload
            app = self.applications.get(app_name)
            if app is not None:
                app.coordinator.apply_remote_update(key, value, origin)
        elif payload[0] == "control" and payload[1] == "add_replica":
            _, _, app_name, replica_host = payload
            app = self.applications.get(app_name)
            if app is not None:
                if app.coordinator.sync_role.value != "master":
                    app.coordinator.become_master()
                app.coordinator.add_replica(replica_host)
        elif payload[0] == "control" and payload[1] == "set_master":
            _, _, app_name, master_host = payload
            app = self.applications.get(app_name)
            if app is not None and \
                    app.coordinator.sync_role.value == "replica":
                app.coordinator.master_host = master_host

    # -- remote data streaming -------------------------------------------------------------

    def fetch_remote_data(self, source_host: str, app_name: str,
                          nbytes: int, callback: Callable[[], None],
                          on_failed: Optional[Callable[[str], None]] = None
                          ) -> None:
        """Fetch ``nbytes`` of a remote-bound data component from its home.

        Pays a request trip plus the data transfer; the callback fires when
        the bytes arrive (stream opened / first buffer filled).

        With ``config.remote_fetch_timeout_ms`` set, every attempt is
        armed with a deadline: a crashed or partitioned source no longer
        hangs the destination's resume forever.  Timed-out attempts retry
        with the platform cost model's seeded backoff, and after
        :data:`REMOTE_FETCH_ATTEMPTS` attempts the failure is reported
        through ``on_failed`` (or dropped with a fault emit when no handler
        was given).
        """
        if nbytes <= 0 or source_host == self.host_name:
            self.loop.call_soon(callback)
            return
        token = next(self._fetch_ids)
        self._fetch_callbacks[token] = callback
        self._fetch_requests[token] = {
            "source": source_host, "app_name": app_name, "nbytes": nbytes,
            "on_failed": on_failed, "attempt": 0, "timer": None,
        }
        self._fetch_send(token)

    def _fetch_send(self, token: int) -> None:
        request = self._fetch_requests.get(token)
        if request is None:
            return
        request["attempt"] += 1
        timeout = self.config.remote_fetch_timeout_ms
        if timeout > 0:
            request["timer"] = self.loop.call_later(
                timeout, self._fetch_timeout, token)
        try:
            self.network.send(
                self.host_name, request["source"], DATA_PROTOCOL,
                ("fetch", token, request["app_name"], request["nbytes"],
                 self.host_name), 256)
        except NetworkError as exc:
            # The source is already unreachable at send time.  With a
            # deadline armed the timeout path retries/fails the request;
            # without one, fail immediately rather than propagating out
            # of the caller (often a timer callback).
            self._emit_fault("fetch-send-failed", token=token,
                            source=request["source"], reason=str(exc))
            if timeout <= 0:
                self._fetch_fail(token, f"remote fetch from "
                                        f"{request['source']} failed: {exc}")

    def _fetch_timeout(self, token: int) -> None:
        request = self._fetch_requests.get(token)
        if request is None:
            return
        request["timer"] = None
        source = request["source"]
        self._emit_fault("fetch-timeout", token=token, source=source,
                         attempt=request["attempt"])
        if request["attempt"] >= REMOTE_FETCH_ATTEMPTS:
            self._fetch_fail(
                token, f"remote fetch from {source} timed out after "
                       f"{request['attempt']} attempts")
            return
        backoff = self.deployment.platform.mobility.cost_model.backoff_ms(
            request["attempt"] - 1, key=f"fetch-{self.host_name}-{token}")
        request["timer"] = self.loop.call_later(backoff, self._fetch_retry,
                                                token)

    def _fetch_retry(self, token: int) -> None:
        self._fetch_send(token)

    def _fetch_fail(self, token: int, reason: str) -> None:
        request = self._fetch_requests.pop(token, None)
        self._fetch_callbacks.pop(token, None)
        if request is None:
            return
        timer = request.get("timer")
        if timer is not None:
            timer.cancel()
        on_failed = request.get("on_failed")
        if on_failed is not None:
            on_failed(reason)
        else:
            self._emit_fault("fetch-failed", token=token, reason=reason)

    def _on_data(self, message: Message) -> None:
        try:
            self._handle_data(message)
        except NetworkError as exc:
            # The requester crashed or roamed offline between asking and
            # being served: drop the reply instead of raising through
            # Host.deliver on the serving host.
            self._drop_middleware_message(DATA_PROTOCOL, message, exc)

    def _handle_data(self, message: Message) -> None:
        payload = message.payload
        if payload[0] == "fetch":
            _, token, app_name, nbytes, requester = payload
            self.network.send(self.host_name, requester, DATA_PROTOCOL,
                              ("data", token, app_name), nbytes)
        elif payload[0] == "data":
            _, token, _app_name = payload
            request = self._fetch_requests.pop(token, None)
            if request is not None and request.get("timer") is not None:
                request["timer"].cancel()
            callback = self._fetch_callbacks.pop(token, None)
            if callback is not None:
                callback()

    def _drop_middleware_message(self, protocol: str, message: Message,
                                 exc: Exception) -> None:
        """Account a dropped sync/data message (fault emit + counter)."""
        payload = message.payload
        kind = payload[0] if isinstance(payload, tuple) and payload else "?"
        self._emit_fault(
            "sync-drop" if protocol == SYNC_PROTOCOL else "data-drop",
            payload_kind=str(kind), reason=str(exc))

    def _emit_fault(self, kind: str, **detail: Any) -> None:
        obs = self.loop.observability
        if obs is not None:
            if obs.hooks:
                obs.emit(f"fault.{kind}", host=self.host_name,
                         t=self.loop.now, **detail)
            obs.metrics.counter("fault.middleware", kind=kind).inc()

    # -- context plumbing ------------------------------------------------------------------

    def _bridge_location(self, event: ContextEvent) -> None:
        """Forward fused location events to the resident AA as INFORM."""
        message = ACLMessage(
            Performative.INFORM,
            sender=f"context-bridge@{self.host_name}",
            receivers=[f"aa-{self.host_name}@{self.host_name}"],
            content={"topic": event.topic, "subject": event.subject,
                     "location": event.get("location"),
                     "previous": event.get("previous")},
        )
        self.aa.post(message)

    def _bridge_command(self, event: ContextEvent) -> None:
        """Forward explicit user commands ("move my app there") to the AA."""
        message = ACLMessage(
            Performative.INFORM,
            sender=f"context-bridge@{self.host_name}",
            receivers=[f"aa-{self.host_name}@{self.host_name}"],
            content={"topic": event.topic, "subject": event.subject,
                     "action": event.get("action"),
                     "app_name": event.get("app_name"),
                     "destination": event.get("destination")},
        )
        self.aa.post(message)

    def _on_network_probe(self, event: ContextEvent) -> None:
        peer = event.get("peer")
        rtt = event.get("response_time_ms")
        if peer is not None and rtt is not None:
            self._response_times[peer] = float(rtt)
            self.deployment.bus.publish(ContextEvent(
                topic=TOPIC_NETWORK, subject=f"{self.host_name}->{peer}",
                attributes={"response_time_ms": rtt},
                timestamp=self.loop.now, source="middleware"))

    def measured_response_time(self, peer: str) -> float:
        """Latest probed RTT to ``peer``, or the unprobed default."""
        return self._response_times.get(peer, PROBE_DEFAULT_RTT_MS)

    def publish_app_event(self, app: Application, what: str) -> None:
        self.deployment.bus.publish(ContextEvent(
            topic=TOPIC_APP, subject=app.name,
            attributes={"event": what, "host": self.host_name,
                        "owner": app.owner},
            timestamp=self.loop.now, source="middleware"))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<MDAgentMiddleware {self.host_name} "
                f"apps={sorted(self.applications)}>")


@dataclass
class ScheduledMigration:
    """Handle for one migration submitted to the :class:`MigrationScheduler`.

    ``outcome`` stays ``None`` while the request waits in the admission
    queue; once admitted it is the live :class:`MigrationOutcome`.
    """

    app_name: str
    source: str
    destination: str
    kind: MigrationKind
    policy: BindingPolicy
    deadline_ms: Optional[float]
    seq: int
    queued_at: float = 0.0
    admitted_at: float = 0.0
    state: str = "queued"  # queued | active | done | rejected
    error: str = ""
    outcome: Optional[MigrationOutcome] = None
    #: Optional callback fired exactly once when the request leaves the
    #: scheduler (state "done" or "rejected").  Streaming drivers
    #: (:mod:`repro.city`) use it to track app placement across tens of
    #: thousands of legs without polling handles.
    on_done: Optional[Callable[["ScheduledMigration"], None]] = None

    @property
    def queue_wait_ms(self) -> float:
        return self.admitted_at - self.queued_at

    def sort_key(self) -> Tuple[float, int]:
        # Deadline-aware ordering: earliest deadline first, FIFO tiebreak
        # (and FIFO among requests with no deadline at all).
        deadline = self.deadline_ms if self.deadline_ms is not None \
            else float("inf")
        return (deadline, self.seq)


class MigrationScheduler:
    """Admission control for concurrent migrations in one deployment.

    The fair-share link model lets migrations overlap, but unbounded
    concurrency thrashes: every flow's share shrinks and *every* deadline
    slips.  The scheduler admits at most ``limit`` migrations at a time,
    serializes per destination (one inbound migration per host -- a
    resuming host is busy restoring state), and orders the waiting queue
    by earliest deadline with FIFO tiebreak.  Slots release through each
    outcome's completion callback, so draining the event loop drives the
    whole queue.
    """

    def __init__(self, deployment: "Deployment", limit: int = 4):
        if limit < 1:
            raise MiddlewareError(f"admission limit must be >= 1: {limit}")
        self.deployment = deployment
        self.limit = int(limit)
        self._seq = itertools.count(1)
        self._pending: List[ScheduledMigration] = []
        self._busy_destinations: set = set()
        self.active = 0
        self.completed = 0
        self.rejected = 0
        self.max_queue_depth = 0
        #: Every handle ever submitted, in submission order -- the fleet
        #: SLO aggregator (:mod:`repro.obs.slo`) reads queue waits and
        #: deadline outcomes from here after the run drains.
        self.requests: List[ScheduledMigration] = []

    def submit(self, source: str, app_name: str, destination: str,
               kind: MigrationKind = MigrationKind.FOLLOW_ME,
               policy: BindingPolicy = BindingPolicy.ADAPTIVE,
               deadline_ms: Optional[float] = None,
               on_done: Optional[Callable[[ScheduledMigration], None]] = None
               ) -> ScheduledMigration:
        """Queue a migration; it starts as soon as a slot and its
        destination are free.  Returns a handle immediately."""
        request = ScheduledMigration(
            app_name=app_name, source=source, destination=destination,
            kind=kind, policy=policy, deadline_ms=deadline_ms,
            seq=next(self._seq), queued_at=self.deployment.loop.now,
            on_done=on_done)
        self._pending.append(request)
        self.requests.append(request)
        self.max_queue_depth = max(self.max_queue_depth, len(self._pending))
        self._emit("scheduler.submit", request)
        self._pump()
        return request

    def _emit(self, event: str, request: ScheduledMigration) -> None:
        """Publish a scheduler transition to obs hooks (flight recorder,
        invariant checkers); free when no hooks are registered."""
        obs = self.deployment.observability
        if obs is not None and obs.hooks:
            obs.emit(event, app=request.app_name, source=request.source,
                     destination=request.destination, state=request.state,
                     queued=len(self._pending), active=self.active)

    @property
    def queue_depth(self) -> int:
        return len(self._pending)

    def _pump(self) -> None:
        # Single-pass min over the queue (no admissible-list allocation):
        # at city scale this runs once per released slot over queues that
        # spike into the thousands at rush hour.
        while self.active < self.limit:
            busy = self._busy_destinations
            request = None
            best_key = None
            for candidate in self._pending:
                if candidate.destination in busy:
                    continue
                key = candidate.sort_key()
                if best_key is None or key < best_key:
                    request, best_key = candidate, key
            if request is None:
                return
            self._pending.remove(request)
            self._admit(request)

    def _admit(self, request: ScheduledMigration) -> None:
        deployment = self.deployment
        request.admitted_at = deployment.loop.now
        try:
            outcome = deployment.middleware(request.source).migrate(
                request.app_name, request.destination,
                kind=request.kind, policy=request.policy)
        except (MigrationError, MiddlewareError) as exc:
            # e.g. an earlier admitted migration already moved the app
            # away from the recorded source; surface it on the handle.
            request.state = "rejected"
            request.error = str(exc)
            self.rejected += 1
            self._emit("scheduler.reject", request)
            if request.on_done is not None:
                request.on_done(request)
            return
        request.state = "active"
        request.outcome = outcome
        self.active += 1
        self._busy_destinations.add(request.destination)
        self._emit("scheduler.admit", request)
        outcome.log(f"scheduler: admitted after {request.queue_wait_ms:.1f} "
                    f"ms in queue ({self.active}/{self.limit} slots)")
        outcome.on_complete(lambda _o, r=request: self._release(r))

    def _release(self, request: ScheduledMigration) -> None:
        if request.state != "active":
            # Already released (or never admitted): an outcome that fails
            # during negotiation/pre-transfer and again later -- or a
            # duplicate completion callback -- must not decrement the
            # active count twice and wedge the queue.
            return
        request.state = "done"
        self.active -= 1
        self.completed += 1
        self._busy_destinations.discard(request.destination)
        self._emit("scheduler.release", request)
        # Notify before re-pumping: a follow-up leg submitted from the
        # callback competes for the slot this release just freed.
        if request.on_done is not None:
            request.on_done(request)
        self._pump()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<MigrationScheduler {self.active}/{self.limit} active, "
                f"{len(self._pending)} queued>")


class Deployment:
    """Builds and owns a full MDAgent scenario.

    Typical use::

        d = Deployment(seed=1)
        d.add_space("room821")
        src = d.add_host("pc1", "room821")
        dst = d.add_host("pc2", "room821")       # intra-space peer
        # inter-space requires gateways:
        d.add_space("room822")
        d.add_gateway("gw821", "room821")
        d.add_gateway("gw822", "room822")
        d.connect_spaces("room821", "room822")
        ...
        d.run_all()
    """

    def __init__(self, seed: int = 0,
                 config: Optional[MiddlewareConfig] = None,
                 backbone: Optional[LinkSpec] = None,
                 observability=None,
                 faults=None):
        self.loop = EventLoop()
        # Install tracing/metrics hooks before anything can schedule events.
        self.observability = observability
        if observability is not None:
            observability.attach(self.loop)
        self.network = Network(self.loop, seed=seed)
        self.topology = Topology(self.network, backbone=backbone)
        self.platform = AgentPlatform(self.network)
        self.bus = ContextBus(self.loop)
        self.identities = IdentityRegistry()
        self.world = PhysicalWorld()
        self.fusion = LocationFusion(self.bus, self.identities)
        self.predictor = MarkovPredictor()
        # The predictor learns from every fused location event.
        self.bus.subscribe(
            TOPIC_LOCATION,
            lambda e: self.predictor.observe(e.subject, e.get("location"))
            if e.get("location") else None)
        self.sensors: Optional[CricketSensorNetwork] = None
        self.config = config if config is not None else MiddlewareConfig()
        self.middlewares: Dict[str, MDAgentMiddleware] = {}
        self.device_profiles: Dict[str, DeviceProfile] = {}
        self.registry_server: Optional[RegistryServer] = None
        self.registry_host: Optional[str] = None
        self.outcomes: Dict[str, MigrationOutcome] = {}
        self._outcome_seq = itertools.count(1)
        self.prestaging = None
        self.scheduler: Optional[MigrationScheduler] = None
        #: Federated registry (optional) -- see enable_federated_registry().
        self.federation = None
        # Fault injection (optional): the chaos engine arms per its config
        # ("first-migration" by default) and replays its plan on the loop.
        self.chaos = None
        if faults is not None:
            from repro.faults.engine import ChaosEngine
            self.chaos = ChaosEngine(self, faults)

    @functools.cached_property
    def migration_rules(self) -> RuleSet:
        """The rule set every host's decision engine shares.

        Parsed when an engine first evaluates, once per deployment (the
        reasoner only iterates the rules, so the hosts can share them);
        most deployments never evaluate and parse nothing.
        """
        return default_migration_rules()

    def _arm_chaos(self, trigger: str) -> None:
        if self.chaos is not None and self.chaos.config.arm == trigger:
            self.chaos.arm()

    # -- construction ------------------------------------------------------

    def enable_federated_registry(self, cache_ttl_ms: float = 2_000.0,
                                  auto_shards: bool = True):
        """Replace the flat registry center with the per-space federation.

        Must run before any host is added.  With ``auto_shards`` every
        :meth:`add_gateway` call installs that space's shard on the
        gateway; custom placement (e.g. the city's hub aggregation) sets
        it to False and installs shards/aggregators explicitly.  The
        first host still provides the fallback shard, which owns records
        of spaces without one.
        """
        if self.federation is not None:
            return self.federation
        if self.middlewares or self.registry_host is not None:
            raise MiddlewareError(
                "enable_federated_registry() must run before hosts are added")
        from repro.registry.federation import RegistryFederation
        self.federation = RegistryFederation(self, cache_ttl_ms=cache_ttl_ms)
        self.federation.auto_shards = auto_shards
        self.federation.attach_bus(self.bus, TOPIC_APP)
        return self.federation

    def add_space(self, name: str, lan: Optional[LinkSpec] = None):
        return self.topology.add_space(name, lan)

    def add_host(self, name: str, space: str,
                 profile: Optional[DeviceProfile] = None,
                 skew_ms: float = 0.0, drift_ppm: float = 0.0,
                 platform_kind: Optional[str] = None,
                 accepted_platform_kinds: Optional[Tuple[str, ...]] = None
                 ) -> MDAgentMiddleware:
        """Create a host in a space and start a middleware on it.

        The first host added also becomes the registry center unless
        :meth:`install_registry` ran earlier.  ``platform_kind`` (default
        :data:`PLATFORM_KIND`) and ``accepted_platform_kinds`` set the
        host's identity for mixed-platform (FIPA interop) deployments.
        """
        profile = profile if profile is not None else DeviceProfile(host=name)
        host = self.topology.add_host(name, space, skew_ms=skew_ms,
                                      drift_ppm=drift_ppm,
                                      cpu_factor=profile.cpu_factor)
        if self.registry_host is None:
            if self.federation is not None:
                self.federation.install_fallback(name)
            else:
                self.registry_server = install_registry(self.network, name)
            self.registry_host = name
        container = self.platform.create_container(name)
        middleware = MDAgentMiddleware(
            self, host, container, profile, self.config,
            platform_kind=platform_kind,
            accepted_platform_kinds=accepted_platform_kinds)
        self.middlewares[name] = middleware
        self.device_profiles[name] = profile
        return middleware

    def install_registry(self, space: str, host_name: str = "registry"):
        """Dedicate a host to the registry center (call before add_host).

        Under a federation this host carries the fallback shard instead
        of the flat center (returns the host's FederationNode).
        """
        if self.registry_host is not None:
            raise MiddlewareError("registry already installed")
        self.topology.add_host(host_name, space)
        self.registry_host = host_name
        if self.federation is not None:
            return self.federation.install_fallback(host_name)
        self.registry_server = install_registry(self.network, host_name)
        return self.registry_server

    def add_gateway(self, name: str, space: str,
                    processing_delay_ms: float = 5.0):
        gateway = self.topology.add_gateway(name, space, processing_delay_ms)
        if (self.federation is not None and self.federation.auto_shards
                and space not in self.federation.shards):
            self.federation.install_shard(space, name)
        return gateway

    def connect_spaces(self, space_a: str, space_b: str,
                       spec: Optional[LinkSpec] = None) -> None:
        self.topology.connect_spaces(space_a, space_b, spec)

    def enable_prestaging(self, probability_threshold: float = 0.5):
        """Start predictor-driven component pre-staging (see
        :class:`repro.core.prestage.PrestagingService`)."""
        if self.prestaging is None:
            from repro.core.prestage import PrestagingService
            self.prestaging = PrestagingService(self, probability_threshold)
        return self.prestaging

    def enable_migration_scheduler(self, limit: int = 4
                                   ) -> MigrationScheduler:
        """Install the concurrent-migration admission scheduler (see
        :class:`MigrationScheduler`); idempotent, keeps the first limit."""
        if self.scheduler is None:
            self.scheduler = MigrationScheduler(self, limit)
        return self.scheduler

    # -- sensing -----------------------------------------------------------------

    def enable_location_sensing(self, sample_period_ms: float = 200.0,
                                noise_sigma_m: float = 0.3,
                                seed: int = 0) -> CricketSensorNetwork:
        """Start the Cricket sensor network (beacons added per space)."""
        if self.sensors is None:
            self.sensors = CricketSensorNetwork(
                self.loop, self.bus, self.world,
                sample_period_ms=sample_period_ms,
                noise_sigma_m=noise_sigma_m, seed=seed)
            self.sensors.start()
        return self.sensors

    def add_beacon(self, space: str, x: float = 2.0, y: float = 2.0,
                   beacon_id: str = "") -> None:
        if self.sensors is None:
            raise MiddlewareError("call enable_location_sensing() first")
        self.sensors.add_beacon(beacon_id or f"beacon-{space}", space, x, y)

    def add_user(self, user_id: str, badge_id: str, space: str,
                 x: float = 1.0, y: float = 1.0) -> None:
        self.world.add_user(user_id, badge_id, space, x, y)
        self.identities.register(badge_id, user_id)

    def move_user(self, badge_id: str, space: str, x: float = 1.0,
                  y: float = 1.0) -> None:
        self.world.move_user(badge_id, space, x, y)

    def announce_location(self, user_id: str, location: str,
                          previous: Optional[str] = None) -> None:
        """Inject a fused location event directly (no sensors needed)."""
        self.bus.publish(ContextEvent(
            topic=TOPIC_LOCATION, subject=user_id,
            attributes={"location": location, "previous": previous},
            timestamp=self.loop.now, source="manual"))

    def announce_command(self, user_id: str, action: str, app_name: str,
                         destination: str) -> None:
        """Inject an explicit user command -- the paper's "user's
        indication to move an application to a remote host (cut-paste kind
        or copy paste kind)".  ``action`` is ``"move"`` or ``"clone"``."""
        if action not in ("move", "clone"):
            raise MiddlewareError(f"unknown command action {action!r}")
        self.bus.publish(ContextEvent(
            topic=TOPIC_USER_COMMAND, subject=user_id,
            attributes={"action": action, "app_name": app_name,
                        "destination": destination},
            timestamp=self.loop.now, source="user"))

    # -- queries ---------------------------------------------------------------------

    def middleware(self, host_name: str) -> MDAgentMiddleware:
        try:
            return self.middlewares[host_name]
        except KeyError:
            raise MiddlewareError(
                f"no middleware on host {host_name!r}") from None

    def device_profile_of(self, host_name: str) -> Optional[DeviceProfile]:
        return self.device_profiles.get(host_name)

    def application_instances(self, app_name: Optional[str] = None
                              ) -> List[Tuple[str, Application]]:
        """Every installed application instance as ``(host, app)`` pairs.

        A follow-me application should appear exactly once in RUNNING
        state; conservation checkers (:mod:`repro.simcheck`) use this to
        detect instances duplicated or lost across a migration.
        """
        pairs: List[Tuple[str, Application]] = []
        for host_name, middleware in self.middlewares.items():
            for name, app in middleware.applications.items():
                if app_name is None or name == app_name:
                    pairs.append((host_name, app))
        return pairs

    def find_host_in_space(self, space: str, requirements: Dict[str, Any],
                           exclude: Optional[str] = None) -> Optional[str]:
        """First middleware host in ``space`` whose device satisfies the
        requirements (deterministic order)."""
        try:
            space_obj = self.topology.space(space)
        except Exception:
            return None
        for host_name in space_obj.host_names:
            if host_name == exclude or host_name not in self.middlewares:
                continue
            profile = self.device_profiles[host_name]
            if profile.satisfies(requirements):
                return host_name
        return None

    def new_outcome_token(self, app_name: str) -> str:
        return f"{app_name}#{next(self._outcome_seq)}"

    # -- statistics ---------------------------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        """Aggregate counters across every layer (for dashboards/tests)."""
        outcomes = list(self.outcomes.values())
        completed = [o for o in outcomes if o.completed]
        failed = [o for o in outcomes if o.failed]
        stats = {
            "sim_time_ms": self.loop.now,
            "events_processed": self.loop.processed,
            "hosts": len(self.middlewares),
            "spaces": len(self.topology.spaces),
            "applications": sum(len(m.applications)
                                for m in self.middlewares.values()),
            "agents": len(self.platform.agents),
            "acl_messages_sent": self.platform.messages_sent,
            "acl_messages_failed": self.platform.messages_failed,
            "agent_moves_completed": self.platform.mobility.moves_completed,
            "agent_clones_completed": self.platform.mobility.clones_completed,
            "agent_transfers_dropped": self.platform.mobility.transfers_dropped,
            "agent_transfer_retries": self.platform.mobility.transfer_retries,
            "agent_transfers_resumed": self.platform.mobility.transfers_resumed,
            "agent_checkin_dedup_hits": self.platform.mobility.dedup_hits,
            "faults_fired": (self.chaos.faults_fired
                             if self.chaos is not None else 0),
            "faults_reverted": (self.chaos.faults_reverted
                                if self.chaos is not None else 0),
            "migrations_total": len(outcomes),
            "migrations_completed": len(completed),
            "migrations_failed": len(failed),
            "bytes_migrated": sum(o.bytes_transferred for o in completed),
            "context_events_published": self.bus.published,
            "registry_lookups": (
                self.federation.total_lookups()
                if self.federation is not None
                else self.registry_server.center.lookups
                if self.registry_server else 0),
            "network_messages_dropped": self.network.messages_dropped,
        }
        if self.federation is not None:
            stats.update(self.federation.stats())
        return stats

    # -- running ----------------------------------------------------------------------

    def run(self, until: Optional[float] = None) -> int:
        self._arm_chaos("first-run")
        return self.loop.run(until=until)

    def run_all(self, max_events: int = 1_000_000) -> int:
        self._arm_chaos("first-run")
        return self.loop.run_until_idle(max_events=max_events)
