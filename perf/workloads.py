"""The four benchmark workloads, driven through ``repro``'s public API.

Each workload builds its deployment(s) inside ``phase("setup")`` and
drives its operations inside ``phase("run")``; the caller times both
phases.  Afterwards a workload exposes:

- ``ops``: one ``(op_id, state, latency_ms)`` per attempted operation,
  where ``state`` is ``completed``, ``failed`` or ``refused`` (anything
  else means the operation never reached a terminal state) and the
  latency (sim ms) is set for completed operations only;
- ``terminal_calls``: how many terminal callbacks each op id received
  (the correctness gate wants exactly one);
- ``problems``: correctness violations found at quiescence;
- ``counters``: public per-layer counters read after quiescence.

Inputs derive from ``seed`` alone: the same seed gives the same
scenario, and the simulation is deterministic, so two fresh processes
running one workload at one seed produce identical ops.
"""

from __future__ import annotations

import random
from collections import Counter
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.apps import MusicPlayerApp
from repro.city.workload import CityConfig, CityWorkload
from repro.core.application import AppStatus
from repro.core.binding import BindingPolicy
from repro.core.errors import MiddlewareError, MigrationError
from repro.core.middleware import Deployment
from repro.faults.engine import FaultConfig
from repro.net.topology import LinkSpec
from repro.ontology.vocabulary import IMCL
from repro.simcheck.scenario import (
    build_application,
    build_deployment,
    generate_scenario,
)

#: Workload sizes.  ``full`` is the benchmark; ``smoke`` keeps the
#: self-tests fast.  Every ``full`` workload completes at least 1,500
#: operations (``fault_corpus``: about 1,250), so its p99 has at least 15
#: (12) samples beyond it.
SCALES: Dict[str, Dict[str, Dict[str, int]]] = {
    "full": {
        "city_day": {"spaces": 60, "users": 500},
        "bulk_transfer": {"legs": 1_600},
        "registry_storm": {"spaces": 60, "users": 500, "passes": 8},
        "fault_corpus": {"scenarios": 800},
    },
    "smoke": {
        "city_day": {"spaces": 40, "users": 120},
        "bulk_transfer": {"legs": 120},
        "registry_storm": {"spaces": 40, "users": 120, "passes": 2},
        "fault_corpus": {"scenarios": 40},
    },
}

Phase = Callable[[str], Any]


def _empty_counters() -> Dict[str, Any]:
    return {
        "events": 0, "bytes_on_wire": 0, "messages_dropped": 0,
        "control_busy_ms": 0.0, "bulk_busy_ms": 0.0,
        "route_hits": 0, "route_misses": 0,
        "acl_messages": 0, "moves": 0, "transfer_retries": 0,
        "dedup_hits": 0, "migrations": 0, "queue_waits": [],
        "prestage_pushes": 0, "prestage_hits": 0,
        "registry_requests": 0, "registry_lookups": 0,
        "cache_hits": 0, "cache_misses": 0,
        "events_published": 0, "faults_fired": 0,
    }


def _add_deployment_counters(counters: Dict[str, Any], d) -> None:
    """Fold one quiescent deployment's public counters into ``counters``."""
    network = d.network
    counters["bytes_on_wire"] += network.bytes_on_wire
    counters["messages_dropped"] += network.messages_dropped
    for link in network.links:
        counters["control_busy_ms"] += link.class_busy_ms.get("control", 0.0)
        counters["bulk_busy_ms"] += link.class_busy_ms.get("bulk", 0.0)
    counters["route_hits"] += network.route_cache_hits
    counters["route_misses"] += network.route_cache_misses
    mobility = d.platform.mobility
    counters["acl_messages"] += d.platform.messages_sent
    counters["moves"] += mobility.moves_completed
    counters["transfer_retries"] += mobility.transfer_retries
    counters["dedup_hits"] += mobility.dedup_hits
    counters["migrations"] += sum(
        1 for o in d.outcomes.values()
        if not getattr(o.plan, "prestage", False))
    if d.scheduler is not None:
        counters["queue_waits"].extend(
            r.queue_wait_ms for r in d.scheduler.requests
            if r.state in ("active", "done"))
    if d.prestaging is not None:
        counters["prestage_pushes"] += d.prestaging.prestages_started
        counters["prestage_hits"] += d.prestaging.hits
    for middleware in d.middlewares.values():
        client = middleware.registry_client
        counters["registry_requests"] += client.calls
        counters["cache_hits"] += getattr(client, "cache_hits", 0)
        counters["cache_misses"] += getattr(client, "cache_misses", 0)
    if d.federation is not None:
        counters["registry_lookups"] += d.federation.total_lookups()
        for node in d.federation.nodes.values():
            counters["cache_hits"] += node.cache_hits
            counters["cache_misses"] += node.cache_misses
    elif d.registry_server is not None:
        counters["registry_lookups"] += d.registry_server.center.lookups
    counters["events_published"] += d.bus.published
    if d.chaos is not None:
        counters["faults_fired"] += d.chaos.faults_fired


def _quiescence_problems(d, label: str) -> List[str]:
    """Conservation checks every workload shares."""
    problems = []
    if d.loop.pending:
        problems.append(f"{label}: {d.loop.pending} events still queued")
    network = d.network
    if network.bytes_on_wire != network.bytes_off_wire:
        problems.append(
            f"{label}: bytes_on_wire {network.bytes_on_wire} != "
            f"bytes_off_wire {network.bytes_off_wire}")
    running: Counter = Counter()
    names = set()
    for _host, app in d.application_instances():
        names.add(app.name)
        if app.status is AppStatus.RUNNING:
            running[app.name] += 1
    for name in sorted(names):
        if running[name] != 1:
            problems.append(
                f"{label}: app {name!r} RUNNING {running[name]} times")
    return problems


class Workload:
    """Base: op ledger, terminal-callback counts, problems, counters."""

    name = ""
    #: Latency limit (sim ms) behind ``on_time_share``.
    limit_ms = 0.0
    #: Whether ``ops_per_s`` divides by setup plus run time instead of the
    #: run time alone (see :class:`FaultCorpus`).
    setup_in_throughput = False

    def __init__(self, seed: int, scale: str = "full"):
        self.seed = seed
        self.size = SCALES[scale][self.name]
        self.ops: List[Tuple[str, str, Optional[float]]] = []
        self.terminal_calls: Counter = Counter()
        self.problems: List[str] = []
        #: Completed operations whose answer was wrong.
        self.wrong_answers = 0
        #: Inputs the simulator mishandled (replaced and reported).
        self.skipped: List[str] = []
        self.counters = _empty_counters()

    def execute(self, phase: Phase) -> None:
        raise NotImplementedError

    def _drive(self, d, phase: Phase, body: Callable[[], None]) -> None:
        """Run ``body`` as the measured phase and count its kernel events."""
        before = d.loop.processed
        with phase("run"):
            body()
        self.counters["events"] += d.loop.processed - before


class _LedgerCity(CityWorkload):
    """A city run that counts the scheduler's completion callbacks."""

    def __init__(self, config: CityConfig, calls: Counter):
        super().__init__(config)
        self._calls = calls

    def _on_leg_done(self, request) -> None:
        self._calls[str(request.seq)] += 1
        super()._on_leg_done(request)


class CityDay(Workload):
    """One commuting day of a city through the migration scheduler."""

    name = "city_day"

    def execute(self, phase: Phase) -> None:
        config = CityConfig(seed=11 + self.seed, spaces=self.size["spaces"],
                            users=self.size["users"])
        self.limit_ms = config.deadline_ms
        city = _LedgerCity(config, self.terminal_calls)
        with phase("setup"):
            d = city.build()
            d.run_all(max_events=config.max_events)
        self._drive(d, phase, city.run)
        for request in d.scheduler.requests:
            op_id = str(request.seq)
            outcome = request.outcome
            if request.state == "rejected":
                self.ops.append((op_id, "refused", None))
            elif request.state != "done":
                self.ops.append((op_id, request.state, None))
            elif outcome.completed:
                self.ops.append((op_id, "completed",
                                 outcome.resume_done_at - request.queued_at))
            else:
                self.ops.append((op_id, "failed", None))
        self.problems += _quiescence_problems(d, self.name)
        _add_deployment_counters(self.counters, d)


class BulkTransfer(Workload):
    """Single-use music-player legs over a lossy 8-space backbone ring."""

    name = "bulk_transfer"
    limit_ms = 30_000.0
    SPACES = 8
    HOSTS = 4
    TRACK_BYTES = 400_000
    INTERVAL_MS = 140.0

    def _build(self) -> Deployment:
        seed = 7 + self.seed
        d = Deployment(
            seed=seed,
            backbone=LinkSpec(bandwidth_mbps=10.0, latency_ms=20.0,
                              loss_rate=0.001),
            faults=FaultConfig(seed=seed, transfer_chunk_bytes=16_384,
                               transfer_window=8, max_transfer_retries=8,
                               arm="manual"))
        lan = LinkSpec(bandwidth_mbps=100.0, latency_ms=1.0)
        for i in range(self.SPACES):
            d.add_space(f"ring{i}", lan=lan)
            for j in range(self.HOSTS):
                d.add_host(f"r{i}-h{j}", f"ring{i}")
        for i in range(self.SPACES):
            d.add_gateway(f"gw{i}", f"ring{i}")
        for i in range(self.SPACES):
            d.connect_spaces(f"ring{i}", f"ring{(i + 1) % self.SPACES}")
        d.enable_migration_scheduler(limit=16)
        return d

    def _plan(self) -> List[Tuple[str, str]]:
        """(source, destination) per leg: every fourth leg stays inside
        its space, the rest cross one backbone hop to a ring neighbour."""
        rng = random.Random(f"perf.bulk_transfer:{self.seed}")
        legs = []
        for k in range(self.size["legs"]):
            space = rng.randrange(self.SPACES)
            host = rng.randrange(self.HOSTS)
            if k % 4 == 3:
                peer = (host + rng.randrange(1, self.HOSTS)) % self.HOSTS
                legs.append((f"r{space}-h{host}", f"r{space}-h{peer}"))
            else:
                other = (space + rng.choice((1, -1))) % self.SPACES
                legs.append((f"r{space}-h{host}",
                             f"r{other}-h{rng.randrange(self.HOSTS)}"))
        return legs

    def execute(self, phase: Phase) -> None:
        legs = self._plan()
        handles: Dict[str, Any] = {}
        with phase("setup"):
            d = self._build()
            for k, (source, _dest) in enumerate(legs):
                app = MusicPlayerApp.build(f"track{k:05d}", f"user{k}",
                                           track_bytes=self.TRACK_BYTES)
                d.middleware(source).launch_application(app)
            d.run_all()

        def on_done(request) -> None:
            self.terminal_calls[request.app_name] += 1

        def submit(k: int, source: str, destination: str) -> None:
            handles[f"track{k:05d}"] = d.scheduler.submit(
                source, f"track{k:05d}", destination,
                deadline_ms=self.limit_ms, on_done=on_done)

        def run() -> None:
            t0 = d.loop.now
            for k, (source, destination) in enumerate(legs):
                d.loop.call_at(t0 + k * self.INTERVAL_MS, submit, k, source,
                               destination)
            d.run_all(max_events=20_000_000)

        self._drive(d, phase, run)
        for k in range(len(legs)):
            op_id = f"track{k:05d}"
            request = handles.get(op_id)
            if request is None or request.state not in ("done", "rejected"):
                self.ops.append((op_id, "pending", None))
            elif request.state == "rejected":
                self.ops.append((op_id, "refused", None))
            elif request.outcome.completed:
                self.ops.append((op_id, "completed",
                                 request.outcome.resume_done_at
                                 - request.queued_at))
            else:
                self.ops.append((op_id, "failed", None))
        self.problems += _quiescence_problems(d, self.name)
        _add_deployment_counters(self.counters, d)


class RegistryStorm(Workload):
    """Open-loop registry client calls against a federated city."""

    name = "registry_storm"
    limit_ms = 100.0
    INTERVAL_MS = 2.0

    def execute(self, phase: Phase) -> None:
        config = CityConfig(seed=11 + self.seed, spaces=self.size["spaces"],
                            users=self.size["users"],
                            federated_registry=True)
        city = CityWorkload(config)
        printers: List[Tuple[str, str]] = []
        with phase("setup"):
            d = city.build()
            for space in city.city.spaces:
                if space.kind == "office":
                    host = space.hosts[0]
                    resource = f"imcl:printer-{space.name}"
                    d.middleware(host).register_resource(resource,
                                                         [IMCL.Printer])
                    printers.append((resource, host))
            d.run_all(max_events=config.max_events)
        apps = sorted(city.app_host)
        expected = {}
        for host, app in d.application_instances():
            expected[app.name] = (host, sorted(app.component_kinds()))
        rng = random.Random(f"perf.registry_storm:{self.seed}")
        # Each app is watched by one client somewhere in the city, which
        # polls it once per pass (so its TTL cache can hit between passes).
        hosts = sorted(d.middlewares)
        watcher = {app_name: rng.choice(hosts) for app_name in apps}
        calls = []
        storm_resources: List[str] = []
        for _ in range(self.size["passes"]):
            for app_name in apps:
                u = rng.random()
                caller = watcher[app_name]
                if u < 0.90:
                    calls.append((caller, "components_at",
                                  {"app_name": app_name,
                                   "host": expected[app_name][0]}))
                elif u < 0.92:
                    calls.append((caller, "application_hosts",
                                  {"app_name": app_name}))
                elif u < 0.96:
                    required = rng.choice(printers)[0]
                    target = rng.choice(printers)[1]
                    calls.append((caller, "find_compatible",
                                  {"required_resource": required,
                                   "host": target}))
                elif storm_resources and rng.random() < 0.5:
                    calls.append((caller, "deregister_resource",
                                  {"resource_id": storm_resources.pop(0)}))
                else:
                    resource = f"imcl:storm-{len(calls)}"
                    storm_resources.append(resource)
                    calls.append((caller, "register_resource", {"record": {
                        "resource_id": resource, "host": caller,
                        "classes": [IMCL.Printer], "properties": {}}}))
        answers: Dict[str, Tuple[float, Any, Optional[str]]] = {}

        def issue(i: int, due: float, host: str, operation: str,
                  args: Dict[str, Any]) -> None:
            op_id = str(i)

            def callback(result: Any, error: Optional[str]) -> None:
                self.terminal_calls[op_id] += 1
                answers.setdefault(op_id, (d.loop.now - due, result, error))

            d.middleware(host).registry_client.call(operation, dict(args),
                                                    callback)

        def run() -> None:
            t0 = d.loop.now
            for i, (host, operation, args) in enumerate(calls):
                due = t0 + i * self.INTERVAL_MS
                d.loop.call_at(due, issue, i, due, host, operation, args)
            d.run_all(max_events=config.max_events)

        self._drive(d, phase, run)
        for i, (host, operation, args) in enumerate(calls):
            op_id = str(i)
            answer = answers.get(op_id)
            if answer is None:
                self.ops.append((op_id, "pending", None))
                continue
            latency, result, error = answer
            if error is not None:
                self.ops.append((op_id, "failed", None))
                continue
            wrong = self._check_answer(operation, args, result, expected)
            if wrong:
                self.wrong_answers += 1
                self.problems.append(f"{self.name}: call {i} {wrong}")
            self.ops.append((op_id, "completed", latency))
        self.problems += _quiescence_problems(d, self.name)
        _add_deployment_counters(self.counters, d)

    @staticmethod
    def _check_answer(operation: str, args: Dict[str, Any], result: Any,
                      expected: Dict[str, Tuple[str, List[str]]]) -> str:
        if operation == "components_at":
            want = expected[args["app_name"]][1]
            if sorted(result) != want:
                return f"components_at -> {result!r}, want {want!r}"
        elif operation == "application_hosts":
            want = [expected[args["app_name"]][0]]
            if list(result) != want:
                return f"application_hosts -> {result!r}, want {want!r}"
        elif operation == "find_compatible":
            if not result.get("matched"):
                return f"find_compatible -> {result!r}, want a match"
        return ""


class FaultCorpus(Workload):
    """Many small simcheck scenarios with faults, driven leg by leg.

    A scenario the simulator mishandles -- it raises out of the event
    loop, leaves a migration without a terminal state, or loses an app --
    is a defect of the simulator on that input, not of this benchmark: it
    is listed in ``skipped``, its results are dropped and the next seed
    takes its place, so every run drives the same number of scenarios.
    More than 1 % replaced scenarios fails the correctness gate.
    """

    name = "fault_corpus"
    #: Matches the migration deadline the scenarios are built with.
    limit_ms = 30_000.0
    #: Every leg's scenario is built just for it, so building is part of
    #: each leg's cost.  It also keeps the throughput steady: the
    #: collector's full passes (hundreds of ms on this workload's growing
    #: heap) fall into setup or run depending on the seed.
    setup_in_throughput = True

    def execute(self, phase: Phase) -> None:
        count = self.size["scenarios"]
        scenario_seed = self.seed * count
        driven = 0
        while driven < count:
            reason = self._scenario(generate_scenario(scenario_seed), phase)
            if reason:
                self.skipped.append(f"scenario {scenario_seed}: {reason}")
            else:
                driven += 1
            scenario_seed += 1
        if len(self.skipped) > count // 100:
            self.problems.append(
                f"{self.name}: {len(self.skipped)} of {count} scenarios "
                f"mishandled by the simulator")

    def _scenario(self, scenario, phase: Phase) -> str:
        """Drive one scenario; keep its results only if the simulator
        handled it.  Returns why it was dropped ('' when kept)."""
        ops: List[Tuple[str, str, Optional[float]]] = []
        calls: Counter = Counter()
        policies = {a.name: a.policy for a in scenario.apps}

        def run() -> None:
            for index, leg in enumerate(scenario.legs):
                d.loop.advance(leg.pause_before_ms)
                source = _running_host(d, leg.app_name)
                if source is None or source == leg.destination:
                    continue  # not an attempt: nothing to migrate
                op_id = f"{scenario.seed}:{index}"
                started = d.loop.now
                try:
                    outcome = d.middleware(source).migrate(
                        leg.app_name, leg.destination,
                        policy=BindingPolicy(policies[leg.app_name]))
                except (MigrationError, MiddlewareError):
                    calls[op_id] += 1
                    ops.append((op_id, "refused", None))
                    continue
                outcome.on_complete(
                    lambda _o, op_id=op_id: calls.update([op_id]))
                d.run_all()
                if outcome.completed:
                    ops.append((op_id, "completed",
                                outcome.resume_done_at - started))
                elif outcome.failed:
                    ops.append((op_id, "failed", None))
                else:
                    ops.append((op_id, "pending", None))
            d.run_all()
            if scenario.plan.horizon_ms:
                d.loop.advance(scenario.plan.horizon_ms + 1_000.0)
                d.run_all()

        try:
            with phase("setup"):
                d = build_deployment(scenario)
                for spec in scenario.apps:
                    d.middleware(spec.launch_host).launch_application(
                        build_application(spec))
                d.run_all()
                d.loop.advance(scenario.warmup_ms)
            before = d.loop.processed
            with phase("run"):
                run()
        except Exception as exc:  # the simulator crashed on this input
            return f"{type(exc).__name__}: {exc}"
        problems = _quiescence_problems(d, "deployment")
        stuck = sum(1 for op_id, state, _ in ops
                    if state == "pending" or calls[op_id] != 1)
        if stuck:
            problems.append(f"{stuck} migrations without one terminal state")
        if problems:
            return ";".join(problems)
        self.ops += ops
        self.terminal_calls.update(calls)
        self.counters["events"] += d.loop.processed - before
        _add_deployment_counters(self.counters, d)
        return ""


def _running_host(d, app_name: str) -> Optional[str]:
    for host, app in d.application_instances(app_name):
        if app.status is AppStatus.RUNNING:
            return host
    return None


WORKLOADS = {cls.name: cls for cls in
             (CityDay, BulkTransfer, RegistryStorm, FaultCorpus)}
