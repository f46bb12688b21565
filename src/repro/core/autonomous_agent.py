"""Autonomous agents: context-driven, rule-based migration decisions.

"Autonomous agent is responsible for reasoning and decision-making according
to the data received from context layer" (paper §4.1).  The
:class:`DecisionEngine` turns the situation (destination candidate, network
response time, device compatibility, destination inventory) into ontology
facts, runs the Fig. 6-style rule set through the forward chainer, and reads
the derived ``move`` action back out -- so every migration command is
explainable by a rule derivation.

:class:`MDAutonomousAgent` is the resident agent per middleware host: it
consumes context events (location changes, explicit user commands), asks the
registry about candidate destinations, consults the decision engine and then
REQUESTs the mobile agent manager to execute (the Fig. 4 sequence).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple, Union

from repro.agents.acl import ACLMessage, Performative
from repro.agents.agent import Agent
from repro.agents.behaviours import CyclicBehaviour
from repro.core.binding import BindingPolicy, MigrationKind
from repro.core.rulesets import default_migration_rules
from repro.ontology.reasoner import Derivation, ForwardChainingReasoner
from repro.ontology.rules import RuleSet
from repro.ontology.triples import Graph, Literal

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.middleware import MDAgentMiddleware

#: The ACL protocol of the AA's migration requests to the MA manager.
MIGRATION_PROTOCOL = "md-migration"


@dataclass
class Decision:
    """Outcome of one rule evaluation."""

    move: bool
    source: str
    destination: str
    #: "delta" (destination has components; wrap states only) or "full"
    #: (carry logic + UI as well) -- the adaptive-binding choice of §5.
    carry_policy: str = "delta"
    derivation: Optional[Derivation] = None
    facts: int = 0

    def __bool__(self) -> bool:
        return self.move


class DecisionEngine:
    """Evaluates the migration rules over situation facts.

    ``rules`` is a rule set or a zero-argument function returning one
    (default: :func:`default_migration_rules`).  A function runs once,
    when the engine first needs the rules, so an engine that never
    evaluates parses nothing.
    """

    def __init__(self,
                 rules: Union[RuleSet, Callable[[], RuleSet], None] = None):
        self._rules = default_migration_rules if rules is None else rules
        self.evaluations = 0

    @property
    def rules(self) -> RuleSet:
        if callable(self._rules):
            self._rules = self._rules()
        return self._rules

    def evaluate(self, source: str, destination: str,
                 response_time_ms: float, device_compatible: bool,
                 destination_has_components: bool,
                 compatible_resources: Tuple[Tuple[str, str], ...] = ()
                 ) -> Decision:
        """Build the fact base, forward-chain, and read the action off."""
        self.evaluations += 1
        graph = Graph()
        graph.assert_("imcl:src", "imcl:address", Literal(source))
        graph.assert_("imcl:dest", "imcl:address", Literal(destination))
        graph.assert_("imcl:link", "imcl:responseTime",
                      Literal(float(response_time_ms), "xsd:double"))
        graph.assert_("imcl:dest", "imcl:deviceCompatible",
                      Literal(bool(device_compatible), "xsd:boolean"))
        graph.assert_("imcl:dest", "imcl:hasComponents",
                      Literal(bool(destination_has_components), "xsd:boolean"))
        for src_resource, dest_resource in compatible_resources:
            graph.assert_(src_resource, "imcl:compatible", dest_resource)
        reasoner = ForwardChainingReasoner(self.rules, schema=False)
        inferred = reasoner.run(graph)
        move_actions = [
            t for t in inferred.match(None, "imcl:actName", Literal("move"))
        ]
        decision = Decision(move=bool(move_actions), source=source,
                            destination=destination, facts=len(graph))
        if move_actions:
            decision.derivation = reasoner.explain(move_actions[0])
        carry = inferred.value("imcl:dest", "imcl:carryPolicy")
        if carry == Literal("full") or (isinstance(carry, Literal)
                                        and carry.value == "full"):
            decision.carry_policy = "full"
        return decision


class ContextPump(CyclicBehaviour):
    """The autonomous agent's inbox: context events in INFORM messages.

    It also takes the mobile agent manager's replies to the agent's
    migration requests, all of them before the next event, so a reply
    never costs the agent an extra step.
    """

    def action(self):
        agent = self.agent
        reply = agent.receive(protocol=MIGRATION_PROTOCOL)
        while reply is not None:
            agent.migration_replies[reply.performative] += 1
            reply = agent.receive(protocol=MIGRATION_PROTOCOL)
        message = agent.receive(performative=Performative.INFORM)
        if message is None:
            self.block()
            return
        content = message.content
        if not isinstance(content, dict):
            return
        topic = content.get("topic")
        if topic == "context.location":
            agent._on_location_change(content)
        elif topic == "context.command":
            agent._on_user_command(content)


class MDAutonomousAgent(Agent):
    """The per-host autonomous agent.

    Wakes on context events delivered as INFORM messages with dict content
    ``{"topic": "context.location", "subject": user, "location": ...,
    "previous": ...}`` (the middleware bridges the context bus to ACL).  For
    every hosted application owned by the moving user and marked
    ``follow_user``, it plans and requests a migration.
    """

    def __init__(self, local_name: str):
        super().__init__(local_name)
        self.middleware: Optional["MDAgentMiddleware"] = None
        self.engine: Optional[DecisionEngine] = None
        self.decisions: List[Decision] = []
        self.migrations_requested = 0
        #: The MA manager's replies to those requests, by performative
        #: (AGREE, REFUSE or FAILURE).
        self.migration_replies: Counter = Counter()

    def attach(self, middleware: "MDAgentMiddleware") -> None:
        self.middleware = middleware
        deployment = middleware.deployment
        self.engine = DecisionEngine(lambda: deployment.migration_rules)

    def setup(self) -> None:
        self.add_behaviour(ContextPump(name="context-pump"))

    # -- decision flow ---------------------------------------------------------

    def _on_location_change(self, event: Dict) -> None:
        middleware = self.middleware
        if middleware is None:
            return
        user = event.get("subject")
        new_space = event.get("location")
        if not user or not new_space:
            return
        if middleware.deployment.topology.space_of(middleware.host_name) \
                == new_space:
            return  # the user arrived where the apps already are
        for app in list(middleware.applications.values()):
            if app.owner != user:
                continue
            if not app.user_profile.preference("follow_user", True):
                continue
            if app.status.value != "running":
                continue
            self._consider_migration(app, new_space)

    def _on_user_command(self, event: Dict) -> None:
        """An explicit user indication: move/clone an app to a named host.

        The destination is given, but the AA still verifies device
        compatibility and network condition through the rule engine before
        commanding the mobile agent manager.
        """
        middleware = self.middleware
        if middleware is None:
            return
        app = middleware.applications.get(event.get("app_name") or "")
        if app is None or app.owner != event.get("subject"):
            return
        if app.status.value != "running":
            return
        destination = event.get("destination")
        if not destination or destination == middleware.host_name:
            return
        kind = (MigrationKind.CLONE_DISPATCH
                if event.get("action") == "clone"
                else MigrationKind.FOLLOW_ME)
        self._query_destination(app, destination, kind=kind)

    def _consider_migration(self, app, new_space: str) -> None:
        middleware = self.middleware
        if middleware.config.destination_strategy == "contract-net":
            self._solicit_bids(app, new_space)
            return
        destination = middleware.deployment.find_host_in_space(
            new_space, app.device_requirements,
            exclude=middleware.host_name)
        if destination is None:
            return
        self._query_destination(app, destination)

    def _solicit_bids(self, app, new_space: str) -> None:
        """Contract net: CFP every candidate host's MA manager; the
        least-loaded (then fastest) bidder wins."""
        middleware = self.middleware
        deployment = middleware.deployment
        try:
            space = deployment.topology.space(new_space)
        except Exception:
            return
        contractors = [
            f"mam-{h}@{h}" for h in space.host_names
            if h != middleware.host_name and h in deployment.middlewares
        ]
        if not contractors:
            return

        def select(proposals):
            ranked = sorted(
                proposals.items(),
                key=lambda kv: (kv[1]["running_apps"],
                                kv[1]["cpu_factor"], kv[1]["host"]))
            return ranked[0][0]

        def on_award(winner_aid, proposal):
            if proposal is not None:
                self._query_destination(app, proposal["host"])

        from repro.agents.protocols import ContractNetInitiator
        self.add_behaviour(ContractNetInitiator(
            contractors, {"app_name": app.name,
                          "requirements": app.device_requirements},
            "md-hosting", select, on_award,
            name=f"cfp-{app.name}"))

    def _query_destination(self, app, destination: str,
                           kind: MigrationKind = MigrationKind.FOLLOW_ME
                           ) -> None:
        # Ask the registry what the destination already has, then decide.
        self.middleware.registry_client.call(
            "components_at",
            {"app_name": app.name, "host": destination},
            lambda components, error: self._decide(
                app, destination, components or [], error, kind))

    def _decide(self, app, destination: str, dest_components: List[str],
                error: Optional[str],
                kind: MigrationKind = MigrationKind.FOLLOW_ME) -> None:
        middleware = self.middleware
        if error is not None:
            return
        response_time = middleware.measured_response_time(destination)
        device = middleware.deployment.device_profile_of(destination)
        device_ok = device is not None and \
            device.satisfies(app.device_requirements)
        decision = self.engine.evaluate(
            source=middleware.host_name,
            destination=destination,
            response_time_ms=response_time,
            device_compatible=device_ok,
            destination_has_components=bool(dest_components),
        )
        self.decisions.append(decision)
        if not decision.move:
            return
        self.migrations_requested += 1
        # Fig. 4: the AA notifies the MA manager with a migration request.
        request = ACLMessage(
            Performative.REQUEST,
            receivers=[middleware.ma_manager_aid],
            content={
                "action": "migrate",
                "app_name": app.name,
                "destination": destination,
                "kind": kind.value,
                "policy": BindingPolicy.ADAPTIVE.value,
                "carry_policy": decision.carry_policy,
            },
            protocol=MIGRATION_PROTOCOL,
        )
        self.send(request)


class RequestPump(CyclicBehaviour):
    """The mobile agent manager's inbox: migration REQUESTs."""

    def action(self):
        agent = self.agent
        message = agent.receive(performative=Performative.REQUEST,
                                protocol=MIGRATION_PROTOCOL)
        if message is None:
            self.block()
            return
        agent._handle(message)


class MDMobileAgentManager(Agent):
    """The mobile agent manager: turns AA requests into executed plans.

    "The autonomous agent will decide whether and what parts of application
    will be shipped to the new environments through a message to the mobile
    agent manager" (§4.3).
    """

    def __init__(self, local_name: str):
        super().__init__(local_name)
        self.middleware: Optional["MDAgentMiddleware"] = None
        self.requests_handled = 0
        self._capability_responder = None

    def attach(self, middleware: "MDAgentMiddleware") -> None:
        self.middleware = middleware

    def enable_capability_responder(self) -> None:
        """Serve FIPA capability proposals (propose/accept/reject) -- the
        destination side of the interop migration protocol."""
        if self._capability_responder is not None:
            return
        from repro.agents.protocols import ProposeResponder
        from repro.core.pipeline import CAPABILITY_PROTOCOL
        self._capability_responder = ProposeResponder(
            CAPABILITY_PROTOCOL, self._consider_proposal,
            name="capability-negotiation")
        self.add_behaviour(self._capability_responder)

    def _consider_proposal(self, message: ACLMessage):
        middleware = self.middleware
        if middleware is None or not isinstance(message.content, dict):
            return False, {"reason": "malformed proposal"}
        return middleware.evaluate_migration_proposal(message.content)

    def setup(self) -> None:
        self.add_behaviour(RequestPump(name="migration-requests"))
        # Contract-net contractor: bid to host incoming applications.
        from repro.agents.protocols import ContractNetResponder
        self.add_behaviour(ContractNetResponder(
            "md-hosting", self._bid, name="hosting-bids"))

    def _bid(self, cfp):
        """Bid on a hosting CFP: refuse if this device does not satisfy the
        app's requirements, otherwise report load + speed."""
        middleware = self.middleware
        if middleware is None or not isinstance(cfp, dict):
            return None
        requirements = cfp.get("requirements", {})
        if not middleware.device_profile.satisfies(requirements):
            return None
        running = sum(1 for a in middleware.applications.values()
                      if a.status.value == "running")
        return {
            "host": middleware.host_name,
            "running_apps": running,
            "cpu_factor": middleware.device_profile.cpu_factor,
        }

    def _handle(self, message: ACLMessage) -> None:
        middleware = self.middleware
        content = message.content
        if not isinstance(content, dict) or content.get("action") != "migrate":
            self.send(message.create_reply(Performative.REFUSE,
                                           content="unsupported request"))
            return
        self.requests_handled += 1
        try:
            middleware.migrate(
                content["app_name"], content["destination"],
                kind=MigrationKind(content.get("kind", "follow-me")),
                policy=BindingPolicy(content.get("policy", "adaptive")))
        except Exception as exc:
            self.send(message.create_reply(Performative.FAILURE,
                                           content=str(exc)))
            return
        self.send(message.create_reply(Performative.AGREE,
                                       content="migration started"))
