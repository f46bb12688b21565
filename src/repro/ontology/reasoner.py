"""Forward-chaining rule engine (the Jena replacement).

Runs a :class:`~repro.ontology.rules.RuleSet` over a
:class:`~repro.ontology.triples.Graph` to a fixpoint, optionally after
schema materialization, and records one :class:`Derivation` per inferred
triple so decisions are explainable -- the paper's autonomous agents justify
migration commands with the rule that produced them.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from repro.ontology.rules import (
    Bindings,
    BuiltinCall,
    GRAPH_BUILTINS,
    Rule,
    RuleSet,
    TriplePattern,
)
from repro.ontology.schema import SchemaReasoner
from repro.ontology.triples import Graph, Literal, Triple, is_variable


@dataclass(frozen=True)
class Derivation:
    """Provenance of one inferred triple."""

    triple: Triple
    rule_name: str
    bindings: Tuple[Tuple[str, object], ...]
    supports: Tuple[Triple, ...] = field(default=())

    def binding(self, variable: str) -> object:
        for name, value in self.bindings:
            if name == variable:
                return value
        raise KeyError(variable)


def _match_pattern(graph: Graph, pattern: TriplePattern,
                   bindings: Bindings) -> Iterator[Bindings]:
    """Yield extended bindings for every triple matching ``pattern``."""
    bound = pattern.substitute(bindings)

    def as_query(term):
        return None if is_variable(term) else term

    subject = as_query(bound.subject)
    predicate = as_query(bound.predicate)
    obj = as_query(bound.object)
    if isinstance(subject, Literal) or isinstance(predicate, Literal):
        return  # a literal can never occupy subject/predicate position
    for triple in graph.match(subject, predicate, obj):
        extended = dict(bindings)
        consistent = True
        for term, value in zip(bound.terms(), triple):
            if is_variable(term):
                if term in extended and extended[term] != value:
                    consistent = False
                    break
                extended[term] = value
        if consistent:
            yield extended


def _evaluate_body(graph: Graph, rule: Rule,
                   pivot: Optional[int] = None,
                   delta: Optional[Graph] = None
                   ) -> Iterator[Tuple[Bindings, Tuple[Triple, ...]]]:
    """Yield (bindings, supporting triples) for each full body match.

    Triple patterns join in order; each builtin runs as soon as all of its
    variables are bound, pruning the search early.

    When ``pivot``/``delta`` are given (semi-naive evaluation), the
    ``pivot``-th *triple pattern* of the body is matched against ``delta``
    (the triples added last round) instead of the full graph, so only rule
    instances that touch new facts are re-derived.
    """
    clauses = list(rule.body)
    # Map the pivot (an index into the rule's triple patterns) onto the
    # corresponding clause index.
    pivot_clause = -1
    if pivot is not None:
        pattern_seen = -1
        for i, clause in enumerate(clauses):
            if isinstance(clause, TriplePattern):
                pattern_seen += 1
                if pattern_seen == pivot:
                    pivot_clause = i
                    break

    def recurse(index: int, bindings: Bindings, supports: Tuple[Triple, ...],
                pending: List[BuiltinCall]) -> Iterator[Tuple[Bindings, Tuple[Triple, ...]]]:
        # Run any pending builtin whose variables are now all bound.
        still_pending: List[BuiltinCall] = []
        for call in pending:
            if all(v in bindings for v in call.variables()):
                if not call.evaluate(bindings, graph=graph):
                    return
            else:
                still_pending.append(call)
        if index == len(clauses):
            for call in still_pending:
                if not call.evaluate(bindings, graph=graph):
                    return
            yield bindings, supports
            return
        clause = clauses[index]
        if isinstance(clause, BuiltinCall):
            if clause.name in GRAPH_BUILTINS:
                # Graph builtins (noValue) run in body order: variables
                # bound so far constrain the match, the rest are
                # wildcards (Jena's negation-as-failure semantics).
                if not clause.evaluate(bindings, graph=graph):
                    return
                yield from recurse(index + 1, bindings, supports,
                                   still_pending)
                return
            yield from recurse(index + 1, bindings, supports,
                               still_pending + [clause])
            return
        source = delta if index == pivot_clause and delta is not None \
            else graph
        for extended in _match_pattern(source, clause, bindings):
            grounded = clause.to_triple(extended)
            yield from recurse(index + 1, extended, supports + (grounded,),
                               still_pending)

    yield from recurse(0, {}, (), [])


class ForwardChainingReasoner:
    """Fixpoint forward chaining with derivation tracking.

    ``run()`` mutates the *working* graph (a copy unless ``in_place``) and
    returns it; ``derivations`` maps each inferred triple to how it was
    produced.  A ``max_rounds`` guard protects against pathological rule
    sets.

    Two evaluation strategies:

    - ``"seminaive"`` (default): after the first round, each rule joins one
      body pattern against only the *delta* (triples added last round), so
      work per round is proportional to new facts -- the classic Datalog
      optimization.  Rules using graph builtins (``noValue``) fall back to
      naive evaluation, since negation-as-failure must see the whole
      closure each round.
    - ``"naive"``: re-join everything every round (reference behaviour).

    Both strategies produce identical closures (differential-tested).
    """

    def __init__(self, rules: RuleSet, schema: bool = True,
                 max_rounds: int = 1000, strategy: str = "seminaive"):
        if strategy not in ("naive", "seminaive"):
            raise ValueError(f"unknown strategy {strategy!r}")
        self.rules = rules
        self.schema = schema
        self.max_rounds = max_rounds
        self.strategy = strategy
        self.derivations: Dict[Triple, Derivation] = {}
        self.rounds_run = 0
        self.rule_firings = 0

    def run(self, graph: Graph, in_place: bool = False) -> Graph:
        """Apply schema entailment (if enabled) then rules to fixpoint."""
        if self.schema:
            working = SchemaReasoner(graph).materialize()
        else:
            working = graph if in_place else graph.copy()
        self.derivations = {}
        self.rounds_run = 0
        self.rule_firings = 0
        delta: Optional[Graph] = None  # None = first round, match everything
        for _ in range(self.max_rounds):
            self.rounds_run += 1
            use_delta = delta if self.strategy == "seminaive" else None
            rule_added = self._round(working, use_delta)
            if not rule_added:
                return working
            if self.schema:
                # New facts may trigger further schema entailments
                # (e.g. a derived rdf:type propagating up the hierarchy).
                before = set(working)
                working = SchemaReasoner(working).materialize()
                schema_added = [t for t in working if t not in before]
                delta = Graph(rule_added + schema_added)
            else:
                delta = Graph(rule_added)
        raise RuntimeError(
            f"rules did not reach fixpoint within {self.max_rounds} rounds")

    @staticmethod
    def _skolemize(rule: Rule, bindings: Bindings) -> Bindings:
        """Bind the rule's unbound head variables to deterministic fresh
        individuals (stable per body match, so fixpoint iteration is
        idempotent)."""
        skolems = rule.skolem_variables()
        if not skolems:
            return bindings
        key = hashlib.md5(
            repr((rule.name, sorted(bindings.items(), key=lambda kv: kv[0])))
            .encode()).hexdigest()[:12]
        extended = dict(bindings)
        for var in skolems:
            extended[var] = f"_:{rule.name}.{var[1:]}.{key}"
        return extended

    def _round(self, graph: Graph,
               delta: Optional[Graph] = None) -> List[Triple]:
        """One fixpoint round; returns the triples actually added.

        With a ``delta`` graph, rules are evaluated semi-naively: each
        triple pattern takes one turn as the pivot matched against the
        delta, and duplicate body matches across pivots are de-duplicated.
        """
        new_triples: List[Tuple[Triple, Derivation]] = []
        for rule in self.rules:
            for bindings, supports in self._rule_matches(graph, rule, delta):
                self.rule_firings += 1
                bindings = self._skolemize(rule, bindings)
                for template in rule.head:
                    triple = template.to_triple(bindings)
                    if triple not in graph:
                        derivation = Derivation(
                            triple, rule.name,
                            tuple(sorted(bindings.items())), supports)
                        new_triples.append((triple, derivation))
        added: List[Triple] = []
        for triple, derivation in new_triples:
            if graph.add(triple):
                self.derivations.setdefault(triple, derivation)
                added.append(triple)
        return added

    def _rule_matches(self, graph: Graph, rule: Rule,
                      delta: Optional[Graph]
                      ) -> Iterator[Tuple[Bindings, Tuple[Triple, ...]]]:
        patterns = rule.patterns
        naive = (delta is None or not patterns
                 or any(c.name in GRAPH_BUILTINS for c in rule.builtins))
        if naive:
            yield from _evaluate_body(graph, rule)
            return
        if len(delta) == 0:
            return
        seen = set()
        for pivot in range(len(patterns)):
            for bindings, supports in _evaluate_body(graph, rule,
                                                     pivot=pivot,
                                                     delta=delta):
                key = tuple(sorted(bindings.items(),
                                   key=lambda kv: kv[0]))
                if key in seen:
                    continue
                seen.add(key)
                yield bindings, supports

    def explain(self, triple: Triple) -> Optional[Derivation]:
        """The derivation that first produced ``triple`` (None if asserted)."""
        return self.derivations.get(triple)
