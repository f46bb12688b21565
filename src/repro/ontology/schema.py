"""RDFS + OWL-lite schema inference.

Implements the schema entailments the paper's resource descriptions rely on
(Fig. 5 declares ``hpLaserJet ⊑ Printer``, ``locatedIn`` transitive, ...):

- reflexive-transitive subclass / subproperty closure,
- type propagation along ``rdfs:subClassOf``,
- property propagation along ``rdfs:subPropertyOf``,
- ``owl:TransitiveProperty``, ``owl:SymmetricProperty``, ``owl:inverseOf``,
- ``rdfs:domain`` / ``rdfs:range`` type inference,
- ``owl:equivalentClass`` as mutual subclassing.

The reasoner materializes inferences into a fresh graph (leaving the asserted
graph untouched) and answers subsumption queries.
"""

from __future__ import annotations

import copy
from typing import Dict, Set

from repro.ontology.triples import Graph, Literal, Triple
from repro.ontology.vocabulary import (
    OWL_EQUIVALENT_CLASS,
    OWL_INVERSE_OF,
    OWL_SYMMETRIC,
    OWL_TRANSITIVE,
    RDF_TYPE,
    RDFS_DOMAIN,
    RDFS_RANGE,
    RDFS_SUBCLASSOF,
    RDFS_SUBPROPERTYOF,
)


def _transitive_closure(edges: Dict[str, Set[str]]) -> Dict[str, Set[str]]:
    """Reachability closure of a directed graph given as adjacency sets."""
    closure: Dict[str, Set[str]] = {}
    for start in edges:
        seen: Set[str] = set()
        stack = list(edges.get(start, ()))
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            stack.extend(edges.get(node, ()))
        closure[start] = seen
    return closure


class SchemaReasoner:
    """Schema-level reasoner over a :class:`Graph`.

    Build once per (schema + facts) graph; ``materialize()`` returns the
    asserted graph plus all schema entailments.  Query helpers
    (``is_subclass_of``, ``types_of``, ...) operate on the closure.
    """

    def __init__(self, graph: Graph):
        self.graph = graph
        self._subclass = self._closure_of(RDFS_SUBCLASSOF, OWL_EQUIVALENT_CLASS)
        self._subproperty = self._closure_of(RDFS_SUBPROPERTYOF)

    def over(self, graph: Graph) -> "SchemaReasoner":
        """This reasoner's closure, reading ``graph``'s facts: valid while
        ``graph`` holds the same hierarchy triples as :attr:`graph`."""
        reasoner = copy.copy(self)
        reasoner.graph = graph
        return reasoner

    def _closure_of(self, predicate: str, equivalence: str = "") -> Dict[str, Set[str]]:
        edges: Dict[str, Set[str]] = {}
        for triple in self.graph.match(None, predicate, None):
            if isinstance(triple.object, Literal):
                continue
            edges.setdefault(triple.subject, set()).add(triple.object)
        if equivalence:
            for triple in self.graph.match(None, equivalence, None):
                if isinstance(triple.object, Literal):
                    continue
                edges.setdefault(triple.subject, set()).add(triple.object)
                edges.setdefault(triple.object, set()).add(triple.subject)
        return _transitive_closure(edges)

    # -- subsumption queries ------------------------------------------------

    def superclasses(self, cls: str, include_self: bool = True) -> Set[str]:
        result = set(self._subclass.get(cls, ()))
        if include_self:
            result.add(cls)
        return result

    def subclasses(self, cls: str, include_self: bool = True) -> Set[str]:
        result = {c for c, supers in self._subclass.items() if cls in supers}
        if include_self:
            result.add(cls)
        return result

    def is_subclass_of(self, sub: str, sup: str) -> bool:
        """Reflexive-transitive subclass test."""
        return sub == sup or sup in self._subclass.get(sub, ())

    def superproperties(self, prop: str, include_self: bool = True) -> Set[str]:
        result = set(self._subproperty.get(prop, ()))
        if include_self:
            result.add(prop)
        return result

    def is_subproperty_of(self, sub: str, sup: str) -> bool:
        return sub == sup or sup in self._subproperty.get(sub, ())

    def types_of(self, individual: str) -> Set[str]:
        """Asserted types closed under subclassing (no domain/range here;
        use materialize() for the full entailment)."""
        types: Set[str] = set()
        for obj in self.graph.objects(individual, RDF_TYPE):
            if isinstance(obj, Literal):
                continue
            types |= self.superclasses(obj)
        return types

    def instances_of(self, cls: str) -> Set[str]:
        """All individuals whose (closed) types include ``cls``."""
        result: Set[str] = set()
        for sub in self.subclasses(cls):
            result |= {
                s for s in self.graph.subjects(RDF_TYPE, sub)
            }
        return result

    def is_instance_of(self, individual: str, cls: str) -> bool:
        return cls in self.types_of(individual)

    # -- property characteristics --------------------------------------------

    def _properties_typed(self, characteristic: str) -> Set[str]:
        return set(self.graph.subjects(RDF_TYPE, characteristic))

    @property
    def transitive_properties(self) -> Set[str]:
        return self._properties_typed(OWL_TRANSITIVE)

    @property
    def symmetric_properties(self) -> Set[str]:
        return self._properties_typed(OWL_SYMMETRIC)

    def inverse_pairs(self) -> Set[tuple]:
        pairs = set()
        for triple in self.graph.match(None, OWL_INVERSE_OF, None):
            if not isinstance(triple.object, Literal):
                pairs.add((triple.subject, triple.object))
        return pairs

    # -- materialization -----------------------------------------------------

    def materialize(self) -> Graph:
        """Return asserted graph + schema entailments (fixpoint)."""
        result = self.graph.copy()
        domains: Dict[str, Set[str]] = {}
        ranges: Dict[str, Set[str]] = {}
        for triple in self.graph.match(None, RDFS_DOMAIN, None):
            if not isinstance(triple.object, Literal):
                domains.setdefault(triple.subject, set()).add(triple.object)
        for triple in self.graph.match(None, RDFS_RANGE, None):
            if not isinstance(triple.object, Literal):
                ranges.setdefault(triple.subject, set()).add(triple.object)
        transitive = self.transitive_properties
        symmetric = self.symmetric_properties
        inverses: Dict[str, Set[str]] = {}
        for a, b in self.inverse_pairs():
            inverses.setdefault(a, set()).add(b)
            inverses.setdefault(b, set()).add(a)

        changed = True
        while changed:
            changed = False
            new_triples = []
            for triple in list(result):
                s, p, o = triple.subject, triple.predicate, triple.object
                # rdfs7: subproperty propagation
                for sup in self._subproperty.get(p, ()):
                    new_triples.append(Triple(s, sup, o))
                # rdfs9: type propagation along subclass
                if p == RDF_TYPE and not isinstance(o, Literal):
                    for sup in self._subclass.get(o, ()):
                        new_triples.append(Triple(s, RDF_TYPE, sup))
                # rdfs2/3: domain and range typing
                for cls in domains.get(p, ()):
                    new_triples.append(Triple(s, RDF_TYPE, cls))
                if not isinstance(o, Literal):
                    for cls in ranges.get(p, ()):
                        new_triples.append(Triple(o, RDF_TYPE, cls))
                    # owl characteristics
                    if p in symmetric:
                        new_triples.append(Triple(o, p, s))
                    for inv in inverses.get(p, ()):
                        new_triples.append(Triple(o, inv, s))
                    if p in transitive:
                        for nxt in result.objects(o, p):
                            if not isinstance(nxt, Literal):
                                new_triples.append(Triple(s, p, nxt))
            for triple in new_triples:
                if result.add(triple):
                    changed = True
        return result


def materialize(graph: Graph) -> Graph:
    """Convenience: one-shot schema materialization."""
    return SchemaReasoner(graph).materialize()
