"""Semantic resource matching (paper §4.4 + Fig. 6 Rule 2).

Hosts often have "the same resources but with different names"; syntactic
name matching is too strict, so the middleware matches *semantically*: two
resources are compatible when they are instances of a common resource class
(e.g. both ``imcl:Printer`` types), regardless of their local names.

The paper's taxonomy also classifies resources along two axes:

- **transferability** -- a printer is not transferable, a PDA is;
- **substitutability** -- a printer is substitutable (any printer will do),
  a database is not; a PDA is not ("users' profiles ... are installed").

Both axes are modelled as marker classes, and :class:`ResourceMatcher`
answers the questions the autonomous agents ask before issuing a migration
plan: is this resource compatible with one at the destination, can it be
substituted, or must it be carried / remoted?
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.ontology.owl import Ontology
from repro.ontology.schema import SchemaReasoner
from repro.ontology.triples import Graph, Triple
from repro.ontology.vocabulary import IMCL, OWL_THING

#: Marker classes (not "real" resource types; excluded from compatibility).
TRANSFERABLE = IMCL.Transferable
UNTRANSFERABLE = IMCL.UnTransferable
SUBSTITUTABLE = IMCL.Substitutable
UNSUBSTITUTABLE = IMCL.UnSubstitutable
RESOURCE = IMCL.Resource

_MARKERS: Set[str] = {
    TRANSFERABLE, UNTRANSFERABLE, SUBSTITUTABLE, UNSUBSTITUTABLE,
    RESOURCE, OWL_THING, "owl:Class",
}


def _declare_base_taxonomy(onto: Ontology) -> None:
    """Author the shared upper taxonomy into ``onto``.

    Mirrors the paper's examples: printers (substitutable, untransferable),
    databases (neither), PDAs (transferable, unsubstitutable), plus media
    and application-component classes the demo applications use.
    """
    onto.declare_class(RESOURCE)
    for marker in (TRANSFERABLE, UNTRANSFERABLE, SUBSTITUTABLE, UNSUBSTITUTABLE):
        onto.declare_class(marker)
    onto.object_property(IMCL.locatedIn, transitive=True)
    onto.datatype_property(IMCL.responseTime)
    onto.datatype_property(IMCL.address)

    def resource_class(name: str, markers: Iterable[str],
                       parent: str = RESOURCE) -> str:
        return onto.declare_class(name, parents=[parent, *markers])

    # Paper §4.4 examples.
    resource_class(IMCL.Printer, [SUBSTITUTABLE, UNTRANSFERABLE])
    resource_class(IMCL.Database, [UNSUBSTITUTABLE, UNTRANSFERABLE])
    resource_class(IMCL.PDA, [TRANSFERABLE, UNSUBSTITUTABLE])
    # Output devices for the demo applications.
    resource_class(IMCL.Display, [SUBSTITUTABLE, UNTRANSFERABLE])
    onto.declare_class(IMCL.Projector, parents=[IMCL.Display])
    resource_class(IMCL.Speaker, [SUBSTITUTABLE, UNTRANSFERABLE])
    # Files and software components are transferable and substitutable
    # (an identical copy elsewhere is as good as the original).
    resource_class(IMCL.File, [TRANSFERABLE, SUBSTITUTABLE])
    onto.declare_class(IMCL.MediaFile, parents=[IMCL.File])
    onto.declare_class(IMCL.MusicFile, parents=[IMCL.MediaFile])
    onto.declare_class(IMCL.SlideDeck, parents=[IMCL.MediaFile])
    onto.declare_class(IMCL.Document, parents=[IMCL.File])
    resource_class(IMCL.SoftwareComponent, [TRANSFERABLE, SUBSTITUTABLE])
    onto.declare_class(IMCL.Codec, parents=[IMCL.SoftwareComponent])
    onto.declare_class(IMCL.UserInterface, parents=[IMCL.SoftwareComponent])
    onto.declare_class(IMCL.ApplicationLogic, parents=[IMCL.SoftwareComponent])


class _AuthoringGraph(Graph):
    """A graph that also lists its triples in the order they were added."""

    def __init__(self) -> None:
        super().__init__()
        self.added: List[Triple] = []

    def add(self, triple: Triple) -> bool:
        if not super().add(triple):
            return False
        self.added.append(triple)
        return True


def _author_base_taxonomy() -> Tuple[Triple, ...]:
    graph = _AuthoringGraph()
    _declare_base_taxonomy(Ontology("imcl", graph))
    return tuple(graph.added)


#: The base taxonomy's triples, authored once per process, in authoring
#: order: a graph that adds them in this order gets the same index order
#: (and so the same hash-seed independence) as the authoring code's.
_BASE_TAXONOMY: Tuple[Triple, ...] = _author_base_taxonomy()

#: The one base graph and its schema closure, built at import and never
#: written: only :class:`_BaseTaxonomyGraph` reads the graph's indexes, and
#: it copies them before its first write.
_BASE_SCHEMA = SchemaReasoner(Graph(_BASE_TAXONOMY))


class _BaseTaxonomyGraph(Graph):
    """The base taxonomy, read from the shared base graph until the first
    ``add`` or ``remove``.

    That write first replays :data:`_BASE_TAXONOMY` in authoring order
    into indexes of this graph's own, so every index iterates as a fresh
    ``Graph(_BASE_TAXONOMY)``'s would.  ``schema_writes`` counts only the
    hierarchy writes made since the base: while it is 0, the base's closure
    holds for this graph.
    """

    def __init__(self) -> None:
        base = _BASE_SCHEMA.graph
        self._triples, self._spo = base._triples, base._spo
        self._pos, self._osp = base._pos, base._osp
        self.schema_writes = 0
        #: True until the first write gives this graph its own indexes.
        self.reads_base = True

    def _own_indexes(self) -> None:
        self.reads_base = False
        Graph.__init__(self, _BASE_TAXONOMY)
        self.schema_writes = 0

    def add(self, triple: Triple) -> bool:
        if self.reads_base:
            if triple in self._triples:
                return False
            self._own_indexes()
        return super().add(triple)

    def remove(self, triple: Triple) -> bool:
        if self.reads_base:
            if triple not in self._triples:
                return False
            self._own_indexes()
        return super().remove(triple)


def base_resource_ontology() -> Ontology:
    """The shared upper taxonomy every MDAgent deployment starts from.

    Each call returns a graph that reads the one base graph until its first
    write and then copies it, so a caller may mutate its graph without
    touching anyone else's.
    """
    return Ontology("imcl", _BaseTaxonomyGraph())


@dataclass
class MatchResult:
    """Outcome of matching one required resource against a candidate set."""

    required: str
    matched: bool
    candidate: Optional[str] = None
    common_classes: Set[str] = field(default_factory=set)
    score: int = 0
    reason: str = ""

    def __bool__(self) -> bool:
        return self.matched


class ResourceMatcher:
    """Semantic compatibility checks over a resource ontology.

    The matcher operates on the *inferred* class structure, so declaring
    ``hpLaserJet ⊑ Printer`` is enough for an ``hpLaserJet`` instance to be
    compatible with any other printer.

    Its subclass closure is rebuilt only when the graph's hierarchy
    triples have changed since the last build (``Graph.schema_writes``);
    ``rdf:type`` facts are read live, so registering or removing an
    individual costs no rebuild.  A graph that still holds the base
    taxonomy's hierarchy reuses the base's closure.
    """

    def __init__(self, ontology: Ontology):
        self.ontology = ontology
        #: The subsumption index, built by the first query that needs it.
        self._reasoner: Optional[SchemaReasoner] = None
        #: The graph's ``schema_writes`` when the index was built.
        self._schema_writes = 0

    # -- classification ------------------------------------------------------

    def _types_of(self, individual: str) -> Set[str]:
        graph = self.ontology.graph
        if self._reasoner is None or self._schema_writes != graph.schema_writes:
            if isinstance(graph, _BaseTaxonomyGraph) and not graph.schema_writes:
                self._reasoner = _BASE_SCHEMA.over(graph)
            else:
                self._reasoner = SchemaReasoner(graph)
            self._schema_writes = graph.schema_writes
        return self._reasoner.types_of(individual)

    def semantic_classes(self, individual: str) -> Set[str]:
        """Resource classes of an individual, excluding the marker axes."""
        return {
            cls for cls in self._types_of(individual)
            if cls not in _MARKERS
        }

    def _has_marker(self, individual: str, marker: str,
                    negative_marker: str, default: bool) -> bool:
        types = self._types_of(individual)
        if negative_marker in types:
            return False
        if marker in types:
            return True
        return default

    def is_transferable(self, individual: str) -> bool:
        """Can this resource itself move hosts? (default: no -- being
        conservative about physical devices)."""
        return self._has_marker(individual, TRANSFERABLE, UNTRANSFERABLE, False)

    def is_substitutable(self, individual: str) -> bool:
        """Can a same-class resource at the destination stand in? (default:
        no)."""
        return self._has_marker(individual, SUBSTITUTABLE, UNSUBSTITUTABLE, False)

    # -- compatibility (Rule 2) -----------------------------------------------

    def compatible(self, source: str, destination: str) -> bool:
        """True when the two individuals share a non-marker resource class --
        the paper's Rule 2 ("if the resources in the source and destination
        are both the 'printer' types, then they are compatible")."""
        return bool(self.common_classes(source, destination))

    def common_classes(self, source: str, destination: str) -> Set[str]:
        return self.semantic_classes(source) & self.semantic_classes(destination)

    def match(self, required: str, candidates: Iterable[str]) -> MatchResult:
        """Pick the best compatible candidate for a required resource.

        Score favours the most *specific* shared classes (more shared
        classes = closer match); candidates sharing nothing are skipped.
        Deterministic tie-break on candidate name.
        """
        best: Optional[MatchResult] = None
        for candidate in sorted(candidates):
            common = self.common_classes(required, candidate)
            if not common:
                continue
            result = MatchResult(required, True, candidate, common,
                                 score=len(common),
                                 reason=f"shares classes {sorted(common)}")
            if best is None or result.score > best.score:
                best = result
        if best is None:
            return MatchResult(required, False,
                               reason="no semantically compatible candidate")
        return best

    def rebind_plan(self, required: Iterable[str],
                    available: Iterable[str]) -> Dict[str, MatchResult]:
        """Match every required resource against the destination inventory.

        Substitutable resources may rebind to any compatible candidate;
        non-substitutable ones only match an *identical* individual (same
        name), which models "database is neither transferable nor easily
        substituted".
        """
        available = list(available)
        plan: Dict[str, MatchResult] = {}
        for resource in required:
            if not self.is_substitutable(resource):
                if resource in available:
                    plan[resource] = MatchResult(
                        resource, True, resource, self.semantic_classes(resource),
                        score=len(self.semantic_classes(resource)),
                        reason="identical resource present")
                else:
                    plan[resource] = MatchResult(
                        resource, False,
                        reason="not substitutable and absent at destination")
            else:
                plan[resource] = self.match(resource, available)
        return plan
