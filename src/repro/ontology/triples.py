"""An indexed RDF-style triple store.

Subjects and predicates are QName strings; objects are either QName strings
(resources) or :class:`Literal` values.  The :class:`Graph` keeps SPO, POS
and OSP indexes so any single-wildcard match is a dictionary hop, which is
what the forward-chaining reasoner and query engine lean on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, Iterator, Optional, Set, Union

from repro.ontology.vocabulary import (
    OWL_EQUIVALENT_CLASS,
    RDFS_SUBCLASSOF,
    RDFS_SUBPROPERTYOF,
)

#: The predicates of a graph's class and property hierarchy: the triples
#: a schema closure (:class:`repro.ontology.schema.SchemaReasoner`) reads.
SCHEMA_PREDICATES = frozenset({RDFS_SUBCLASSOF, OWL_EQUIVALENT_CLASS,
                               RDFS_SUBPROPERTYOF})


@dataclass(frozen=True)
class Literal:
    """A typed literal, e.g. ``Literal(800.0, "xsd:double")``.

    Equality includes the datatype, mirroring RDF semantics; ``value`` is a
    plain Python value so builtins (``lessThan`` etc.) can compare directly.
    """

    value: Any
    datatype: str = ""

    def __post_init__(self) -> None:
        if isinstance(self.value, (dict, list, set)):
            raise TypeError(f"unhashable literal value: {type(self.value).__name__}")

    def __str__(self) -> str:
        if self.datatype:
            return f"'{self.value}'^^{self.datatype}"
        return f"'{self.value}'"


Term = Union[str, Literal]


def is_variable(term: object) -> bool:
    """Variables are strings starting with ``?`` (the paper's rule syntax)."""
    return isinstance(term, str) and term.startswith("?")


def _check_term(term: Term, position: str, allow_literal: bool) -> None:
    if isinstance(term, Literal):
        if not allow_literal:
            raise ValueError(f"literal not allowed in {position} position: {term}")
        return
    if not isinstance(term, str) or not term:
        raise ValueError(f"invalid {position} term: {term!r}")
    if is_variable(term):
        raise ValueError(f"variable {term!r} not allowed in a ground triple")


@dataclass(frozen=True)
class Triple:
    """A ground (variable-free) subject-predicate-object statement."""

    subject: str
    predicate: str
    object: Term

    def __post_init__(self) -> None:
        _check_term(self.subject, "subject", allow_literal=False)
        _check_term(self.predicate, "predicate", allow_literal=False)
        _check_term(self.object, "object", allow_literal=True)

    def __iter__(self) -> Iterator[Term]:
        return iter((self.subject, self.predicate, self.object))

    def __str__(self) -> str:
        return f"({self.subject} {self.predicate} {self.object})"


class Graph:
    """A set of triples with SPO / POS / OSP indexes.

    ``match`` accepts ``None`` as a wildcard in any position and yields
    matching triples.  Mutation during iteration of ``match`` results is
    undefined; snapshot with ``list()`` first (the reasoner does).
    """

    def __init__(self, triples: Optional[Iterable[Triple]] = None):
        self._triples: Set[Triple] = set()
        self._spo: Dict[str, Dict[str, Set[Term]]] = {}
        self._pos: Dict[str, Dict[Term, Set[str]]] = {}
        self._osp: Dict[Term, Dict[str, Set[str]]] = {}
        #: Hierarchy triples (:data:`SCHEMA_PREDICATES`) added or removed so
        #: far: a schema closure built over this graph holds until it moves.
        self.schema_writes = 0
        if triples is not None:
            for triple in triples:
                self.add(triple)

    # -- mutation ---------------------------------------------------------

    def add(self, triple: Triple) -> bool:
        """Insert; returns True if the triple was new."""
        if triple in self._triples:
            return False
        self._triples.add(triple)
        s, p, o = triple.subject, triple.predicate, triple.object
        self._spo.setdefault(s, {}).setdefault(p, set()).add(o)
        self._pos.setdefault(p, {}).setdefault(o, set()).add(s)
        self._osp.setdefault(o, {}).setdefault(s, set()).add(p)
        if p in SCHEMA_PREDICATES:
            self.schema_writes += 1
        return True

    def assert_(self, subject: str, predicate: str, obj: Term) -> bool:
        """Convenience for ``add(Triple(s, p, o))``."""
        return self.add(Triple(subject, predicate, obj))

    def remove(self, triple: Triple) -> bool:
        """Delete; returns True if the triple was present."""
        if triple not in self._triples:
            return False
        self._triples.discard(triple)
        s, p, o = triple.subject, triple.predicate, triple.object
        self._spo[s][p].discard(o)
        self._pos[p][o].discard(s)
        self._osp[o][s].discard(p)
        if p in SCHEMA_PREDICATES:
            self.schema_writes += 1
        return True

    def update(self, triples: Iterable[Triple]) -> int:
        """Bulk add; returns the number of new triples."""
        return sum(1 for t in triples if self.add(t))

    # -- queries ----------------------------------------------------------

    def __contains__(self, triple: object) -> bool:
        return triple in self._triples

    def __len__(self) -> int:
        return len(self._triples)

    def __iter__(self) -> Iterator[Triple]:
        return iter(self._triples)

    def holds(self, subject: str, predicate: str, obj: Term) -> bool:
        return Triple(subject, predicate, obj) in self._triples

    def match(self, subject: Optional[str] = None, predicate: Optional[str] = None,
              obj: Optional[Term] = None) -> Iterator[Triple]:
        """Yield triples matching the pattern; ``None`` is a wildcard."""
        s, p, o = subject, predicate, obj
        if s is not None and p is not None and o is not None:
            if self.holds(s, p, o):
                yield Triple(s, p, o)
            return
        if s is not None and p is not None:
            for obj_ in self._spo.get(s, {}).get(p, ()):
                yield Triple(s, p, obj_)
            return
        if p is not None and o is not None:
            for subj in self._pos.get(p, {}).get(o, ()):
                yield Triple(subj, p, o)
            return
        if s is not None and o is not None:
            for pred in self._osp.get(o, {}).get(s, ()):
                yield Triple(s, pred, o)
            return
        if s is not None:
            for pred, objs in self._spo.get(s, {}).items():
                for obj_ in objs:
                    yield Triple(s, pred, obj_)
            return
        if p is not None:
            for obj_, subjs in self._pos.get(p, {}).items():
                for subj in subjs:
                    yield Triple(subj, p, obj_)
            return
        if o is not None:
            for subj, preds in self._osp.get(o, {}).items():
                for pred in preds:
                    yield Triple(subj, pred, o)
            return
        yield from list(self._triples)

    def objects(self, subject: str, predicate: str) -> Set[Term]:
        """All ``o`` with ``(subject, predicate, o)`` in the graph."""
        return set(self._spo.get(subject, {}).get(predicate, ()))

    def subjects(self, predicate: str, obj: Term) -> Set[str]:
        """All ``s`` with ``(s, predicate, obj)`` in the graph."""
        return set(self._pos.get(predicate, {}).get(obj, ()))

    def value(self, subject: str, predicate: str) -> Optional[Term]:
        """One object for (subject, predicate), or None; handy for
        functional properties."""
        for obj in self._spo.get(subject, {}).get(predicate, ()):
            return obj
        return None

    def predicates(self) -> Set[str]:
        return set(self._pos)

    def copy(self) -> "Graph":
        return Graph(self._triples)

    def __or__(self, other: "Graph") -> "Graph":
        merged = self.copy()
        merged.update(other)
        return merged

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Graph triples={len(self._triples)}>"
