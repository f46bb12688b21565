"""Ontology authoring layer (the OWL-writing side of Fig. 5).

Builds the kind of description the paper writes in OWL/XML --

    <owl:Class rdf:ID="hpLaserJet">
      <rdfs:subClassOf rdf:resource="#Printer;Substitutable;UnTransferable"/>
      <owl:ObjectProperty rdf:ID="locatedIn"> ... transitive ...

-- as triples in a :class:`~repro.ontology.triples.Graph`, with a fluent
Python API instead of XML.  Ontologies serialize to/from plain dicts so the
registry can ship them between hosts.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Union

from repro.ontology.triples import Graph, Literal, Term
from repro.ontology.vocabulary import (
    OWL_CLASS,
    OWL_DATATYPE_PROPERTY,
    OWL_FUNCTIONAL,
    OWL_INVERSE_OF,
    OWL_OBJECT_PROPERTY,
    OWL_SYMMETRIC,
    OWL_TRANSITIVE,
    RDF_TYPE,
    RDFS_DOMAIN,
    RDFS_RANGE,
    RDFS_SUBCLASSOF,
)


def as_literal(value: Any) -> Term:
    """Coerce a Python value to a graph term.

    Strings that look like QNames (``prefix:local``) pass through as
    resources; everything else becomes a typed Literal.
    """
    if isinstance(value, Literal):
        return value
    if isinstance(value, bool):
        return Literal(value, "xsd:boolean")
    if isinstance(value, int):
        return Literal(value, "xsd:integer")
    if isinstance(value, float):
        return Literal(value, "xsd:double")
    if isinstance(value, str):
        if ":" in value and " " not in value:
            return value
        return Literal(value, "xsd:string")
    raise TypeError(f"cannot coerce {value!r} to a graph term")


class Ontology:
    """A graph plus authoring helpers.

    Example (the paper's Fig. 5 printer)::

        onto = Ontology("imcl")
        onto.declare_class("imcl:Printer")
        onto.declare_class("imcl:hpLaserJet",
                           parents=["imcl:Printer", "imcl:Substitutable",
                                    "imcl:UnTransferable"])
        onto.object_property("imcl:locatedIn", transitive=True)
        onto.individual("imcl:hp4350", "imcl:hpLaserJet",
                        {"imcl:locatedIn": "imcl:Office821"})
    """

    def __init__(self, default_prefix: str = "imcl",
                 graph: Optional[Graph] = None):
        self.default_prefix = default_prefix
        self.graph = graph if graph is not None else Graph()

    def _qname(self, name: str) -> str:
        if ":" in name:
            return name
        return f"{self.default_prefix}:{name}"

    # -- classes ------------------------------------------------------------

    def declare_class(self, name: str,
                      parents: Optional[Iterable[str]] = None,
                      comment: str = "") -> str:
        """Declare an owl:Class, optionally under parent classes."""
        qname = self._qname(name)
        self.graph.assert_(qname, RDF_TYPE, OWL_CLASS)
        for parent in parents or ():
            self.graph.assert_(qname, RDFS_SUBCLASSOF, self._qname(parent))
        if comment:
            self.graph.assert_(qname, "rdfs:comment", Literal(comment, "xsd:string"))
        return qname

    def subclass_of(self, sub: str, sup: str) -> None:
        self.graph.assert_(self._qname(sub), RDFS_SUBCLASSOF, self._qname(sup))

    def classes(self) -> List[str]:
        return sorted(self.graph.subjects(RDF_TYPE, OWL_CLASS))

    # -- properties ----------------------------------------------------------

    def object_property(self, name: str, domain: str = "", range_: str = "",
                        transitive: bool = False, symmetric: bool = False,
                        functional: bool = False, inverse_of: str = "") -> str:
        """Declare an owl:ObjectProperty with optional characteristics."""
        qname = self._qname(name)
        self.graph.assert_(qname, RDF_TYPE, OWL_OBJECT_PROPERTY)
        if domain:
            self.graph.assert_(qname, RDFS_DOMAIN, self._qname(domain))
        if range_:
            self.graph.assert_(qname, RDFS_RANGE, self._qname(range_))
        if transitive:
            self.graph.assert_(qname, RDF_TYPE, OWL_TRANSITIVE)
        if symmetric:
            self.graph.assert_(qname, RDF_TYPE, OWL_SYMMETRIC)
        if functional:
            self.graph.assert_(qname, RDF_TYPE, OWL_FUNCTIONAL)
        if inverse_of:
            self.graph.assert_(qname, OWL_INVERSE_OF, self._qname(inverse_of))
        return qname

    def datatype_property(self, name: str, domain: str = "",
                          functional: bool = False) -> str:
        qname = self._qname(name)
        self.graph.assert_(qname, RDF_TYPE, OWL_DATATYPE_PROPERTY)
        if domain:
            self.graph.assert_(qname, RDFS_DOMAIN, self._qname(domain))
        if functional:
            self.graph.assert_(qname, RDF_TYPE, OWL_FUNCTIONAL)
        return qname

    # -- individuals -----------------------------------------------------------

    def individual(self, name: str, cls: Union[str, Iterable[str]],
                   properties: Optional[Dict[str, Any]] = None) -> str:
        """Declare an individual of one or more classes with property values."""
        qname = self._qname(name)
        classes = [cls] if isinstance(cls, str) else list(cls)
        for c in classes:
            self.graph.assert_(qname, RDF_TYPE, self._qname(c))
        for prop, value in (properties or {}).items():
            self.set(qname, prop, value)
        return qname

    def set(self, subject: str, predicate: str, value: Any) -> None:
        """Assert one property value (Python values auto-coerce to literals)."""
        self.graph.assert_(self._qname(subject), self._qname(predicate),
                           as_literal(value))

    def get(self, subject: str, predicate: str) -> Optional[Term]:
        return self.graph.value(self._qname(subject), self._qname(predicate))

    def get_value(self, subject: str, predicate: str) -> Any:
        """Like :meth:`get` but unwraps literals to plain Python values."""
        term = self.get(subject, predicate)
        if isinstance(term, Literal):
            return term.value
        return term

    # -- transport ---------------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """Serialize to a plain dict (registry wire format)."""
        triples = []
        for t in sorted(self.graph, key=lambda t: (t.subject, t.predicate, str(t.object))):
            if isinstance(t.object, Literal):
                obj = {"value": t.object.value, "datatype": t.object.datatype}
            else:
                obj = t.object
            triples.append([t.subject, t.predicate, obj])
        return {"prefix": self.default_prefix, "triples": triples}

    def merge(self, other: "Ontology") -> None:
        """Absorb another ontology's triples."""
        self.graph.update(other.graph)

    def size_bytes(self) -> int:
        """Approximate serialized size (drives simulated transfer cost)."""
        total = 0
        for t in self.graph:
            total += len(t.subject) + len(t.predicate) + len(str(t.object)) + 8
        return total

    def __len__(self) -> int:
        return len(self.graph)
