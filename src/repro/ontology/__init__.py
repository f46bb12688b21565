"""Ontology substrate: a small OWL/RDF/Jena replacement.

The paper uses OWL to describe resources (Fig. 5), OWL-QL to query the
registry, and Jena rules (Fig. 6) to derive resource compatibility and
migration actions.  This package provides the same capabilities in pure
Python:

- :mod:`repro.ontology.triples` -- an indexed triple store.
- :mod:`repro.ontology.vocabulary` -- RDF / RDFS / OWL / IMCL terms.
- :mod:`repro.ontology.schema` -- RDFS + OWL-lite schema inference
  (subclass/subproperty closure, domain/range, transitive / symmetric /
  inverse properties).
- :mod:`repro.ontology.rules` -- the paper's ``[RuleN: (...) -> (...)]``
  rule language with builtins such as ``lessThan``.
- :mod:`repro.ontology.reasoner` -- semi-naive forward chaining.
- :mod:`repro.ontology.query` -- conjunctive pattern queries (OWL-QL-like).
- :mod:`repro.ontology.owl` -- an ontology-authoring layer.
- :mod:`repro.ontology.matching` -- semantic resource compatibility.
"""

from repro.ontology.matching import MatchResult, ResourceMatcher
from repro.ontology.owl import Ontology
from repro.ontology.query import Query, select
from repro.ontology.reasoner import Derivation, ForwardChainingReasoner
from repro.ontology.rules import (
    Builtin,
    BuiltinCall,
    Rule,
    RuleParseError,
    RuleSet,
    TriplePattern,
    parse_rule,
    parse_rules,
)
from repro.ontology.schema import SchemaReasoner
from repro.ontology.triples import Graph, Literal, Triple, is_variable
from repro.ontology.vocabulary import IMCL, OWL, RDF, RDFS, XSD, Namespace

__all__ = [
    "Builtin",
    "BuiltinCall",
    "Derivation",
    "ForwardChainingReasoner",
    "Graph",
    "IMCL",
    "Literal",
    "MatchResult",
    "Namespace",
    "Ontology",
    "OWL",
    "Query",
    "RDF",
    "RDFS",
    "ResourceMatcher",
    "Rule",
    "RuleParseError",
    "RuleSet",
    "SchemaReasoner",
    "Triple",
    "TriplePattern",
    "XSD",
    "is_variable",
    "parse_rule",
    "parse_rules",
    "select",
]
