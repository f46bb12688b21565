"""Tests for forward chaining -- including the paper's full Fig. 6 scenario."""

import pytest

from repro.ontology.reasoner import ForwardChainingReasoner
from repro.ontology.rules import parse_rules
from repro.ontology.triples import Graph, Literal, Triple

PAPER_RULES = """
[Rule1: (?p imcl:locatedIn ?q), (?q imcl:locatedIn ?t) -> (?p imcl:locatedIn ?t)]
[Rule2: (?ptr imcl:printerObj 'printer'), (?srcRsc rdf:type ?ptr),
        (?destRsc imcl:printerObj ?ptr) -> (?srcRsc imcl:compatible ?destRsc)]
[Rule3: (?addr1 imcl:address ?value1), (?addr2 imcl:address ?value2),
        (?srcRsc imcl:compatible ?destRsc), (?n imcl:responseTime ?t),
        lessThan(?t, '1000'^^xsd:double)
     -> (?action imcl:actName 'move'), (?action imcl:srcAddress ?value1),
        (?action imcl:destAddress ?value2)]
"""


def paper_fact_base(response_time=800.0):
    g = Graph()
    # locatedIn chain for Rule1
    g.assert_("imcl:hpSrc", "imcl:locatedIn", "imcl:Office821")
    g.assert_("imcl:Office821", "imcl:locatedIn", "imcl:Building8")
    # printer typing for Rule2
    g.assert_("imcl:hpLaserJet", "imcl:printerObj", Literal("printer"))
    g.assert_("imcl:hpSrc", "rdf:type", "imcl:hpLaserJet")
    g.assert_("imcl:hpDest", "imcl:printerObj", "imcl:hpLaserJet")
    # addresses + network condition for Rule3
    g.assert_("imcl:addr1", "imcl:address", Literal("192.168.0.1"))
    g.assert_("imcl:addr2", "imcl:address", Literal("192.168.0.2"))
    g.assert_("imcl:net", "imcl:responseTime", Literal(response_time, "xsd:double"))
    return g


def test_rule1_transitive_located_in():
    rules = parse_rules(PAPER_RULES)
    reasoner = ForwardChainingReasoner(rules, schema=False)
    inferred = reasoner.run(paper_fact_base())
    assert inferred.holds("imcl:hpSrc", "imcl:locatedIn", "imcl:Building8")


def test_rule2_compatibility():
    rules = parse_rules(PAPER_RULES)
    inferred = ForwardChainingReasoner(rules, schema=False).run(paper_fact_base())
    assert inferred.holds("imcl:hpSrc", "imcl:compatible", "imcl:hpDest")


def test_rule3_fires_when_network_fast():
    rules = parse_rules(PAPER_RULES)
    inferred = ForwardChainingReasoner(rules, schema=False).run(paper_fact_base(800.0))
    moves = list(inferred.match(None, "imcl:actName", Literal("move")))
    assert moves, "Rule3 should issue a move action"


def test_rule3_blocked_when_network_slow():
    """The paper's threshold: response time must be < 1000 ms."""
    rules = parse_rules(PAPER_RULES)
    inferred = ForwardChainingReasoner(rules, schema=False).run(paper_fact_base(1500.0))
    assert not list(inferred.match(None, "imcl:actName", Literal("move")))


def test_rule3_boundary_exactly_1000_blocked():
    rules = parse_rules(PAPER_RULES)
    inferred = ForwardChainingReasoner(rules, schema=False).run(paper_fact_base(1000.0))
    assert not list(inferred.match(None, "imcl:actName", Literal("move")))


def test_chained_rules_cascade():
    """Rule2's conclusion feeds Rule3's premise across rounds."""
    rules = parse_rules(PAPER_RULES)
    reasoner = ForwardChainingReasoner(rules, schema=False)
    inferred = reasoner.run(paper_fact_base())
    # compatible (round 1) then move (round 2) -> at least 2 rounds + fixpoint
    assert reasoner.rounds_run >= 2
    assert inferred.holds("imcl:hpSrc", "imcl:compatible", "imcl:hpDest")
    assert list(inferred.match(None, "imcl:actName", Literal("move")))


def test_derivation_tracking():
    rules = parse_rules(PAPER_RULES)
    reasoner = ForwardChainingReasoner(rules, schema=False)
    inferred = reasoner.run(paper_fact_base())
    triple = Triple("imcl:hpSrc", "imcl:compatible", "imcl:hpDest")
    derivation = reasoner.explain(triple)
    assert derivation is not None
    assert derivation.rule_name == "Rule2"
    assert derivation.binding("?srcRsc") == "imcl:hpSrc"
    assert len(derivation.supports) == 3


def test_asserted_triples_have_no_derivation():
    rules = parse_rules(PAPER_RULES)
    reasoner = ForwardChainingReasoner(rules, schema=False)
    reasoner.run(paper_fact_base())
    asserted = Triple("imcl:hpSrc", "imcl:locatedIn", "imcl:Office821")
    assert reasoner.explain(asserted) is None


def test_original_graph_not_mutated_by_default():
    rules = parse_rules(PAPER_RULES)
    g = paper_fact_base()
    before = len(g)
    ForwardChainingReasoner(rules, schema=False).run(g)
    assert len(g) == before


def test_schema_plus_rules():
    """Schema subclassing feeds rule premises."""
    rules = parse_rules(
        "[R: (?x rdf:type imcl:Printer) -> (?x imcl:canPrint 'yes')]")
    g = Graph()
    g.assert_("imcl:hpLaserJet", "rdfs:subClassOf", "imcl:Printer")
    g.assert_("imcl:hp4350", "rdf:type", "imcl:hpLaserJet")
    inferred = ForwardChainingReasoner(rules, schema=True).run(g)
    assert inferred.holds("imcl:hp4350", "imcl:canPrint", Literal("yes"))


def test_rule_derived_type_feeds_schema():
    """A type derived by a rule propagates up the class hierarchy."""
    rules = parse_rules(
        "[R: (?x imcl:prints ?d) -> (?x rdf:type imcl:LaserPrinter)]")
    g = Graph()
    g.assert_("imcl:LaserPrinter", "rdfs:subClassOf", "imcl:Printer")
    g.assert_("imcl:mystery", "imcl:prints", "imcl:doc1")
    inferred = ForwardChainingReasoner(rules, schema=True).run(g)
    assert inferred.holds("imcl:mystery", "rdf:type", "imcl:Printer")


def test_fixpoint_guard():
    # A rule generating triples forever is impossible here (finite Herbrand
    # base), but max_rounds still guards; verify a tiny bound trips cleanly.
    rules = parse_rules(PAPER_RULES)
    reasoner = ForwardChainingReasoner(rules, schema=False, max_rounds=1)
    with pytest.raises(RuntimeError):
        reasoner.run(paper_fact_base())


def test_rule_firings_counted():
    rules = parse_rules(PAPER_RULES)
    reasoner = ForwardChainingReasoner(rules, schema=False)
    reasoner.run(paper_fact_base())
    assert reasoner.rule_firings > 0


class TestNoValue:
    """Jena's noValue builtin: negation as failure over the closure."""

    def test_fires_when_fact_absent(self):
        rules = parse_rules(
            "[R: (?h rdf:type imcl:Host), noValue(?h, imcl:hasComponents, ?c)"
            " -> (?h imcl:carryPolicy 'full')]")
        g = Graph()
        g.assert_("imcl:bare", "rdf:type", "imcl:Host")
        g.assert_("imcl:equipped", "rdf:type", "imcl:Host")
        g.assert_("imcl:equipped", "imcl:hasComponents", "imcl:ui")
        inferred = ForwardChainingReasoner(rules, schema=False).run(g)
        assert inferred.holds("imcl:bare", "imcl:carryPolicy", Literal("full"))
        assert not inferred.holds("imcl:equipped", "imcl:carryPolicy",
                                  Literal("full"))

    def test_fully_ground_novalue(self):
        rules = parse_rules(
            "[R: (?x rdf:type imcl:App), noValue(?x, imcl:pinned, 'yes')"
            " -> (?x imcl:movable 'yes')]")
        g = Graph()
        g.assert_("imcl:a", "rdf:type", "imcl:App")
        g.assert_("imcl:b", "rdf:type", "imcl:App")
        g.assert_("imcl:b", "imcl:pinned", Literal("yes"))
        inferred = ForwardChainingReasoner(rules, schema=False).run(g)
        assert inferred.holds("imcl:a", "imcl:movable", Literal("yes"))
        assert not inferred.holds("imcl:b", "imcl:movable", Literal("yes"))

    def test_novalue_sees_derived_facts(self):
        """Negation is over the closure: once the deriving rule fires, the
        noValue rule stops firing for new matches (evaluated per round)."""
        rules = parse_rules("""
[Derive: (?x imcl:isPrimary 'yes') -> (?x imcl:hasBackup 'implicit')]
[Negate: (?x rdf:type imcl:Service), noValue(?x, imcl:hasBackup, ?b)
      -> (?x imcl:risky 'yes')]
""")
        g = Graph()
        g.assert_("imcl:svc", "rdf:type", "imcl:Service")
        g.assert_("imcl:svc", "imcl:isPrimary", Literal("yes"))
        inferred = ForwardChainingReasoner(rules, schema=False).run(g)
        # Round 1 runs both rules on the initial facts; non-monotonic
        # noValue may fire before Derive lands (Jena behaves the same).
        assert inferred.holds("imcl:svc", "imcl:hasBackup",
                              Literal("implicit"))

    def test_novalue_requires_graph(self):
        from repro.ontology.rules import BuiltinCall
        call = BuiltinCall("noValue", ("?s", "imcl:p", "?o"))
        with pytest.raises(Exception):
            call.evaluate({})

    def test_novalue_arity_checked(self):
        from repro.ontology.rules import BuiltinCall
        call = BuiltinCall("noValue", ("?s", "imcl:p"))
        with pytest.raises(Exception):
            call.evaluate({}, graph=Graph())
