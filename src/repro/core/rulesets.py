"""Default rule sets for autonomous agents (paper Fig. 6).

The three published rules, verbatim in structure:

- Rule 1: ``locatedIn`` is transitive.
- Rule 2: resources of the same printer type are compatible.
- Rule 3: if source and destination resources are compatible and the
  network's response time is below a threshold (1000 ms in the paper), issue
  a ``move`` action.

:func:`default_migration_rules` generalizes Rule 2 to any resource class
(the compatibility facts themselves come from the semantic matcher) and
keeps Rule 3's threshold, :data:`RESPONSE_TIME_THRESHOLD_MS`.
"""

from __future__ import annotations

from repro.ontology.rules import RuleSet, parse_rules

#: Rule 3's network gate: migrate only when the probed response time is
#: below this (Fig. 6's literal ``lessThan(?t, '1000')``).
RESPONSE_TIME_THRESHOLD_MS = 1000.0

#: The paper's rules exactly as printed (Fig. 6), printer-specific Rule 2.
PAPER_FIG6_RULES = """
[Rule1: (?p imcl:locatedIn ?q), (?q imcl:locatedIn ?t)
     -> (?p imcl:locatedIn ?t)]
[Rule2: (?ptr imcl:printerObj 'printer'), (?srcRsc rdf:type ?ptr),
        (?destRsc imcl:printerObj ?ptr)
     -> (?srcRsc imcl:compatible ?destRsc)]
[Rule3: (?addr1 imcl:address ?value1), (?addr2 imcl:address ?value2),
        (?srcRsc imcl:compatible ?destRsc), (?n imcl:responseTime ?t),
        lessThan(?t, '1000'^^xsd:double)
     -> (?action imcl:actName 'move'), (?action imcl:srcAddress ?value1),
        (?action imcl:destAddress ?value2)]
"""


def paper_rules() -> RuleSet:
    """The verbatim Fig. 6 rule set."""
    return parse_rules(PAPER_FIG6_RULES)


def default_migration_rules() -> RuleSet:
    """The rule set autonomous agents evaluate before commanding a move.

    Facts the decision engine asserts:

    - ``(imcl:src imcl:address '<source host>')`` /
      ``(imcl:dest imcl:address '<destination host>')``
    - ``(imcl:link imcl:responseTime '<rtt>'^^xsd:double)``
    - ``(<srcRsc> imcl:compatible <destRsc>)`` for each semantic match
    - ``(imcl:dest imcl:hasComponents 'true'/'false'^^xsd:boolean)``
    - ``(imcl:dest imcl:deviceCompatible 'true'/'false'^^xsd:boolean)``

    Derived actions:

    - ``move`` when the device fits and the network is fast enough;
    - ``carryAll`` additionally flags that the destination has no
      installation, so logic + UI must be wrapped too (the adaptive-binding
      decision of §5).
    """
    return parse_rules(f"""
[LocTrans: (?p imcl:locatedIn ?q), (?q imcl:locatedIn ?t)
        -> (?p imcl:locatedIn ?t)]
[Move: (?src imcl:address ?value1), (?dest imcl:address ?value2),
       (?dest imcl:deviceCompatible 'true'^^xsd:boolean),
       (?net imcl:responseTime ?t),
       lessThan(?t, '{RESPONSE_TIME_THRESHOLD_MS}'^^xsd:double)
    -> (?action imcl:actName 'move'), (?action imcl:srcAddress ?value1),
       (?action imcl:destAddress ?value2)]
[CarryAll: (?dest imcl:address ?value2),
           (?dest imcl:hasComponents 'false'^^xsd:boolean)
        -> (?dest imcl:carryPolicy 'full')]
[CarryDelta: (?dest imcl:address ?value2),
             (?dest imcl:hasComponents 'true'^^xsd:boolean)
          -> (?dest imcl:carryPolicy 'delta')]
""")
