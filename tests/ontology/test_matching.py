"""Tests for semantic resource matching and the paper's taxonomy."""

import pytest

from repro.ontology.matching import (
    _BASE_TAXONOMY,
    ResourceMatcher,
    _declare_base_taxonomy,
    base_resource_ontology,
)
from repro.ontology.owl import Ontology
from repro.ontology.schema import SchemaReasoner
from repro.ontology.triples import Graph, Literal, Triple
from repro.ontology.vocabulary import IMCL, RDF_TYPE, RDFS_SUBCLASSOF
from repro.registry.federation import RegistryShard
from repro.registry.records import ResourceRecord
from repro.registry.registry import RegistryCenter


@pytest.fixture
def matcher():
    onto = base_resource_ontology()
    onto.declare_class("imcl:hpLaserJet", parents=["imcl:Printer"])
    onto.declare_class("imcl:canonInkjet", parents=["imcl:Printer"])
    onto.individual("imcl:hpInRoom1", "imcl:hpLaserJet")
    onto.individual("imcl:canonInRoom2", "imcl:canonInkjet")
    onto.individual("imcl:hpInRoom2", "imcl:hpLaserJet")
    onto.individual("imcl:payrollDb", "imcl:Database")
    onto.individual("imcl:alicePda", "imcl:PDA")
    onto.individual("imcl:song", "imcl:MusicFile")
    onto.individual("imcl:projector2", "imcl:Projector")
    return ResourceMatcher(onto)


class TestPaperTaxonomy:
    """§4.4: printer substitutable/untransferable; database neither;
    PDA transferable/unsubstitutable."""

    def test_printer(self, matcher):
        assert matcher.is_substitutable("imcl:hpInRoom1")
        assert not matcher.is_transferable("imcl:hpInRoom1")

    def test_database(self, matcher):
        assert not matcher.is_substitutable("imcl:payrollDb")
        assert not matcher.is_transferable("imcl:payrollDb")

    def test_pda(self, matcher):
        assert matcher.is_transferable("imcl:alicePda")
        assert not matcher.is_substitutable("imcl:alicePda")

    def test_music_file(self, matcher):
        assert matcher.is_transferable("imcl:song")
        assert matcher.is_substitutable("imcl:song")

    def test_unknown_individual_defaults_conservative(self, matcher):
        assert not matcher.is_transferable("imcl:mystery")
        assert not matcher.is_substitutable("imcl:mystery")


class TestCompatibility:
    def test_same_model_compatible(self, matcher):
        assert matcher.compatible("imcl:hpInRoom1", "imcl:hpInRoom2")

    def test_different_models_compatible_via_printer(self, matcher):
        """Different names, both printers -> compatible (Rule 2 semantics)."""
        assert matcher.compatible("imcl:hpInRoom1", "imcl:canonInRoom2")
        common = matcher.common_classes("imcl:hpInRoom1", "imcl:canonInRoom2")
        assert "imcl:Printer" in common

    def test_printer_not_compatible_with_database(self, matcher):
        assert not matcher.compatible("imcl:hpInRoom1", "imcl:payrollDb")

    def test_projector_compatible_with_display_class(self, matcher):
        onto = matcher.ontology
        onto.individual("imcl:wallDisplay", "imcl:Display")
        assert matcher.compatible("imcl:projector2", "imcl:wallDisplay")


class TestMatch:
    def test_prefers_most_specific_candidate(self, matcher):
        result = matcher.match("imcl:hpInRoom1",
                               ["imcl:canonInRoom2", "imcl:hpInRoom2"])
        # hpInRoom2 shares hpLaserJet + Printer (2 classes) vs canon's 1
        assert result.matched
        assert result.candidate == "imcl:hpInRoom2"

    def test_falls_back_to_same_class(self, matcher):
        result = matcher.match("imcl:hpInRoom1", ["imcl:canonInRoom2"])
        assert result.matched
        assert result.candidate == "imcl:canonInRoom2"

    def test_no_candidates(self, matcher):
        result = matcher.match("imcl:hpInRoom1", [])
        assert not result
        assert "no semantically compatible" in result.reason

    def test_incompatible_candidates(self, matcher):
        result = matcher.match("imcl:hpInRoom1", ["imcl:payrollDb"])
        assert not result.matched

    def test_deterministic_tiebreak(self, matcher):
        matcher.ontology.individual("imcl:aPrinter", "imcl:hpLaserJet")
        result = matcher.match("imcl:hpInRoom1",
                               ["imcl:hpInRoom2", "imcl:aPrinter"])
        assert result.candidate == "imcl:aPrinter"  # sorted first, equal score


class TestRebindPlan:
    def test_substitutable_rebinds(self, matcher):
        plan = matcher.rebind_plan(["imcl:hpInRoom1"], ["imcl:canonInRoom2"])
        assert plan["imcl:hpInRoom1"].matched

    def test_non_substitutable_requires_identity(self, matcher):
        plan = matcher.rebind_plan(["imcl:payrollDb"], ["imcl:hpInRoom2"])
        assert not plan["imcl:payrollDb"].matched
        plan2 = matcher.rebind_plan(["imcl:payrollDb"], ["imcl:payrollDb"])
        assert plan2["imcl:payrollDb"].matched

    def test_mixed_plan(self, matcher):
        plan = matcher.rebind_plan(
            ["imcl:hpInRoom1", "imcl:payrollDb", "imcl:song"],
            ["imcl:canonInRoom2", "imcl:projector2"])
        assert plan["imcl:hpInRoom1"].matched
        assert not plan["imcl:payrollDb"].matched
        assert not plan["imcl:song"].matched  # no file at destination


def test_base_ontology_classes_exist():
    onto = base_resource_ontology()
    classes = onto.classes()
    for expected in (IMCL.Printer, IMCL.Database, IMCL.PDA, IMCL.MusicFile,
                     IMCL.SlideDeck, IMCL.UserInterface, IMCL.ApplicationLogic):
        assert expected in classes


def test_ontology_size_bytes_positive():
    onto = base_resource_ontology()
    assert onto.size_bytes() > 0


# -- the once-authored taxonomy template ---------------------------------------

BASE_TRIPLES = 53


def authored_ontology() -> Ontology:
    """The base taxonomy as the authoring code builds it."""
    onto = Ontology("imcl")
    _declare_base_taxonomy(onto)
    return onto


def index_order(graph):
    """Every SPO/POS/OSP index level in iteration order."""
    return [[(key, [(inner, list(values)) for inner, values in level.items()])
             for key, level in index.items()]
            for index in (graph._spo, graph._pos, graph._osp)]


def test_template_replays_the_authoring_order():
    fresh, authored = base_resource_ontology(), authored_ontology()
    assert len(fresh) == len(authored) == BASE_TRIPLES
    assert fresh.to_dict() == authored.to_dict()
    assert index_order(fresh.graph) == index_order(authored.graph)


def test_template_is_isolated_from_every_graph_built_from_it():
    center = RegistryCenter()
    center.ontology.declare_class("imcl:hpLaserJet", parents=["imcl:Printer"])
    center.register_resource(
        ResourceRecord("imcl:hp1", "h1", ["imcl:hpLaserJet"]))
    shard = RegistryShard("lab")
    assert shard._install_ghosts(
        {"imcl:ghost": {"classes": ["imcl:Printer"], "substitutable": True}}
    ) == ["imcl:ghost"]
    assert len(center.ontology) > BASE_TRIPLES
    assert len(shard.ontology) > BASE_TRIPLES

    authored = authored_ontology().to_dict()
    for onto in (base_resource_ontology(), RegistryCenter().ontology):
        assert len(onto) == BASE_TRIPLES
        assert onto.to_dict() == authored


def test_matcher_builds_its_closure_once_after_many_registrations(
        monkeypatch):
    builds = []
    init = SchemaReasoner.__init__

    def counting_init(self, graph):
        builds.append(graph)
        init(self, graph)

    monkeypatch.setattr(SchemaReasoner, "__init__", counting_init)
    center = RegistryCenter()
    models = [f"imcl:Model{k}" for k in range(5)]
    for k, model in enumerate(models):
        center.ontology.declare_class(model, parents=["imcl:Printer"])
        center.register_resource(ResourceRecord(f"imcl:p{k}", "h1", [model]))
    assert builds == []
    for k, model in enumerate(models):
        assert center.matcher.semantic_classes(f"imcl:p{k}") == \
            {model, "imcl:Printer"}
        assert center.matcher.is_substitutable(f"imcl:p{k}")
    assert builds == [center.ontology.graph]


# -- the copy-on-write base graph and the closure rule ---------------------------


def test_centers_read_one_base_until_their_first_write():
    first, second = RegistryCenter(), RegistryCenter()
    assert first.ontology.graph._spo is second.ontology.graph._spo
    first.register_resource(ResourceRecord("imcl:hp1", "h1", ["imcl:Printer"]))
    assert first.ontology.graph._spo is not second.ontology.graph._spo
    fresh = Ontology("imcl", Graph(_BASE_TAXONOMY)).to_dict()
    assert second.ontology.to_dict() == fresh
    assert index_order(second.ontology.graph) == \
        index_order(Graph(_BASE_TAXONOMY))
    assert len(first.ontology) == BASE_TRIPLES + 2


def test_a_written_graph_keeps_a_fresh_graphs_index_order():
    written = base_resource_ontology().graph
    new = [Triple("imcl:Laser", RDFS_SUBCLASSOF, "imcl:Printer"),
           Triple("imcl:hp1", RDF_TYPE, "imcl:Laser"),
           Triple("imcl:hp1", "imcl:hostedOn", Literal("h1"))]
    for triple in new:
        assert written.add(triple)
    fresh = Graph(_BASE_TAXONOMY)
    for predicate in (RDFS_SUBCLASSOF, RDF_TYPE, "imcl:hostedOn"):
        added = [t for t in new if t.predicate == predicate]
        assert list(written.match(None, predicate, None)) == \
            list(fresh.match(None, predicate, None)) + added
    # A no-op write leaves a graph on the shared base.
    untouched = base_resource_ontology().graph
    assert not untouched.add(_BASE_TAXONOMY[0])
    assert not untouched.remove(new[0])
    assert untouched.reads_base
    assert untouched._spo is base_resource_ontology().graph._spo


def test_registering_a_resource_computes_no_closure(monkeypatch):
    builds = []
    init = SchemaReasoner.__init__

    def counting_init(self, graph):
        builds.append(graph)
        init(self, graph)

    monkeypatch.setattr(SchemaReasoner, "__init__", counting_init)
    center = RegistryCenter()
    center.register_resource(ResourceRecord("imcl:hp1", "h1", ["imcl:Printer"]))
    center.register_resource(ResourceRecord("imcl:hp2", "h2", ["imcl:Printer"]))
    assert center.find_compatible("imcl:hp1", "h2").candidate == "imcl:hp2"
    center.deregister_resource("imcl:hp2")
    center.register_resource(ResourceRecord("imcl:cam", "h2", ["imcl:Camera"]))
    assert not center.find_compatible("imcl:hp1", "h2").matched
    assert builds == []  # the base taxonomy's closure serves every query

    # A new hierarchy triple is seen by the next match, with one rebuild.
    center.ontology.subclass_of("imcl:Camera", "imcl:Printer")
    assert center.find_compatible("imcl:hp1", "h2").candidate == "imcl:cam"
    assert center.find_compatible("imcl:hp1", "h2").candidate == "imcl:cam"
    assert builds == [center.ontology.graph]
