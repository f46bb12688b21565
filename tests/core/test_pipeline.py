"""Middleware pipeline: the stack builders and the phase order they
spell out.  That the default stack reproduces the pre-pipeline monolithic
``migrate``/``prestage`` behaviour is pinned by the ``scale`` row of
``tests/integration/test_pinned_digests.py``."""

import pytest

from repro.apps.music_player import MusicPlayerApp
from repro.core import Deployment, PipelineError
from repro.core.pipeline import (
    build_migration_pipeline,
    build_prestage_pipeline,
    migration_phases,
)
from repro.obs import Observability

MIGRATION_ORDER = ["admission", "planning", "negotiation", "suspend",
                   "capture", "transfer", "checkin", "rebind", "powerup"]


class TestValidator:
    """Each stack is a literal phase list, so its order is pinned here
    rather than checked when a host builds it."""

    def test_default_stack_order_and_contracts(self):
        # Paper Fig. 4: suspend and wrap at the source, transfer, then
        # unwrap, rebind and resume at the destination.
        phases = migration_phases("direct")
        assert [p.name for p in phases] == MIGRATION_ORDER

    def test_fipa_stack_has_same_shape(self):
        direct = migration_phases("direct")
        fipa = migration_phases("fipa")
        assert [p.name for p in fipa] == [p.name for p in direct]
        # Only the negotiation phase differs between the two protocols.
        differing = [p.name for p, q in zip(direct, fipa)
                     if type(p) is not type(q)]
        assert differing == ["negotiation"]


class TestPipelineConstruction:
    def test_unknown_protocol_rejected(self):
        with pytest.raises(PipelineError) as err:
            migration_phases("jade")
        assert "unknown migration protocol" in str(err.value)

    def test_builders_pick_protocol_from_config(self):
        class Config:
            migration_protocol = "fipa"

        pipeline = build_migration_pipeline(Config())
        assert pipeline.name == "migration/fipa"
        Config.migration_protocol = "direct"
        default = build_migration_pipeline(Config())
        assert default.name == "migration/direct"
        prestage = build_prestage_pipeline(Config())
        assert [p.name for p in prestage.phases] == \
            ["admission", "planning", "pack", "transfer", "install",
             "finish"]

    def test_direct_stacks_record_phase_telemetry(self):
        obs = Observability(trace=False)
        d = Deployment(seed=1, observability=obs)
        d.add_space("lab")
        src = d.add_host("host1", "lab")
        d.add_host("host2", "lab")
        d.add_host("host3", "lab")
        src.launch_application(
            MusicPlayerApp.build("player", "ann", track_bytes=40_000))
        d.run_all()
        assert src.prestage("player", "host3") is not None
        d.run_all()
        assert src.migrate("player", "host2") is not None
        d.run_all()
        phases = [dict(c.labels) for c in obs.metrics.counters()
                  if c.name == "pipeline.phase" and c.value > 0]
        assert {p["phase"] for p in phases
                if p["pipeline"] == "migration/direct"} == set(MIGRATION_ORDER)
        assert {p["phase"] for p in phases
                if p["pipeline"] == "prestage/direct"} == {
            "admission", "planning", "pack", "transfer", "install", "finish"}


class TestSharedStacks:
    """Phases keep no state, so the three stacks are built once."""

    def test_builders_return_one_stack_per_protocol(self):
        class Config:
            migration_protocol = "fipa"

        assert build_migration_pipeline(Config()) is \
            build_migration_pipeline(Config())
        assert build_prestage_pipeline(Config()) is \
            build_prestage_pipeline(None)
        Config.migration_protocol = "jade"
        with pytest.raises(PipelineError):
            build_migration_pipeline(Config())

    def test_a_failpoint_on_one_middleware_never_fires_on_another(self):
        d = Deployment(seed=1)
        d.add_space("lab")
        first = d.add_host("host1", "lab")
        second = d.add_host("host2", "lab")
        d.add_host("host3", "lab")
        assert first.migration_pipeline is second.migration_pipeline
        assert first.prestage_pipeline is second.prestage_pipeline
        for host, app in ((first, "a"), (second, "b")):
            host.launch_application(
                MusicPlayerApp.build(app, "ann", track_bytes=40_000))
        d.run_all()
        first.pipeline_failpoints = frozenset({"capture"})
        failed = first.migrate("a", "host3")
        moved = second.migrate("b", "host3")
        d.run_all()
        assert failed.failed and "capture" in failed.failure_reason
        assert moved.completed and not moved.failed
