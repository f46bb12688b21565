"""Middleware pipeline: the build-time contract validator and the stack
builders.  That the default stack reproduces the pre-pipeline monolithic
``migrate``/``prestage`` behaviour is pinned by the ``scale`` row of
``tests/integration/test_pinned_digests.py``."""

import pytest

from repro.apps.music_player import MusicPlayerApp
from repro.core import Deployment, PipelineError
from repro.core.pipeline import (
    MIDDLEWARE_CONTRACTS,
    MIGRATION_PROTOCOLS,
    MiddlewareContract,
    MiddlewarePhase,
    MigrationPipeline,
    build_migration_pipeline,
    build_prestage_pipeline,
    migration_phases,
    validate_middleware_stack,
)
from repro.obs import Observability

MIGRATION_ORDER = ["admission", "planning", "negotiation", "suspend",
                   "capture", "transfer", "checkin", "rebind", "powerup"]


class _Stub(MiddlewarePhase):
    """A minimal phase for exercising the validator in isolation."""

    def __init__(self, name, requires=(), provides=(), site="source",
                 handoff=False):
        self.name = name
        self.contract = MiddlewareContract(frozenset(requires),
                                           frozenset(provides), site)
        self.handoff = handoff

    def run(self, ctx):
        ctx.complete_phase()


class TestValidator:
    def test_default_migration_stacks_validate(self):
        for protocol in MIGRATION_PROTOCOLS:
            result = validate_middleware_stack(migration_phases(protocol))
            assert result.ok, (protocol, result.errors)
            assert "resumed" in result.provided

    def test_default_stack_order_and_contracts(self):
        phases = migration_phases("direct")
        assert [p.name for p in phases] == MIGRATION_ORDER
        assert set(MIDDLEWARE_CONTRACTS) == set(MIGRATION_ORDER)
        # Source phases strictly precede destination phases; exactly one
        # hand-off marks the boundary.
        sites = [p.contract.site for p in phases]
        assert sites == ["source"] * 6 + ["destination"] * 3
        assert [p.name for p in phases if p.handoff] == ["transfer"]

    def test_fipa_stack_has_same_shape(self):
        direct = migration_phases("direct")
        fipa = migration_phases("fipa")
        assert [p.name for p in fipa] == [p.name for p in direct]
        assert [p.contract for p in fipa] == [p.contract for p in direct]

    def test_empty_stack_rejected(self):
        result = validate_middleware_stack([])
        assert not result
        assert any("empty" in e for e in result.errors)

    def test_misordered_stack_rejected(self):
        phases = list(migration_phases("direct"))
        # Suspend before planning: its ``plan`` requirement is unmet.
        phases[1], phases[3] = phases[3], phases[1]
        result = validate_middleware_stack(phases)
        assert not result.ok
        assert any("'suspend'" in e and "requires" in e
                   for e in result.errors)

    def test_incomplete_stack_rejected(self):
        phases = list(migration_phases("direct"))[:-1]  # drop powerup
        result = validate_middleware_stack(phases)
        assert not result.ok
        assert any("never provides" in e for e in result.errors)

    def test_missing_middle_phase_rejected(self):
        phases = [p for p in migration_phases("direct")
                  if p.name != "capture"]
        result = validate_middleware_stack(phases)
        assert not result.ok
        assert any("'transfer'" in e and "['snapshot']" in e
                   for e in result.errors)

    def test_duplicate_phase_name_rejected(self):
        phases = list(migration_phases("direct"))
        phases.insert(3, migration_phases("fipa")[2])
        result = validate_middleware_stack(phases)
        assert not result.ok
        assert any("duplicate phase name 'negotiation'" in e
                   for e in result.errors)
        assert any("re-provides" in e for e in result.errors)

    def test_exactly_one_handoff_required(self):
        none = [_Stub("a", ("request",), ("resumed",))]
        result = validate_middleware_stack(none)
        assert any("exactly one hand-off" in e for e in result.errors)
        two = [_Stub("a", ("request",), ("x",), handoff=True),
               _Stub("b", ("x",), ("resumed",), site="destination",
                     handoff=True)]
        result = validate_middleware_stack(two)
        assert not result.ok

    def test_source_phase_after_handoff_rejected(self):
        phases = [_Stub("ship", ("request",), ("x",), handoff=True),
                  _Stub("late", ("x",), ("resumed",), site="source")]
        result = validate_middleware_stack(phases)
        assert not result.ok
        assert any("after" in e for e in result.errors)

    def test_minimal_valid_stack(self):
        phases = [_Stub("ship", ("request",), ("agent",), handoff=True),
                  _Stub("land", ("agent",), ("resumed",),
                        site="destination")]
        result = validate_middleware_stack(phases)
        assert result.ok, result.errors
        assert bool(result) is True

    def test_contract_rejects_unknown_site(self):
        with pytest.raises(PipelineError):
            MiddlewareContract(site="nowhere")


class TestPipelineConstruction:
    def test_ctor_rejects_invalid_stack(self):
        phases = [p for p in migration_phases("direct")
                  if p.name != "powerup"]
        with pytest.raises(PipelineError) as err:
            MigrationPipeline("broken", phases)
        assert "never provides" in str(err.value)

    def test_unknown_protocol_rejected(self):
        with pytest.raises(PipelineError) as err:
            migration_phases("jade")
        assert "unknown migration protocol" in str(err.value)

    def test_phase_lookup(self):
        pipeline = MigrationPipeline("m", migration_phases("direct"))
        assert pipeline.phase("suspend").name == "suspend"
        with pytest.raises(PipelineError):
            pipeline.phase("teleport")

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
