"""Property test: a failure injected at every pipeline phase boundary
keeps the conservation invariants green, seals every migration and agent
span, and leaves the application running somewhere."""

from hypothesis import given, settings, strategies as st

from repro.apps.music_player import MusicPlayerApp
from repro.core import Deployment
from repro.core.application import AppStatus
from repro.core.pipeline import migration_phases
from repro.obs import Observability
from repro.simcheck.invariants import InvariantChecker

# The last phase cannot host a failpoint: completing it finishes the
# pipeline before the injection check runs.
MIGRATION_FAILPOINTS = [p.name for p in migration_phases("direct")][:-1]
PRESTAGE_FAILPOINTS = ["admission", "planning", "pack", "transfer",
                       "install"]


def checked_deployment(seed, track_bytes):
    obs = Observability()
    d = Deployment(seed=seed, observability=obs)
    d.add_space("lab")
    src = d.add_host("host1", "lab")
    d.add_host("host2", "lab")
    checker = InvariantChecker(d).install()
    app = MusicPlayerApp.build("player", "ann", track_bytes=track_bytes)
    checker.expect_application(app)
    src.launch_application(app)
    d.run_all()
    return d, src, checker


def open_spans(d):
    """Migration and agent spans the failure left unfinished."""
    return [s.name for s in d.observability.tracer.spans
            if s.category in ("migration", "agent") and not s.finished]


class TestMigrationFailpoints:
    @given(phase=st.sampled_from(MIGRATION_FAILPOINTS),
           track_kb=st.sampled_from([40, 600, 2_000]),
           seed=st.integers(min_value=0, max_value=3))
    @settings(max_examples=40)
    def test_injected_failure_keeps_invariants_green(self, phase, track_kb,
                                                     seed):
        d, src, checker = checked_deployment(seed, track_kb * 1_000)
        src.pipeline_failpoints = frozenset({phase})
        outcome = src.migrate("player", "host2")
        d.run_all()
        # Terminal, and terminally failed: the injection always lands.
        assert outcome.failed
        assert phase in outcome.failure_reason
        # The app survives somewhere, exactly once, running.
        running = [host for host, app in d.application_instances("player")
                   if app.status is AppStatus.RUNNING]
        assert len(running) == 1, (phase, running)
        # Component conservation, byte ledger, rx tables, terminal
        # migrations: the full quiescence sweep stays green.
        violations = checker.check_quiescent()
        assert not violations, (phase, [str(v) for v in violations])
        assert not open_spans(d), phase

    @given(phase=st.sampled_from(MIGRATION_FAILPOINTS),
           seed=st.integers(min_value=0, max_value=3))
    @settings(max_examples=20)
    def test_app_can_migrate_again_after_injected_failure(self, phase,
                                                          seed):
        d, src, checker = checked_deployment(seed, 120_000)
        src.pipeline_failpoints = frozenset({phase})
        first = src.migrate("player", "host2")
        d.run_all()
        assert first.failed
        src.pipeline_failpoints = frozenset()
        source_host = next(host for host, app
                           in d.application_instances("player")
                           if app.status is AppStatus.RUNNING)
        retry = d.middleware(source_host).migrate(
            "player", "host2" if source_host == "host1" else "host1")
        d.run_all()
        assert retry.completed, (phase, retry.failure_reason)
        assert not checker.check_quiescent()


class TestPrestageFailpoints:
    @given(phase=st.sampled_from(PRESTAGE_FAILPOINTS),
           seed=st.integers(min_value=0, max_value=3))
    @settings(max_examples=20)
    def test_prestage_failure_never_disturbs_the_source(self, phase, seed):
        d, src, checker = checked_deployment(seed, 600_000)
        src.pipeline_failpoints = frozenset({phase})
        outcome = src.prestage("player", "host2")
        d.run_all()
        assert outcome.completed or outcome.failed
        # Pre-staging ships code, not execution: the source app must be
        # untouched no matter where the stack broke.
        assert src.application("player").status is AppStatus.RUNNING
        violations = checker.check_quiescent()
        assert not violations, (phase, [str(v) for v in violations])
        assert not open_spans(d), phase
