"""FIPA-interop migration protocol: propose/accept-proposal capability
negotiation between heterogeneous platform kinds, graceful rejection, and
the scheduler surviving negotiation failures."""

import pytest

from repro.apps.music_player import MusicPlayerApp
from repro.core import Deployment, MiddlewareConfig
from repro.core.application import AppStatus
from repro.core.pipeline import NEGOTIATION_TIMEOUT_MS


def fipa_deployment(seed=7):
    config = MiddlewareConfig(migration_protocol="fipa")
    d = Deployment(seed=seed, config=config)
    d.add_space("lab")
    return d


def launch(d, host, name="player", owner="ann", track_bytes=120_000):
    app = MusicPlayerApp.build(name, owner, track_bytes=track_bytes)
    d.middleware(host).launch_application(app)
    return app


class TestNegotiationAccept:
    def test_same_kind_migration_completes(self):
        d = fipa_deployment()
        src = d.add_host("pc1", "lab")
        d.add_host("pc2", "lab")
        launch(d, "pc1")
        d.run_all()
        outcome = src.migrate("player", "pc2")
        d.run_all()
        assert outcome.completed
        assert d.middleware("pc2").application("player").status \
            is AppStatus.RUNNING
        assert any("accepted" in e for e in outcome.events)

    def test_mixed_platform_kinds_accepted_when_listed(self):
        """A foreign platform kind completes when the destination lists
        the source's kind as accepted."""
        d = fipa_deployment()
        src = d.add_host("pc1", "lab")
        d.add_host("pc2", "lab", platform_kind="jade",
                   accepted_platform_kinds=("mdagent",))
        launch(d, "pc1")
        d.run_all()
        outcome = src.migrate("player", "pc2")
        d.run_all()
        assert outcome.completed
        grant = next(e for e in outcome.events if "accepted" in e)
        assert "jade" in grant

    def test_negotiation_happens_before_suspension(self):
        """The proposal round trip precedes the measured suspend window:
        the accept log entry lands before the wrap/suspend entries."""
        d = fipa_deployment()
        src = d.add_host("pc1", "lab")
        d.add_host("pc2", "lab")
        launch(d, "pc1")
        d.run_all()
        outcome = src.migrate("player", "pc2")
        d.run_all()
        accept_at = next(i for i, e in enumerate(outcome.events)
                         if "accepted" in e)
        suspend_at = next(i for i, e in enumerate(outcome.events)
                          if "suspend" in e)
        assert accept_at < suspend_at


class TestNegotiationReject:
    def test_unlisted_platform_kind_rejected_source_keeps_running(self):
        d = fipa_deployment()
        src = d.add_host("pc1", "lab")
        d.add_host("pc3", "lab", platform_kind="alien")
        app = launch(d, "pc1")
        d.run_all()
        outcome = src.migrate("player", "pc3")
        d.run_all()
        assert outcome.failed
        assert "rejected" in outcome.failure_reason
        assert "platform kind" in outcome.failure_reason
        # Graceful: nothing was suspended, the source app never stopped.
        assert app.status is AppStatus.RUNNING
        assert src.application("player") is app
        assert "player" not in d.middleware("pc3").applications
        assert outcome.suspend_done_at == 0.0

    def test_serialization_mismatch_rejected(self):
        d = fipa_deployment()
        src = d.add_host("pc1", "lab")
        dst = d.add_host("pc2", "lab")
        dst.serialization_version = 2  # speaks a different wire format
        app = launch(d, "pc1")
        d.run_all()
        outcome = src.migrate("player", "pc2")
        d.run_all()
        assert outcome.failed
        assert "serialization version" in outcome.failure_reason
        assert app.status is AppStatus.RUNNING

    def test_insufficient_device_rejected(self):
        d = fipa_deployment()
        src = d.add_host("pc1", "lab")
        d.add_host("pc2", "lab")
        app = launch(d, "pc1")
        app.device_requirements["min_screen_width"] = 10 ** 6
        d.run_all()
        outcome = src.migrate("player", "pc2")
        d.run_all()
        assert outcome.failed
        assert "device profile" in outcome.failure_reason
        assert app.status is AppStatus.RUNNING

    def test_rejection_can_be_retried_elsewhere(self):
        """A graceful reject leaves the app migratable: the same app then
        completes against an accepting destination."""
        d = fipa_deployment()
        src = d.add_host("pc1", "lab")
        d.add_host("bad", "lab", platform_kind="alien")
        d.add_host("good", "lab")
        launch(d, "pc1")
        d.run_all()
        rejected = src.migrate("player", "bad")
        d.run_all()
        assert rejected.failed
        accepted = src.migrate("player", "good")
        d.run_all()
        assert accepted.completed
        assert d.middleware("good").application("player").status \
            is AppStatus.RUNNING


class TestNegotiationTimeout:
    def test_unanswered_proposal_times_out_cleanly(self):
        d = fipa_deployment()
        src = d.add_host("pc1", "lab")
        dst = d.add_host("pc2", "lab")
        # The destination's capability responder never sees the PROPOSE
        # (e.g. a legacy platform without the protocol): deadline fires.
        dst.mam.remove_behaviour(dst.mam._capability_responder)
        app = launch(d, "pc1")
        d.run_all()
        outcome = src.migrate("player", "pc2")
        failed_at = []
        outcome.on_complete(lambda _outcome: failed_at.append(d.loop.now))
        d.run_all()
        assert outcome.failed
        assert "timed out" in outcome.failure_reason
        assert app.status is AppStatus.RUNNING
        # Planning's registry lookups precede the proposal by a few ms.
        waited = failed_at[0] - outcome.started_at
        assert NEGOTIATION_TIMEOUT_MS <= waited < NEGOTIATION_TIMEOUT_MS + 50


class TestSchedulerUnderRejection:
    def test_failed_negotiations_never_wedge_the_queue(self):
        """K consecutive rejected migrations must release their admission
        slots; a final good migration still gets through."""
        d = fipa_deployment()
        src = d.add_host("pc1", "lab")
        d.add_host("bad", "lab", platform_kind="alien")
        d.add_host("good", "lab")
        for i in range(5):
            launch(d, "pc1", name=f"app-{i}", owner=f"user-{i}")
        d.run_all()
        scheduler = d.enable_migration_scheduler(limit=1)
        handles = [scheduler.submit("pc1", f"app-{i}", "bad")
                   for i in range(5)]
        final = scheduler.submit("pc1", "app-0", "good")
        d.run_all()
        assert all(h.state == "done" for h in handles)
        assert all(h.outcome.failed for h in handles)
        assert final.state == "done"
        assert final.outcome.completed
        assert scheduler.active == 0
        assert scheduler.queue_depth == 0
        assert d.middleware("good").application("app-0").status \
            is AppStatus.RUNNING
