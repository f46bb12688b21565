"""Migration-lifecycle fault hardening: sync/data traffic racing crashes
must drop (accounted) instead of raising through ``Host.deliver``, and
remote-data fetches against a dead source time out with backoff."""

import pytest

from repro.apps.music_player import MusicPlayerApp
from repro.apps.slideshow import SlideShowApp
from repro.core import Deployment, MigrationKind, MiddlewareConfig
from repro.core.application import AppStatus
from repro.core.middleware import REMOTE_FETCH_ATTEMPTS
from repro.obs import Observability


def obs_deployment(seed=3, **config_kwargs):
    config = MiddlewareConfig(**config_kwargs) if config_kwargs else None
    obs = Observability()
    d = Deployment(seed=seed, config=config, observability=obs)
    d.add_space("lab")
    return d, obs


def fault_count(obs, kind):
    return obs.metrics.counter("fault.middleware", kind=kind).value


class TestSyncDropsDuringCrash:
    def clone_rig(self):
        """A slide show cloned to two rooms: master on pc1, replicas on
        pc2 and pc3 with live sync links."""
        d, obs = obs_deployment()
        main = d.add_host("pc1", "lab")
        d.add_host("pc2", "lab")
        d.add_host("pc3", "lab")
        show = SlideShowApp.build("show", "speaker", slide_count=10)
        main.launch_application(show)
        d.run_all()
        for dest in ("pc2", "pc3"):
            main.migrate("show", dest, kind=MigrationKind.CLONE_DISPATCH)
            d.run_all()
        return d, obs, main, show

    def test_rebroadcast_to_crashed_replica_drops_not_raises(self):
        """A replica's control update reaches the master while another
        replica's host is down: the master's rebroadcast to the dead host
        must drop with a fault emit, not raise through Host.deliver."""
        d, obs, main, show = self.clone_rig()
        replica = d.middleware("pc2").application("show")
        d.network.host("pc3").online = False
        replica.coordinator.update("slide", 7)
        d.run_all()  # raised through the master's sync handler pre-fix
        assert show.coordinator.state["slide"] == 7
        assert fault_count(obs, "sync-drop") >= 1

    def test_update_for_uninstalled_app_is_ignored(self):
        """Sync traffic outliving its app (mid-migration uninstall) lands
        on a host that no longer has it: silently ignored, loop alive."""
        d, obs, main, show = self.clone_rig()
        d.middleware("pc2").uninstall_application("show")
        show.coordinator.update("slide", 3)
        d.run_all()
        assert d.middleware("pc3").application("show") \
            .coordinator.state["slide"] == 3

    def test_data_reply_to_crashed_requester_drops(self):
        """The serving side of a remote fetch finds the requester gone:
        the data reply drops with accounting instead of raising."""
        d, obs = obs_deployment(remote_fetch_timeout_ms=0.0)
        src = d.add_host("pc1", "lab")
        dst = d.add_host("pc2", "lab")
        launch = MusicPlayerApp.build("player", "ann", track_bytes=50_000)
        src.launch_application(launch)
        d.run_all()
        fired = []
        dst.fetch_remote_data("pc1", "player", 50_000, lambda: fired.append(1))
        # Crash the requester after the fetch request is en route but
        # before pc1 serves it.
        d.loop.call_later(0.5, setattr, d.network.host("pc2"), "online",
                          False)
        d.run_all()
        assert not fired
        assert fault_count(obs, "data-drop") >= 1


class TestRemoteFetchTimeout:
    def test_crashed_source_times_out_after_retries(self):
        d, obs = obs_deployment(remote_fetch_timeout_ms=400.0)
        d.add_host("pc1", "lab")
        dst = d.add_host("pc2", "lab")
        d.run_all()
        d.network.host("pc1").online = False
        fired, failures = [], []
        dst.fetch_remote_data("pc1", "player", 100_000,
                              lambda: fired.append(1), failures.append)
        d.run_all()
        assert not fired
        assert failures == [f"remote fetch from pc1 timed out after "
                            f"{REMOTE_FETCH_ATTEMPTS} attempts"]
        assert fault_count(obs, "fetch-timeout") == REMOTE_FETCH_ATTEMPTS
        assert fault_count(obs, "fetch-send-failed") == REMOTE_FETCH_ATTEMPTS
        assert not dst._fetch_requests and not dst._fetch_callbacks

    def test_retries_are_spaced_by_backoff(self):
        d, obs = obs_deployment(remote_fetch_timeout_ms=400.0)
        d.add_host("pc1", "lab")
        dst = d.add_host("pc2", "lab")
        d.run_all()
        d.network.host("pc1").online = False
        start = d.loop.now
        failures = []
        dst.fetch_remote_data("pc1", "player", 100_000, lambda: None,
                              failures.append)
        d.run_all()
        assert len(failures) == 1
        # One armed deadline per attempt plus a seeded backoff gap between
        # each two.
        assert d.loop.now - start > REMOTE_FETCH_ATTEMPTS * 400.0

    def test_partitioned_source_recovers_before_deadline(self):
        """A source that comes back within the retry budget still serves
        the fetch -- timeouts only fire for genuinely lost attempts."""
        d, obs = obs_deployment(remote_fetch_timeout_ms=400.0)
        src = d.add_host("pc1", "lab")
        dst = d.add_host("pc2", "lab")
        src.launch_application(
            MusicPlayerApp.build("player", "ann", track_bytes=50_000))
        d.run_all()
        d.network.host("pc1").online = False
        fired, failures = [], []
        dst.fetch_remote_data("pc1", "player", 50_000,
                              lambda: fired.append(1), failures.append)
        d.loop.call_later(900.0, setattr, d.network.host("pc1"), "online",
                          True)
        d.run_all()
        assert fired == [1]
        assert not failures
        assert not dst._fetch_requests

    def test_zero_timeout_preserves_classic_no_deadline_path(self):
        """The default config (no deadline) arms no timers at all -- the
        pinned-digest scenarios depend on that."""
        d, obs = obs_deployment()
        src = d.add_host("pc1", "lab")
        dst = d.add_host("pc2", "lab")
        src.launch_application(
            MusicPlayerApp.build("player", "ann", track_bytes=50_000))
        d.run_all()
        fired = []
        dst.fetch_remote_data("pc1", "player", 50_000,
                              lambda: fired.append(1))
        d.run_all()
        assert fired == [1]
        assert fault_count(obs, "fetch-timeout") == 0


class TestRegistryWriteFailure:
    def test_lost_registration_is_reported_once(self):
        """A registry write is fire-and-forget: with the registry host
        down the app still starts, and the lost write is counted."""
        d, obs = obs_deployment()
        d.add_host("pc1", "lab")  # the registry center
        dst = d.add_host("pc2", "lab")
        d.run_all()
        d.network.host("pc1").online = False
        app = MusicPlayerApp.build("player", "ann", track_bytes=50_000)
        dst.launch_application(app)
        d.run_all()
        assert app.status is AppStatus.RUNNING
        assert fault_count(obs, "registry-write-failed") == 1


class TestMigrationWithDeadSource:
    def test_source_crash_during_remote_open_fails_outcome(self):
        """Adaptive migration leaves the big track remote; the source
        dies before the destination's remote-open fetch is answered.
        Pre-fix the resume wedged forever -- now the outcome fails
        terminally once the fetch deadline expires."""
        d, obs = obs_deployment(remote_fetch_timeout_ms=500.0)
        src = d.add_host("pc1", "lab")
        d.add_host("pc2", "lab")
        app = MusicPlayerApp.build("player", "ann", track_bytes=2_000_000)
        src.launch_application(app)
        d.run_all()
        outcome = src.migrate("player", "pc2")

        def crash_source_when_opening():
            if any("opening remote data" in e for e in outcome.events):
                d.network.host("pc1").online = False
            elif not (outcome.completed or outcome.failed):
                d.loop.call_later(1.0, crash_source_when_opening)

        d.loop.call_later(1.0, crash_source_when_opening)
        d.run_all()
        assert outcome.plan.remote_data  # the track stayed at the source
        assert outcome.failed
        assert "timed out" in outcome.failure_reason
        # Terminal, not wedged: nothing left pending on the loop.
        assert d.loop.pending == 0


class TestSchedulerReleaseIdempotent:
    def test_double_release_cannot_wedge_the_queue(self):
        d, obs = obs_deployment()
        src = d.add_host("pc1", "lab")
        d.add_host("pc2", "lab")
        src.launch_application(
            MusicPlayerApp.build("player", "ann", track_bytes=50_000))
        d.run_all()
        scheduler = d.enable_migration_scheduler(limit=1)
        handle = scheduler.submit("pc1", "player", "pc2")
        d.run_all()
        assert handle.state == "done"
        before = (scheduler.active, scheduler.completed)
        scheduler._release(handle)  # duplicate completion callback
        assert (scheduler.active, scheduler.completed) == before
        assert scheduler.active == 0
