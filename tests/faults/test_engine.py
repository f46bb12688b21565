"""Chaos engine: every fault kind applies and reverts, deterministically."""

import pytest

from repro.core import Deployment
from repro.faults import ChaosEngine, FaultConfig, FaultPlan, FaultSpec
from repro.faults.plan import FaultPlanError
from repro.obs import Observability


def make_deployment(faults=None, obs=None):
    """Two hosts in one space plus a gatewayed annex (for partitions)."""
    d = Deployment(seed=1, observability=obs, faults=faults)
    d.add_space("lab")
    d.add_host("host1", "lab")
    d.add_host("host2", "lab")
    d.add_space("annex")
    d.add_host("host3", "annex")
    d.add_gateway("gw-lab", "lab")
    d.add_gateway("gw-annex", "annex")
    d.connect_spaces("lab", "annex")
    return d


def manual(plan, **overrides):
    return FaultConfig(plan=plan, arm="manual", **overrides)


def plan_of(*specs):
    plan = FaultPlan(seed=5)
    for s in specs:
        plan.add(s)
    return plan


def probe(d, at_ms, fn):
    """Record ``fn()`` at ``at_ms`` into a list the test inspects later."""
    out = []
    d.loop.call_at(at_ms, lambda: out.append(fn()))
    return out


def test_config_rejects_bad_arm_mode():
    with pytest.raises(FaultPlanError, match="arm must be"):
        FaultConfig(arm="eventually")


def test_link_down_applies_and_reverts():
    plan = plan_of(FaultSpec(10.0, "link_down", "host1|host2",
                             duration_ms=50.0))
    d = make_deployment(faults=manual(plan))
    d.chaos.arm()
    during = probe(d, 30.0,
                   lambda: d.network.link_between("host1", "host2") is None)
    d.run_all()
    assert during == [True]
    restored = d.network.link_between("host1", "host2")
    assert restored is not None
    # Link parameters survive the down/up cycle.
    assert restored.bandwidth_mbps == pytest.approx(10.0)
    assert d.chaos.faults_fired == 1
    assert d.chaos.faults_reverted == 1


def test_bandwidth_and_loss_degrade_then_restore():
    plan = plan_of(
        FaultSpec(10.0, "bandwidth", "host1|host2", duration_ms=40.0,
                  params={"factor": 0.1}),
        FaultSpec(10.0, "loss", "host1|host2", duration_ms=40.0,
                  params={"loss_rate": 0.5}),
    )
    d = make_deployment(faults=manual(plan))
    d.chaos.arm()
    link = d.network.link_between("host1", "host2")
    during = probe(d, 30.0, lambda: (link.bandwidth_mbps, link.loss_rate))
    d.run_all()
    assert during == [(pytest.approx(1.0), 0.5)]
    assert link.bandwidth_mbps == pytest.approx(10.0)
    assert link.loss_rate == 0.0


def test_bandwidth_absolute_override():
    plan = plan_of(FaultSpec(5.0, "bandwidth", "host1|host2",
                             duration_ms=20.0,
                             params={"bandwidth_mbps": 0.5}))
    d = make_deployment(faults=manual(plan))
    d.chaos.arm()
    link = d.network.link_between("host1", "host2")
    during = probe(d, 15.0, lambda: link.bandwidth_mbps)
    d.run_all()
    assert during == [0.5]
    assert link.bandwidth_mbps == pytest.approx(10.0)


def test_host_crash_and_restart():
    plan = plan_of(FaultSpec(10.0, "host_crash", "host2", duration_ms=30.0))
    d = make_deployment(faults=manual(plan))
    d.chaos.arm()
    during = probe(d, 25.0, lambda: d.network.host("host2").online)
    d.run_all()
    assert during == [False]
    assert d.network.host("host2").online


def test_partition_crashes_the_space_gateway():
    plan = plan_of(FaultSpec(10.0, "partition", "annex", duration_ms=30.0))
    d = make_deployment(faults=manual(plan))
    d.chaos.arm()
    during = probe(d, 25.0, lambda: d.network.host("gw-annex").online)
    d.run_all()
    assert during == [False]
    assert d.network.host("gw-annex").online


def test_clock_jump_shifts_and_restores_skew():
    plan = plan_of(FaultSpec(10.0, "clock_jump", "host1", duration_ms=30.0,
                             params={"jump_ms": 500.0}))
    d = make_deployment(faults=manual(plan))
    base_skew = d.network.host("host1").clock.skew_ms
    d.chaos.arm()
    during = probe(d, 25.0, lambda: d.network.host("host1").clock.skew_ms)
    d.run_all()
    assert during == [base_skew + 500.0]
    assert d.network.host("host1").clock.skew_ms == base_skew


def test_permanent_fault_never_reverts():
    plan = plan_of(FaultSpec(10.0, "host_crash", "host2", duration_ms=None))
    d = make_deployment(faults=manual(plan))
    d.chaos.arm()
    d.run_all()
    assert not d.network.host("host2").online
    assert d.chaos.faults_fired == 1
    assert d.chaos.faults_reverted == 0


def test_inapplicable_fault_is_skipped_not_fatal():
    plan = plan_of(
        FaultSpec(10.0, "link_down", "host1|nowhere", duration_ms=20.0),
        FaultSpec(10.0, "host_crash", "ghost", duration_ms=None),
        FaultSpec(10.0, "partition", "atlantis", duration_ms=None),
    )
    d = make_deployment(faults=manual(plan))
    d.chaos.arm()
    d.run_all()
    assert d.chaos.faults_fired == 0
    assert d.chaos.faults_skipped == 3
    assert all(r.action == "skip" for r in d.chaos.log)


def test_crashed_host_crash_is_skipped():
    plan = plan_of(
        FaultSpec(10.0, "host_crash", "host2", duration_ms=None),
        FaultSpec(20.0, "host_crash", "host2", duration_ms=5.0),
    )
    d = make_deployment(faults=manual(plan))
    d.chaos.arm()
    d.run_all()
    assert d.chaos.faults_fired == 1
    assert d.chaos.faults_skipped == 1


def test_obs_events_and_counters_per_fault():
    plan = plan_of(FaultSpec(10.0, "link_down", "host1|host2",
                             duration_ms=50.0))
    obs = Observability()
    d = make_deployment(faults=manual(plan), obs=obs)
    d.chaos.arm()
    d.run_all()
    injected = obs.tracer.events_named("fault.inject")
    reverted = obs.tracer.events_named("fault.revert")
    assert len(injected) == 1 and len(reverted) == 1
    assert injected[0].attributes["kind"] == "link_down"
    assert injected[0].category == "fault"
    # A duration fault opens a span covering the degraded window.
    fault_spans = [s for s in obs.tracer.spans if s.name == "fault"]
    assert len(fault_spans) == 1
    assert fault_spans[0].duration_ms == pytest.approx(50.0)
    assert obs.metrics.counter("faults.fired", kind="link_down").value == 1


def test_arm_is_idempotent():
    plan = plan_of(FaultSpec(10.0, "host_crash", "host2", duration_ms=None))
    d = make_deployment(faults=manual(plan))
    d.chaos.arm()
    d.chaos.arm()  # second arm must not double-schedule
    d.run_all()
    assert d.chaos.faults_fired == 1


def test_arm_on_first_run():
    plan = plan_of(FaultSpec(10.0, "host_crash", "host2", duration_ms=None))
    d = make_deployment(faults=FaultConfig(plan=plan, arm="first-run"))
    assert not d.chaos.armed
    d.run_all()
    assert d.chaos.armed
    assert not d.network.host("host2").online


def test_fault_times_are_relative_to_arming():
    plan = plan_of(FaultSpec(10.0, "host_crash", "host2", duration_ms=None))
    d = make_deployment(faults=manual(plan))
    d.loop.advance(1_000.0)
    d.chaos.arm()
    d.run_all()
    assert d.chaos.log[0].at_ms == pytest.approx(1_010.0)


def test_schedule_digest_is_deterministic():
    def digest(seed):
        d = make_deployment(faults=FaultConfig(
            plan=None, seed=seed, random_faults=6, horizon_ms=500.0,
            arm="manual"))
        d.chaos.arm()
        d.run_all()
        return d.chaos.schedule_digest(), d.chaos.stats()

    d1, s1 = digest(21)
    d2, s2 = digest(21)
    d3, _ = digest(22)
    assert d1 == d2
    assert s1 == s2
    assert d1 != d3
    assert len(d1.splitlines()) >= 6


def test_deployment_stats_expose_fault_counters():
    plan = plan_of(FaultSpec(10.0, "host_crash", "host2", duration_ms=20.0))
    d = make_deployment(faults=manual(plan))
    d.chaos.arm()
    d.run_all()
    stats = d.stats()
    assert stats["faults_fired"] == 1
    assert stats["faults_reverted"] == 1
    # A fault-free deployment reports zeros (and no chaos engine).
    clean = make_deployment()
    assert clean.chaos is None
    assert clean.stats()["faults_fired"] == 0


def test_engine_repr_and_record_str():
    plan = plan_of(FaultSpec(10.0, "host_crash", "host2", duration_ms=None))
    d = make_deployment(faults=manual(plan))
    d.chaos.arm()
    d.run_all()
    assert "host_crash" in str(d.chaos.log[0])
    assert isinstance(d.chaos, ChaosEngine)
