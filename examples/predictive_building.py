#!/usr/bin/env python3
"""Predictive building: pre-staging + contract-net placement.

Shows the extensions layered on the paper's middleware working together:

1. Maya commutes office -> lab every day; the Markov predictor learns it.
2. Pre-staging pushes her player's components to the lab *before* she
   leaves the office.
3. The lab has two hosts; one is already busy, so the contract-net bids
   place her on the idle one.
4. When she actually walks over, the migration wraps only the state
   snapshot -- compare the cold vs pre-staged latencies printed at the end.

Run:  python examples/predictive_building.py
"""

from repro import Deployment, MiddlewareConfig, UserProfile
from repro.apps import MusicPlayerApp


def build():
    config = MiddlewareConfig(destination_strategy="contract-net")
    d = Deployment(seed=77, config=config)
    d.add_space("office")
    d.add_space("lab")
    office = d.add_host("office-pc", "office")
    lab_busy = d.add_host("lab-busy", "lab")
    lab_idle = d.add_host("lab-idle", "lab")
    d.add_gateway("gw-office", "office")
    d.add_gateway("gw-lab", "lab")
    d.connect_spaces("office", "lab")
    # Keep lab-busy occupied with somebody else's work.
    for i in range(3):
        filler = MusicPlayerApp.build(
            f"filler-{i}", "intern", track_bytes=1000,
            user_profile=UserProfile("intern",
                                     preferences={"follow_user": False}))
        lab_busy.launch_application(filler)
    d.run_all()
    return d, office, lab_busy, lab_idle


def main() -> None:
    d, office, lab_busy, lab_idle = build()

    # -- the commute is learned before today's session -----------------------
    for _ in range(3):
        d.announce_location("maya", "office")
        d.run_all()
        d.announce_location("maya", "lab", previous="office")
        d.run_all()
    print("commute learned: office -> lab observed "
          f"{len(d.predictor.visits('maya')) // 2} times")

    # -- morning: launch the player, enable pre-staging ----------------------
    app = MusicPlayerApp.build(
        "tunes", "maya", track_bytes=4_000_000,
        user_profile=UserProfile("maya", preferences={"follow_user": True}))
    office.launch_application(app)
    d.run_all()
    service = d.enable_prestaging(probability_threshold=0.6)
    d.announce_location("maya", "office", previous="lab")
    d.run_all()
    staged_on = [m.host_name for m in (lab_busy, lab_idle)
                 if "tunes" in m.applications]
    print(f"pre-staged while she works: components installed on "
          f"{staged_on} ({service.prestages_started} push)")

    # -- she walks to the lab -------------------------------------------------
    d.announce_location("maya", "lab", previous="office")
    d.run_all()
    outcome = [o for o in d.outcomes.values()
               if o.plan.app_name == "tunes" and not o.plan.prestage][-1]
    where = [m.host_name for m in (lab_busy, lab_idle)
             if "tunes" in m.applications
             and m.applications["tunes"].status.value == "running"]
    print(f"contract-net placed her player on {where[0]} "
          f"(lab-busy runs 3 other apps)")
    print(f"warm migration: carried {outcome.plan.carry_components}, "
          f"reused {sorted(outcome.plan.reuse_components)}, "
          f"{outcome.bytes_transferred:,} B on the wire")
    print(f"phases: " + ", ".join(
        f"{k}={v:.0f}ms" for k, v in outcome.phases().items()))

    # -- cold comparison --------------------------------------------------------
    d2, office2, _, lab_idle2 = build()
    app2 = MusicPlayerApp.build(
        "tunes", "maya", track_bytes=4_000_000,
        user_profile=UserProfile("maya", preferences={"follow_user": True}))
    office2.launch_application(app2)
    d2.run_all()
    cold = office2.migrate("tunes", "lab-idle")
    d2.run_all()
    print(f"\ncold migration (no pre-staging): total {cold.total_ms:.0f} ms "
          f"vs warm {outcome.total_ms:.0f} ms "
          f"(saved {cold.total_ms - outcome.total_ms:.0f} ms)")


if __name__ == "__main__":
    main()
