"""Command-line entry point: ``python -m repro <command>``.

Commands:

- ``quickstart``      run a single follow-me migration and print the phases
- ``sweep``           run the Fig. 8/9/10 file-size sweep and print tables
- ``lecture``         run the clone-dispatch lecture scenario
- ``simcheck``        fuzz seeded scenarios under runtime invariant checks
- ``city``            run a city-scale commuter day (see docs/WORKLOADS.md)
- ``version``         print the library version
"""

from __future__ import annotations

import argparse
import sys


def _make_obs(args: argparse.Namespace):
    """Build an Observability hub iff any obs flag was passed."""
    if not (getattr(args, "trace_out", None)
            or getattr(args, "trace_jsonl", None)
            or getattr(args, "metrics", False)):
        return None
    from repro.obs import Observability
    return Observability()


def _export_obs(obs, args: argparse.Namespace) -> None:
    """Write the requested exports and/or print the metrics dashboard."""
    if obs is None:
        return
    if getattr(args, "trace_out", None):
        obs.export_chrome_trace(args.trace_out)
        print(f"chrome trace written to {args.trace_out} "
              f"(load in Perfetto / chrome://tracing)", file=sys.stderr)
    if getattr(args, "trace_jsonl", None):
        obs.export_jsonl(args.trace_jsonl)
        print(f"JSONL trace written to {args.trace_jsonl}", file=sys.stderr)
    if getattr(args, "metrics", False):
        print()
        print(obs.dashboard())


def _add_obs_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--trace-out", metavar="FILE", default=None,
                        help="write a Chrome trace_event JSON file "
                             "(Perfetto-loadable)")
    parser.add_argument("--trace-jsonl", metavar="FILE", default=None,
                        help="write the span/event/metric stream as JSONL")
    parser.add_argument("--metrics", action="store_true",
                        help="print the metrics dashboard after the run")


def _add_fault_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--faults", metavar="PLAN.json", default=None,
                        help="inject the fault plan from this JSON file "
                             "(see docs/FAULTS.md); times are relative to "
                             "the first migration")
    parser.add_argument("--fault-seed", type=int, default=0,
                        help="seed for random fault generation and retry "
                             "jitter (default 0)")
    parser.add_argument("--random-faults", type=int, default=0, metavar="N",
                        help="without --faults: inject N seeded-random "
                             "faults instead of a scripted plan")
    parser.add_argument("--transfer-window", type=int, default=None,
                        metavar="W",
                        help="pipelined sliding-window size for chunked "
                             "transfers (default 1 = stop-and-wait); also "
                             "enables the reliability hardening on its own")


def _make_faults(args: argparse.Namespace):
    """Build a FaultConfig iff any fault flag was passed.

    Fault runs get the reliability hardening (chunked resumable transfers
    + a migration deadline) so scenarios converge through the chaos.
    """
    window = getattr(args, "transfer_window", None)
    if not (getattr(args, "faults", None)
            or getattr(args, "random_faults", 0)
            or window is not None):
        return None
    from repro.faults import FaultConfig, FaultPlan, FaultPlanError
    try:
        plan = FaultPlan.load(args.faults) if args.faults else None
    except (FaultPlanError, OSError) as exc:
        raise SystemExit(f"error: cannot load fault plan: {exc}")
    if window is not None and window < 1:
        raise SystemExit(f"error: --transfer-window must be >= 1: {window}")
    if plan is None and not args.random_faults:
        plan = FaultPlan()  # --transfer-window alone: hardening, no faults
    return FaultConfig(plan=plan, seed=args.fault_seed,
                       random_faults=args.random_faults,
                       transfer_chunk_bytes=256_000,
                       transfer_window=window if window is not None else 1,
                       migration_deadline_ms=60_000.0,
                       max_transfer_retries=8)


def _print_fault_log(deployment) -> None:
    chaos = getattr(deployment, "chaos", None)
    if chaos is None or not chaos.log:
        return
    print()
    print("fault log:")
    for record in chaos.log:
        print(f"  {record}")


def cmd_quickstart(args: argparse.Namespace) -> int:
    from repro import BindingPolicy, Deployment
    from repro.apps import MusicPlayerApp
    from repro.core.middleware import MiddlewareConfig
    from repro.obs import Observability

    obs = Observability()
    faults = _make_faults(args)
    config = MiddlewareConfig(migration_protocol=args.migration_protocol)
    d = Deployment(seed=args.seed, config=config, observability=obs,
                   faults=faults)
    d.add_space("lab")
    src = d.add_host("host1", "lab")
    dst = d.add_host("host2", "lab")
    app = MusicPlayerApp.build("player", "alice",
                               track_bytes=int(args.size_mb * 1e6))
    src.launch_application(app)
    d.run_all()
    d.loop.advance(10_000.0)
    policy = BindingPolicy(args.policy)
    outcome = src.migrate("player", "host2", policy=policy)
    d.run_all()
    for event in obs.tracer.events:
        if event.category == "context":
            print(event)
    plan = outcome.plan
    print(f"migration {plan.app_name} {plan.source} -> {plan.destination}: "
          + (f"FAILED: {outcome.failure_reason}" if outcome.failed else
             f"{outcome.bytes_transferred:,} B"))
    print()
    for phase, value in outcome.phases().items():
        print(f"{phase:>8}: {value:8.1f} ms")
    if faults is not None:
        _print_fault_log(d)
        print(f"transfer retries: {outcome.transfer_retries}"
              f"{' (resumed from checkpoint)' if outcome.transfer_resumed else ''}")
    _export_obs(obs, args)
    return 0 if outcome.completed else 1


def cmd_sweep(args: argparse.Namespace) -> int:
    from repro.bench.harness import MigrationExperiment
    from repro.bench.reporting import format_comparison_table, format_phase_table
    from repro.city.params import PAPER_FILE_SIZES_MB
    from repro.core import BindingPolicy

    obs = _make_obs(args)
    faults = _make_faults(args)
    experiment = MigrationExperiment(observability=obs, faults=faults)
    adaptive = experiment.sweep(PAPER_FILE_SIZES_MB, BindingPolicy.ADAPTIVE)
    static = experiment.sweep(PAPER_FILE_SIZES_MB, BindingPolicy.STATIC)
    print(format_phase_table(
        "Fig. 8 -- adaptive component binding", adaptive))
    print()
    print(format_phase_table(
        "Fig. 9 -- static component binding", static))
    print()
    print(format_comparison_table(
        "Fig. 10 -- comparative total cost", adaptive, static))
    if args.availability:
        from repro.bench.harness import availability_experiment
        from repro.bench.reporting import format_availability_table
        rows = availability_experiment(runs=args.availability_runs,
                                       seed=args.fault_seed,
                                       observability=obs)
        print()
        print(format_availability_table(
            "Availability -- migration under injected link loss "
            "(5.0M, static, reliability on)", rows))
    if args.window_sweep:
        from repro.bench.harness import transfer_window_experiment
        from repro.bench.reporting import format_window_table
        rows = transfer_window_experiment(seed=args.fault_seed or 5)
        print()
        print(format_window_table(
            "Transfer window -- 1 MB over a 2-hop 40 ms gateway route "
            "(64 KiB chunks)", rows))
    if args.metrics and experiment.last_outcomes:
        from repro.bench.reporting import format_stats_table
        from repro.core.metrics import summarize
        print()
        print(format_stats_table("per-phase aggregate (all runs)",
                                 summarize(experiment.last_outcomes)))
    _export_obs(obs, args)
    return 0


def cmd_lecture(args: argparse.Namespace) -> int:
    from repro.bench.harness import clone_dispatch_experiment

    obs = _make_obs(args)
    result = clone_dispatch_experiment(room_count=args.rooms,
                                       observability=obs)
    for key, value in result.items():
        print(f"{key:>20}: {value}")
    _export_obs(obs, args)
    return 0


def cmd_simcheck(args: argparse.Namespace) -> int:
    import os

    from repro.simcheck import (
        SABOTAGE_VIOLATIONS,
        SimcheckError,
        check_determinism,
        generate_scenario,
        replay_artifact,
        run_scenario,
        shrink,
        write_artifact,
    )

    if args.replay:
        try:
            report, reproduced = replay_artifact(args.replay)
        except (SimcheckError, OSError) as exc:
            raise SystemExit(f"error: cannot replay artifact: {exc}")
        print(report.summary())
        for violation in report.violations:
            print(f"  {violation}")
        if reproduced:
            print("recorded violation reproduced")
            return 0
        print("recorded violation did NOT reproduce")
        return 1

    if args.city:
        from repro.city import generate_city_scenario as generate_scenario

    failed_seeds = []
    for seed in range(args.seed_start, args.seed_start + args.seeds):
        scenario = generate_scenario(seed)
        if args.sabotage:
            scenario.sabotage = args.sabotage
        try:
            report = run_scenario(scenario)
        except Exception as exc:
            print(f"seed {seed}: runner crashed: {exc!r}")
            failed_seeds.append(seed)
            if not args.keep_going:
                return 1
            continue
        problems = [v.kind for v in report.violations]
        if not args.no_determinism and not problems:
            verdict = check_determinism(scenario)
            if not verdict["deterministic"]:
                print(f"seed {seed}: NON-DETERMINISTIC "
                      f"(digests {verdict['digests']})")
                failed_seeds.append(seed)
                if not args.keep_going:
                    return 1
                continue
        if not problems:
            print(report.summary())
            continue
        failed_seeds.append(seed)
        print(report.summary())
        for violation in report.violations:
            print(f"  {violation}")
        if not args.no_shrink:
            result = shrink(scenario, problems[0])
            print(f"  shrunk to: {result.scenario.describe()} "
                  f"({result.evaluations} evaluations)")
            os.makedirs(args.artifact_dir, exist_ok=True)
            path = os.path.join(args.artifact_dir,
                                f"simcheck-seed{seed}.json")
            write_artifact(path, result, scenario)
            print(f"  repro artifact: {path} "
                  f"(replay: python -m repro simcheck --replay {path})")
        if not args.keep_going:
            return 1
    total = args.seeds
    if failed_seeds:
        print(f"{len(failed_seeds)}/{total} seeds failed: {failed_seeds}")
        return 1
    print(f"all {total} seeds passed "
          f"(invariants clean"
          f"{'' if args.no_determinism else ', determinism verified'})")
    return 0


def cmd_city(args: argparse.Namespace) -> int:
    import json

    from repro.city import CityConfig, CityWorkload

    tier = "smoke" if args.quick else args.tier
    config = CityConfig.for_tier(tier, seed=args.seed)
    if args.spaces is not None:
        config.spaces = args.spaces
    if args.users is not None:
        config.users = args.users
    if args.no_prestage:
        config.prestage = False
    if args.federated:
        config.federated_registry = True
    obs = _make_obs(args)
    print(f"city: running {config.spaces} spaces / {config.users} users "
          f"(seed {config.seed})...", file=sys.stderr)
    result = CityWorkload(config, observability=obs).run(
        check_invariants=args.check_invariants)
    print(result.summary())
    print()
    print(result.slo.render(f"fleet SLO report (city, "
                            f"{result.tier} tier)"))
    for violation in result.invariant_violations:
        print(f"  INVARIANT VIOLATION: {violation}")
    if args.slo_json:
        payload = {
            "format": "repro.city.slo/1",
            "tier": result.tier,
            "seed": config.seed,
            "spaces": result.spaces,
            "users": result.users,
            "legs_submitted": result.legs_submitted,
            "trace_digest": result.trace_digest,
            "fleet_digest": result.fleet_digest,
            "hourly_moves": result.hourly_moves,
            "slo": result.slo.to_dict(),
        }
        with open(args.slo_json, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"SLO report written to {args.slo_json}", file=sys.stderr)
    _export_obs(obs, args)
    if result.invariant_violations:
        return 1
    return 0 if result.legs_completed > 0 else 1


def cmd_version(args: argparse.Namespace) -> int:
    import repro
    print(f"repro (MDAgent reproduction) {repro.__version__}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="MDAgent: agent-based application mobility middleware "
                    "(ICDCSW'07 reproduction)")
    sub = parser.add_subparsers(dest="command")
    quickstart = sub.add_parser("quickstart",
                                help="one follow-me migration with a trace")
    quickstart.add_argument("--size-mb", type=float, default=5.0)
    quickstart.add_argument("--policy", choices=["adaptive", "static"],
                            default="adaptive")
    quickstart.add_argument("--seed", type=int, default=42)
    quickstart.add_argument("--migration-protocol",
                            choices=["direct", "fipa"], default="direct",
                            help="pre-transfer capability negotiation: "
                                 "'direct' (in-process checks) or 'fipa' "
                                 "(propose/accept-proposal ACL exchange)")
    _add_obs_flags(quickstart)
    _add_fault_flags(quickstart)
    quickstart.set_defaults(func=cmd_quickstart)
    sweep = sub.add_parser("sweep", help="reproduce Figs. 8-10")
    _add_obs_flags(sweep)
    _add_fault_flags(sweep)
    sweep.add_argument("--availability", action="store_true",
                       help="also sweep injected link-loss rate vs "
                            "migration success/latency")
    sweep.add_argument("--availability-runs", type=int, default=5,
                       metavar="N", help="runs per loss rate (default 5)")
    sweep.add_argument("--window-sweep", action="store_true",
                       help="also sweep the pipelined transfer window on "
                            "the high-latency 2-hop route")
    sweep.set_defaults(func=cmd_sweep)
    lecture = sub.add_parser("lecture",
                             help="clone-dispatch lecture scenario")
    lecture.add_argument("--rooms", type=int, default=3)
    _add_obs_flags(lecture)
    lecture.set_defaults(func=cmd_lecture)
    simcheck = sub.add_parser(
        "simcheck",
        help="fuzz seeded scenarios under runtime invariant checks")
    simcheck.add_argument("--seeds", type=int, default=25, metavar="N",
                          help="number of seeds to fuzz (default 25)")
    simcheck.add_argument("--seed-start", type=int, default=0, metavar="S",
                          help="first seed (default 0)")
    simcheck.add_argument("--replay", metavar="FILE", default=None,
                          help="replay a JSON repro artifact instead of "
                               "fuzzing; exits 0 iff the recorded "
                               "violation reproduces")
    simcheck.add_argument("--artifact-dir", metavar="DIR", default=".",
                          help="where failure repro artifacts are written "
                               "(default: current directory)")
    simcheck.add_argument("--no-shrink", action="store_true",
                          help="report violations without minimizing them")
    simcheck.add_argument("--no-determinism", action="store_true",
                          help="skip the same-seed double-run digest check")
    simcheck.add_argument("--keep-going", action="store_true",
                          help="fuzz every seed even after a failure")
    simcheck.add_argument("--city", action="store_true",
                          help="fuzz small compiled-city scenarios "
                               "(repro.city.generate_city_scenario) "
                               "instead of the generic generator")
    # Test-only: plant a deliberate defect in every scenario so the
    # checker/shrinker pipeline itself can be exercised end to end.
    simcheck.add_argument("--sabotage", default=None,
                          help=argparse.SUPPRESS)
    simcheck.set_defaults(func=cmd_simcheck)
    city = sub.add_parser(
        "city",
        help="run a city-scale commuter day through the middleware")
    city.add_argument("--seed", type=int, default=11,
                      help="workload seed (default 11); same seed -> "
                           "byte-identical trace digest")
    city.add_argument("--tier", default="quick",
                      choices=["smoke", "quick", "full"],
                      help="scale tier (default quick: 200 spaces / "
                           "2,000 users; full: 2,000 / 50,000)")
    city.add_argument("--spaces", type=int, default=None, metavar="N",
                      help="override the tier's space count")
    city.add_argument("--users", type=int, default=None, metavar="N",
                      help="override the tier's user count")
    city.add_argument("--quick", action="store_true",
                      help="shorthand for --tier smoke (CI smoke runs)")
    city.add_argument("--federated", action="store_true",
                      help="shard the registry per space with gateway "
                           "aggregators instead of one flat center")
    city.add_argument("--no-prestage", action="store_true",
                      help="disable morning-commute component pre-staging")
    city.add_argument("--check-invariants", action="store_true",
                      help="run under the simcheck runtime invariant "
                           "checkers (slower; nonzero exit on violation)")
    city.add_argument("--slo-json", metavar="FILE", default=None,
                      help="also write the SLO report (plus digests) as "
                           "JSON")
    _add_obs_flags(city)
    city.set_defaults(func=cmd_city)
    version = sub.add_parser("version", help="print the version")
    version.set_defaults(func=cmd_version)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not getattr(args, "command", None):
        parser.print_help()
        return 2
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
