"""The repository benchmark: four workloads, end-to-end and per layer.

Usage (from the repository root)::

    python3 perf/run.py                          # all workloads, 5 repeats
    python3 perf/run.py --workload city_day --seed 3 --seconds 20 --trace 0
    python3 perf/run.py --out perf/out           # also write result files
    python3 perf/run.py --compare A.json B.json  # before/after verdicts

Every repeat is a fresh subprocess running one workload once, so no
repeat inherits interpreter state from another.  Repeats run one at a
time (the simulator is single-threaded) and interleave across workloads.
End-to-end metrics are medians over the untraced repeats (throughput: the
best repeat); ``--trace 1`` adds one traced repeat per workload for the
per-layer split (see ``layers.py``).  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code is
non-zero when a correctness check fails.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional

from layers import LAYERS, LayerTracer

PERF_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(PERF_DIR)
SRC = os.path.join(ROOT, "src")

WORKLOAD_ORDER = ("city_day", "bulk_transfer", "registry_storm",
                  "fault_corpus")

#: End-to-end metrics: (name, unit, better, exact).  ``exact`` metrics are
#: deterministic per seed; ``--compare`` at equal seeds counts any change.
END_TO_END = (
    ("setup_s", "s", "lower", False),
    ("ops_per_s", "ops/s", "higher", False),
    ("peak_rss_mb", "MB", "lower", False),
    ("latency_p50_sim_ms", "sim_ms", "lower", True),
    ("latency_p99_sim_ms", "sim_ms", "lower", True),
    ("completed_share", "fraction", "higher", True),
    ("on_time_share", "fraction", "higher", True),
)
EXACT_TOLERANCE = 1e-9
#: Wall-clock throughputs whose run value is the best repeat, not the
#: median: other tenants of the machine only ever slow a repeat down, in
#: bursts that last seconds, so the fastest repeat is the steadiest
#: estimate of the program's own speed.
BEST_OF = frozenset({"ops_per_s"})

_PIPELINE_PHASES = ("admission", "planning", "negotiation", "suspend",
                    "capture", "transfer", "checkin", "rebind", "powerup")


def per_layer_specs() -> List[tuple]:
    """(name, unit, better) of every per-layer metric, in report order."""
    specs = []
    for layer in LAYERS:
        specs += [(f"{layer}.self_ms", "ms", "lower"),
                  (f"{layer}.share", "fraction", "lower"),
                  (f"{layer}.calls", "count", "lower"),
                  (f"{layer}.setup_ms", "ms", "lower")]
    specs += [("gc.pause_ms", "ms", "lower"),
              ("gc.collections", "count", "lower"),
              ("gc.share", "fraction", "lower")]
    specs += [(f"core.phase.{p}.self_ms", "ms", "lower")
              for p in _PIPELINE_PHASES]
    specs += [("core.prestage.self_ms", "ms", "lower"),
              ("kernel.timers", "count", "lower"),
              ("kernel.cancelled_share", "fraction", "lower"),
              ("kernel.max_heap_depth", "count", "lower"),
              ("net.window_calls", "count", "lower"),
              ("net.window_fast_share", "fraction", "higher"),
              ("trace.unattributed_share", "fraction", "lower"),
              ("trace.overhead_share", "fraction", "lower"),
              ("kernel.events", "count", "lower"),
              ("kernel.events_per_s", "1/s", "higher"),
              ("net.bytes_on_wire", "bytes", "lower"),
              ("net.messages_dropped", "count", "lower"),
              ("net.control_busy_sim_ms", "sim_ms", "lower"),
              ("net.bulk_busy_sim_ms", "sim_ms", "lower"),
              ("net.route_cache_hit_share", "fraction", "higher"),
              ("agents.acl_messages", "count", "lower"),
              ("agents.moves", "count", "higher"),
              ("agents.transfer_retries", "count", "lower"),
              ("agents.checkin_dedup_hits", "count", "lower"),
              ("core.migrations", "count", "higher"),
              ("core.queue_wait_p50_sim_ms", "sim_ms", "lower"),
              ("core.queue_wait_p99_sim_ms", "sim_ms", "lower"),
              ("core.prestage_hit_share", "fraction", "higher"),
              ("registry.requests", "count", "lower"),
              ("registry.lookups", "count", "lower"),
              ("registry.cache_hit_share", "fraction", "higher"),
              ("context.events_published", "count", "lower"),
              ("faults.fired", "count", "lower")]
    return specs


# -- statistics --------------------------------------------------------------


def percentile(values: List[float], q: float) -> float:
    """Linear-interpolated percentile of ``values`` (0 <= q <= 100)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = (len(ordered) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def summarize(values: List[float]) -> Dict[str, float]:
    """Median and quartiles, as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        value = values[0] if values else 0.0
        return {"median": value, "q1": value, "q3": value}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3}


def _share(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


# -- one repeat (child process) ----------------------------------------------


def _import_repro() -> None:
    """Put this checkout's ``src`` first on the path, or fail."""
    if not os.path.isdir(os.path.join(SRC, "repro")):
        raise SystemExit(f"perf: no repro package under {SRC}")
    sys.path.insert(0, SRC)
    import repro
    if not os.path.abspath(repro.__file__).startswith(SRC):
        raise SystemExit(f"perf: imported repro from {repro.__file__}, "
                         f"not from {SRC}")


class _Phases:
    """Times the setup and run phases (and scopes the tracer, if any)."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.seconds = {"setup": 0.0, "run": 0.0}

    @contextlib.contextmanager
    def __call__(self, name: str):
        scope = self.tracer.phase(name) if self.tracer \
            else contextlib.nullcontext()
        with scope:
            start = time.perf_counter()
            try:
                yield
            finally:
                self.seconds[name] += time.perf_counter() - start


def run_child(workload: str, seed: int, scale: str, traced: bool,
              out: Optional[str]) -> Dict[str, Any]:
    """Run one workload once in this process; return its measurements."""
    _import_repro()
    from workloads import WORKLOADS  # imports repro: after the path is set
    tracer = LayerTracer().install() if traced else None
    work = WORKLOADS[workload](seed, scale)
    phases = _Phases(tracer)
    try:
        work.execute(phases)
    finally:
        if tracer is not None:
            tracer.uninstall()
    digest = hashlib.sha256()
    on_time = broken = 0
    latencies = []
    for op_id, state, latency in work.ops:
        if work.terminal_calls[op_id] != 1 or \
                state not in ("completed", "failed", "refused"):
            broken += 1
        if state == "completed":
            latencies.append(latency)
            on_time += latency <= work.limit_ms
        shown = f"{latency:.3f}" if latency is not None else "-"
        digest.update(f"{op_id}|{state}|{shown}\n".encode("ascii"))
    counters = work.counters
    waits = counters.pop("queue_waits")
    counters["queue_wait_p50"] = percentile(waits, 50.0)
    counters["queue_wait_p99"] = percentile(waits, 99.0)
    result = {
        "workload": workload, "seed": seed, "scale": scale,
        "traced": traced,
        "setup_s": phases.seconds["setup"], "run_s": phases.seconds["run"],
        "measured_s": phases.seconds["run"] + (
            phases.seconds["setup"] if work.setup_in_throughput else 0.0),
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": len(work.ops), "completed": len(latencies),
        "on_time": on_time,
        "broken": broken + work.wrong_answers,
        "limit_ms": work.limit_ms,
        "latency_n": len(latencies),
        "latency_p50": percentile(latencies, 50.0),
        "latency_p99": percentile(latencies, 99.0),
        "digest": digest.hexdigest(),
        "problems": work.problems[:20] + (
            [f"... and {len(work.problems) - 20} more"]
            if len(work.problems) > 20 else []),
        "skipped": work.skipped,
        "counters": counters,
        "trace": tracer.report() if tracer is not None else None,
    }
    if tracer is not None and out:
        tracer.write_spans(os.path.join(out, f"{workload}.spans.jsonl"))
    return result


# -- the parent: repeats, aggregation, correctness -------------------------------


def _spawn(workload: str, seed: int, scale: str, traced: bool,
           out: Optional[str]) -> Dict[str, Any]:
    command = [sys.executable, os.path.abspath(__file__), "--child",
               "--workload", workload, "--seed", str(seed),
               "--scale", scale, "--trace", "1" if traced else "0"]
    if out:
        command += ["--out", out]
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.run(command, cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=170)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"perf: {workload} repeat failed "
                         f"(exit {proc.returncode})")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(child: Dict[str, Any]) -> Dict[str, float]:
    attempted = child["attempted"]
    return {
        "setup_s": child["setup_s"],
        "ops_per_s": _share(attempted, child["measured_s"]),
        "peak_rss_mb": child["rss_mb"],
        "latency_p50_sim_ms": child["latency_p50"],
        "latency_p99_sim_ms": child["latency_p99"],
        "completed_share": _share(child["completed"], attempted),
        "on_time_share": _share(child["on_time"], attempted),
    }


def per_layer(traced: Dict[str, Any], untraced: List[Dict[str, Any]]
              ) -> Dict[str, float]:
    """The per-layer metrics: the traced repeat's split plus the public
    counters and kernel throughput of the untraced repeats."""
    report = traced["trace"]
    values: Dict[str, float] = {}
    for layer in LAYERS:
        row = report["layers"][layer]
        for key in ("self_ms", "share", "calls", "setup_ms"):
            values[f"{layer}.{key}"] = row[key]
    gc_row = report["layers"]["gc"]
    values["gc.pause_ms"] = gc_row["self_ms"]
    values["gc.collections"] = report["gc_collections"]
    values["gc.share"] = gc_row["share"]
    buckets = report["buckets_ms"]
    for phase in _PIPELINE_PHASES:
        values[f"core.phase.{phase}.self_ms"] = \
            buckets.get(f"core.phase.{phase}", 0.0)
    values["core.prestage.self_ms"] = buckets.get("core.prestage", 0.0)
    values["kernel.timers"] = report["timers"]
    values["kernel.cancelled_share"] = _share(report["timers_cancelled"],
                                              report["timers"])
    values["kernel.max_heap_depth"] = report["max_heap_depth"]
    values["net.window_calls"] = report["window_calls"]
    values["net.window_fast_share"] = _share(report["window_fast"],
                                             report["window_calls"])
    values["trace.unattributed_share"] = \
        report["layers"]["unattributed"]["share"]
    run_s = min(c["run_s"] for c in untraced)
    values["trace.overhead_share"] = _share(traced["run_s"] - run_s,
                                            traced["run_s"])
    counters = untraced[0]["counters"]
    values["kernel.events"] = counters["events"]
    values["kernel.events_per_s"] = max(
        _share(c["counters"]["events"], c["run_s"]) for c in untraced)
    values["net.bytes_on_wire"] = counters["bytes_on_wire"]
    values["net.messages_dropped"] = counters["messages_dropped"]
    values["net.control_busy_sim_ms"] = counters["control_busy_ms"]
    values["net.bulk_busy_sim_ms"] = counters["bulk_busy_ms"]
    values["net.route_cache_hit_share"] = _share(
        counters["route_hits"],
        counters["route_hits"] + counters["route_misses"])
    values["agents.acl_messages"] = counters["acl_messages"]
    values["agents.moves"] = counters["moves"]
    values["agents.transfer_retries"] = counters["transfer_retries"]
    values["agents.checkin_dedup_hits"] = counters["dedup_hits"]
    values["core.migrations"] = counters["migrations"]
    values["core.queue_wait_p50_sim_ms"] = counters["queue_wait_p50"]
    values["core.queue_wait_p99_sim_ms"] = counters["queue_wait_p99"]
    values["core.prestage_hit_share"] = _share(counters["prestage_hits"],
                                               counters["prestage_pushes"])
    values["registry.requests"] = counters["registry_requests"]
    values["registry.lookups"] = counters["registry_lookups"]
    values["registry.cache_hit_share"] = _share(
        counters["cache_hits"],
        counters["cache_hits"] + counters["cache_misses"])
    values["context.events_published"] = counters["events_published"]
    values["faults.fired"] = counters["faults_fired"]
    return values


def check(workload: str, children: List[Dict[str, Any]]) -> List[str]:
    """The correctness gate over every repeat of one workload."""
    problems = []
    for child in children:
        tag = f"{workload} ({'traced' if child['traced'] else 'untraced'})"
        problems += [f"{tag}: {p}" for p in child["problems"]]
        if child["broken"]:
            problems.append(f"{tag}: {child['broken']} operations without "
                            f"exactly one correct terminal state")
        if child["attempted"] < 1:
            problems.append(f"{tag}: no operations attempted")
    for key in ("digest", "skipped"):
        if len({json.dumps(c[key]) for c in children}) > 1:
            problems.append(f"{workload}: {key} differs across repeats")
    return problems


def aggregate(workload: str, children: List[Dict[str, Any]],
              traced: Optional[Dict[str, Any]]) -> Dict[str, Any]:
    metrics = {}
    samples = [end_to_end(c) for c in children]
    for name, unit, _better, _exact in END_TO_END:
        values = [s[name] for s in samples]
        stats = summarize(values)
        metrics[name] = dict(
            stats, unit=unit, samples=values,
            value=max(values) if name in BEST_OF else stats["median"])
    everything = children + ([traced] if traced else [])
    result = {
        "workload": workload,
        "seed": children[0]["seed"],
        "scale": children[0]["scale"],
        "repeats": len(children),
        "latency_n": children[0]["latency_n"],
        "sim_digest": children[0]["digest"],
        "skipped": children[0]["skipped"],
        "attempted": sum(c["attempted"] for c in everything),
        "broken": sum(c["broken"] for c in everything),
        "metrics": metrics,
        "problems": check(workload, everything),
    }
    if traced is not None:
        units = {name: unit for name, unit, _ in per_layer_specs()}
        result["layers"] = {
            name: {"value": value, "unit": units[name]}
            for name, value in per_layer(traced, children).items()}
        result["trace"] = traced["trace"]
    return result


def run_benchmark(workloads: List[str], seed: int, scale: str,
                  repeats: int, seconds: float, trace: bool,
                  out: Optional[str]) -> Dict[str, Any]:
    """Interleave untraced repeats across workloads until each has at
    least ``repeats`` of them and ``seconds`` of wall time, then run one
    traced repeat per workload when ``trace`` is set."""
    children: Dict[str, List[Dict[str, Any]]] = {w: [] for w in workloads}
    spent = {w: 0.0 for w in workloads}
    while True:
        pending = [w for w in workloads
                   if len(children[w]) < repeats or spent[w] < seconds]
        if not pending:
            break
        for workload in pending:
            started = time.perf_counter()
            children[workload].append(
                _spawn(workload, seed, scale, False, None))
            spent[workload] += time.perf_counter() - started
    results = {}
    for workload in workloads:
        traced = _spawn(workload, seed, scale, True, out) if trace else None
        results[workload] = aggregate(workload, children[workload], traced)
    return {"format": "perf/1", "seed": seed, "scale": scale,
            "workloads": results}


# -- reporting -----------------------------------------------------------------


def _fmt(value: float) -> str:
    if abs(value) >= 1000:
        return f"{value:,.0f}"
    if float(value).is_integer():
        return f"{value:.0f}"
    return f"{value:.4g}"


def render(results: Dict[str, Any]) -> str:
    lines = []
    for workload, res in results["workloads"].items():
        lines.append(f"== {workload} (seed {res['seed']}, {res['scale']}, "
                     f"{res['repeats']} repeats, sim_digest "
                     f"{res['sim_digest'][:16]})")
        for name, unit, _better, _exact in END_TO_END:
            m = res["metrics"][name]
            extra = f"  n={res['latency_n']}" if name.startswith("latency") \
                else ""
            if name in BEST_OF:
                extra = f"  best of {res['repeats']}; median " \
                        f"{_fmt(m['median'])}"
            lines.append(f"  {name:<22} {_fmt(m['value']):>12} {unit:<9}"
                         f" [{_fmt(m['q1'])} .. {_fmt(m['q3'])}]{extra}")
        for name, entry in res.get("layers", {}).items():
            lines.append(f"  {name:<34} {_fmt(entry['value']):>12} "
                         f"{entry['unit']}")
        for skipped in res["skipped"]:
            lines.append(f"  note: replaced {skipped}")
        for problem in res["problems"]:
            lines.append(f"  FAIL {problem}")
    return "\n".join(lines)


def result_line(results: Dict[str, Any], trace: bool) -> Dict[str, Any]:
    """The final JSON line.  One workload: plain metric names; several:
    names prefixed with ``<workload>.``."""
    runs = results["workloads"]
    single = len(runs) == 1
    metrics = {}
    for workload, res in runs.items():
        prefix = "" if single else f"{workload}."
        table = res["layers"] if trace else res["metrics"]
        for name, entry in table.items():
            metrics[prefix + name] = {"value": entry["value"],
                                      "unit": entry["unit"]}
    return {
        "correct": all(not r["problems"] for r in runs.values()),
        "attempted": sum(r["attempted"] for r in runs.values()),
        "failed": sum(r["broken"] for r in runs.values()),
        "metrics": metrics,
    }


# -- compare -------------------------------------------------------------------


def load_bounds() -> Dict[str, float]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    return {m["name"]: m["bound"] for m in spec["end_to_end"]}


def verdict(before: List[float], after: List[float], better: str,
            bound: float) -> str:
    """better / worse / unchanged / unresolved for one metric.

    A change beyond ``bound`` (a share of the before median) is better or
    worse.  When either side's quartile spread exceeds the bound, the
    verdict is unresolved unless every after-run beats (or loses to)
    every before-run.
    """
    sign = 1.0 if better == "higher" else -1.0
    base = statistics.median(before)
    delta = sign * (statistics.median(after) - base) / (abs(base) or 1.0)
    spreads = []
    for values in (before, after):
        s = summarize(values)
        spreads.append((s["q3"] - s["q1"]) / (abs(s["median"]) or 1.0))
    separated = (min(sign * v for v in after) > max(sign * v for v in before)
                 or max(sign * v for v in after)
                 < min(sign * v for v in before))
    if max(spreads) > bound and not separated:
        return "unresolved"
    if delta < -bound:
        return "worse"
    if delta > bound:
        return "better"
    return "unchanged"


def compare(path_a: str, path_b: str) -> int:
    with open(path_a, encoding="utf-8") as f:
        a = json.load(f)
    with open(path_b, encoding="utf-8") as f:
        b = json.load(f)
    bounds = load_bounds()
    same_inputs = (a["seed"], a["scale"]) == (b["seed"], b["scale"])
    worse = 0
    print(f"{'workload':<15} {'metric':<20} {'A median [q1 .. q3]':>30} "
          f"{'B median [q1 .. q3]':>30}  verdict")
    for workload in a["workloads"]:
        if workload not in b["workloads"]:
            continue
        ra, rb = a["workloads"][workload], b["workloads"][workload]
        for name, _unit, better, exact in END_TO_END:
            ma, mb = ra["metrics"][name], rb["metrics"][name]
            bound = EXACT_TOLERANCE if exact and same_inputs \
                else bounds[name]
            result = verdict(ma["samples"], mb["samples"], better, bound)
            worse += result == "worse"
            cells = [f"{_fmt(m['median'])} [{_fmt(m['q1'])} .. "
                     f"{_fmt(m['q3'])}]" for m in (ma, mb)]
            print(f"{workload:<15} {name:<20} {cells[0]:>30} "
                  f"{cells[1]:>30}  {result}")
        if same_inputs and ra["sim_digest"] != rb["sim_digest"]:
            print(f"{workload:<15} sim_digest differs: "
                  f"{ra['sim_digest'][:16]} vs {rb['sim_digest'][:16]}")
        if ra["skipped"] != rb["skipped"]:
            print(f"{workload:<15} replaced scenarios differ: "
                  f"{len(ra['skipped'])} vs {len(rb['skipped'])}")
    return 1 if worse else 0


# -- command line ------------------------------------------------------------------


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append",
                        choices=WORKLOAD_ORDER,
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--repeats", type=int, default=None,
                        help="minimum untraced repeats per workload "
                             "(default 5, or 3 with --seconds)")
    parser.add_argument("--seconds", type=float, default=0.0,
                        help="keep repeating until each workload's "
                             "repeats took this much wall time")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=1,
                        help="1: add a traced repeat and report the "
                             "per-layer metrics")
    parser.add_argument("--scale", choices=("full", "smoke"),
                        default="full")
    parser.add_argument("--out", help="directory for results.json and the "
                                      "traced run's layer and span files")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="compare two results.json files")
    parser.add_argument("--child", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.compare:
        return compare(*args.compare)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
    workloads = args.workload or list(WORKLOAD_ORDER)
    if args.child:
        print(json.dumps(run_child(workloads[0], args.seed, args.scale,
                                   bool(args.trace), args.out)))
        return 0
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perf: no repro package under {SRC}", file=sys.stderr)
        return 2
    repeats = args.repeats if args.repeats is not None \
        else (3 if args.seconds else 5)
    results = run_benchmark(workloads, args.seed, args.scale, repeats,
                            args.seconds, bool(args.trace), args.out)
    if args.out:
        with open(os.path.join(args.out, "results.json"), "w",
                  encoding="utf-8") as f:
            json.dump(results, f, indent=1)
        for workload, res in results["workloads"].items():
            if "layers" in res:
                with open(os.path.join(args.out,
                                       f"{workload}.layers.json"), "w",
                          encoding="utf-8") as f:
                    json.dump({"layers": res["layers"],
                               "trace": res["trace"]}, f, indent=1)
    print(render(results))
    line = result_line(results, bool(args.trace))
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
