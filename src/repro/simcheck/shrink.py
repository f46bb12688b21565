"""Greedy scenario minimization + replayable JSON repro artifacts.

When a fuzzed scenario violates an invariant, :func:`shrink` searches for
the smallest scenario that still reproduces a violation of the same kind:
drop every fault / leg / app / host it can, then halve payloads, looping
to a fixpoint under an evaluation budget.  Every candidate is re-run from
fresh global state, so "reproduces" means *deterministically* reproduces.

:func:`write_artifact` freezes the result as JSON;
``python -m repro simcheck --replay <file>`` re-runs it via
:func:`replay_artifact` and confirms the recorded violation still fires.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.faults.plan import FaultPlan
from repro.simcheck.invariants import InvariantViolation
from repro.simcheck.runner import SimcheckReport, run_scenario
from repro.simcheck.scenario import Scenario, SimcheckError

ARTIFACT_FORMAT = "repro.simcheck.repro/1"


def _clone(scenario: Scenario) -> Scenario:
    return Scenario.from_dict(scenario.to_dict())


def _without_fault(scenario: Scenario, index: int) -> Scenario:
    candidate = _clone(scenario)
    del candidate.plan.faults[index]
    return candidate


def _without_all_faults(scenario: Scenario) -> Scenario:
    candidate = _clone(scenario)
    candidate.plan = FaultPlan(seed=scenario.plan.seed)
    return candidate


def _without_leg(scenario: Scenario, index: int) -> Scenario:
    candidate = _clone(scenario)
    del candidate.legs[index]
    return candidate


def _without_app(scenario: Scenario, index: int) -> Scenario:
    candidate = _clone(scenario)
    name = candidate.apps[index].name
    del candidate.apps[index]
    candidate.legs = [l for l in candidate.legs if l.app_name != name]
    return candidate


def _without_host(scenario: Scenario, index: int) -> Optional[Scenario]:
    if len(scenario.hosts) <= 1:
        return None
    candidate = _clone(scenario)
    removed = candidate.hosts[index]
    del candidate.hosts[index]
    doomed_apps = {a.name for a in candidate.apps
                   if a.launch_host == removed.name}
    candidate.apps = [a for a in candidate.apps
                      if a.name not in doomed_apps]
    candidate.legs = [l for l in candidate.legs
                      if l.app_name not in doomed_apps
                      and l.destination != removed.name]
    if not candidate.hosts_in(removed.space):
        # Space emptied out: retire it with its gateway and backbone links.
        space = removed.space
        candidate.spaces.remove(space)
        candidate.gateways.pop(space, None)
        candidate.space_links = [(a, b) for a, b in candidate.space_links
                                 if space not in (a, b)]
        if len(candidate.spaces) == 1:
            # A single remaining space needs no gateway plumbing at all.
            candidate.gateways = {}
            candidate.space_links = []
    # Drop faults that target the removed host or its links.
    candidate.plan.faults = [
        spec for spec in candidate.plan.faults
        if removed.name not in spec.target.split("|")
        and spec.target != removed.space]
    return candidate


def _halved_payload(scenario: Scenario, index: int) -> Optional[Scenario]:
    if scenario.apps[index].payload_bytes < 10_000:
        return None
    candidate = _clone(scenario)
    candidate.apps[index].payload_bytes //= 2
    return candidate


def _candidates(scenario: Scenario) -> Iterable[Scenario]:
    """All one-step reductions, biggest cuts first."""
    if scenario.plan.faults:
        yield _without_all_faults(scenario)
        for i in range(len(scenario.plan.faults)):
            yield _without_fault(scenario, i)
    for i in range(len(scenario.legs)):
        yield _without_leg(scenario, i)
    for i in range(len(scenario.apps)):
        yield _without_app(scenario, i)
    for i in range(len(scenario.hosts)):
        candidate = _without_host(scenario, i)
        if candidate is not None:
            yield candidate
    for i in range(len(scenario.apps)):
        candidate = _halved_payload(scenario, i)
        if candidate is not None:
            yield candidate


@dataclass
class ShrinkResult:
    """Outcome of a shrink search."""

    scenario: Scenario
    report: SimcheckReport
    violation: InvariantViolation
    evaluations: int


def shrink(scenario: Scenario, violation_kind: str,
           budget: int = 200) -> ShrinkResult:
    """Greedily minimize ``scenario`` while a ``violation_kind`` violation
    still reproduces.  Runs at most ``budget`` candidate evaluations."""

    def matching(report: SimcheckReport) -> Optional[InvariantViolation]:
        for violation in report.violations:
            if violation.kind == violation_kind:
                return violation
        return None

    current = _clone(scenario)
    report = run_scenario(current)
    violation = matching(report)
    if violation is None:
        raise SimcheckError(
            f"scenario does not reproduce a {violation_kind!r} violation")
    evaluations = 1
    progress = True
    while progress and evaluations < budget:
        progress = False
        for candidate in _candidates(current):
            if evaluations >= budget:
                break
            try:
                candidate_report = run_scenario(candidate)
            except Exception:
                # A reduction that crashes the runner is not a valid
                # repro of *this* violation; skip it.
                evaluations += 1
                continue
            evaluations += 1
            candidate_violation = matching(candidate_report)
            if candidate_violation is not None:
                current = candidate
                report = candidate_report
                violation = candidate_violation
                progress = True
                break  # restart the reduction passes on the smaller case
    return ShrinkResult(scenario=current, report=report,
                        violation=violation, evaluations=evaluations)


# -- repro artifacts -------------------------------------------------------


def artifact_dict(result: ShrinkResult,
                  original: Scenario) -> Dict[str, Any]:
    return {
        "format": ARTIFACT_FORMAT,
        "seed": original.seed,
        "violation": result.violation.to_dict(),
        "scenario": result.scenario.to_dict(),
        "shrunk_from": original.describe(),
        "shrink_evaluations": result.evaluations,
        # Deployment counters from the minimal run (federation shard and
        # cache stats included when the scenario is federated).
        "stats": dict(result.report.stats),
        "replay": "python -m repro simcheck --replay <this file>",
        # Black-box dump from the *minimal* scenario's run: the runtime
        # events (kernel dispatches, window moves, faults) leading up to
        # the first recorded violation.
        "flight": [dict(e) for e in result.report.flight],
    }


def write_artifact(path: str, result: ShrinkResult,
                   original: Scenario) -> str:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(artifact_dict(result, original), handle, indent=2,
                  sort_keys=True)
        handle.write("\n")
    return path


def load_artifact(path: str) -> Tuple[Scenario, InvariantViolation]:
    with open(path, "r", encoding="utf-8") as handle:
        try:
            data = json.load(handle)
        except json.JSONDecodeError as exc:
            raise SimcheckError(
                f"artifact is not valid JSON: {exc}") from None
    if not isinstance(data, dict) or data.get("format") != ARTIFACT_FORMAT:
        raise SimcheckError(
            f"not a simcheck repro artifact (want format {ARTIFACT_FORMAT})")
    return (Scenario.from_dict(data["scenario"]),
            InvariantViolation.from_dict(data["violation"]))


def replay_artifact(path: str) -> Tuple[SimcheckReport, bool]:
    """Re-run an artifact's scenario; True iff the recorded violation kind
    reproduces."""
    scenario, violation = load_artifact(path)
    report = run_scenario(scenario)
    reproduced = any(v.kind == violation.kind for v in report.violations)
    return report, reproduced
