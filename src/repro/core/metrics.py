"""Migration phase timing (the paper's measurement methodology).

The evaluation (§5) times three phases: **suspension**, **migration** and
**resumption**.  Suspension and resumption are measured on one host's clock;
migration spans two unsynchronized clocks, which the paper handles with the
Fig. 7 round-trip trick.  :class:`MigrationOutcome` records both true
simulated times (ground truth, available only because this is a simulation)
and host-local clock stamps, so the correction itself can be demonstrated
and validated.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from statistics import mean, stdev
from typing import Dict, List

from repro.agents.mobility import Outcome
from repro.core.binding import MigrationPlan


@dataclass
class MigrationOutcome(Outcome):
    """Observable result of one application migration."""

    plan: MigrationPlan
    started_at: float = 0.0
    suspend_done_at: float = 0.0
    migrate_done_at: float = 0.0
    resume_done_at: float = 0.0
    completed: bool = False
    failed: bool = False
    failure_reason: str = ""
    bytes_transferred: int = 0
    #: Host-local clock stamps for the Fig. 7 correction.
    depart_local: float = 0.0
    arrive_local: float = 0.0
    #: True (simulation) times of the agent's departure/arrival -- the
    #: ground truth the Fig. 7 correction is validated against.
    agent_departed_at: float = 0.0
    agent_arrived_at: float = 0.0
    #: Free-form event log (phase boundaries, rebinds, adaptations).
    events: List[str] = field(default_factory=list)
    #: Reliability accounting (appended with defaults so positional
    #: construction from before these existed keeps working): retries of
    #: the agent transfer, whether a retry resumed from a mid-transfer
    #: checkpoint, and duplicate deliveries swallowed at check-in.
    transfer_retries: int = 0
    transfer_resumed: bool = False
    dedup_hits: int = 0
    #: The pipeline context running this migration, or None once it has
    #: finished.  A plain class attribute, not a field, so it stays out
    #: of the record's ``repr`` and equality.
    _pipeline_ctx = None

    # -- phases (paper Fig. 8/9 series) ------------------------------------

    @property
    def suspend_ms(self) -> float:
        return self.suspend_done_at - self.started_at

    @property
    def migrate_ms(self) -> float:
        return self.migrate_done_at - self.suspend_done_at

    @property
    def resume_ms(self) -> float:
        return self.resume_done_at - self.migrate_done_at

    @property
    def total_ms(self) -> float:
        return self.resume_done_at - self.started_at

    def log(self, message: str) -> None:
        self.events.append(message)

    def phases(self) -> Dict[str, float]:
        return {"suspend": self.suspend_ms, "migrate": self.migrate_ms,
                "resume": self.resume_ms, "total": self.total_ms}


@dataclass
class PhaseStats:
    """Aggregate of one phase over repeated runs.

    Percentile fields are appended with defaults so positional construction
    from before they existed keeps working.
    """

    phase: str
    mean_ms: float
    stdev_ms: float
    min_ms: float
    max_ms: float
    samples: int
    p50_ms: float = 0.0
    p95_ms: float = 0.0
    p99_ms: float = 0.0


def summarize(outcomes: List[MigrationOutcome]) -> Dict[str, PhaseStats]:
    """Per-phase statistics over completed outcomes."""
    from repro.obs.metrics import percentile

    done = [o for o in outcomes if o.completed]
    stats: Dict[str, PhaseStats] = {}
    if not done:
        return stats
    for phase in ("suspend", "migrate", "resume", "total"):
        values = [o.phases()[phase] for o in done]
        stats[phase] = PhaseStats(
            phase=phase,
            mean_ms=mean(values),
            stdev_ms=stdev(values) if len(values) > 1 else 0.0,
            min_ms=min(values),
            max_ms=max(values),
            samples=len(values),
            p50_ms=percentile(values, 50.0),
            p95_ms=percentile(values, 95.0),
            p99_ms=percentile(values, 99.0),
        )
    return stats
