"""Figure-style text tables for benchmark output."""

from __future__ import annotations

from typing import Dict, Sequence

from repro.bench.harness import AvailabilityRow, SweepRow, WindowRow
from repro.core.metrics import PhaseStats


def format_phase_table(title: str, rows: Sequence[SweepRow]) -> str:
    """A Fig. 8/9-style table: suspend / migrate / resume / total per size."""
    lines = [title, "-" * len(title)]
    header = (f"{'File Size':>10} {'suspend':>10} {'migrate':>10} "
              f"{'resume':>10} {'total':>10}")
    lines.append(header)
    for row in rows:
        lines.append(
            f"{row.size_mb:>9.1f}M {row.suspend_ms:>9.0f}ms "
            f"{row.migrate_ms:>9.0f}ms {row.resume_ms:>9.0f}ms "
            f"{row.total_ms:>9.0f}ms")
    return "\n".join(lines)


def format_comparison_table(title: str, adaptive: Sequence[SweepRow],
                            static: Sequence[SweepRow]) -> str:
    """The Fig. 10 comparative table: adaptive vs static total cost."""
    if len(adaptive) != len(static):
        raise ValueError("sweeps must cover the same sizes")
    lines = [title, "-" * len(title)]
    lines.append(f"{'File Size':>10} {'Adaptive':>12} {'Static':>12} "
                 f"{'Static/Adaptive':>16}")
    for a, s in zip(adaptive, static):
        if a.size_mb != s.size_mb:
            raise ValueError("size mismatch between sweeps")
        ratio = s.total_ms / a.total_ms if a.total_ms else float("inf")
        lines.append(f"{a.size_mb:>9.1f}M {a.total_ms:>10.0f}ms "
                     f"{s.total_ms:>10.0f}ms {ratio:>15.1f}x")
    return "\n".join(lines)


def format_stats_table(title: str, stats: Dict[str, PhaseStats]) -> str:
    """Per-phase aggregate table (ms) with tail percentiles.

    ``stats`` is the output of :func:`repro.core.metrics.summarize`.
    """
    lines = [title, "-" * len(title)]
    lines.append(f"{'phase':>8} {'n':>5} {'mean':>9} {'stdev':>9} "
                 f"{'min':>9} {'p50':>9} {'p95':>9} {'p99':>9} {'max':>9}")
    for stat in stats.values():
        lines.append(
            f"{stat.phase:>8} {stat.samples:>5} {stat.mean_ms:>9.1f} "
            f"{stat.stdev_ms:>9.1f} {stat.min_ms:>9.1f} "
            f"{stat.p50_ms:>9.1f} {stat.p95_ms:>9.1f} "
            f"{stat.p99_ms:>9.1f} {stat.max_ms:>9.1f}")
    return "\n".join(lines)


def format_availability_table(title: str,
                              rows: Sequence[AvailabilityRow]) -> str:
    """Failure-rate sweep table: success / latency / recovery per loss rate.

    ``rows`` is the output of
    :func:`repro.bench.harness.availability_experiment`.
    """
    lines = [title, "-" * len(title)]
    lines.append(f"{'loss rate':>10} {'runs':>6} {'ok':>5} {'success':>9} "
                 f"{'mean total':>12} {'mean retries':>13} {'resumed':>8}")
    for row in rows:
        total = (f"{row.mean_total_ms:>10.0f}ms" if row.completed
                 else f"{'--':>12}")
        lines.append(
            f"{row.loss_rate:>10.2f} {row.runs:>6} {row.completed:>5} "
            f"{row.success_rate * 100:>8.1f}% {total} "
            f"{row.mean_retries:>13.1f} {row.resumed:>8}")
    return "\n".join(lines)


def format_window_table(title: str, rows: Sequence[WindowRow]) -> str:
    """Transfer-window sweep table: pipelined vs stop-and-wait latency.

    ``rows`` is the output of
    :func:`repro.bench.harness.transfer_window_experiment`.
    """
    lines = [title, "-" * len(title)]
    lines.append(f"{'window':>7} {'chunks':>7} {'in-flight':>10} "
                 f"{'transfer':>10} {'total':>10} {'speedup':>9}")
    for row in rows:
        lines.append(
            f"{row.window:>7} {row.chunks:>7} {row.max_in_flight:>10} "
            f"{row.transfer_ms:>8.0f}ms {row.total_ms:>8.0f}ms "
            f"{row.speedup:>8.2f}x")
    return "\n".join(lines)

