"""``repro.obs`` -- sim-time-aware tracing, metrics and exporters.

The observability layer for the MDAgent reproduction: a structured tracer
with nested spans stamped on both the global simulated clock and each
host's skewed local clock (the paper's Fig. 7 measurement reality), a
labelled metrics registry (counters / gauges / p50-p95-p99 histograms), and
exporters to JSONL, Chrome ``trace_event`` JSON (Perfetto-loadable) and a
plain-text dashboard.

Everything here is dependency-free and always importable; instrumented call
sites throughout :mod:`repro.net`, :mod:`repro.agents` and :mod:`repro.core`
guard on ``loop.observability is None`` so a run without an attached
:class:`Observability` hub records nothing and pays (at most) one attribute
read per event.

See ``docs/OBSERVABILITY.md`` for a guided tour.
"""

from repro.obs.exporters import (
    export_chrome_trace,
    export_jsonl,
    jsonl_records,
    render_dashboard,
    to_chrome_trace,
    to_jsonl,
)
from repro.obs.flight import FLIGHT_FORMAT, FlightRecorder
from repro.obs.hub import Observability
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    percentile,
)
from repro.obs.slo import SLO_FORMAT, SLOAggregator, SLOReport
from repro.obs.tracer import NULL_SPAN, EventRecord, Span, Tracer

__all__ = [
    "Counter",
    "EventRecord",
    "FLIGHT_FORMAT",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_SPAN",
    "Observability",
    "SLO_FORMAT",
    "SLOAggregator",
    "SLOReport",
    "Span",
    "Tracer",
    "export_chrome_trace",
    "export_jsonl",
    "jsonl_records",
    "percentile",
    "render_dashboard",
    "to_chrome_trace",
    "to_jsonl",
]
