"""Observability: kernel tracing, a metrics registry, Perfetto export.

The paper's feasibility argument is entirely about *where time goes* —
VMM overhead and the per-step cost of the six-step session life cycle —
so this package makes the simulated stack observable end to end:

* :mod:`repro.obs.tracer` — the :class:`Tracer` protocol (null by
  default, zero-cost on the kernel hot path), sim-time spans, and the
  recording :class:`TraceRecorder`;
* :mod:`repro.obs.metrics` — a hierarchical :class:`MetricsRegistry`
  (counters, gauges, histograms, rates; partition-keyed) owned by each
  simulation (``sim.metrics``);
* :mod:`repro.obs.windows` — bounded-memory collector backends: the
  deterministic :class:`QuantileHistogram` and windowed
  :class:`RateSeries`;
* :mod:`repro.obs.recorder` — the :class:`FlightRecorder`, a sim-time
  heartbeat snapshotting the registry into a bounded ring (JSONL
  export, per-shard merge);
* :mod:`repro.obs.sla` — the :class:`SlaPolicy` thresholds consumed by
  the session and GRAM layers;
* :mod:`repro.obs.chrome` — Chrome-trace-event JSON export, loadable
  in Perfetto / ``chrome://tracing``;
* :mod:`repro.obs.report` — the run-report renderer behind ``repro
  report`` (imported lazily by the CLI; not re-exported here to keep
  this package importable from the kernel).  The single-session worlds
  that ``repro trace`` / ``metrics`` / ``record`` / ``report`` replay
  are rows of :mod:`repro.scenarios`.

See ``docs/observability.md`` for the protocol, naming conventions and
a Perfetto walkthrough.
"""

from repro.obs.chrome import (
    chrome_trace_events,
    chrome_trace_json,
    export_chrome_trace,
)
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.recorder import FlightEntry, FlightRecorder
from repro.obs.sla import DEFAULT_SLA, SlaPolicy
from repro.obs.tracer import (
    NULL_TRACER,
    NullTracer,
    Span,
    TraceError,
    TraceRecorder,
    Tracer,
)
from repro.obs.windows import QuantileHistogram, RateSeries

__all__ = [
    "Counter",
    "DEFAULT_SLA",
    "FlightEntry",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_TRACER",
    "NullTracer",
    "QuantileHistogram",
    "RateSeries",
    "SlaPolicy",
    "Span",
    "TraceError",
    "TraceRecorder",
    "Tracer",
    "chrome_trace_events",
    "chrome_trace_json",
    "export_chrome_trace",
]
