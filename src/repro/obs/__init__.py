"""Unified telemetry for the reproduction: tracing, metrics, exporters.

The paper's headline results are all *measurements* — per-overlay times
(§V), pass-file sizes, I/O-boundedness, the 48K resident-memory budget —
so this package gives every layer of the pipeline one observability
substrate:

* :mod:`repro.obs.trace` — :class:`Tracer` records hierarchical spans
  (overlay → pass → node-visit → semantic-function) and structured
  instant events (spool reads/writes, subsumption save/restore, elided
  copy-rules, dead-attribute skips); :class:`NullTracer` and plain
  ``None`` are the near-zero-overhead disabled paths.
* :mod:`repro.obs.metrics` — :class:`MetricsRegistry` unifies counters,
  gauges, and histograms with the historical accounting objects
  (``IOAccountant``, ``MemoryGauge``, ``OverlayClock``), which live on
  as thin shims registered as snapshot *sources*.
* :mod:`repro.obs.export` — Chrome ``chrome://tracing`` JSON, NDJSON,
  and terminal-summary exporters consumed by the ``python -m repro
  trace`` and ``python -m repro profile`` subcommands.
* :mod:`repro.obs.provenance` — the attribute-provenance recorder and
  the time-travel query engine behind ``python -m repro debug``
  (why/history/step/summary over a recorded run).

See ``docs/observability.md`` for the span taxonomy and consumption
guidelines.
"""

from repro.obs.metrics import (
    ChannelStats,
    Counter,
    Gauge,
    Histogram,
    IOAccountant,
    IOStats,
    MemoryGauge,
    MetricsRegistry,
    StageClock,
    StageTimes,
)
from repro.obs.trace import NULL_TRACER, NullTracer, TraceRecord, Tracer
from repro.obs.export import chrome_trace_events, chrome_trace_json, ndjson, summary
from repro.obs.provenance import (
    DebugSession,
    ProvenanceLog,
    ProvenanceRecorder,
    salvage_provenance,
    scan_provenance,
)

__all__ = [
    "DebugSession",
    "ProvenanceLog",
    "ProvenanceRecorder",
    "salvage_provenance",
    "scan_provenance",
    "ChannelStats",
    "Counter",
    "Gauge",
    "Histogram",
    "IOAccountant",
    "IOStats",
    "MemoryGauge",
    "MetricsRegistry",
    "StageClock",
    "StageTimes",
    "NULL_TRACER",
    "NullTracer",
    "TraceRecord",
    "Tracer",
    "chrome_trace_events",
    "chrome_trace_json",
    "ndjson",
    "summary",
]
