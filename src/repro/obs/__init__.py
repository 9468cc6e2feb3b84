"""Observability: structured tracing, metrics, and decision explainability.

The ``repro.obs`` package gives the scheduler, the resilience layer,
the WAL and the simulation harnesses one shared observability surface:

``repro.obs.bus``
    The structured trace bus.  :class:`TraceBus` fans
    :class:`~repro.obs.events.TraceEvent` records out to sinks
    (in-memory ring, JSONL file, stdlib ``logging``).  Emission is
    *zero-cost when disabled*: every instrumented call site guards on
    ``bus.enabled`` (or on the bus being absent) before constructing an
    event, so the untraced hot path pays one attribute test at most.

``repro.obs.events``
    The event taxonomy — every trace event ``kind`` the system emits,
    its category, and a schema validator for exported JSONL streams.

``repro.obs.metrics``
    The metrics registry: counters, gauges and histograms (p50/p95/p99)
    with Prometheus text exposition.  ``repro.core.perf`` is a thin
    facade over this registry, so the incremental core's hot-path
    counters and the observability metrics are one system.

``repro.obs.export``
    Exporters and loaders: JSONL trace files, Chrome trace-event JSON
    (loadable in Perfetto), Prometheus text files.

``repro.obs.spans``
    Span derivation — folds the flat event stream into a causal span
    DAG (span ids, parent links, happens-before anchors) for timeline
    rendering and critical-path analysis.

``repro.obs.critpath``
    Commit-latency attribution: segments each process's span into
    exec / 2PC / queue-wait / graph-admission phase slices that
    reconcile with end-to-end latency by construction.

``repro.obs.console``
    The bounded-memory live ops console (``repro top``): sliding-window
    aggregates rendered on virtual-time interval boundaries.

``repro.obs.replay``
    Trace replay — reconstructs the schedule history and terminal
    process states from an event stream (the property the trace-replay
    Hypothesis test checks).

``repro.obs.explain``
    Decision explainability: for any blocked, rejected or aborted
    activity, report the rule that fired (Lemma 1/2/3 protocol rules,
    admission policy, circuit breaker) and the concrete conflicting
    predecessors from the serialization graph.
"""

from repro.obs.bus import (
    JsonlSink,
    MemorySink,
    TraceBus,
    tracing,
)
from repro.obs.console import OpsConsole
from repro.obs.critpath import (
    CriticalPath,
    PhaseSlice,
    attribution,
    critical_paths,
    reconcile,
)
from repro.obs.events import (
    EVENT_CATEGORIES,
    TraceEvent,
    validate_record,
    validate_stream,
)
from repro.obs.explain import Explanation, explain_scheduler, explain_trace
from repro.obs.export import (
    chrome_trace,
    read_trace,
    validate_chrome_trace,
    write_chrome_trace,
    write_prometheus,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    WindowedCounter,
    WindowedHistogram,
)
from repro.obs.replay import replay_trace
from repro.obs.spans import Span, derive_spans, group_process

__all__ = [
    "TraceBus",
    "MemorySink",
    "JsonlSink",
    "tracing",
    "TraceEvent",
    "EVENT_CATEGORIES",
    "validate_record",
    "validate_stream",
    "Counter",
    "Gauge",
    "Histogram",
    "WindowedCounter",
    "WindowedHistogram",
    "MetricsRegistry",
    "read_trace",
    "chrome_trace",
    "validate_chrome_trace",
    "write_chrome_trace",
    "write_prometheus",
    "Span",
    "derive_spans",
    "group_process",
    "CriticalPath",
    "PhaseSlice",
    "critical_paths",
    "attribution",
    "reconcile",
    "OpsConsole",
    "replay_trace",
    "Explanation",
    "explain_scheduler",
    "explain_trace",
]
