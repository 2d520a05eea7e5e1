"""``repro.obs`` -- observability for the verification stack.

Three legs, three modules (plus the offline analyser):

* :mod:`.trace` -- span-based tracing: nested, attributed spans with a
  zero-overhead no-op default, deterministic fork-pool merge, and a
  versioned JSONL export (``--trace FILE`` on the CLI);
* :mod:`.metrics` -- labelled counters and histograms (formula
  evaluations per restriction, lattice sizes, cache/dedupe hits,
  shrink steps), mergeable across worker processes; ``EngineStats`` is
  a view over this registry;
* :mod:`.explain` -- subformula evaluation traces for failed
  restrictions: which binding, which history prefix, which □/◇
  unrolling flipped the verdict, rendered as text and DOT;
* :mod:`.profile` -- ``repro profile TRACE.jsonl``: per-phase and
  per-span timing breakdowns, top restrictions by evaluation cost,
  worker utilisation;
* :mod:`.telemetry` -- Prometheus text exposition (render + parse)
  over a :class:`MetricsRegistry`, and the :class:`TelemetryHub`
  background sampler the serve daemon's ``GET /metrics`` rides on;
* :mod:`.runhistory` -- the persistent (sqlite, WAL) run-history
  store behind ``--history`` and ``repro history
  list/show/trends/regressions``;
* :mod:`.top` -- the ``repro top`` live dashboard over a daemon's
  ``/metrics`` + ``/stats`` + ``/jobs``.

Layering: ``obs.metrics`` and ``obs.trace`` import nothing above
:mod:`repro.core.errors` at load time, so every layer (core checker,
scheduler, engine, fuzzer) can accept a tracer/registry without cycles;
``obs.explain`` renders the failure descent of
:mod:`repro.core.witness` (``Tracer.explain`` imports it when a traced
check fails).  Callers that were handed no tracer use
:data:`NULL_TRACER` and pay a truthiness check.
"""

from .explain import ExplainStep, ExplanationTrace, explain_restriction
from .metrics import HistogramStat, MetricKindError, MetricsRegistry
from .runhistory import (
    HistorySchemaError,
    Regression,
    RunHistory,
    RunRow,
    parse_tolerance,
    record_report,
    stats_snapshot,
)
from .telemetry import (
    PrometheusParseError,
    PrometheusScrape,
    TelemetryHub,
    metric_name,
    parse_prometheus,
    render_prometheus,
)
from .top import render_top, run_top
from .profile import (
    load_trace,
    phase_breakdown,
    render_profile,
    restriction_costs,
    serve_progress_events,
    span_aggregates,
    worker_utilisation,
)
from .trace import (
    NULL_TRACER,
    NullTracer,
    Span,
    TRACE_SCHEMA_VERSION,
    TraceData,
    TraceSchemaError,
    Tracer,
    iter_spans,
    meta_record,
    read_trace,
    structure_dump,
    trace_records,
    validate_record,
    write_trace,
)

__all__ = [
    "TRACE_SCHEMA_VERSION",
    "Tracer", "NullTracer", "NULL_TRACER", "Span", "TraceData",
    "TraceSchemaError", "read_trace", "write_trace", "validate_record",
    "structure_dump", "iter_spans", "trace_records", "meta_record",
    "MetricsRegistry", "HistogramStat", "MetricKindError",
    "ExplanationTrace", "ExplainStep", "explain_restriction",
    "load_trace", "render_profile", "phase_breakdown", "span_aggregates",
    "restriction_costs", "worker_utilisation", "serve_progress_events",
    "render_prometheus", "parse_prometheus", "metric_name",
    "PrometheusScrape", "PrometheusParseError", "TelemetryHub",
    "RunHistory", "RunRow", "Regression", "HistorySchemaError",
    "parse_tolerance", "record_report", "stats_snapshot",
    "render_top", "run_top",
]
