"""``repro.obs`` — the observability layer.

The pipeline reproduced here runs millions of per-chain operations;
this package makes it inspectable without making it slower:

* :mod:`repro.obs.metrics` — labeled counters / gauges / histograms in
  a thread-safe registry with JSON export;
* :mod:`repro.obs.trace` — nested timing spans with a Chrome
  trace-event exporter, and :func:`phase_scope`, which names one
  pipeline phase for both the metrics and the trace;
* :mod:`repro.obs.log` — structured (key=value / JSON) logging setup.

Instrumentation is **off by default**: :func:`get_metrics` and
:func:`get_tracer` return shared null implementations whose methods do
nothing, so the hooks threaded through the hot paths cost a couple of
no-op calls (the microbench in ``tests/obs`` holds this under 5% of
``analyze_chain``).  Turning it on is one call::

    from repro import obs

    registry, tracer = obs.enable()
    ... run a campaign ...
    print(registry.to_json())
    print(tracer.tree())
    obs.disable()

or, scoped::

    with obs.instrumented() as (registry, tracer):
        ...
"""

from __future__ import annotations

import importlib
from contextlib import contextmanager

from repro.obs import catalogue
from repro.obs.evidence import Evidence, evidence_from_dict, render_evidence
from repro.obs.export import ProgressLine, SnapshotWriter, to_openmetrics
from repro.obs.journal import RunJournal, read_journal
from repro.obs.log import StructLogger, configure, get_logger
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NULL_REGISTRY,
    NullMetricsRegistry,
    load_snapshot,
)
from repro.obs.render import render_metrics_table
from repro.obs.trace import (
    NULL_TRACER,
    NullTracer,
    Span,
    Tracer,
    phase_scope,
    read_rss_bytes,
)

__all__ = [
    "Counter",
    "Evidence",
    "catalogue",
    "Gauge",
    "HealthMonitor",
    "HealthReport",
    "HealthRule",
    "Histogram",
    "MetricsRegistry",
    "NullMetricsRegistry",
    "NullTracer",
    "ProgressLine",
    "RunDiff",
    "RunJournal",
    "RunReport",
    "RunStatus",
    "SnapshotWriter",
    "Span",
    "StructLogger",
    "TelemetryServer",
    "Tracer",
    "build_report",
    "configure",
    "diff_reports",
    "disable",
    "enable",
    "enabled",
    "evidence_from_dict",
    "flatten_metrics",
    "get_logger",
    "get_metrics",
    "get_tracer",
    "instrumented",
    "load_snapshot",
    "parse_health_rule",
    "parse_serve_address",
    "phase_scope",
    "read_journal",
    "read_rss_bytes",
    "render_diff_text",
    "render_evidence",
    "render_metrics_table",
    "render_report_html",
    "render_report_markdown",
    "render_report_text",
    "report_from_journal",
    "to_openmetrics",
]

#: Names whose module loads on first use: the telemetry server imports
#: ``http.server``, and the run report, the run diff and the health
#: rules (which read both) serve ``report``, ``diff-runs``,
#: ``--report-out`` and ``--health`` only, so a plain scan imports none
#: of them.
_LAZY_NAMES = {
    **dict.fromkeys(("RunStatus", "TelemetryServer", "parse_serve_address"),
                    "server"),
    **dict.fromkeys(("RunDiff", "diff_reports", "render_diff_text"), "diff"),
    **dict.fromkeys(("HealthMonitor", "HealthReport", "HealthRule",
                     "parse_health_rule"), "health"),
    **dict.fromkeys(("RunReport", "build_report", "flatten_metrics",
                     "render_report_html", "render_report_markdown",
                     "render_report_text", "report_from_journal"), "report"),
}


def __getattr__(name: str):
    module = _LAZY_NAMES.get(name)
    if module is not None:
        return getattr(importlib.import_module(f"{__name__}.{module}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


_metrics: MetricsRegistry | NullMetricsRegistry = NULL_REGISTRY
_tracer: Tracer | NullTracer = NULL_TRACER


def get_metrics():
    """The active metrics registry (a shared no-op when disabled)."""
    return _metrics


def get_tracer():
    """The active tracer (a shared no-op when disabled)."""
    return _tracer


def enabled() -> bool:
    return _metrics is not NULL_REGISTRY or _tracer is not NULL_TRACER


def enable(metrics: MetricsRegistry | None = None,
           tracer: Tracer | None = None):
    """Install live instrumentation; returns ``(registry, tracer)``.

    Passing existing instances lets callers accumulate across several
    phases or pre-register custom histogram buckets.
    """
    global _metrics, _tracer
    _metrics = metrics if metrics is not None else MetricsRegistry()
    _tracer = tracer if tracer is not None else Tracer()
    return _metrics, _tracer


def disable() -> None:
    """Restore the zero-overhead null instrumentation."""
    global _metrics, _tracer
    _metrics = NULL_REGISTRY
    _tracer = NULL_TRACER


@contextmanager
def instrumented(metrics: MetricsRegistry | None = None,
                 tracer: Tracer | None = None):
    """Enable instrumentation for a ``with`` block, then restore."""
    global _metrics, _tracer
    previous = (_metrics, _tracer)
    pair = enable(metrics, tracer)
    try:
        yield pair
    finally:
        _metrics, _tracer = previous
