"""The metric-name catalogue the pipeline emits.

One place that names every metric the instrumented hot paths touch, so
(1) docs/OBSERVABILITY.md has a single source of truth, and (2)
:func:`preregister` can seed a fresh registry with the whole set —
exports then always contain every family, zero-valued when a phase
(e.g. differential testing's chain building) did not run.  That is the
conventional dashboard-friendly behaviour: absent data reads as 0, not
as a missing series.
"""

from __future__ import annotations

__all__ = [
    "BUCKET_BOUNDS",
    "COUNTERS",
    "GAUGES",
    "HISTOGRAMS",
    "preregister",
]

#: Counter families (label names in comments).
COUNTERS: tuple[str, ...] = (
    "scan.attempts",              # vantage — one per handshake *attempt*
                                  # (retries included), so per vantage
                                  # scan.attempts == scan.error + scan.success
    "scan.success",               # vantage
    "scan.failure",               # vantage, kind (ScanErrorKind, incl.
                                  # reset | skipped) — failed *scans*
    "scan.error",                 # vantage, kind — every failed attempt,
                                  # retried ones included
    "scan.retry.attempts",        # vantage — retries actually taken
    "scan.retry.backoff_seconds",  # vantage — simulated time spent backing off
    "scan.retry.budget_exhausted",  # vantage — retries abandoned on budget
    "scan.ratelimit_wait_seconds",  # vantage
    "breaker.tripped",            # vantage — open events
    "breaker.skipped",            # vantage — scans skipped while open
    "breaker.probes",             # vantage — half-open probe scans
    "breaker.closed",             # vantage — recoveries
    "faults.injected",            # kind (FaultPlan fault classes)
    "ratelimit.throttled",
    "campaign.chains_analyzed",
    "campaign.chains_resumed",    # reconstructed from a run journal
    "campaign.vantage_degraded",  # vantage
    "aia.fetch.attempts",
    "aia.fetch.success",
    "aia.fetch.failure",          # reason (unreachable | not_found)
    "aia.fetch.retries",          # transient-failure retries taken
    "cache.hits",
    "cache.misses",
    "chainbuilder.builds",        # client, outcome (anchored | failed)
    "chainbuilder.paths_explored",
    "chainbuilder.backtracks",
    "compliance.chains",
    "compliance.leaf_placement",  # placement (Table 3 classes)
    "compliance.order",           # status
    "compliance.order_defect",    # defect (Table 5 classes)
    "compliance.completeness",    # category (Table 7 classes)
    "compliance.verdict",         # verdict
    "journal.events",             # type (manifest | scan | verdict | ...)
    "snapshot.write_errors",      # SnapshotWriter disabled by an OSError
    "store.hits",                 # kind (report | outcome)
    "store.misses",               # kind (report | outcome)
    "store.writes",               # kind (report | outcome)
    "store.recovered",            # torn-tail records dropped on reopen
)

#: Gauge families.
GAUGES: tuple[str, ...] = (
    "ratelimit.throttle_seconds",
    "cache.size",
)

#: Histogram families.
HISTOGRAMS: tuple[str, ...] = (
    "scan.wire_bytes",
    "chainbuilder.candidate_pool_size",
    "phase.wall_seconds",         # phase — one observation per scope
    "phase.cpu_seconds",          # phase
    "phase.rss_peak_bytes",       # phase (absent when /proc is missing)
)

#: Sub-second to half-hour ladder for phase durations: the default
#: buckets start at 1 (second) and would flatten every fast phase into
#: the first bin.
_PHASE_SECONDS_BUCKETS: tuple[float, ...] = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1, 5, 10, 30, 60, 300, 1_800,
)

#: 1 MiB .. 64 GiB, doubling — process RSS at campaign scale.
_RSS_BUCKETS: tuple[float, ...] = tuple(
    float(2 ** exp) for exp in range(20, 37)
)

#: Histogram families with dedicated bucket ladders; everything else
#: uses :data:`repro.obs.metrics.DEFAULT_BUCKETS`.  One table so
#: ``preregister`` and the phase-accounting scopes bin identically.
BUCKET_BOUNDS: dict[str, tuple[float, ...]] = {
    "phase.wall_seconds": _PHASE_SECONDS_BUCKETS,
    "phase.cpu_seconds": _PHASE_SECONDS_BUCKETS,
    "phase.rss_peak_bytes": _RSS_BUCKETS,
}


def preregister(registry) -> None:
    """Create every catalogued family (unlabeled series) on ``registry``.

    Labeled series still appear lazily on first use; this guarantees
    the *family* shows up in ``snapshot()`` either way.
    """
    for name in COUNTERS:
        registry.counter(name)
    for name in GAUGES:
        registry.gauge(name)
    for name in HISTOGRAMS:
        registry.histogram(name, buckets=BUCKET_BOUNDS.get(name))
