"""The compliance analyse phase: one pass, one verdict per observation.

Every observation's report comes from one of three places, asked in
this order:

1. **The resumed journal.**  An observation whose (domain, chain) the
   journal held when it was opened takes the report of that verdict,
   which the journal's read decoded
   (:meth:`~repro.obs.journal.RunJournal.verdict_for`), instead of
   being re-analysed; this pass decodes nothing.
2. **The verdict store.**  With a
   :class:`~repro.measurement.store.VerdictStore`, reports are keyed on
   ``(chain_key, root_store_digest)``: the same byte-identical chain
   evaluated against the same trust anchors always yields the same R2
   order and R3 completeness verdicts, and only R1 leaf placement
   depends on the queried domain, so
   :func:`~repro.core.compliance.rebind_for_domain` recomputes exactly
   that when another domain served the stored report.  Every fresh
   report is written to the store, so a chain repeated later in the
   same run is a store hit too, and the pass keeps (and journals) the
   report the store indexed, whose sections it shares with every equal
   report it holds.
3. **Analysis**, :func:`~repro.core.compliance.analyze_chain`.

Verdicts append to the journal in observation order with the same
(domain, chain_key, report) payloads that analysing every observation
would write; the journal appends each (domain, chain) once.  A report
the store wrote reaches the journal as the text the store framed, so
the pass encodes each verdict once; one the store served reaches it as
text the store assembles from the sections' kept texts
(:meth:`~repro.measurement.store.VerdictStore.report_json`), so each
distinct section is encoded once per run, not once per report.

Everything runs in the calling process (docs/PERFORMANCE.md,
"Execution model").
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import obs
from repro.core.compliance import (
    ChainComplianceReport,
    analyze_chain,
    rebind_for_domain,
    record_outcome,
)
from repro.measurement.store import VerdictStore
from repro.obs.journal import RunJournal
from repro.trust.aia import AIAFetcher
from repro.trust.rootstore import RootStore
from repro.x509 import Certificate

__all__ = [
    "PipelineStats",
    "analyze_observations",
    "chain_key_hex",
]

_log = obs.get_logger("measurement.parallel")


def chain_key_hex(chain: list[Certificate]) -> tuple[str, ...]:
    """A served chain's identity (order-sensitive), in the form the
    journal and the verdict store key on: fingerprint hexes."""
    return tuple(cert.fingerprint_hex for cert in chain)


@dataclass(frozen=True)
class PipelineStats:
    """What one :func:`analyze_observations` run did, for logs/benches."""

    observations: int
    unique_chains: int
    analyzed: int
    resumed: int
    #: observations served by the verdict store
    cache_hits: int

    @property
    def hit_rate(self) -> float:
        """Share of observations resolved without a fresh analysis."""
        if not self.observations:
            return 0.0
        return (self.cache_hits + self.resumed) / self.observations


# ----------------------------------------------------------------------
# The pipeline
# ----------------------------------------------------------------------

def analyze_observations(
    observations: list[tuple[str, list[Certificate]]],
    *,
    store: RootStore,
    fetcher: AIAFetcher | None = None,
    verdict_store: VerdictStore | None = None,
    journal: RunJournal | None = None,
    snapshot_writer=None,
    status=None,
) -> tuple[list[ChainComplianceReport], PipelineStats]:
    """Analyse a corpus in one pass.

    Results match :func:`~repro.core.compliance.analyze_chain` run on
    every observation: the returned report list is index-aligned with
    ``observations``; journaled runs append one verdict event per new
    (domain, chain_key) pair in observation order, resume observations
    the journal already held, and count them in
    ``campaign.chains_resumed``; observations ``verdict_store`` served
    count in ``campaign.cache_hits``; ``campaign.chains_analyzed``
    ticks once per observation; compliance counters record once per
    observation that was not resumed.

    ``status`` (a :class:`~repro.obs.server.RunStatus`) is advanced
    once per observation and ``snapshot_writer`` ticked once per
    observation; neither changes a report, journal line or metric.
    """
    digest = store.digest()
    metrics = obs.get_metrics()
    throughput = metrics.counter("campaign.chains_analyzed")
    reports: list[ChainComplianceReport] = []
    unique: set[tuple[str, ...]] = set()
    analyzed = resumed = cache_hits = 0

    for domain, chain in observations:
        hexkey = chain_key_hex(chain)
        unique.add(hexkey)
        recorded = (None if journal is None
                    else journal.verdict_for(domain, hexkey))
        stored = text = None
        if recorded is None and verdict_store is not None:
            stored = verdict_store.get_report(hexkey, digest)
        if recorded is not None:
            report = recorded
            resumed += 1
        elif stored is not None:
            report = rebind_for_domain(stored, domain, chain)
            cache_hits += 1
            record_outcome(report)
        else:
            report = analyze_chain(domain, chain, store, fetcher)
            analyzed += 1
        if verdict_store is not None and stored is None:
            written = verdict_store.put_report(hexkey, digest, report)
            if written is not None:
                report, text = written
        if journal is not None and recorded is None:
            if text is None:
                text = (report.to_json() if verdict_store is None
                        else verdict_store.report_json(report))
            journal.record_verdict(domain, hexkey, text)
        reports.append(report)
        throughput.inc()
        if status is not None:
            status.advance()
        if snapshot_writer is not None:
            snapshot_writer.tick()

    stats = PipelineStats(
        observations=len(reports), unique_chains=len(unique),
        analyzed=analyzed, resumed=resumed, cache_hits=cache_hits,
    )
    if stats.resumed:
        metrics.counter("campaign.chains_resumed").inc(stats.resumed)
    if stats.cache_hits:
        metrics.counter("campaign.cache_hits").inc(stats.cache_hits)
    if journal is not None:
        journal.flush()
    _log.info(
        "pipeline.analyzed", observations=stats.observations,
        unique_chains=stats.unique_chains, analyzed=stats.analyzed,
        resumed=stats.resumed, cache_hits=stats.cache_hits,
    )
    return reports, stats
