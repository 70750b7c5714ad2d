"""Deduplicating execution of the compliance analyse phase.

The paper's corpus has far fewer *unique* chains than observations —
two domains can serve the byte-identical chain, and the raw
two-vantage scan stream repeats almost every chain — so the analyse
phase keys work on the chain, not the observation:

1. **Chain dedup.**  Observations are keyed by the tuple of certificate
   fingerprints; one :class:`~repro.core.compliance.ChainComplianceReport`
   is computed per unique chain and fanned back out to every
   observation.  The cache key includes the root-store digest because
   R3 completeness depends on the trust anchors; only R1 leaf placement
   depends on the queried domain, and
   :func:`~repro.core.compliance.rebind_for_domain` recomputes exactly
   that on a cross-domain hit.
2. **Journal parity.**  Verdicts append in observation order with the
   same (domain, chain_key, report) payloads that analysing every
   observation with :func:`~repro.core.compliance.analyze_chain` would
   write; observations whose verdict the journal already holds (a
   resumed run) are reconstructed from it instead of re-analysed.

Everything runs in the calling process (docs/PERFORMANCE.md,
"Execution model").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro import obs
from repro.core.compliance import (
    ChainComplianceReport,
    analyze_chain,
    rebind_for_domain,
    record_outcome,
)
from repro.errors import JournalError, PayloadError
from repro.obs.journal import RunJournal
from repro.trust.aia import AIAFetcher
from repro.trust.rootstore import RootStore
from repro.x509 import Certificate

__all__ = [
    "PipelineStats",
    "VerdictCache",
    "analyze_observations",
    "chain_key",
    "chain_key_hex",
]

_log = obs.get_logger("measurement.parallel")

#: A chain's identity: the ordered tuple of certificate fingerprints.
ChainKey = tuple[bytes, ...]


def chain_key(chain: list[Certificate]) -> ChainKey:
    """The dedup identity of a served chain (order-sensitive)."""
    return tuple(cert.fingerprint for cert in chain)


def chain_key_hex(chain: list[Certificate]) -> tuple[str, ...]:
    """The journal form of a chain identity: fingerprint hexes."""
    return tuple(cert.fingerprint_hex for cert in chain)


def journaled_report(journal, domain: str,
                     payload) -> ChainComplianceReport:
    """A verdict payload read back from the ``journal`` file, decoded;
    one that does not decode is a :class:`JournalError` naming it."""
    try:
        return ChainComplianceReport.from_dict(payload)
    except PayloadError as exc:
        raise JournalError(
            f"{journal}: verdict for {domain!r}: {exc}") from None


# ----------------------------------------------------------------------
# Verdict cache
# ----------------------------------------------------------------------

@dataclass
class VerdictCache:
    """Per-chain compliance reports, reused across observations.

    Reports are keyed on ``(chain_key, root_store_digest)``: the same
    byte-identical chain evaluated against the same trust anchors
    always yields the same R2 order and R3 completeness verdicts, and a
    cross-domain hit only needs the R1 leaf classification recomputed
    (``rebind_for_domain``).

    ``backing`` (a :class:`~repro.measurement.store.VerdictStore`)
    extends lookups across process lifetimes: a miss probes the store
    (promoting a hit into memory, so decoding happens once per unique
    chain per run) and every fresh report is written through.
    Cross-domain R1 rebinding stays in memory — the store holds one
    report per (chain, trust anchors) and ``rebind_for_domain``
    recomputes leaf placement for whichever domain served it.
    """

    hits: int = 0
    misses: int = 0
    _reports: dict[tuple[ChainKey, str], ChainComplianceReport] = field(
        default_factory=dict, repr=False
    )
    #: optional persistent VerdictStore
    backing: Any | None = None

    @staticmethod
    def _hex(key: ChainKey) -> tuple[str, ...]:
        return tuple(fingerprint.hex() for fingerprint in key)

    def report_for(self, key: ChainKey,
                   store_digest: str) -> ChainComplianceReport | None:
        report = self._reports.get((key, store_digest))
        if report is None and self.backing is not None:
            report = self.backing.get_report(self._hex(key), store_digest)
            if report is not None:
                self._reports[(key, store_digest)] = report
        if report is None:
            self.misses += 1
        else:
            self.hits += 1
        return report

    def store_report(self, key: ChainKey, store_digest: str,
                     report: ChainComplianceReport) -> None:
        """Cache (and write through) one fresh report."""
        self._reports[(key, store_digest)] = report
        if self.backing is not None:
            self.backing.put_report(self._hex(key), store_digest, report)

    @property
    def hit_rate(self) -> float:
        """Hit share of all lookups (0.0 when unused)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


@dataclass(frozen=True)
class PipelineStats:
    """What one :func:`analyze_observations` run did, for logs/benches."""

    observations: int
    unique_chains: int
    analyzed: int
    resumed: int
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
    cache: VerdictCache | None = None,
    journal: RunJournal | None = None,
    snapshot_writer=None,
    status=None,
) -> tuple[list[ChainComplianceReport], PipelineStats]:
    """Analyse a corpus with chain dedup, in one pass.

    Results match :func:`~repro.core.compliance.analyze_chain` run on
    every observation: the returned report list is index-aligned with
    ``observations``; journaled runs append one verdict event per new
    (domain, chain_key) pair in observation order, resume observations
    the journal already covers, and count them in
    ``campaign.chains_resumed``; ``campaign.chains_analyzed`` ticks once
    per observation; compliance counters record once per observation
    that was not resumed.

    ``status`` (a :class:`~repro.obs.server.RunStatus`) is advanced
    once per observation and ``snapshot_writer`` ticked once per
    observation; neither changes a report, journal line or metric.
    """
    cache = cache if cache is not None else VerdictCache()
    digest = store.digest()
    journaled = journal is not None
    metrics = obs.get_metrics()
    throughput = metrics.counter("campaign.chains_analyzed")
    reports: list[ChainComplianceReport] = []
    run_reports: dict[tuple[str, ChainKey], ChainComplianceReport] = {}
    unique: set[ChainKey] = set()
    analyzed = resumed = cache_hits = 0

    for domain, chain in observations:
        key = chain_key(chain)
        unique.add(key)
        report = None
        hexkey = None
        if journaled:
            report = run_reports.get((domain, key))
            if report is not None:
                # the verdict this run just recorded for the same
                # (domain, chain): reuse the object instead of reading
                # it back out of the journal index
                resumed += 1
            else:
                hexkey = chain_key_hex(chain)
                recorded = journal.verdict_for(domain, hexkey)
                if recorded is not None:
                    report = journaled_report(journal.path, domain,
                                              recorded)
                    resumed += 1
                    run_reports[(domain, key)] = report
                    cache.store_report(key, digest, report)
        if report is None:
            cached = cache.report_for(key, digest)
            if cached is not None:
                report = rebind_for_domain(cached, domain, chain)
                cache_hits += 1
                record_outcome(report)
            else:
                report = analyze_chain(domain, chain, store, fetcher)
                analyzed += 1
                cache.store_report(key, digest, report)
            if journaled:
                journal.record_verdict(domain, hexkey, report)
                run_reports[(domain, key)] = report
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
    if journaled:
        journal.flush()
    _log.info(
        "pipeline.analyzed", observations=stats.observations,
        unique_chains=stats.unique_chains, analyzed=stats.analyzed,
        resumed=stats.resumed, cache_hits=stats.cache_hits,
    )
    return reports, stats
