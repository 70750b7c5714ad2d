"""Measurement campaigns: scan, merge, analyse (Section 3.1 end to end).

A :class:`Campaign` drives the full collection pipeline the paper ran:
ZGrab2-style scans of every domain from two vantage points under the
500 KB/s cap, the TLS 1.2 / TLS 1.3 comparison, the union merge of both
vantages, and finally the per-chain compliance analysis feeding the
dataset report.

The collection sweep is written once, in :class:`_Sweep`.
:meth:`Campaign.collect` feeds it the whole population as one slice
and keeps the records; :func:`~repro.measurement.shards.run_sharded`
feeds it one contiguous slice per shard and releases each shard's
records before analysis.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import zip_longest

from repro import obs
from repro.core.compliance import ChainComplianceReport
from repro.core.report import DatasetReport, aggregate
from repro.measurement.parallel import analyze_observations
from repro.net.scanner import (
    CircuitBreaker,
    RetryPolicy,
    ScanRecord,
    Scanner,
)
from repro.net.simnet import SimulatedNetwork
from repro.net.tls import TLS12
from repro.obs.journal import RunJournal
from repro.obs.trace import phase_scope
from repro.webpki.ecosystem import Ecosystem, VANTAGE_AU, VANTAGE_US
from repro.x509 import Certificate

_log = obs.get_logger("measurement.campaign")

#: the paper's two vantage points, swept in this order
VANTAGES = (VANTAGE_US, VANTAGE_AU)


def _merge_union(
    per_vantage: dict[str, list[ScanRecord]],
) -> tuple[set[tuple[bytes, ...]],
           list[tuple[str, list[Certificate]]], set[bytes]]:
    """The paper's union rule over the per-vantage record streams.

    Returns ``(chain_keys, observations, all_cert_fingerprints)``.
    Deduplication is per ``(domain, chain_key)`` — two domains serving
    the identical chain are two observations — but ``chain_keys``
    holds each distinct chain fingerprint once, so
    ``len(chain_keys)`` is the number of unique *chains*, not a
    restatement of the observation count.

    Records carry their chain identity precomputed
    (:attr:`ScanRecord.chain_key`), so merging a second vantage that
    served the identical chains costs set lookups, not a re-hash of
    every certificate.

    Iteration is domain-major (every vantage's record for one domain
    before any vantage's record for the next), which makes the merge
    prefix-decomposable: the union of a contiguous shard of the
    domain population is the matching slice of the full union — the
    property sharded campaigns rely on for byte-identical reports.
    """
    seen: set[tuple[str, tuple[bytes, ...]]] = set()
    chain_keys: set[tuple[bytes, ...]] = set()
    observations: list[tuple[str, list[Certificate]]] = []
    all_certs: set[bytes] = set()
    for group in zip_longest(*per_vantage.values()):
        for record in group:
            if record is None or not record.success or not record.chain:
                continue
            key = (record.domain, record.chain_key)
            if key in seen:
                continue
            seen.add(key)
            chain_keys.add(record.chain_key)
            observations.append((record.domain, list(record.chain)))
            all_certs.update(record.chain_key)
    return chain_keys, observations, all_certs


class _Sweep:
    """The collection sweep of Section 3.1, fed contiguous domain slices.

    One :class:`~repro.net.scanner.Scanner` per vantage — and with it
    the rate-limit bucket and the optional circuit breaker — lives for
    the whole run, so a sweep fed in slices is the same continuous
    per-vantage scan as one fed the population at once: journaled
    durations and breaker behaviour carry across slice boundaries.

    With a ``journal``, every scan outcome is appended as a ``scan``
    event, each degraded vantage as one ``degradation`` event and the
    merged totals as one ``collection`` event.  Whatever a resumed
    journal already holds — a (domain, vantage) scan, a vantage's
    degradation, the collection summary — is not appended again.
    """

    def __init__(self, network: SimulatedNetwork, *,
                 journal: RunJournal | None = None,
                 retry_policy: RetryPolicy | None = None,
                 breaker_threshold: int | None = None) -> None:
        self.journal = journal
        self.breakers: dict[str, CircuitBreaker | None] = {}
        self.scanners: dict[str, Scanner] = {}
        for vantage in VANTAGES:
            breaker = (
                CircuitBreaker(network.clock, vantage,
                               threshold=breaker_threshold)
                if breaker_threshold else None
            )
            self.breakers[vantage] = breaker
            self.scanners[vantage] = Scanner(
                network, vantage, retry_policy=retry_policy, breaker=breaker,
            )
        #: finished scans (successes + failures) and successes per vantage
        self.attempted: Counter[str] = Counter()
        self.successes: Counter[str] = Counter()
        #: the union so far: distinct chains, certificates, observations
        self.chain_keys: set[tuple[bytes, ...]] = set()
        self.certificates: set[bytes] = set()
        self.observations = 0
        #: degraded vantage -> reason, decided by :meth:`finish`
        self.degraded: dict[str, str] = {}

    def collect(self, domains: list[str], *, shard: int | None = None,
                progress_factory=None, status=None
                ) -> tuple[dict[str, list[ScanRecord]],
                           list[tuple[str, list[Certificate]]]]:
        """Scan one slice from every vantage and merge it (union rule).

        Returns the slice's per-vantage records and union observations.
        ``shard`` scopes the phase (``collect.shard.K`` instead of
        ``collect``) and labels the spans.  ``progress_factory(vantage,
        total)`` gives each vantage's scan of the slice an object with
        ``update(ok=...)`` / ``finish()``; ``status`` (a
        :class:`~repro.obs.server.RunStatus`) begins the phase and
        advances once per scan.

        The vantages share one decoded-block memo (see
        :func:`~repro.net.tls.perform_handshake`), so each distinct
        certificate served in the slice — to any vantage, in any chain
        — is decoded once, and the chains that carry it share the object.
        """
        tracer = obs.get_tracer()
        journal = self.journal
        phase = "collect" if shard is None else f"collect.shard.{shard}"
        labels = {} if shard is None else {"shard": shard}
        per_vantage: dict[str, list[ScanRecord]] = {}
        with phase_scope(phase, domains=len(domains),
                         vantages=len(VANTAGES), **labels):
            if status is not None:
                status.begin_phase(phase, len(domains) * len(VANTAGES))
            memo: dict = {}
            for vantage in VANTAGES:
                progress = (progress_factory(vantage, len(domains))
                            if progress_factory is not None else None)

                def observe(record: ScanRecord, progress=progress) -> None:
                    if journal is not None:
                        journal.record(
                            "scan",
                            domain=record.domain,
                            vantage=record.vantage,
                            success=record.success,
                            tls_version=record.tls_version,
                            error=(str(record.error)
                                   if record.error else None),
                            wire_bytes=record.wire_bytes,
                            attempts=record.attempts,
                            duration=record.duration,
                        )
                    if progress is not None:
                        progress.update(ok=record.success)
                    if status is not None:
                        status.advance(ok=record.success)

                with tracer.span("campaign.scan", vantage=vantage, **labels):
                    records = self.scanners[vantage].scan(
                        domains, versions=(TLS12,), progress=observe,
                        memo=memo,
                    )
                if progress is not None:
                    progress.finish()
                per_vantage[vantage] = records
                self.attempted[vantage] += len(records)
                self.successes[vantage] += sum(1 for r in records if r.success)
            with tracer.span("campaign.union_merge", **labels):
                chain_keys, observations, certificates = _merge_union(
                    per_vantage
                )
        self.chain_keys |= chain_keys
        self.certificates |= certificates
        self.observations += len(observations)
        return per_vantage, observations

    def finish(self, domains: int) -> dict[str, str]:
        """Decide degradation and journal the collection summary.

        Sets and returns :attr:`degraded`, each vantage mapped to its
        reason: its breaker is still open when the sweep ends
        (``breaker_open``), or it attempted scans and none succeeded
        (``no_successful_scans``, with or without a breaker).  The union
        of the remaining vantages is then a partial dataset, and the
        ``degraded`` flags on the result and the journal's
        ``collection`` event say so explicitly.  A degradation a
        resumed journal already holds stands: the scans it was decided
        on may not be re-run.
        """
        degraded = self.degraded
        resumed = (self.journal.degraded_vantages()
                   if self.journal is not None else {})
        for vantage in VANTAGES:
            breaker = self.breakers[vantage]
            if vantage in resumed:
                reason = resumed[vantage]
            elif breaker is not None and breaker.tripped:
                reason = "breaker_open"
            elif self.attempted[vantage] and not self.successes[vantage]:
                reason = "no_successful_scans"
            else:
                continue
            degraded[vantage] = reason
            _log.warning("campaign.vantage_degraded",
                         vantage=vantage, reason=reason)
            obs.get_metrics().counter(
                "campaign.vantage_degraded", vantage=vantage
            ).inc()
            if self.journal is not None:
                self.journal.record_degradation(vantage, reason)
        _log.info("campaign.collected", domains=domains,
                  observations=self.observations,
                  unique_chains=len(self.chain_keys),
                  degraded=bool(degraded))
        if self.journal is not None:
            self.journal.record(
                "collection",
                domains=domains,
                observations=self.observations,
                unique_chains=len(self.chain_keys),
                unique_certificates=len(self.certificates),
                degraded=bool(degraded),
                degraded_vantages=degraded,
            )
        return degraded


@dataclass
class CollectionResult:
    """What the scanning phase produced, before analysis."""

    per_vantage: dict[str, list[ScanRecord]]
    #: the union dataset: (domain, chain) pairs, one per distinct chain
    observations: list[tuple[str, list[Certificate]]]
    #: domains reachable from each vantage
    reachable_counts: dict[str, int]
    #: unique chains / unique certificates across the union
    unique_chains: int
    unique_certificates: int
    #: vantages that could not deliver a full scan sweep, mapped to a
    #: reason (``"breaker_open"`` / ``"no_successful_scans"``); the
    #: union above is then a *partial* dataset and downstream reports
    #: must say so instead of presenting a silently smaller union
    degraded_vantages: dict[str, str] = field(default_factory=dict)

    @property
    def degraded(self) -> bool:
        """True when any vantage failed to contribute fully."""
        return bool(self.degraded_vantages)

    @property
    def total_observations(self) -> int:
        return len(self.observations)


@dataclass
class Campaign:
    """A full measurement campaign against one ecosystem.

    Parameters
    ----------
    ecosystem:
        The generated world to measure.
    network:
        A network the ecosystem was installed onto; created on demand.
    """

    ecosystem: Ecosystem
    network: SimulatedNetwork | None = None

    def _ensure_network(self) -> SimulatedNetwork:
        if self.network is None:
            self.network = self.ecosystem.install()
        return self.network

    # ------------------------------------------------------------------
    # Provenance
    # ------------------------------------------------------------------

    def manifest(self) -> dict:
        """The journal manifest describing this campaign's identity.

        A resumed run must regenerate the identical ecosystem, so the
        manifest pins the generation config, the seed, and a digest of
        the union trust store actually consulted; ``RunJournal.open``
        refuses to resume across any difference.
        """
        config = self.ecosystem.config
        return {
            "run": "campaign",
            "config": {
                "n_domains": config.n_domains,
                "now": config.now.isoformat(),
            },
            "seed": config.seed,
            "root_store_digest": self.ecosystem.registry.union().digest(),
        }

    # ------------------------------------------------------------------
    # Collection
    # ------------------------------------------------------------------

    def collect(self, *, journal: RunJournal | None = None,
                progress_factory=None,
                retry_policy: RetryPolicy | None = None,
                breaker_threshold: int | None = None) -> CollectionResult:
        """Scan every domain from each vantage and merge (union rule).

        The whole population is one slice of the collection sweep
        (:class:`_Sweep`), and every record is kept.

        Parameters
        ----------
        journal:
            When given, every scan outcome is appended as a ``scan``
            event, each vantage degradation as one ``degradation``
            event and the merged totals as one ``collection`` event.
            On a resumed run, events the journal already holds are not
            re-appended, so per-domain scan history stays one record
            per observation.
        progress_factory:
            ``factory(vantage, total)`` returning an object with
            ``update(ok=...)`` / ``finish()`` (e.g.
            :class:`repro.obs.ProgressLine`) to render live progress.
        retry_policy:
            Backoff policy for transient scan failures; None (default)
            scans each domain exactly once.
        breaker_threshold:
            When set, each vantage gets a
            :class:`~repro.net.scanner.CircuitBreaker` tripping after
            this many consecutive unreachable scans; a vantage whose
            breaker is still open when its sweep ends is marked
            *degraded* rather than merged as if complete.

        A vantage that finishes its sweep with zero successful scans
        (over a non-empty domain list) is always marked degraded, with
        or without a breaker.
        """
        domains = [d.domain for d in self.ecosystem.deployments]
        sweep = _Sweep(self._ensure_network(), journal=journal,
                       retry_policy=retry_policy,
                       breaker_threshold=breaker_threshold)
        per_vantage, observations = sweep.collect(
            domains, progress_factory=progress_factory
        )
        degraded = sweep.finish(len(domains))
        return CollectionResult(
            per_vantage=per_vantage,
            observations=observations,
            reachable_counts={v: sweep.successes[v] for v in VANTAGES},
            unique_chains=len(sweep.chain_keys),
            unique_certificates=len(sweep.certificates),
            degraded_vantages=degraded,
        )

    def run_sharded(self, shard_size: int, **kwargs):
        """Stream collect → analyse in contiguous domain shards.

        Peak memory is bounded by ``shard_size`` instead of the
        population: each shard's records and chains are released once
        its verdicts are journaled and its aggregate merged.  The
        final report is byte-identical to ``collect()`` + ``analyze()``
        for any shard size; see :func:`repro.measurement.shards.run_sharded`
        for the full parameter list and equivalence guarantees.
        """
        from repro.measurement.shards import run_sharded

        return run_sharded(self, shard_size, **kwargs)

    def compare_tls_versions(self, *, vantage: str = VANTAGE_US,
                             sample: int | None = None) -> float:
        """Share of domains serving identical chains on TLS 1.2 and 1.3.

        The paper measured 98.8%; the ecosystem's version-difference
        rate is calibrated to land there.
        """
        scanner = Scanner(self._ensure_network(), vantage)
        domains = [d.domain for d in self.ecosystem.deployments][:sample]
        both = [
            (tls12, tls13)
            for tls12, tls13 in scanner.scan_both_versions(domains).values()
            if tls12.success and tls13.success
        ]
        identical = sum(1 for tls12, tls13 in both
                        if tls12.chain_key == tls13.chain_key)
        return 100.0 * identical / len(both) if both else 0.0

    # ------------------------------------------------------------------
    # Analysis
    # ------------------------------------------------------------------

    def analyze(
        self,
        observations: list[tuple[str, list[Certificate]]] | None = None,
        *,
        journal: RunJournal | None = None,
        snapshot_writer=None,
        verdict_store=None,
        status=None,
    ) -> tuple[DatasetReport, list[ChainComplianceReport]]:
        """Run the Section 3.1 compliance analysis over a collection.

        Observations default to the ecosystem's ground truth (skipping
        the network); the trust anchors are its four-program union store
        and its AIA repository.  Analysis runs through the one-pass
        pipeline, :func:`~repro.measurement.parallel.analyze_observations`.

        With a ``journal``, every verdict is appended as it is reached,
        and observations whose verdict the journal already holds (a
        resumed run) are reconstructed from it instead of re-analysed —
        the reconstruction is lossless, so the final tables match an
        uninterrupted run byte for byte.  ``snapshot_writer`` (a
        :class:`repro.obs.SnapshotWriter`) is ticked once per chain.

        ``verdict_store`` (a
        :class:`~repro.measurement.store.VerdictStore`, or None) serves
        the reports it holds and persists every fresh one, across calls
        and runs, so a warm re-run produces byte-identical output at a
        fraction of the analyse cost.  Without one, every observation
        that is not resumed is analysed.

        ``status`` (a :class:`~repro.obs.server.RunStatus`) advances
        once per observation; it is read-side telemetry only.
        """
        if observations is None:
            observations = self.ecosystem.observations()
        with phase_scope("analyze", chains=len(observations)):
            reports, stats = analyze_observations(
                observations, store=self.ecosystem.registry.union(),
                fetcher=self.ecosystem.aia_repo,
                verdict_store=verdict_store,
                journal=journal, snapshot_writer=snapshot_writer,
                status=status,
            )
        if snapshot_writer is not None:
            snapshot_writer.write_now()
        _log.info("campaign.analyzed", chains=len(reports),
                  resumed=stats.resumed)
        return aggregate(reports), reports
