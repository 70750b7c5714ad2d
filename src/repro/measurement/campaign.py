"""Measurement campaigns: scan, merge, analyse (Section 3.1 end to end).

A :class:`Campaign` drives the full collection pipeline the paper ran:
ZGrab2-style scans of every domain from two vantage points under the
500 KB/s cap, the TLS 1.2 / TLS 1.3 comparison, the union merge of both
vantages, and finally the per-chain compliance analysis feeding the
dataset report.
"""

from __future__ import annotations

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
from repro.net.tls import TLS12, TLS13
from repro.obs.journal import RunJournal
from repro.obs.probe import phase_scope
from repro.trust.aia import AIAFetcher
from repro.trust.rootstore import RootStore
from repro.webpki.ecosystem import Ecosystem, VANTAGE_AU, VANTAGE_US
from repro.x509 import Certificate

_log = obs.get_logger("measurement.campaign")


def _chain_key(chain: tuple[Certificate, ...]) -> tuple[bytes, ...]:
    return tuple(cert.fingerprint for cert in chain)


def _merge_union(
    vantages: tuple[str, ...],
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
    streams = [per_vantage[vantage] for vantage in vantages]
    for group in zip_longest(*streams):
        for record in group:
            if record is None or not record.success or not record.chain:
                continue
            chain_key = record.chain_key or _chain_key(record.chain)
            key = (record.domain, chain_key)
            if key in seen:
                continue
            seen.add(key)
            chain_keys.add(chain_key)
            observations.append((record.domain, list(record.chain)))
            all_certs.update(chain_key)
    return chain_keys, observations, all_certs


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

    def collect(self, *, vantages: tuple[str, ...] = (VANTAGE_US, VANTAGE_AU),
                journal: RunJournal | None = None,
                progress_factory=None,
                retry_policy: RetryPolicy | None = None,
                breaker_threshold: int | None = None,
                breaker_probe_interval: float = 300.0) -> CollectionResult:
        """Scan every domain from each vantage and merge (union rule).

        Parameters
        ----------
        journal:
            When given, every scan outcome is appended as a ``scan``
            event and the merged totals as one ``collection`` event.
            On a resumed run, (domain, vantage) scans the journal
            already holds — and a ``collection`` event it already
            holds — are not re-appended, so per-domain scan history
            stays one record per observation.  Vantage degradation is
            recorded as one ``degradation`` event per vantage (same
            dedup rule).
        progress_factory:
            ``factory(vantage, total)`` returning an object with
            ``update(ok=...)`` / ``finish()`` (e.g.
            :class:`repro.obs.ProgressLine`) to render live progress.
        retry_policy:
            Backoff policy for transient scan failures; None (default)
            scans each domain exactly once, the PR-1 behaviour.
        breaker_threshold:
            When set, each vantage gets a
            :class:`~repro.net.scanner.CircuitBreaker` tripping after
            this many consecutive unreachable scans; a vantage whose
            breaker is still open when its sweep ends is marked
            *degraded* rather than merged as if complete.

        The vantage sweeps share one decoded-flight memo (see
        :func:`~repro.net.tls.perform_handshake`), so a chain served
        identically to every vantage is decoded once per call.

        A vantage that finishes its sweep with zero successful scans
        (over a non-empty domain list) is always marked degraded, with
        or without a breaker: the union of the remaining vantages is a
        partial dataset, and the ``degraded`` flags on the result and
        the journal's ``collection`` event say so explicitly.
        """
        tracer = obs.get_tracer()
        network = self._ensure_network()
        domains = [d.domain for d in self.ecosystem.deployments]
        journaled_scans: set[tuple[str, str]] = set()
        journaled_degradations: set[str] = set()
        collection_journaled = False
        if journal is not None:
            journaled_scans = {
                (event.get("domain"), event.get("vantage"))
                for event in journal.events("scan")
            }
            journaled_degradations = {
                event.get("vantage")
                for event in journal.events("degradation")
            }
            collection_journaled = bool(journal.events("collection"))
        per_vantage: dict[str, list[ScanRecord]] = {}
        degraded_vantages: dict[str, str] = {}
        with phase_scope("collect"), \
                tracer.span("campaign.collect", domains=len(domains),
                            vantages=len(vantages)):
            memo: dict = {}
            for vantage in vantages:
                with phase_scope(f"collect.scan.{vantage}"), \
                        tracer.span("campaign.scan", vantage=vantage):
                    breaker = (
                        CircuitBreaker(
                            network.clock, vantage,
                            threshold=breaker_threshold,
                            probe_interval=breaker_probe_interval,
                        )
                        if breaker_threshold else None
                    )
                    scanner = Scanner(
                        network, vantage,
                        retry_policy=retry_policy, breaker=breaker,
                    )
                    progress = (
                        progress_factory(vantage, len(domains))
                        if progress_factory is not None else None
                    )

                    def observe(record: ScanRecord,
                                progress=progress) -> None:
                        if journal is not None and (
                            (record.domain, record.vantage)
                            not in journaled_scans
                        ):
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

                    records = scanner.scan(
                        domains, versions=(TLS12,), progress=observe,
                        memo=memo,
                    )
                    per_vantage[vantage] = records
                    if progress is not None:
                        progress.finish()
                    reason = self._degradation_reason(records, breaker)
                    if reason is not None:
                        degraded_vantages[vantage] = reason
                        _log.warning("campaign.vantage_degraded",
                                     vantage=vantage, reason=reason)
                        obs.get_metrics().counter(
                            "campaign.vantage_degraded", vantage=vantage
                        ).inc()
                        if (journal is not None
                                and vantage not in journaled_degradations):
                            journal.record_degradation(vantage, reason)

            with tracer.span("campaign.union_merge"):
                chain_keys, observations, all_certs = _merge_union(
                    vantages, per_vantage
                )
        _log.info("campaign.collected", domains=len(domains),
                  observations=len(observations),
                  unique_chains=len(chain_keys),
                  degraded=bool(degraded_vantages))
        if journal is not None and not collection_journaled:
            journal.record(
                "collection",
                domains=len(domains),
                observations=len(observations),
                unique_chains=len(chain_keys),
                unique_certificates=len(all_certs),
                degraded=bool(degraded_vantages),
                degraded_vantages=degraded_vantages,
            )
        return CollectionResult(
            per_vantage=per_vantage,
            observations=observations,
            reachable_counts={
                v: sum(1 for r in records if r.success)
                for v, records in per_vantage.items()
            },
            unique_chains=len(chain_keys),
            unique_certificates=len(all_certs),
            degraded_vantages=degraded_vantages,
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

    @staticmethod
    def _degradation_reason(records: list[ScanRecord],
                            breaker: CircuitBreaker | None) -> str | None:
        """Why a finished vantage sweep counts as degraded, if it does."""
        if breaker is not None and breaker.tripped:
            return "breaker_open"
        if records and not any(r.success for r in records):
            return "no_successful_scans"
        return None

    def compare_tls_versions(self, *, vantage: str = VANTAGE_US,
                             sample: int | None = None) -> float:
        """Share of domains serving identical chains on TLS 1.2 and 1.3.

        The paper measured 98.8%; the ecosystem's version-difference
        rate is calibrated to land there.
        """
        network = self._ensure_network()
        scanner = Scanner(network, vantage)
        domains = [d.domain for d in self.ecosystem.deployments]
        if sample is not None:
            domains = domains[:sample]
        identical = total = 0
        for domain in domains:
            tls12 = scanner.scan_domain(domain, versions=(TLS12,))
            tls13 = scanner.scan_domain(domain, versions=(TLS13,))
            if not (tls12.success and tls13.success):
                continue
            total += 1
            if _chain_key(tls12.chain) == _chain_key(tls13.chain):
                identical += 1
        return 100.0 * identical / total if total else 0.0

    # ------------------------------------------------------------------
    # Analysis
    # ------------------------------------------------------------------

    def analyze(
        self,
        observations: list[tuple[str, list[Certificate]]] | None = None,
        *,
        store: RootStore | None = None,
        fetcher: AIAFetcher | None = None,
        journal: RunJournal | None = None,
        snapshot_writer=None,
        cache=None,
        status=None,
    ) -> tuple[DatasetReport, list[ChainComplianceReport]]:
        """Run the Section 3.1 compliance analysis over a collection.

        Defaults: the ecosystem's ground-truth observations (skipping
        the network), the four-program union store, and the ecosystem's
        AIA repository.  Analysis runs through the deduplicating
        pipeline, :func:`~repro.measurement.parallel.analyze_observations`.

        With a ``journal``, every verdict is appended as it is reached,
        and observations whose verdict the journal already holds (a
        resumed run) are reconstructed from it instead of re-analysed —
        the reconstruction is lossless, so the final tables match an
        uninterrupted run byte for byte.  ``snapshot_writer`` (a
        :class:`repro.obs.SnapshotWriter`) is ticked once per chain.

        ``cache`` (a :class:`~repro.measurement.parallel.VerdictCache`)
        carries per-chain reports across calls and counts its hits and
        misses; give it a ``backing``
        :class:`~repro.measurement.store.VerdictStore` to persist
        reports across runs, so a warm re-run produces byte-identical
        output at a fraction of the analyse cost.  Without one, each
        call dedups within its own observations.

        ``status`` (a :class:`~repro.obs.server.RunStatus`) advances
        once per observation; it is read-side telemetry only.
        """
        if observations is None:
            observations = self.ecosystem.observations()
        store = store or self.ecosystem.registry.union()
        fetcher = fetcher if fetcher is not None else self.ecosystem.aia_repo
        with phase_scope("analyze"), \
                obs.get_tracer().span("campaign.analyze",
                                      chains=len(observations)):
            reports, stats = analyze_observations(
                observations, store=store, fetcher=fetcher, cache=cache,
                journal=journal, snapshot_writer=snapshot_writer,
                status=status,
            )
        if snapshot_writer is not None:
            snapshot_writer.write_now()
        _log.info("campaign.analyzed", chains=len(reports),
                  resumed=stats.resumed)
        return aggregate(reports), reports


def run_default_campaign(n_domains: int = 5_000, seed: int = 42
                         ) -> tuple[Campaign, DatasetReport]:
    """Convenience: generate, analyse, return (campaign, report)."""
    from repro.webpki.ecosystem import EcosystemConfig

    ecosystem = Ecosystem.generate(
        EcosystemConfig(n_domains=n_domains, seed=seed)
    )
    campaign = Campaign(ecosystem)
    report, _ = campaign.analyze()
    return campaign, report
