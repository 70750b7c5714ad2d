"""Sharded streaming campaigns: bounded-memory collect → analyse.

A whole-corpus :meth:`~repro.measurement.campaign.Campaign.collect`
holds every :class:`~repro.net.scanner.ScanRecord` — and through them
every certificate chain — in memory at once, then hands the full union
to :meth:`~repro.measurement.campaign.Campaign.analyze`.  At paper
scale (~10M domains in the original study) that peak is the limiting
resource, not CPU.  :func:`run_sharded` partitions the domain
population into contiguous shards of ``shard_size`` and streams
*collect → analyse* per shard, releasing each shard's records and
chains once its verdicts are journaled and folded into the running
:class:`~repro.core.report.DatasetReport`.  Peak memory is bounded by
the shard size, not the population.

Equivalence guarantees (pinned by ``tests/measurement/test_shards.py``):

* The final :class:`~repro.core.report.DatasetReport`, the rendered
  tables, and every per-domain verdict are **byte-identical** to an
  unsharded run for any shard size.  Three properties make this hold:

  - the union merge is *prefix-decomposable* — ``_merge_union``
    iterates domain-major, so the union of a contiguous shard is the
    matching slice of the whole-corpus union;
  - :meth:`DatasetReport.merge` folds per-shard aggregates in shard
    order into exactly the whole-corpus aggregate;
  - the simulated network keys every RTT/flakiness draw by
    (vantage, host, connect ordinal), so splitting the sweep does not
    perturb any other domain's scan.

* The journal holds the **same events with the same content** — the
  same scans, verdicts, degradations, and one ``collection`` event —
  merely interleaved per shard and punctuated by ``shard`` boundary
  events.  A run report built from either journal renders
  byte-identically (the report builder is order-insensitive).

* Scan *durations* stay identical because the per-vantage
  :class:`~repro.net.scanner.Scanner` (and with it the rate-limit
  bucket and circuit breaker) persists across shards: the sharded
  sweep is the same continuous per-vantage scan, merely chunked.

Caveats — where sharding is *not* transparent:

* Probabilistic :class:`~repro.net.faults.FaultPlan` draws
  (``flaky``, ``fail_next`` …) consume a plan-global RNG stream, so a
  plan that rolls dice is sensitive to global scan order and will not
  reproduce byte-identically across shard sizes.  Deterministic plan
  rules (``vantage_outage``, windowed latency) are order-free and
  propagate degradation identically.
* A tripped circuit breaker's half-open probe windows depend on
  wall-clock spacing, which interleaving changes; degraded-vantage
  *outcomes* still match for outages that never recover.

Resume: each completed shard is recorded as a ``shard`` event after
its verdicts.  ``run_sharded`` on a resumed journal folds the
contiguous prefix of completed shards straight out of the journal —
no re-scan, no re-analysis — and re-runs only the first incomplete
shard (its journaled scans and verdicts dedup as usual) and everything
after it.  The final report is byte-identical to an uninterrupted run.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from repro import obs
from repro.core.compliance import ChainComplianceReport
from repro.core.report import DatasetReport, aggregate
from repro.measurement.campaign import Campaign, _merge_union
from repro.measurement.parallel import VerdictCache
from repro.net.scanner import CircuitBreaker, RetryPolicy, Scanner
from repro.net.tls import TLS12
from repro.obs.journal import RunJournal
from repro.obs.probe import phase_scope
from repro.trust.aia import AIAFetcher
from repro.trust.rootstore import RootStore
from repro.webpki.ecosystem import VANTAGE_AU, VANTAGE_US

_log = obs.get_logger("measurement.shards")


def shard_bounds(population: int, shard_size: int
                 ) -> list[tuple[int, int, int]]:
    """Contiguous ``(index, start, stop)`` shard boundaries.

    The last shard is short when ``shard_size`` does not divide the
    population; a shard size at or above the population yields a
    single shard (the unsharded layout, plus one boundary event).
    """
    if shard_size <= 0:
        raise ValueError("shard_size must be positive")
    return [
        (index, start, min(start + shard_size, population))
        for index, start in enumerate(range(0, population, shard_size))
    ]


@dataclass(frozen=True)
class ShardStats:
    """One shard's slice of the run, live or folded from the journal."""

    index: int
    start: int
    stop: int
    #: union observations this shard contributed
    observations: int
    #: True when the shard was folded from a resumed journal instead
    #: of being scanned and analysed live
    resumed: bool = False


@dataclass
class ShardedRunResult:
    """What a sharded campaign produced.

    Unlike :class:`~repro.measurement.campaign.CollectionResult` this
    carries no records or chains — holding them would defeat the
    bounded-memory point — only the merged report and the same
    summary accounting the unsharded pipeline reports.
    """

    report: DatasetReport
    domains: int
    total_observations: int
    unique_chains: int
    unique_certificates: int
    reachable_counts: dict[str, int]
    #: finished scans per vantage (successes + failures), *including*
    #: shards folded from a resumed journal — the live metrics only
    #: cover re-run shards, so resumed-aware reachability reporting
    #: must read these counts rather than the registry snapshot
    attempted_counts: dict[str, int] = field(default_factory=dict)
    degraded_vantages: dict[str, str] = field(default_factory=dict)
    shards: list[ShardStats] = field(default_factory=list)

    @property
    def degraded(self) -> bool:
        return bool(self.degraded_vantages)

    @property
    def resumed_shards(self) -> int:
        return sum(1 for shard in self.shards if shard.resumed)


def _completed_prefix(bounds, events) -> int:
    """How many leading shards the resumed journal already completed.

    Only a *contiguous* prefix counts: a ``shard`` event is written
    after its verdicts, so shard k present ⇒ shards 0..k-1 present
    under normal operation; anything after a gap is re-run (its
    journaled scans/verdicts dedup, so no double work or double
    events).
    """
    recorded = {
        (event.get("index"), event.get("start"), event.get("stop"))
        for event in events
        if event.get("type") == "shard"
    }
    completed = 0
    for index, start, stop in bounds:
        if (index, start, stop) not in recorded:
            break
        completed += 1
    return completed


def _fold_completed(dataset: DatasetReport, events, completed: int,
                    bounds, domains, vantages,
                    attempted: Counter, successes: Counter,
                    unique_chain_hexes: set, unique_cert_hexes: set
                    ) -> list[ShardStats]:
    """Reconstruct the completed-shard prefix from the ordered journal.

    Verdict events land in union-observation order and each shard's
    group ends at its ``shard`` boundary event, so splitting the
    ordered event list at boundaries recovers exactly the per-shard
    verdict sequences; folding them in journal order reproduces the
    live merge byte for byte.  Scan events are folded by domain index
    (each domain belongs to exactly one shard), rebuilding the
    per-vantage attempt/success accounting the degradation rule needs.
    """
    domain_index = {domain: i for i, domain in enumerate(domains)}
    completed_stop = bounds[completed - 1][2] if completed else 0
    shards: list[ShardStats] = []
    shard_iter = iter(bounds)
    current = next(shard_iter)
    group: list[ChainComplianceReport] = []
    for event in events:
        kind = event.get("type")
        if kind == "scan":
            if (event.get("vantage") in vantages
                    and domain_index.get(event.get("domain"), -1)
                    < completed_stop):
                vantage = event["vantage"]
                attempted[vantage] += 1
                if event.get("success"):
                    successes[vantage] += 1
        elif kind == "verdict":
            if len(shards) < completed:
                group.append(
                    ChainComplianceReport.from_dict(event["report"])
                )
                unique_chain_hexes.add(tuple(event["chain_key"]))
                unique_cert_hexes.update(event["chain_key"])
        elif kind == "shard" and len(shards) < completed:
            index, start, stop = current
            dataset.merge(aggregate(group))
            shards.append(ShardStats(
                index=index, start=start, stop=stop,
                observations=len(group), resumed=True,
            ))
            group = []
            current = next(shard_iter, None)
            if len(shards) == completed:
                break
    return shards


def run_sharded(
    campaign: Campaign,
    shard_size: int,
    *,
    vantages: tuple[str, ...] = (VANTAGE_US, VANTAGE_AU),
    journal: RunJournal | None = None,
    retry_policy: RetryPolicy | None = None,
    breaker_threshold: int | None = None,
    breaker_probe_interval: float = 300.0,
    cache=None,
    store: RootStore | None = None,
    fetcher: AIAFetcher | None = None,
    snapshot_writer=None,
    status=None,
) -> ShardedRunResult:
    """Stream the campaign shard by shard with bounded peak memory.

    Parameters mirror :meth:`Campaign.collect` /
    :meth:`Campaign.analyze`.  Each shard analyses through a fresh
    :class:`~repro.measurement.parallel.VerdictCache` over ``cache``'s
    persistent ``backing`` store, if any, and adds its hit/miss counts
    to ``cache``: the shard's reports are released with it, while the
    store still lets the shards of a warm run resolve their chains
    instead of re-analysing them.  Each shard's vantage sweeps share
    one decoded-flight memo, released with the shard too.

    ``status`` phases are shard-scoped — ``collect.shard.K`` counting
    scans, ``analyze.shard.K`` counting verdicts — as are the
    ``phase_scope`` resource metrics, so live dashboards and run
    reports show per-shard progress and cost.
    """
    tracer = obs.get_tracer()
    network = campaign._ensure_network()
    domains = [d.domain for d in campaign.ecosystem.deployments]
    bounds = shard_bounds(len(domains), shard_size)
    store = store or campaign.ecosystem.registry.union()
    fetcher = (fetcher if fetcher is not None
               else campaign.ecosystem.aia_repo)

    journaled_scans: set[tuple[str, str]] = set()
    journaled_degradations: set[str] = set()
    collection_journaled = False
    dataset = DatasetReport()
    shards: list[ShardStats] = []
    attempted: Counter[str] = Counter()
    successes: Counter[str] = Counter()
    unique_chain_hexes: set[tuple[str, ...]] = set()
    unique_cert_hexes: set[str] = set()
    total_observations = 0
    completed = 0
    if journal is not None:
        ordered = journal.events()
        journaled_scans = {
            (event.get("domain"), event.get("vantage"))
            for event in ordered if event.get("type") == "scan"
        }
        journaled_degradations = {
            event.get("vantage")
            for event in ordered if event.get("type") == "degradation"
        }
        collection_journaled = any(
            event.get("type") == "collection" for event in ordered
        )
        completed = _completed_prefix(bounds, ordered)
        if completed:
            shards = _fold_completed(
                dataset, ordered, completed, bounds, domains, vantages,
                attempted, successes, unique_chain_hexes,
                unique_cert_hexes,
            )
            total_observations = sum(s.observations for s in shards)
            _log.info("shards.resumed", completed=completed,
                      observations=total_observations)

    # One scanner (token bucket, breaker) per vantage for the whole
    # run: the sharded sweep is the same continuous per-vantage scan
    # as the unsharded one, merely chunked, so journaled durations and
    # breaker behaviour carry across shard boundaries unchanged.
    breakers: dict[str, CircuitBreaker | None] = {}
    scanners: dict[str, Scanner] = {}
    for vantage in vantages:
        breaker = (
            CircuitBreaker(
                network.clock, vantage,
                threshold=breaker_threshold,
                probe_interval=breaker_probe_interval,
            )
            if breaker_threshold else None
        )
        breakers[vantage] = breaker
        scanners[vantage] = Scanner(
            network, vantage,
            retry_policy=retry_policy, breaker=breaker,
        )

    def run_shard(index: int, start: int, stop: int) -> int:
        """Collect, merge, and analyse one shard; returns the union
        observation count.  Everything per-shard — records, chains,
        per-chain reports — lives only in this frame, so it is
        released as soon as the shard's aggregate is merged."""
        shard_domains = domains[start:stop]
        with phase_scope(f"collect.shard.{index}"), \
                tracer.span("campaign.collect.shard", index=index,
                            domains=len(shard_domains)):
            if status is not None:
                status.begin_phase(f"collect.shard.{index}",
                                   len(shard_domains) * len(vantages))
            memo: dict = {}
            per_vantage = {}
            for vantage in vantages:

                def observe(record) -> None:
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
                    if status is not None:
                        status.advance(ok=record.success)

                with tracer.span("campaign.scan", vantage=vantage,
                                 shard=index):
                    records = scanners[vantage].scan(
                        shard_domains, versions=(TLS12,),
                        progress=observe, memo=memo,
                    )
                per_vantage[vantage] = records
                attempted[vantage] += len(records)
                successes[vantage] += sum(
                    1 for r in records if r.success
                )
            with tracer.span("campaign.union_merge", shard=index):
                chain_keys, observations, all_certs = _merge_union(
                    vantages, per_vantage
                )
            unique_chain_hexes.update(
                tuple(fp.hex() for fp in key) for key in chain_keys
            )
            unique_cert_hexes.update(fp.hex() for fp in all_certs)
            del memo, per_vantage, records, chain_keys, all_certs

        with phase_scope(f"analyze.shard.{index}"), \
                tracer.span("campaign.analyze.shard", index=index,
                            chains=len(observations)):
            if status is not None:
                status.begin_phase(f"analyze.shard.{index}",
                                   len(observations))
            shard_cache = VerdictCache(
                backing=cache.backing if cache is not None else None
            )
            shard_report, _ = campaign.analyze(
                observations, store=store, fetcher=fetcher,
                journal=journal, snapshot_writer=snapshot_writer,
                cache=shard_cache, status=status,
            )
            dataset.merge(shard_report)
            if cache is not None:
                cache.hits += shard_cache.hits
                cache.misses += shard_cache.misses
        return len(observations)

    with phase_scope("run.sharded"), \
            tracer.span("campaign.run_sharded", domains=len(domains),
                        shard_size=shard_size, shards=len(bounds)):
        for index, start, stop in bounds[completed:]:
            count = run_shard(index, start, stop)
            total_observations += count
            shards.append(ShardStats(
                index=index, start=start, stop=stop,
                observations=count,
            ))
            if journal is not None:
                journal.record("shard", index=index, start=start,
                               stop=stop, observations=count)
            _log.info("shards.completed", index=index,
                      start=start, stop=stop, observations=count)

        degraded_vantages: dict[str, str] = {}
        for vantage in vantages:
            breaker = breakers[vantage]
            if breaker is not None and breaker.tripped:
                reason = "breaker_open"
            elif attempted[vantage] and not successes[vantage]:
                reason = "no_successful_scans"
            else:
                continue
            degraded_vantages[vantage] = reason
            _log.warning("campaign.vantage_degraded",
                         vantage=vantage, reason=reason)
            obs.get_metrics().counter(
                "campaign.vantage_degraded", vantage=vantage
            ).inc()
            if (journal is not None
                    and vantage not in journaled_degradations):
                journal.record_degradation(vantage, reason)

    _log.info("campaign.collected", domains=len(domains),
              observations=total_observations,
              unique_chains=len(unique_chain_hexes),
              degraded=bool(degraded_vantages))
    if journal is not None and not collection_journaled:
        journal.record(
            "collection",
            domains=len(domains),
            observations=total_observations,
            unique_chains=len(unique_chain_hexes),
            unique_certificates=len(unique_cert_hexes),
            degraded=bool(degraded_vantages),
            degraded_vantages=degraded_vantages,
        )
    return ShardedRunResult(
        report=dataset,
        domains=len(domains),
        total_observations=total_observations,
        unique_chains=len(unique_chain_hexes),
        unique_certificates=len(unique_cert_hexes),
        reachable_counts={
            vantage: successes[vantage] for vantage in vantages
        },
        attempted_counts={
            vantage: attempted[vantage] for vantage in vantages
        },
        degraded_vantages=degraded_vantages,
        shards=shards,
    )
