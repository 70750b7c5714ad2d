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

from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

from repro import obs
from repro.core.compliance import ChainComplianceReport
from repro.core.report import DatasetReport, aggregate
from repro.errors import JournalError
from repro.measurement.campaign import VANTAGES, Campaign, _Sweep
from repro.measurement.dataset import observation_to_json
from repro.net.scanner import RetryPolicy
from repro.obs.journal import RunJournal
from repro.obs.trace import phase_scope

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


def _completed_prefix(bounds, journal: RunJournal) -> int:
    """How many leading shards the resumed journal already completed.

    Only a *contiguous* prefix counts: a ``shard`` event is written
    after its verdicts, so shard k present ⇒ shards 0..k-1 present
    under normal operation; anything after a gap is re-run (the
    journal appends none of its scans, verdicts or shard events
    again, so no double work or double events).
    """
    completed = 0
    for index, start, stop in bounds:
        if not journal.holds("shard", index=index, start=start, stop=stop):
            break
        completed += 1
    return completed


def _fold_completed(dataset: DatasetReport, journal: RunJournal, bounds,
                    shard_size: int, domains, sweep: _Sweep
                    ) -> list[ShardStats]:
    """Reconstruct the completed shards, ``bounds``, from the journal.

    Scan and verdict events fold by the shard their domain belongs to,
    so boundary events left by a run with another shard size cannot
    split or truncate a shard.  Verdicts of one shard stand in the
    journal in union-observation order, so folding each shard's group
    in shard order reproduces the live merge byte for byte.  The scans
    rebuild the sweep's per-vantage attempt/success accounting, which
    the degradation rule needs.  The verdicts come decoded by the
    journal's read, through its one
    :class:`~repro.core.compliance.ReportTable`, so the folded reports
    share their equal sections.
    """
    position = {
        domain: i
        for i, domain in enumerate(domains[:bounds[-1][2]])
    }
    groups: list[list[ChainComplianceReport]] = [[] for _ in bounds]
    for event in journal.events():
        at = position.get(event.get("domain"))
        if at is None:
            continue
        kind = event.get("type")
        if kind == "scan" and event.get("vantage") in VANTAGES:
            vantage = event["vantage"]
            sweep.attempted[vantage] += 1
            if event.get("success"):
                sweep.successes[vantage] += 1
        elif kind == "verdict":
            groups[at // shard_size].append(event["report"])
            chain_key = tuple(bytes.fromhex(fp) for fp in event["chain_key"])
            sweep.chain_keys.add(chain_key)
            sweep.certificates.update(chain_key)
    shards: list[ShardStats] = []
    for (index, start, stop), group in zip(bounds, groups):
        dataset.merge(aggregate(group))
        sweep.observations += len(group)
        shards.append(ShardStats(
            index=index, start=start, stop=stop,
            observations=len(group), resumed=True,
        ))
    return shards


def run_sharded(
    campaign: Campaign,
    shard_size: int,
    *,
    journal: RunJournal | None = None,
    retry_policy: RetryPolicy | None = None,
    breaker_threshold: int | None = None,
    verdict_store=None,
    snapshot_writer=None,
    status=None,
    progress_factory=None,
    output: str | Path | None = None,
) -> ShardedRunResult:
    """Stream the campaign shard by shard with bounded peak memory.

    Parameters mirror :meth:`Campaign.collect` /
    :meth:`Campaign.analyze`: each shard is one slice of the same
    collection sweep, and ``progress_factory(vantage, total)`` is
    called once per vantage per shard, with the shard's domain count.
    Every shard analyses through ``verdict_store`` (a
    :class:`~repro.measurement.store.VerdictStore`, or None): the
    shard's reports are released with it, while the store still lets
    the shards of a warm run resolve their chains instead of
    re-analysing them.

    ``output`` names a JSONL file that receives each shard's union
    observations before the shard is released; it ends up byte-equal
    to :func:`~repro.measurement.dataset.save_observations` of
    ``collect().observations``.  Completed shards of a resumed journal
    are folded without a re-scan and have no observations to write, so
    with ``output`` such a journal raises
    :class:`~repro.errors.JournalError` before anything runs.

    ``status`` phases are shard-scoped — ``collect.shard.K`` counting
    scans, ``analyze.shard.K`` counting verdicts — as are the
    ``phase_scope`` resource metrics, so live dashboards and run
    reports show per-shard progress and cost.  The collection summary
    is journaled once the last shard is collected, before its verdicts.
    """
    domains = [d.domain for d in campaign.ecosystem.deployments]
    bounds = shard_bounds(len(domains), shard_size)
    sweep = _Sweep(campaign._ensure_network(), journal=journal,
                   retry_policy=retry_policy,
                   breaker_threshold=breaker_threshold)
    dataset = DatasetReport()
    shards: list[ShardStats] = []
    completed = (_completed_prefix(bounds, journal)
                 if journal is not None else 0)
    if completed:
        if output is not None:
            raise JournalError(
                f"{journal.path}: holds {completed} completed shard(s), "
                f"which resume without a re-scan, so {output} would "
                f"miss their observations; write it from a fresh journal"
            )
        shards = _fold_completed(dataset, journal, bounds[:completed],
                                 shard_size, domains, sweep)
        _log.info("shards.resumed", completed=completed,
                  observations=sweep.observations)
    if completed == len(bounds):
        # every shard folded from the journal: the sweep has no slice
        # left to scan, so it ends here
        sweep.finish(len(domains))

    def run_shard(index: int, start: int, stop: int, handle) -> int:
        """Collect, merge, and analyse one shard; returns the union
        observation count.  Everything per-shard — records, chains,
        per-chain reports — lives only in this frame, so it is
        released as soon as the shard's aggregate is merged."""
        per_vantage, observations = sweep.collect(
            domains[start:stop], shard=index,
            progress_factory=progress_factory, status=status,
        )
        # the scan records go before analysis; the union holds the
        # chains the verdicts need
        del per_vantage
        if handle is not None:
            for domain, chain in observations:
                handle.write(observation_to_json(domain, chain) + "\n")
        if stop == len(domains):
            # the last slice ends the sweep: summarise the collection
            # before this shard's verdicts
            sweep.finish(len(domains))
        with phase_scope(f"analyze.shard.{index}", index=index,
                         chains=len(observations)):
            if status is not None:
                status.begin_phase(f"analyze.shard.{index}",
                                   len(observations))
            shard_report, _ = campaign.analyze(
                observations, journal=journal,
                snapshot_writer=snapshot_writer,
                verdict_store=verdict_store, status=status,
            )
            dataset.merge(shard_report)
        return len(observations)

    with (open(output, "w", encoding="utf-8") if output is not None
          else nullcontext()) as handle, \
            phase_scope("run.sharded", domains=len(domains),
                        shard_size=shard_size, shards=len(bounds)):
        for index, start, stop in bounds[completed:]:
            count = run_shard(index, start, stop, handle)
            shards.append(ShardStats(
                index=index, start=start, stop=stop,
                observations=count,
            ))
            if journal is not None:
                journal.record("shard", index=index, start=start,
                               stop=stop, observations=count)
            _log.info("shards.completed", index=index,
                      start=start, stop=stop, observations=count)

    return ShardedRunResult(
        report=dataset,
        domains=len(domains),
        total_observations=sweep.observations,
        unique_chains=len(sweep.chain_keys),
        unique_certificates=len(sweep.certificates),
        reachable_counts={v: sweep.successes[v] for v in VANTAGES},
        attempted_counts={v: sweep.attempted[v] for v in VANTAGES},
        degraded_vantages=sweep.degraded,
        shards=shards,
    )
