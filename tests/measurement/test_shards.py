"""Sharded streaming campaigns: byte-parity with the unsharded pipeline.

The contract under test (``repro.measurement.shards``): for *any*
shard size the final :class:`DatasetReport`, the per-domain verdicts,
and a run report built from the journal are byte-identical to an
unsharded ``collect()`` + ``analyze()``; the journal holds the same
events with the same content, merely interleaved per shard; and a run
killed mid-shard resumes to the identical result.
"""

import json

import pytest

from repro.measurement import Campaign, VerdictStore, shard_bounds
from repro.obs import RunJournal
from repro.obs.journal import read_journal
from repro.obs.report import build_report, render_report_text
from repro.webpki import Ecosystem, EcosystemConfig, VANTAGE_AU

N_DOMAINS = 60
SEED = 21


def fresh_campaign():
    ecosystem = Ecosystem.generate(
        EcosystemConfig(n_domains=N_DOMAINS, seed=SEED)
    )
    return Campaign(ecosystem, network=ecosystem.install())


def fingerprint(report):
    """The byte-parity criterion: the serialised dataset report."""
    return json.dumps(report.to_dict(), sort_keys=True)


def event_multiset(events, *, skip=("shard",)):
    return sorted(
        json.dumps(event, sort_keys=True)
        for event in events
        if event.get("type") not in skip
    )


@pytest.fixture(scope="module")
def flat(tmp_path_factory):
    """The unsharded reference run and its journal artifacts."""
    path = tmp_path_factory.mktemp("flat") / "run.jsonl"
    campaign = fresh_campaign()
    with RunJournal.open(path, campaign.manifest()) as journal:
        collection = campaign.collect(journal=journal)
        report, _ = campaign.analyze(
            collection.observations, journal=journal
        )
    manifest, events = read_journal(path)
    return {
        "collection": collection,
        "fingerprint": fingerprint(report),
        "events": events,
        "render": render_report_text(build_report(manifest, events)),
        "population": len(campaign.ecosystem.deployments),
    }


class TestShardBounds:
    def test_rejects_non_positive_size(self):
        with pytest.raises(ValueError):
            shard_bounds(10, 0)

    def test_partitions_are_contiguous_and_cover(self):
        bounds = shard_bounds(10, 3)
        assert bounds == [(0, 0, 3), (1, 3, 6), (2, 6, 9), (3, 9, 10)]

    def test_oversized_shard_is_one_shard(self):
        assert shard_bounds(10, 64) == [(0, 0, 10)]


class TestByteParity:
    """Singleton, prime, exact-population, and oversized shards all
    reproduce the unsharded run byte for byte."""

    @pytest.mark.parametrize("shard_size", [1, 7, "population", 10_000])
    def test_report_tables_and_journal_match(
        self, flat, shard_size, tmp_path
    ):
        if shard_size == "population":
            shard_size = flat["population"]
        campaign = fresh_campaign()
        path = tmp_path / "sharded.jsonl"
        with RunJournal.open(path, campaign.manifest()) as journal:
            result = campaign.run_sharded(shard_size, journal=journal)

        reference = flat["collection"]
        assert fingerprint(result.report) == flat["fingerprint"]
        assert result.total_observations == reference.total_observations
        assert result.unique_chains == reference.unique_chains
        assert (result.unique_certificates
                == reference.unique_certificates)
        assert result.reachable_counts == reference.reachable_counts
        # every (vantage, domain) pair finishes a scan on the healthy
        # reference world
        assert result.attempted_counts == {
            vantage: flat["population"]
            for vantage in result.attempted_counts
        }
        assert len(result.attempted_counts) == 2
        assert not result.degraded

        manifest, events = read_journal(path)
        # same events, same content — only the interleaving and the
        # shard boundary markers differ
        assert event_multiset(events) == event_multiset(flat["events"])
        # verdicts land in the *same order* (the union merge is
        # prefix-decomposable), not merely the same multiset
        assert ([e for e in events if e["type"] == "verdict"]
                == [e for e in flat["events"] if e["type"] == "verdict"])
        rendered = render_report_text(build_report(manifest, events))
        assert rendered == flat["render"]

    def test_shard_accounting_covers_population(self, flat, tmp_path):
        campaign = fresh_campaign()
        result = campaign.run_sharded(7)
        population = flat["population"]
        assert [s.index for s in result.shards] == list(
            range(len(result.shards))
        )
        assert result.shards[0].start == 0
        assert result.shards[-1].stop == population
        for prev, nxt in zip(result.shards, result.shards[1:]):
            assert prev.stop == nxt.start
        assert (sum(s.observations for s in result.shards)
                == result.total_observations)
        assert not any(s.resumed for s in result.shards)

    def test_cached_shards_match_flat(self, flat, tmp_path):
        """One verdict store serves every shard, and is asked once per
        observation, without perturbing the output."""
        campaign = fresh_campaign()
        path = tmp_path / "cached.jsonl"
        with RunJournal.open(path, campaign.manifest()) as journal, \
                VerdictStore(tmp_path / "vs") as verdict_store:
            result = campaign.run_sharded(11, journal=journal,
                                          verdict_store=verdict_store)
            assert (verdict_store.hits + verdict_store.misses
                    == result.total_observations)
        assert fingerprint(result.report) == flat["fingerprint"]
        _, events = read_journal(path)
        assert event_multiset(events) == event_multiset(flat["events"])

    def test_sharded_journal_validates(self, tmp_path):
        """`shard` boundary events satisfy the journal invariants —
        reopening a completed sharded journal, which reads it through
        the checked read, must not raise."""
        campaign = fresh_campaign()
        path = tmp_path / "validate.jsonl"
        with RunJournal.open(path, campaign.manifest()) as journal:
            campaign.run_sharded(13, journal=journal)
        reopened = RunJournal.open(path, fresh_campaign().manifest())
        assert reopened.events("shard")
        reopened.close()


class TestResume:
    def _truncated(self, tmp_path, shard_size, *, keep_shards,
                   extra_lines):
        """A journal killed after ``keep_shards`` boundary events plus
        ``extra_lines`` records of the next shard."""
        campaign = fresh_campaign()
        path = tmp_path / "full.jsonl"
        with RunJournal.open(path, campaign.manifest()) as journal:
            campaign.run_sharded(shard_size, journal=journal)
        lines = path.read_text().splitlines(keepends=True)
        marks = [
            i for i, line in enumerate(lines)
            if json.loads(line).get("type") == "shard"
        ]
        cut = (marks[keep_shards - 1] if keep_shards
               else 0) + extra_lines
        partial = tmp_path / "partial.jsonl"
        partial.write_text("".join(lines[:cut + 1]))
        return partial

    @pytest.mark.parametrize(
        "keep_shards,extra_lines",
        [(4, 5),   # killed mid-shard: scans + some verdicts lost
         (3, 0),   # killed exactly on a shard boundary
         (0, 8)],  # killed inside the very first shard
    )
    def test_resume_is_byte_identical(self, flat, tmp_path,
                                      keep_shards, extra_lines):
        partial = self._truncated(
            tmp_path, 7, keep_shards=keep_shards,
            extra_lines=extra_lines,
        )
        campaign = fresh_campaign()
        with RunJournal.open(partial, campaign.manifest()) as journal:
            result = campaign.run_sharded(7, journal=journal)
        assert result.resumed_shards == keep_shards
        assert fingerprint(result.report) == flat["fingerprint"]
        reference = flat["collection"]
        assert result.total_observations == reference.total_observations
        assert result.unique_chains == reference.unique_chains
        assert (result.unique_certificates
                == reference.unique_certificates)
        assert result.reachable_counts == reference.reachable_counts
        # folded shards must count toward attempted too — the CLI's
        # reachability line reads these, and a resumed run that only
        # counted its re-run shards would print a partial denominator
        assert result.attempted_counts == {
            vantage: flat["population"]
            for vantage in result.attempted_counts
        }
        manifest, events = read_journal(partial)
        assert event_multiset(events) == event_multiset(flat["events"])
        rendered = render_report_text(build_report(manifest, events))
        assert rendered == flat["render"]

    def test_other_shard_size_boundaries_do_not_split_a_shard(
        self, flat, tmp_path
    ):
        """A run interrupted at one shard size and finished at another
        leaves both sizes' boundary events in the journal; resuming at
        the second size folds each of its shards whole."""
        partial = self._truncated(tmp_path, 7, keep_shards=2,
                                  extra_lines=0)
        population = flat["population"]
        campaign = fresh_campaign()
        with RunJournal.open(partial, campaign.manifest()) as journal:
            campaign.run_sharded(population, journal=journal)
        again = fresh_campaign()
        with RunJournal.open(partial, again.manifest()) as journal:
            result = again.run_sharded(population, journal=journal)
            assert journal.events_written == 0
        assert result.resumed_shards == 1
        assert fingerprint(result.report) == flat["fingerprint"]
        reference = flat["collection"]
        assert result.total_observations == reference.total_observations
        assert result.unique_chains == reference.unique_chains

    def test_completed_run_resumes_without_new_events(self, tmp_path):
        campaign = fresh_campaign()
        path = tmp_path / "done.jsonl"
        with RunJournal.open(path, campaign.manifest()) as journal:
            first = campaign.run_sharded(9, journal=journal)
        again = fresh_campaign()
        with RunJournal.open(path, again.manifest()) as journal:
            second = again.run_sharded(9, journal=journal)
            appended = journal.events_written
        assert appended == 0
        assert second.resumed_shards == len(second.shards)
        assert fingerprint(second.report) == fingerprint(first.report)
        assert second.total_observations == first.total_observations


class TestDegradedVantage:
    """A hard vantage outage propagates through shards exactly as it
    does through the unsharded sweep.

    Only *deterministic* fault rules hold byte-parity across shard
    sizes — probabilistic plan faults draw from a plan-global RNG
    stream that is sensitive to global scan order (documented caveat
    in ``repro.measurement.shards``)."""

    def _campaign_with_outage(self):
        from repro.net import FaultPlan

        ecosystem = Ecosystem.generate(
            EcosystemConfig(n_domains=N_DOMAINS, seed=SEED)
        )
        network = ecosystem.install()
        network.set_fault_plan(
            FaultPlan().vantage_outage(VANTAGE_AU, start=0.0)
        )
        return Campaign(ecosystem, network=network)

    def test_outage_degrades_identically(self):
        reference = self._campaign_with_outage()
        collection = reference.collect(breaker_threshold=10)
        flat_report, _ = reference.analyze(collection.observations)
        assert collection.degraded_vantages == {
            VANTAGE_AU: "breaker_open"
        }

        sharded = self._campaign_with_outage()
        result = sharded.run_sharded(7, breaker_threshold=10)
        assert result.degraded_vantages == collection.degraded_vantages
        assert result.degraded
        # the surviving vantage's union — and with it every verdict —
        # is unaffected by how the dead vantage was chunked
        assert fingerprint(result.report) == fingerprint(flat_report)
        assert result.total_observations == collection.total_observations
        assert (result.reachable_counts[VANTAGE_AU]
                == collection.reachable_counts[VANTAGE_AU] == 0)

    def test_degradation_journaled_once(self, tmp_path):
        campaign = self._campaign_with_outage()
        path = tmp_path / "degraded.jsonl"
        with RunJournal.open(path, campaign.manifest()) as journal:
            campaign.run_sharded(7, journal=journal,
                                 breaker_threshold=10)
        _, events = read_journal(path)
        degradations = [e for e in events if e["type"] == "degradation"]
        assert degradations == [{
            "type": "degradation",
            "vantage": VANTAGE_AU,
            "reason": "breaker_open",
        }]
        collection = next(
            e for e in events if e["type"] == "collection"
        )
        assert collection["degraded"] is True
        assert collection["degraded_vantages"] == {
            VANTAGE_AU: "breaker_open"
        }


    def test_resumed_run_keeps_journaled_degradation(self, tmp_path):
        """Completed shards fold without a re-scan, so the breaker that
        tripped never runs again; the journaled reason stands."""
        path = tmp_path / "degraded.jsonl"
        first = self._campaign_with_outage()
        with RunJournal.open(path, first.manifest()) as journal:
            done = first.run_sharded(7, journal=journal,
                                     breaker_threshold=10)
        again = self._campaign_with_outage()
        with RunJournal.open(path, again.manifest()) as journal:
            resumed = again.run_sharded(7, journal=journal,
                                        breaker_threshold=10)
            assert journal.events_written == 0
        assert resumed.resumed_shards == len(resumed.shards)
        assert resumed.degraded_vantages == done.degraded_vantages == {
            VANTAGE_AU: "breaker_open"
        }


class PhaseRecorder:
    """A RunStatus stand-in that remembers every phase transition."""

    def __init__(self):
        self.phases = []
        self.advanced = 0

    def begin_phase(self, phase, total=0):
        self.phases.append((phase, total))

    def advance(self, n=1, *, ok=True):
        self.advanced += n

    def mark_degraded(self, vantage, reason):
        pass

    def finish(self):
        pass


class TestTelemetry:
    def test_status_walks_per_shard_phases(self):
        campaign = fresh_campaign()
        status = PhaseRecorder()
        result = campaign.run_sharded(40, status=status)
        names = [phase for phase, _ in status.phases]
        expected = []
        for shard in result.shards:
            expected.append(f"collect.shard.{shard.index}")
            expected.append(f"analyze.shard.{shard.index}")
        assert names == expected
        # collect phases count scans (domains × vantages), analyse
        # phases count union observations
        for (phase, total), shard in zip(
            status.phases[::2], result.shards
        ):
            assert total == (shard.stop - shard.start) * 2
        for (phase, total), shard in zip(
            status.phases[1::2], result.shards
        ):
            assert total == shard.observations

    def test_phase_metrics_are_shard_scoped(self):
        from repro import obs

        campaign = fresh_campaign()
        with obs.instrumented() as (registry, _):
            campaign.run_sharded(40)
            snapshot = registry.snapshot()
        phases = {
            series["labels"].get("phase")
            for series in snapshot["phase.wall_seconds"]["series"]
        }
        for expected in ("collect.shard.0", "analyze.shard.0",
                         "collect.shard.1", "analyze.shard.1",
                         "run.sharded"):
            assert expected in phases
