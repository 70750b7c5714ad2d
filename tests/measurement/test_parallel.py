"""The analyse pipeline: byte-parity with per-observation analysis.

Every test here checks the same contract from a different angle: with
or without a verdict store, with or without a journal, interrupted or
not, the pipeline's outputs — report list, aggregate tables, journal
bytes, metrics — are indistinguishable from running
:func:`~repro.core.compliance.analyze_chain` on every observation.
"""

import json
from contextlib import nullcontext

import pytest

from repro import obs
from repro.core import aggregate, analyze_chain
from repro.core.compliance import rebind_for_domain
from repro.measurement import Campaign, VerdictStore
from repro.measurement.parallel import analyze_observations, chain_key_hex
from repro.obs import RunJournal, read_journal
from repro.webpki import Ecosystem, EcosystemConfig


@pytest.fixture(scope="module")
def ecosystem():
    return Ecosystem.generate(EcosystemConfig(n_domains=140, seed=7))


@pytest.fixture(scope="module")
def union(ecosystem):
    return ecosystem.registry.union()


@pytest.fixture(scope="module")
def stream(ecosystem):
    """A scan-like stream with real redundancy.

    The union observations, then the first 60 again (the "both
    vantages, identical chain" pattern), then ten cross-domain repeats
    (another domain serving a chain already seen) to force the
    ``rebind_for_domain`` path.
    """
    base = ecosystem.observations()
    doubled = base + [(d, list(c)) for d, c in base[:60]]
    crossed = [
        (base[(i + 1) % len(base)][0], list(base[i][1]))
        for i in range(0, 30, 3)
    ]
    return doubled + crossed


@pytest.fixture(scope="module")
def sequential_reports(ecosystem, union, stream):
    return [
        analyze_chain(domain, chain, union, ecosystem.aia_repo)
        for domain, chain in stream
    ]


def aggregate_json(reports) -> str:
    return json.dumps(aggregate(reports).to_dict(), sort_keys=True)


def reference_journal(ecosystem, stream, journal):
    """The reference: ``analyze_chain`` per observation, journaled once
    per (domain, chain), the first time the pair is seen."""
    union = ecosystem.registry.union()
    reports = []
    seen = set()
    for domain, chain in stream:
        key = chain_key_hex(chain)
        report = analyze_chain(domain, chain, union, ecosystem.aia_repo)
        if (domain, key) not in seen:
            seen.add((domain, key))
            journal.record_verdict(domain, key, report.to_json())
        reports.append(report)
    return reports


class TestPipelineParity:
    def test_in_process_matches_sequential(
        self, ecosystem, union, stream, sequential_reports
    ):
        """Without a verdict store every observation is analysed."""
        reports, stats = analyze_observations(
            stream, store=union, fetcher=ecosystem.aia_repo,
        )
        assert reports == sequential_reports
        assert aggregate_json(reports) == aggregate_json(sequential_reports)
        assert stats.observations == stats.analyzed == len(stream)
        assert stats.cache_hits == 0 and stats.hit_rate == 0.0

    def test_store_serves_repeated_chains(
        self, ecosystem, union, stream, sequential_reports, tmp_path
    ):
        """Each fresh report goes to the store, so a chain repeated
        later in the run — by the same domain or another — is a store
        hit, rebound to the domain that served it."""
        with VerdictStore(tmp_path / "vs") as verdict_store:
            reports, stats = analyze_observations(
                stream, store=union, fetcher=ecosystem.aia_repo,
                verdict_store=verdict_store,
            )
            assert verdict_store.hits == stats.cache_hits
            assert verdict_store.misses == stats.analyzed
        assert reports == sequential_reports
        assert aggregate_json(reports) == aggregate_json(sequential_reports)
        assert stats.observations == len(stream)
        assert stats.analyzed == stats.unique_chains
        assert stats.analyzed + stats.cache_hits == len(stream)
        assert stats.cache_hits > 0 and stats.hit_rate > 0.0

    def test_cache_carries_across_calls(self, ecosystem, union, stream,
                                        tmp_path):
        """The verdict store serves a second call everything the first
        analysed."""
        with VerdictStore(tmp_path / "vs") as verdict_store:
            analyze_observations(
                stream, store=union, fetcher=ecosystem.aia_repo,
                verdict_store=verdict_store,
            )
            reports, stats = analyze_observations(
                stream, store=union, fetcher=ecosystem.aia_repo,
                verdict_store=verdict_store,
            )
        assert stats.analyzed == 0
        assert stats.cache_hits == len(stream)

    def test_campaign_analyze_delegates(self, ecosystem, stream,
                                        sequential_reports, tmp_path):
        campaign = Campaign(ecosystem)
        with VerdictStore(tmp_path / "vs") as verdict_store:
            report, reports = campaign.analyze(
                stream, verdict_store=verdict_store,
            )
            assert (verdict_store.hits + verdict_store.misses
                    == len(stream))
        assert reports == sequential_reports
        assert report == aggregate(sequential_reports)


class TestCrossDomainRebind:
    def test_rebind_equals_fresh_analysis(self, ecosystem, union, stream):
        base = ecosystem.observations()
        domain_a, chain = base[0]
        domain_b = base[1][0]
        cached = analyze_chain(domain_a, chain, union, ecosystem.aia_repo)
        rebound = rebind_for_domain(cached, domain_b, chain)
        fresh = analyze_chain(domain_b, chain, union, ecosystem.aia_repo)
        assert rebound == fresh
        assert rebound.to_json() == fresh.to_json()

    def test_same_domain_rebind_is_identity(self, ecosystem, union, stream):
        domain, chain = stream[0]
        report = analyze_chain(domain, chain, union, ecosystem.aia_repo)
        assert rebind_for_domain(report, domain, chain) is report


class TestJournalParity:
    def run_journaled(self, campaign, stream, path, **kwargs):
        with RunJournal.create(path, campaign.manifest()) as journal:
            report, reports = campaign.analyze(
                stream, journal=journal, **kwargs
            )
        return report, reports, path.read_bytes()

    def test_all_modes_write_identical_journals(
        self, ecosystem, stream, tmp_path
    ):
        """No store, a fresh store, and a store already holding every
        report all write the reference journal, whose verdicts decode
        back into the reports they were written from."""
        campaign = Campaign(ecosystem)
        path = tmp_path / "reference.jsonl"
        with RunJournal.create(path, campaign.manifest()) as journal:
            ref_reports = reference_journal(ecosystem, stream, journal)
        ref_bytes = path.read_bytes()
        _, events = read_journal(path)
        first = {}
        for (domain, chain), report in zip(stream, ref_reports):
            first.setdefault((domain, chain_key_hex(chain)), report)
        assert [event["report"] for event in events] == list(first.values())
        with VerdictStore(tmp_path / "warm") as warm:
            campaign.analyze(stream, verdict_store=warm)
        for tag, directory in (("none", None), ("fresh", "fresh"),
                               ("warm", "warm")):
            with VerdictStore(tmp_path / directory) if directory \
                    else nullcontext() as verdict_store:
                _, reports, journal_bytes = self.run_journaled(
                    campaign, stream, tmp_path / f"{tag}.jsonl",
                    verdict_store=verdict_store,
                )
            assert journal_bytes == ref_bytes, tag
            assert reports == ref_reports, tag

    def test_crash_resume_is_byte_identical(
        self, ecosystem, stream, tmp_path
    ):
        campaign = Campaign(ecosystem)
        _, seq_reports, seq_bytes = self.run_journaled(
            campaign, stream, tmp_path / "uninterrupted.jsonl",
        )

        path = tmp_path / "crashed.jsonl"
        with RunJournal.create(path, campaign.manifest()) as journal:
            campaign.analyze(stream[:80], journal=journal)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"type":"verdict","domain":"crash.ex')

        with RunJournal.open(path, campaign.manifest()) as journal:
            _, reports = campaign.analyze(stream, journal=journal)
        assert reports == seq_reports
        assert path.read_bytes() == seq_bytes

    def test_rerun_appends_nothing(self, ecosystem, stream, tmp_path):
        campaign = Campaign(ecosystem)
        path = tmp_path / "run.jsonl"
        self.run_journaled(campaign, stream, path)
        before = path.read_bytes()
        with RunJournal.open(path, campaign.manifest()) as journal:
            _, stats = analyze_observations(
                stream, store=ecosystem.registry.union(),
                fetcher=ecosystem.aia_repo, journal=journal,
            )
        assert path.read_bytes() == before
        assert stats.analyzed == 0
        assert stats.resumed == len(stream)

    def test_resume_decodes_through_one_table(self, ecosystem, stream,
                                              tmp_path):
        """The resumed verdicts of one pass decode through one table:
        equal sections are one object, as in the store's replay."""
        campaign = Campaign(ecosystem)
        path = tmp_path / "run.jsonl"
        self.run_journaled(campaign, stream, path)
        with RunJournal.open(path, campaign.manifest()) as journal:
            reports, stats = analyze_observations(
                stream, store=ecosystem.registry.union(),
                fetcher=ecosystem.aia_repo, journal=journal,
            )
        assert stats.resumed == len(stream)
        for name in ("leaf", "order", "completeness"):
            by_text = {}
            for report in reports:
                section = getattr(report, name)
                text = json.dumps(json.loads(report.to_json())[name])
                assert by_text.setdefault(text, section) is section, name


class TestMetrics:
    def totals(self, registry) -> dict[str, float]:
        snapshot = registry.snapshot()
        return {
            name: registry.total(name)
            for name, family in snapshot.items()
            if family["type"] == "counter"
            and name.split(".")[0] == "compliance"
        }

    def test_counters_match_per_observation_analysis(
        self, ecosystem, union, stream, tmp_path
    ):
        """Store hits record their outcome, so the compliance counters
        equal those of analysing every observation."""
        obs.disable()
        with obs.instrumented() as (registry, _):
            for domain, chain in stream:
                analyze_chain(domain, chain, union, ecosystem.aia_repo)
            reference = self.totals(registry)
        with obs.instrumented() as (registry, _), \
                VerdictStore(tmp_path / "vs") as verdict_store:
            _, stats = analyze_observations(
                stream, store=union, fetcher=ecosystem.aia_repo,
                verdict_store=verdict_store,
            )
            pipelined = self.totals(registry)
            analyzed = registry.total("campaign.chains_analyzed")
            hits = registry.total("campaign.cache_hits")
        obs.disable()
        assert pipelined == reference
        assert reference["compliance.chains"] == len(stream)
        assert analyzed == len(stream)
        assert hits == stats.cache_hits > 0


class TestLiveView:
    """The live telemetry plumbing: a ``RunStatus`` behind ``/progress``."""

    def run_with_status(self, ecosystem, union, stream):
        from repro.obs.server import RunStatus

        status = RunStatus()
        with obs.instrumented():
            reports, _ = analyze_observations(
                stream, store=union, fetcher=ecosystem.aia_repo,
                status=status,
            )
        return reports, status

    def test_results_unchanged_by_live_plumbing(
        self, ecosystem, union, stream, sequential_reports
    ):
        reports, _ = self.run_with_status(ecosystem, union, stream)
        assert reports == sequential_reports
        assert aggregate_json(reports) == aggregate_json(sequential_reports)

    def test_status_accounts_every_observation(
        self, ecosystem, union, stream
    ):
        _, status = self.run_with_status(ecosystem, union, stream)
        assert status.snapshot()["done"] == len(stream)
