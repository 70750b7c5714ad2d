"""Journaled campaigns: crash, resume, byte-identical final tables."""

import pytest

from repro.errors import JournalError
from repro.measurement import (
    Campaign,
    TableContext,
    render_table_3,
    render_table_5,
    render_table_7,
)
from repro.obs import RunJournal, read_journal
from repro.webpki import Ecosystem, EcosystemConfig


@pytest.fixture(scope="module")
def ecosystem():
    return Ecosystem.generate(EcosystemConfig(n_domains=250, seed=17))


@pytest.fixture(scope="module")
def campaign(ecosystem):
    return Campaign(ecosystem)


def render_all_tables(ecosystem, observations, reports) -> str:
    ctx = TableContext(ecosystem, observations, reports)
    return "\n".join((
        render_table_3(ctx), render_table_5(ctx), render_table_7(ctx)
    ))


class TestManifest:
    def test_manifest_pins_config_seed_and_trust_anchors(self, campaign):
        manifest = campaign.manifest()
        assert manifest["seed"] == 17
        assert manifest["config"]["n_domains"] == 250
        assert len(manifest["root_store_digest"]) == 64

    def test_different_seed_changes_identity(self, campaign):
        other = Campaign(Ecosystem.generate(
            EcosystemConfig(n_domains=250, seed=18)
        ))
        assert (other.manifest()["root_store_digest"]
                != campaign.manifest()["root_store_digest"])


class TestJournaledAnalysis:
    def test_verdicts_are_journaled(self, campaign, tmp_path):
        observations = campaign.ecosystem.observations()[:40]
        with RunJournal.create(tmp_path / "run.jsonl",
                               campaign.manifest()) as journal:
            campaign.analyze(observations, journal=journal)
        _, events = read_journal(tmp_path / "run.jsonl")
        verdicts = [e for e in events if e["type"] == "verdict"]
        assert len(verdicts) == len(observations)
        assert verdicts[0]["chain_key"]
        assert "leaf" in verdicts[0]["report"]

    def test_crash_resume_is_byte_identical(self, campaign, tmp_path):
        """The ISSUE acceptance criterion, end to end."""
        path = tmp_path / "run.jsonl"
        observations = campaign.ecosystem.observations()
        baseline, reports = campaign.analyze(observations)
        expected = render_all_tables(
            campaign.ecosystem, observations, reports
        )

        # a run that dies after 100 chains, mid-way through a write
        with RunJournal.create(path, campaign.manifest()) as journal:
            campaign.analyze(observations[:100], journal=journal)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"type":"verdict","domain":"crash.ex')

        resumed_journal = RunJournal.open(path, campaign.manifest())
        assert resumed_journal.verdict_count == 100
        with resumed_journal:
            report, reports = campaign.analyze(
                observations, journal=resumed_journal
            )
        assert report == baseline
        assert render_all_tables(
            campaign.ecosystem, observations, reports
        ) == expected

    def test_resume_counts_reconstructed_chains(self, campaign, tmp_path):
        from repro import obs

        path = tmp_path / "run.jsonl"
        observations = campaign.ecosystem.observations()[:30]
        with RunJournal.create(path, campaign.manifest()) as journal:
            campaign.analyze(observations[:10], journal=journal)
        with obs.instrumented() as (registry, _):
            with RunJournal.open(path, campaign.manifest()) as journal:
                campaign.analyze(observations, journal=journal)
            assert registry.total("campaign.chains_resumed") == 10
            assert registry.total("campaign.chains_analyzed") == 30
        obs.disable()

    def test_foreign_journal_refused(self, campaign, tmp_path):
        path = tmp_path / "run.jsonl"
        other = Campaign(Ecosystem.generate(
            EcosystemConfig(n_domains=250, seed=18)
        ))
        RunJournal.create(path, other.manifest()).close()
        with pytest.raises(JournalError, match="manifest mismatch"):
            RunJournal.open(path, campaign.manifest())


class TestJournaledCollection:
    def test_scan_events_cover_both_vantages(self, campaign, tmp_path):
        path = tmp_path / "collect.jsonl"
        with RunJournal.create(path, campaign.manifest()) as journal:
            result = campaign.collect(journal=journal)
        _, events = read_journal(path)
        scans = [e for e in events if e["type"] == "scan"]
        vantages = {e["vantage"] for e in scans}
        assert vantages == {"us", "au"}
        assert len(scans) == 2 * len(campaign.ecosystem.deployments)
        (summary,) = [e for e in events if e["type"] == "collection"]
        assert summary["observations"] == result.total_observations

    def test_resumed_collect_does_not_duplicate_events(
        self, campaign, tmp_path
    ):
        path = tmp_path / "collect.jsonl"
        with RunJournal.create(path, campaign.manifest()) as journal:
            campaign.collect(journal=journal)
        _, first = read_journal(path)

        with RunJournal.open(path, campaign.manifest()) as journal:
            campaign.collect(journal=journal)
        _, second = read_journal(path)
        assert second == first
        scans = [e for e in second if e["type"] == "scan"]
        assert len(scans) == len({
            (e["domain"], e["vantage"]) for e in scans
        })
        assert len([e for e in second if e["type"] == "collection"]) == 1

    def test_interrupted_collect_resumes_without_rescan_events(
        self, campaign, tmp_path
    ):
        """Crash mid-collect: already-journaled scans are not re-appended."""
        path = tmp_path / "collect.jsonl"

        class Abort(RuntimeError):
            pass

        class AbortingProgress:
            """Dies after 60 updates, simulating a mid-scan crash."""

            def __init__(self):
                self.updates = 0

            def update(self, *, ok):
                self.updates += 1
                if self.updates >= 60:
                    raise Abort

            def finish(self):
                pass

        journal = RunJournal.create(path, campaign.manifest())
        with pytest.raises(Abort):
            campaign.collect(
                journal=journal,
                progress_factory=lambda vantage, total: AbortingProgress(),
            )
        journal.close()
        _, partial = read_journal(path)
        partial_scans = [e for e in partial if e["type"] == "scan"]
        assert partial_scans

        with RunJournal.open(path, campaign.manifest()) as journal:
            campaign.collect(journal=journal)
        _, events = read_journal(path)
        scans = [e for e in events if e["type"] == "scan"]
        assert len(scans) == 2 * len(campaign.ecosystem.deployments)
        assert len(scans) == len({
            (e["domain"], e["vantage"]) for e in scans
        })
        assert len([e for e in events if e["type"] == "collection"]) == 1

    @pytest.mark.parametrize("entry", ["collect", "run_sharded"])
    def test_progress_factory_sees_every_domain(self, campaign, entry):
        class Recorder:
            def __init__(self, vantage, total):
                self.vantage = vantage
                self.total = total
                self.updates = 0
                self.finished = False

            def update(self, *, ok):
                self.updates += 1

            def finish(self):
                self.finished = True

        recorders = []

        def factory(vantage, total):
            recorder = Recorder(vantage, total)
            recorders.append(recorder)
            return recorder

        if entry == "collect":
            campaign.collect(progress_factory=factory)
            shards = 1
        else:
            # every shard's vantages get their own progress object
            shards = len(campaign.run_sharded(
                100, progress_factory=factory
            ).shards)
            assert shards > 1
        assert [r.vantage for r in recorders] == ["us", "au"] * shards
        assert all(r.updates == r.total for r in recorders)
        assert all(r.finished for r in recorders)
        assert sum(r.total for r in recorders) == (
            2 * len(campaign.ecosystem.deployments)
        )
