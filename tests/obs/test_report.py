"""Run reports: journal aggregation, rendering, and determinism."""

import json
from pathlib import Path

import pytest

from repro import obs
from repro.errors import PayloadError
from repro.measurement import Campaign
from repro.obs import RunJournal, read_journal
from repro.obs.report import (
    REPORT_VERSION,
    RunReport,
    build_report,
    render_report_html,
    render_report_markdown,
    render_report_text,
    report_from_journal,
)
from repro.webpki import Ecosystem, EcosystemConfig

GOLDEN = Path(__file__).parent / "golden" / "report.txt"


def journaled_run(path, *, n_domains=60, seed=833):
    """One full simulated campaign (collect + analyze) into a journal."""
    ecosystem = Ecosystem.generate(
        EcosystemConfig(n_domains=n_domains, seed=seed)
    )
    campaign = Campaign(ecosystem)
    with RunJournal.create(path, campaign.manifest()) as journal:
        collection = campaign.collect(journal=journal)
        campaign.analyze(collection.observations, journal=journal)
    return read_journal(path)


@pytest.fixture(scope="module")
def run(tmp_path_factory):
    """(manifest, events, metrics snapshot) of one instrumented run."""
    path = tmp_path_factory.mktemp("report") / "run.jsonl"
    with obs.instrumented() as (registry, _):
        obs.catalogue.preregister(registry)
        manifest, events = journaled_run(path)
        snapshot = registry.snapshot()
    return manifest, events, snapshot


@pytest.fixture(scope="module")
def report(run):
    manifest, events, _ = run
    return build_report(manifest, events)


class TestBuildReport:
    def test_counts_match_journal(self, run, report):
        _, events, _ = run
        verdicts = [e for e in events if e["type"] == "verdict"]
        scans = [e for e in events if e["type"] == "scan"]
        assert report.verdict_total == len(verdicts)
        assert sum(v.attempted for v in report.vantages) == len(scans)
        assert report.verdict_compliant <= report.verdict_total
        assert 0.0 <= report.noncompliance_pct <= 100.0

    def test_collection_summary_propagated(self, run, report):
        _, events, _ = run
        summary = next(e for e in events if e["type"] == "collection")
        assert report.domains == summary["domains"]
        assert report.observations == summary["observations"]
        assert report.unique_chains == summary["unique_chains"]
        assert not report.degraded

    def test_vantage_reachability(self, report):
        assert {v.vantage for v in report.vantages} == {"us", "au"}
        for vantage in report.vantages:
            assert 0 < vantage.reached <= vantage.attempted
            assert vantage.wire_bytes > 0
            assert vantage.degraded_reason is None

    def test_rule_breakdown_has_taxonomy_ids(self, report):
        rule_ids = {r.rule_id for r in report.rules}
        assert any(r.startswith("R3.") for r in rule_ids)
        for rule in report.rules:
            assert rule.verdict in ("violation", "info")
            assert 0 < rule.domains <= rule.evidence

    def test_domain_verdicts_partition_matches_totals(self, report):
        compliant_domains = sum(
            1 for dv in report.domain_verdicts.values() if dv.compliant
        )
        # Per-domain verdicts AND the chain-level counters agree when
        # every domain serves one chain; with multi-chain domains the
        # domain view can only be stricter.
        assert compliant_domains <= report.verdict_compliant
        for dv in report.domain_verdicts.values():
            if dv.compliant:
                assert not dv.rules

    def test_noncompliant_domains_name_their_rules(self, report):
        noncompliant = [dv for dv in report.domain_verdicts.values()
                        if not dv.compliant]
        assert noncompliant
        for dv in noncompliant:
            assert dv.rules  # every violation is attributed

    def test_slowest_scans_sorted_descending(self, report):
        assert report.slowest
        seconds = [s.seconds for s in report.slowest]
        assert seconds == sorted(seconds, reverse=True)
        assert len(report.slowest) <= 10

    def test_top_slowest_is_configurable(self, run):
        manifest, events, _ = run
        tiny = build_report(manifest, events, top_slowest=3)
        assert len(tiny.slowest) == 3

    def test_identity_comes_from_manifest(self, run, report):
        manifest, _, _ = run
        assert report.identity["seed"] == manifest["seed"]
        assert (report.identity["root_store_digest"]
                == manifest["root_store_digest"])

    def test_metrics_snapshot_adds_phases_and_totals(self, run):
        manifest, events, snapshot = run
        enriched = build_report(manifest, events, metrics=snapshot)
        phases = {p.phase for p in enriched.phases}
        assert "collect" in phases
        assert "analyze" in phases
        for phase in enriched.phases:
            assert phase.count > 0
            assert phase.wall_seconds >= 0.0
        assert enriched.metric_totals
        assert enriched.metric_totals.get("scan.success", 0) > 0

    def test_rollups_need_metrics(self, run, report):
        manifest, events, snapshot = run
        assert report.rollups() == {}
        enriched = build_report(manifest, events, metrics=snapshot)
        assert "verdict_cache_hit_rate_pct" in enriched.rollups()


class TestRoundtrip:
    def test_to_dict_from_dict_lossless(self, run):
        manifest, events, snapshot = run
        original = build_report(manifest, events, metrics=snapshot)
        restored = RunReport.from_dict(
            json.loads(original.to_json())
        )
        assert restored.to_dict() == original.to_dict()
        assert restored.domain_verdicts == original.domain_verdicts
        assert restored.phases == original.phases

    def test_version_is_stamped_and_checked(self, report):
        payload = report.to_dict()
        assert payload["report_version"] == REPORT_VERSION
        payload["report_version"] = REPORT_VERSION + 1
        with pytest.raises(PayloadError, match="unsupported report"):
            RunReport.from_dict(payload)


class TestRendering:
    def test_text_sections(self, report):
        text = render_report_text(report)
        for section in ("Run identity", "Collection",
                        "Vantage reachability", "Verdicts",
                        "Rule breakdown", "Slowest scans"):
            assert section in text

    def test_text_omits_metric_sections_without_snapshot(self, report):
        text = render_report_text(report)
        assert "Phase resources" not in text
        assert "rollups" not in text

    def test_markdown_is_tabular(self, report):
        markdown = render_report_markdown(report)
        assert markdown.startswith("# Run report")
        assert "| rule | kind | domains | evidence |" in markdown

    def test_html_is_self_contained_and_escaped(self, run):
        manifest, events, _ = run
        enriched = build_report(manifest, events)
        enriched.identity["config"] = "<script>alert(1)</script>"
        html = render_report_html(enriched)
        assert html.startswith("<!DOCTYPE html>")
        assert "<style>" in html
        assert "<script>alert(1)</script>" not in html
        assert "&lt;script&gt;" in html
        assert "http://" not in html and "https://" not in html


class TestDeterminism:
    def test_console_output_byte_stable_across_identical_runs(
        self, tmp_path
    ):
        """Golden-file criterion: two identical seeded runs render the
        exact same bytes, and those bytes are the committed golden."""
        renders = []
        for name in ("first", "second"):
            manifest, events = journaled_run(tmp_path / f"{name}.jsonl")
            renders.append(render_report_text(
                build_report(manifest, events)
            ))
        assert renders[0] == renders[1]
        assert renders[0] == GOLDEN.read_text(encoding="utf-8")

    def test_report_from_journal_equals_build_report(self, tmp_path):
        path = tmp_path / "run.jsonl"
        manifest, events = journaled_run(path, n_domains=30, seed=7)
        direct = build_report(manifest, events)
        loaded = report_from_journal(path)
        assert loaded.to_dict() == direct.to_dict()
