"""Cross-run diffing: flips, thresholds, exit-code gate semantics."""

import pytest

from repro.measurement import Campaign, analyze_observations
from repro.obs import RunJournal, report_from_journal
from repro.obs.diff import (
    MetricDelta,
    diff_reports,
    parse_threshold,
    render_diff_text,
)
from repro.obs.report import RunReport
from repro.trust import RootStore
from repro.webpki import Ecosystem, EcosystemConfig


@pytest.fixture(scope="module")
def ecosystem():
    return Ecosystem.generate(EcosystemConfig(n_domains=80, seed=833))


def journal_for_store(path, ecosystem, store, fetcher=None):
    """Analyze the ecosystem's observations against ``store`` and
    journal the verdicts under that store's identity."""
    campaign = Campaign(ecosystem)
    manifest = dict(campaign.manifest())
    manifest["root_store_digest"] = store.digest()
    observations = ecosystem.observations()
    reports, _ = analyze_observations(
        observations, store=store,
        fetcher=fetcher if fetcher is not None else ecosystem.aia_repo,
    )
    with RunJournal.create(path, manifest) as journal:
        for (domain, chain), report in zip(observations, reports):
            journal.record_verdict(
                domain, tuple(c.fingerprint_hex for c in chain),
                report.to_json()
            )
    return report_from_journal(path)


@pytest.fixture(scope="module")
def baseline(tmp_path_factory, ecosystem):
    store = ecosystem.registry.union()
    return journal_for_store(
        tmp_path_factory.mktemp("diff") / "baseline.jsonl",
        ecosystem, store,
    )


@pytest.fixture(scope="module")
def altered(tmp_path_factory, ecosystem):
    """The same corpus under an altered root store: most anchors
    dropped, and the dropped CAs' AIA repositories no longer trusted
    sources for repair — chains that completed only through them now
    come out incomplete."""
    from repro.trust import StaticAIARepository

    full = list(ecosystem.registry.union())
    reduced = RootStore("reduced", full[:1])
    return journal_for_store(
        tmp_path_factory.mktemp("diff") / "altered.jsonl",
        ecosystem, reduced, fetcher=StaticAIARepository(),
    )


class TestIdenticalRuns:
    def test_exit_zero_and_no_flips(self, baseline):
        diff = diff_reports(baseline, baseline)
        assert diff.exit_code == 0
        assert diff.identical_verdicts
        assert diff.flips == ()
        assert diff.identity_changes == {}

    def test_render_says_identical(self, baseline):
        text = render_diff_text(diff_reports(baseline, baseline))
        assert "per-domain verdicts identical" in text
        assert "exit 0" in text


class TestAlteredRootStore:
    """The acceptance criterion: an altered root store exits 1 and
    names the flipped domains and the responsible rule IDs."""

    def test_exit_one_with_attributed_flips(self, baseline, altered):
        diff = diff_reports(baseline, altered)
        assert diff.exit_code == 1
        assert diff.flips
        for flip in diff.flips:
            assert flip.domain in baseline.domain_verdicts
            assert flip.rules  # every flip names its rule IDs
        kinds = {f.kind for f in diff.flips}
        assert kinds <= {"flipped", "rules_changed"}
        assert "flipped" in kinds

    def test_identity_delta_names_the_store(self, baseline, altered):
        diff = diff_reports(baseline, altered)
        assert "root_store_digest" in diff.identity_changes
        before, after = diff.identity_changes["root_store_digest"]
        assert before != after

    def test_render_names_domains_and_rules(self, baseline, altered):
        diff = diff_reports(baseline, altered)
        text = render_diff_text(diff)
        flip = diff.flips[0]
        assert flip.domain in text
        assert flip.rules[0] in text
        assert "exit 1" in text

    def test_roundtrip_through_dict(self, baseline, altered):
        payload = diff_reports(baseline, altered).to_dict()
        assert payload["exit_code"] == 1
        assert payload["verdict_flips"]
        first = payload["verdict_flips"][0]
        assert first["rules"]
        assert first["before"] != first["after"] or first["rules"]


def report_with_metrics(totals, **identity):
    return RunReport(identity=dict(identity), metric_totals=dict(totals))


class TestThresholdGates:
    def test_breach_exits_two(self):
        before = report_with_metrics({"scan.success": 100.0})
        after = report_with_metrics({"scan.success": 90.0})
        diff = diff_reports(before, after,
                            thresholds={"scan.success": 5.0})
        assert diff.exit_code == 2
        assert diff.breaches[0].name == "scan.success"
        assert "BREACH" in render_diff_text(diff)

    def test_within_threshold_exits_zero(self):
        before = report_with_metrics({"scan.success": 100.0})
        after = report_with_metrics({"scan.success": 98.0})
        diff = diff_reports(before, after,
                            thresholds={"scan.success": 5.0})
        assert diff.exit_code == 0
        assert diff.metric_deltas  # drift still reported

    def test_fnmatch_patterns_gate_families(self):
        before = report_with_metrics({"compliance.chains": 50.0})
        after = report_with_metrics({"compliance.chains": 60.0})
        diff = diff_reports(before, after,
                            thresholds={"compliance.*": 0.0})
        assert diff.exit_code == 2

    def test_exact_name_beats_pattern(self):
        before = report_with_metrics({"scan.success": 100.0})
        after = report_with_metrics({"scan.success": 150.0})
        diff = diff_reports(
            before, after,
            thresholds={"scan.*": 0.0, "scan.success": 60.0},
        )
        assert diff.exit_code == 0

    def test_breach_dominates_flips(self, baseline, altered):
        before = RunReport(
            identity={}, metric_totals={"scan.success": 100.0},
            domain_verdicts=dict(baseline.domain_verdicts),
        )
        after = RunReport(
            identity={}, metric_totals={"scan.success": 0.0},
            domain_verdicts=dict(altered.domain_verdicts),
        )
        diff = diff_reports(before, after,
                            thresholds={"scan.success": 1.0})
        assert diff.flips and diff.breaches
        assert diff.exit_code == 2

    def test_appearance_against_zero_baseline_is_infinite_drift(self):
        delta = MetricDelta(name="x", before=0.0, after=5.0,
                            threshold_pct=1000.0)
        assert delta.relative_pct == float("inf")
        assert delta.breached


class TestParseThreshold:
    def test_parses_name_and_pct(self):
        assert parse_threshold("scan.success=2.5") == ("scan.success",
                                                      2.5)

    @pytest.mark.parametrize("spec", ["scan.success", "=5",
                                      "scan=x", "scan=-1"])
    def test_rejects_malformed_specs(self, spec):
        with pytest.raises(ValueError):
            parse_threshold(spec)
