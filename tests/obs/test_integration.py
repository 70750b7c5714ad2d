"""End-to-end: a small instrumented campaign populates the registry.

This is the contract the CLI's ``--metrics-out`` relies on: after
``collect()`` + ``analyze()``, the registry mirrors the pipeline's own
bookkeeping (reachable counts, observation counts, compliance
breakdowns) without the pipeline having been written against any
particular registry instance.
"""

import json

import pytest

from repro import obs
from repro.chainbuilder import CHROME, FIREFOX, ChainBuilder
from repro.measurement import Campaign
from repro.net.scanner import ScanErrorKind
from repro.trust.cache import IntermediateCache
from repro.webpki import Ecosystem, EcosystemConfig


@pytest.fixture(scope="module")
def ecosystem():
    return Ecosystem.generate(EcosystemConfig(n_domains=80, seed=21))


@pytest.fixture(scope="module")
def instrumented_campaign(ecosystem):
    """One instrumented collect+analyze; tests read the recorded data.

    The ``obs.instrumented`` context is closed before yielding so the
    per-test autouse reset cannot interleave with a live registry.
    """
    with obs.instrumented() as (registry, tracer):
        campaign = Campaign(ecosystem)
        collection = campaign.collect()
        report, chain_reports = campaign.analyze(collection.observations)
    return registry, tracer, collection, report, chain_reports


class TestCampaignCounters:
    def test_scan_counters_match_collection(self, instrumented_campaign):
        registry, _tracer, collection, _report, _ = instrumented_campaign
        for vantage, records in collection.per_vantage.items():
            attempted = registry.value("scan.attempts", vantage=vantage)
            succeeded = registry.value("scan.success", vantage=vantage)
            assert attempted == len(records)
            assert succeeded == collection.reachable_counts[vantage]
            failures = sum(
                series.value
                for series in registry.series("scan.failure")
                if dict(series.labels).get("vantage") == vantage
            )
            assert attempted == succeeded + failures

    def test_failure_labels_use_error_kinds(self, instrumented_campaign):
        registry, *_ = instrumented_campaign
        kinds = {
            dict(series.labels)["kind"]
            for series in registry.series("scan.failure")
        }
        assert kinds <= {str(k) for k in ScanErrorKind}

    def test_throughput_and_compliance_counters(self, instrumented_campaign):
        registry, _tracer, collection, report, chain_reports = (
            instrumented_campaign
        )
        total = len(collection.observations)
        assert registry.total("campaign.chains_analyzed") == total
        assert registry.total("compliance.chains") == total
        assert registry.value(
            "compliance.verdict", verdict="noncompliant"
        ) == report.noncompliant
        assert registry.total("compliance.verdict") == report.total
        noncompliant_order = sum(
            1 for r in chain_reports if not r.order.compliant
        )
        assert registry.value(
            "compliance.order", status="noncompliant"
        ) == noncompliant_order

    def test_wire_bytes_histogram_populated(self, instrumented_campaign):
        registry, _tracer, collection, *_ = instrumented_campaign
        # one labeled series per vantage; totals aggregate across them
        series = [s for s in registry.series("scan.wire_bytes") if s.labels]
        assert {dict(s.labels)["vantage"] for s in series} == set(
            collection.per_vantage
        )
        successes = sum(collection.reachable_counts.values())
        assert sum(s.count for s in series) == successes
        assert sum(s.sum for s in series) == sum(
            record.wire_bytes
            for records in collection.per_vantage.values()
            for record in records
        )

    def test_aia_fetch_counters(self, instrumented_campaign):
        registry, *_ = instrumented_campaign
        attempts = registry.total("aia.fetch.attempts")
        assert attempts == (
            registry.total("aia.fetch.success")
            + registry.total("aia.fetch.failure")
        )


class TestCampaignSpans:
    def test_phase_span_tree(self, instrumented_campaign):
        _registry, tracer, collection, *_ = instrumented_campaign
        roots = [r.name for r in tracer.roots()]
        assert "collect" in roots
        assert "analyze" in roots
        collect = next(r for r in tracer.roots() if r.name == "collect")
        child_names = [c.name for c in collect.children]
        assert child_names.count("campaign.scan") == len(
            collection.per_vantage
        )
        assert "campaign.union_merge" in child_names
        scan = next(c for c in collect.children if c.name == "campaign.scan")
        assert all(g.name == "scan.handshake" for g in scan.children)
        assert scan.children  # per-domain spans nest under the phase

    def test_chrome_export_is_valid(self, instrumented_campaign):
        _registry, tracer, *_ = instrumented_campaign
        events = json.loads(tracer.to_json())
        assert events
        assert all(
            event["ph"] == "X"
            and {"name", "ts", "dur", "pid", "tid"} <= set(event)
            for event in events
        )


class TestChainBuilderMetrics:
    def test_build_counters_and_pool_histogram(self, ecosystem):
        observation = ecosystem.observations()[0]
        with obs.instrumented() as (registry, _tracer):
            builder = ChainBuilder(
                CHROME, ecosystem.registry.store("chrome"),
                aia_fetcher=ecosystem.aia_repo,
            )
            builder.build(observation[1], at_time=ecosystem.config.now)
            assert registry.total("chainbuilder.builds") == 1
            assert registry.histogram(
                "chainbuilder.candidate_pool_size"
            ).count > 0
            assert registry.total("chainbuilder.paths_explored") >= 1

    def test_intermediate_cache_hit_miss_counters(self, ecosystem):
        domain, chain = ecosystem.observations()[0]
        with obs.instrumented() as (registry, _tracer):
            cache = IntermediateCache()
            cache.observe_chain(chain)
            builder = ChainBuilder(
                FIREFOX, ecosystem.registry.store("mozilla"), cache=cache,
            )
            builder.build(chain[:1], at_time=ecosystem.config.now)
            assert (
                registry.total("cache.hits") + registry.total("cache.misses")
                == cache.hits + cache.misses
            )
            assert registry.total("cache.hits") + registry.total(
                "cache.misses"
            ) > 0


class TestScanErrorKind:
    def test_string_backward_compatibility(self):
        assert ScanErrorKind.UNREACHABLE == "unreachable"
        assert ScanErrorKind.HANDSHAKE_FAILED == "handshake_failed"
        assert isinstance(ScanErrorKind.UNREACHABLE, str)
        assert {"unreachable"} == {ScanErrorKind.UNREACHABLE}

    def test_failed_records_carry_kinds(self, ecosystem):
        campaign = Campaign(ecosystem)
        collection = campaign.collect()
        failed = [
            record
            for records in collection.per_vantage.values()
            for record in records
            if not record.success
        ]
        assert failed, "expected some unreachable domains in the ecosystem"
        assert all(isinstance(r.error, ScanErrorKind) for r in failed)
        assert all(r.error == str(r.error) for r in failed)


class TestDisabledByDefault:
    def test_campaign_runs_clean_without_instrumentation(self, ecosystem):
        campaign = Campaign(ecosystem)
        report, _ = campaign.analyze()
        assert report.total > 0
        assert obs.get_metrics().snapshot() == {}
        assert obs.get_tracer().roots() == []
