"""Whole-chain verdicts and dataset aggregation."""

import pytest

from repro.ca import build_hierarchy, malform
from repro.core import (
    CompletenessClass,
    LeafPlacement,
    OrderDefect,
    aggregate,
    aggregate_by,
    analyze_chain,
)
from repro.trust import RootStore, StaticAIARepository


def reference_dict(report) -> dict:
    """The reference encoding of a report: the JSON-ready dict the
    generic encoder turns into the text ``to_json`` must write (the
    report's own dict spelling before ``to_json`` became its one
    encoder)."""
    return {
        "domain": report.domain,
        "chain_length": report.chain_length,
        "leaf": {
            "placement": report.leaf.placement.value,
            "deciding_index": report.leaf.deciding_index,
            "evidence": [e.to_dict() for e in report.leaf.evidence],
        },
        "order": {
            "defects": sorted(d.value for d in report.order.defects),
            "duplicate_roles": sorted(report.order.duplicate_roles),
            "max_duplicate_count": report.order.max_duplicate_count,
            "irrelevant_count": report.order.irrelevant_count,
            "path_count": report.order.path_count,
            "reversed_any": report.order.reversed_any,
            "reversed_all": report.order.reversed_all,
            "path_structures": list(report.order.path_structures),
            "compliant": report.order.compliant,
            "evidence": [e.to_dict() for e in report.order.evidence],
        },
        "completeness": {
            "category": report.completeness.category.value,
            "missing_count": report.completeness.missing_count,
            "aia_outcome": report.completeness.aia_outcome,
            "evidence": [e.to_dict() for e in report.completeness.evidence],
        },
    }


@pytest.fixture(scope="module")
def world():
    h = build_hierarchy(
        "CompR", depth=2, key_seed_prefix="compr",
        aia_base="http://aia.compr.example",
    )
    leaf = h.issue_leaf("compr.example")
    store = RootStore("compr", [h.root.certificate])
    repo = StaticAIARepository()
    for authority in h.authorities:
        repo.publish(authority.aia_uri, authority.certificate)
    return h, leaf, store, repo


class TestChainReport:
    def test_compliant_chain(self, world):
        h, leaf, store, repo = world
        report = analyze_chain("compr.example", h.chain_for(leaf), store, repo)
        assert report.compliant
        assert report.defect_summary == ()
        assert report.chain_length == 3

    def test_reversed_chain_summary(self, world):
        h, leaf, store, repo = world
        chain = malform.reverse_intermediates(h.chain_for(leaf, include_root=True))
        report = analyze_chain("compr.example", chain, store, repo)
        assert not report.compliant
        assert "order:reversed_sequences" in report.defect_summary

    def test_incomplete_chain_summary(self, world):
        h, leaf, store, repo = world
        report = analyze_chain("compr.example", [leaf], store, repo)
        assert "completeness:incomplete" in report.defect_summary

    def test_misplaced_leaf_summary(self, world):
        h, leaf, store, repo = world
        chain = malform.move_leaf(h.chain_for(leaf, include_root=True), 2)
        report = analyze_chain("compr.example", chain, store, repo)
        assert any(d.startswith("leaf:") for d in report.defect_summary)

    def test_empty_chain_rejected(self, world):
        _h, _leaf, store, repo = world
        with pytest.raises(ValueError):
            analyze_chain("x.example", [], store, repo)


class TestAggregation:
    @pytest.fixture(scope="class")
    def dataset(self, world):
        h, leaf, store, repo = world
        chains = {
            "good-1.example": h.chain_for(leaf),
            "good-2.example": h.chain_for(leaf, include_root=True),
            "reversed.example": malform.reverse_intermediates(
                h.chain_for(leaf, include_root=True)
            ),
            "duplicated.example": malform.duplicate_leaf(h.chain_for(leaf)),
            "incomplete.example": [leaf],
        }
        reports = [
            analyze_chain(domain, chain, store, repo)
            for domain, chain in chains.items()
        ]
        return aggregate(reports), reports

    def test_totals(self, dataset):
        ds, _ = dataset
        assert ds.total == 5
        assert ds.noncompliant == 3
        assert ds.noncompliance_rate == pytest.approx(60.0)

    def test_order_table(self, dataset):
        ds, _ = dataset
        assert ds.order_defects[OrderDefect.REVERSED_SEQUENCES] == 1
        assert ds.order_defects[OrderDefect.DUPLICATE_CERTIFICATES] == 1

    def test_completeness_table(self, dataset):
        ds, _ = dataset
        assert ds.completeness[CompletenessClass.INCOMPLETE] == 1
        assert ds.completeness[CompletenessClass.COMPLETE_WITH_ROOT] == 2

    def test_leaf_table(self, dataset):
        ds, _ = dataset
        # The fixture leaf names compr.example, so every scanned domain
        # sees a hostlike-but-mismatched first certificate.
        mismatched = ds.leaf_placements[
            LeafPlacement.CORRECTLY_PLACED_MISMATCHED]
        assert mismatched == 5
        assert sum(ds.leaf_placements.values()) == 5

    def test_noncompliant_domains_recorded(self, dataset):
        ds, _ = dataset
        assert "reversed.example" in ds.noncompliant_domains
        assert "good-1.example" not in ds.noncompliant_domains

    def test_missing_one_counter(self, dataset):
        ds, _ = dataset
        assert ds.incomplete_total == 1
        assert ds.aia_fixable_incomplete == 1

    def test_aggregate_by_groups(self, dataset):
        _, reports = dataset
        groups = aggregate_by(
            reports, lambda r: "bad" if not r.compliant else "good"
        )
        assert groups["bad"].total == 3
        assert groups["good"].total == 2

    def test_empty_dataset_rates_are_zero(self):
        from repro.core import DatasetReport

        ds = DatasetReport()
        assert ds.noncompliance_rate == 0.0
        assert ds.pct(0) == 0.0


class TestJsonSerialization:
    """``to_json`` is a hand-rolled fast path; it must stay
    byte-identical to the generic compact encoding of the reference
    dict — the journal's byte-parity guarantee depends on it."""

    def compact(self, report) -> str:
        import json

        return json.dumps(reference_dict(report), separators=(",", ":"))

    def test_matches_generic_encoder(self, world):
        h, leaf, store, repo = world
        chains = [
            h.chain_for(leaf),
            h.chain_for(leaf, include_root=True),
            malform.reverse_intermediates(h.chain_for(leaf,
                                                      include_root=True)),
            malform.duplicate_leaf(h.chain_for(leaf)),
            [leaf],
        ]
        for chain in chains:
            report = analyze_chain("compr.example", chain, store, repo)
            assert report.to_json() == self.compact(report)

    def test_exotic_evidence_still_matches(self, world):
        """Evidence the fast path cannot shortcut: escapes, unicode,
        non-string detail values."""
        import dataclasses

        from repro.obs.evidence import Evidence

        h, leaf, store, repo = world
        report = analyze_chain("compr.example", h.chain_for(leaf), store,
                               repo)
        exotic = Evidence(
            rule_id='R"2.weird\\rule',
            verdict="info",
            summary="ünïcode summary with \"quotes\" and \ttabs",
            certs=("aa" * 32, 'odd"cert'),
            edges=((0, 1), (1, 2)),
            details={
                "int": 3,
                "bool": True,
                "none": None,
                "float": 1.5,
                "nested": {"list": [1, "two", None]},
                "escaped": 'va"lue\\',
                'k"ey': "quoted key",
                "ünï": "non-ASCII key",
            },
        )
        order = dataclasses.replace(
            report.order, evidence=report.order.evidence + (exotic,)
        )
        weird = dataclasses.replace(
            report, domain="dömaïn.example", order=order
        )
        assert weird.to_json() == self.compact(weird)
        # a key the generic encoder coerces (here an int) falls back to it
        coerced = dataclasses.replace(exotic, details={7: "int key", "k": 1})
        odd = dataclasses.replace(report, order=dataclasses.replace(
            report.order, evidence=(coerced,)))
        assert odd.to_json() == self.compact(odd)

    def test_ensure_ascii_escapes_match(self, world):
        h, leaf, store, repo = world
        report = analyze_chain("ünïcode.example", h.chain_for(leaf), store,
                               repo)
        assert report.to_json() == self.compact(report)


class TestStoreServedText:
    """A report the verdict store serves reaches the journal as text the
    store assembles from the texts it keeps for its sections; that text
    must be the reference encoding, byte for byte, for every report of
    a cold → warm store pair and for a stored report re-bound to another
    domain, whose leaf the store does not hold."""

    def test_journal_text_matches_the_reference(self, tmp_path):
        import json

        from repro.core.compliance import rebind_for_domain
        from repro.measurement import VerdictStore
        from repro.measurement.parallel import (
            analyze_observations,
            chain_key_hex,
        )
        from repro.obs import RunJournal
        from repro.webpki import Ecosystem, EcosystemConfig

        ecosystem = Ecosystem.generate(EcosystemConfig(n_domains=300,
                                                       seed=833))
        observations = ecosystem.observations()
        union = ecosystem.registry.union()

        def compact(report) -> str:
            return json.dumps(reference_dict(report), separators=(",", ":"))

        def journaled(name):
            """Each verdict's report text in the journal of one pass,
            and the pass's reports."""
            path = tmp_path / name
            with VerdictStore(tmp_path / "vs") as store, \
                    RunJournal.create(path, {"seed": 833}) as journal:
                reports, stats = analyze_observations(
                    observations, store=union, fetcher=ecosystem.aia_repo,
                    verdict_store=store, journal=journal)
            lines = path.read_text().splitlines()[1:]
            return [line[line.index(',"report":') + 10:-1]
                    for line in lines], reports, stats

        cold, cold_reports, cold_stats = journaled("cold.jsonl")
        warm, warm_reports, warm_stats = journaled("warm.jsonl")
        assert cold_stats.cache_hits == 0
        assert warm_stats.cache_hits == len(observations)
        assert warm == cold
        seen, expected = set(), []
        for (domain, chain), report in zip(observations, warm_reports):
            if (domain, chain_key_hex(chain)) not in seen:
                seen.add((domain, chain_key_hex(chain)))
                expected.append(compact(report))
        assert warm == expected
        assert len(warm) == len(cold_reports) > 250

        domain, chain = observations[0]
        with VerdictStore(tmp_path / "vs") as store:
            stored = store.get_report(chain_key_hex(chain), union.digest())
            rebound = rebind_for_domain(stored, "elsewhere.example", chain)
            assert rebound.leaf is not stored.leaf
            assert store.report_json(stored) == compact(stored)
            assert store.report_json(rebound) == compact(rebound)
            assert json.loads(store.report_json(rebound))["domain"] == (
                "elsewhere.example")
