"""Evidence records: builders, rendering, JSON round-trip."""

import json

import pytest

from repro.ca import malform
from repro.core import analyze_chain
from repro.obs.evidence import (
    Evidence,
    evidence_from_dict,
    render_evidence,
)


@pytest.fixture()
def analyze(store, aia_repo):
    def run(domain, chain):
        return analyze_chain(domain, chain, store, aia_repo)
    return run


class TestRecord:
    def test_round_trips_through_json(self):
        record = Evidence(
            rule_id="R2.duplicate_certificates",
            verdict="violation",
            summary="a certificate appears twice",
            certs=("ab" * 32,),
            edges=((1, 0), (2, 1)),
            details={"occurrences": {"1": [1, 2]}},
        )
        payload = json.loads(json.dumps(record.to_dict()))
        assert evidence_from_dict(payload) == record

    def test_render_cites_rule_certs_and_edges(self):
        record = Evidence(
            rule_id="R2.reversed_sequences",
            verdict="violation",
            summary="issuers precede subjects",
            certs=("ab" * 32,),
            edges=((2, 1),),
            details={"paths": ["1->2->0"]},
        )
        text = record.render()
        assert text.startswith(
            "[R2.reversed_sequences] violation: issuers precede subjects"
        )
        assert "cert abababababababab" in text
        assert "edges 2->1" in text
        assert "paths = ['1->2->0']" in text

    def test_render_evidence_empty_is_explicit(self):
        assert "compliant" in render_evidence(())


class TestCompliantChain:
    def test_only_info_records(self, analyze, chain):
        report = analyze("fixture.example", chain)
        assert report.compliant
        assert all(e.verdict == "info" for e in report.evidence)
        # completeness class is still explained
        assert any(e.rule_id.startswith("R3.") for e in report.evidence)


class TestVerdictClasses:
    """Each Table 5/7 defect class yields a citing record."""

    def test_duplicate(self, analyze, chain):
        report = analyze("fixture.example", malform.duplicate_leaf(chain))
        (record,) = [e for e in report.evidence
                     if e.rule_id == "R2.duplicate_certificates"]
        assert record.verdict == "violation"
        assert record.certs == (chain[0].fingerprint_hex,)
        assert record.details["occurrences"] == {"0": [0, 1]}

    def test_irrelevant(self, analyze, chain):
        from repro.ca import build_hierarchy

        other = build_hierarchy("EvOther", depth=1,
                                key_seed_prefix="ev-other")
        mangled = malform.insert_irrelevant(
            chain, [other.root.certificate]
        )
        report = analyze("fixture.example", mangled)
        (record,) = [e for e in report.evidence
                     if e.rule_id == "R2.irrelevant_certificates"]
        assert record.certs == (other.root.certificate.fingerprint_hex,)
        assert record.details["positions"] == [len(chain)]

    def test_reversed(self, analyze, hierarchy, leaf):
        chain = malform.reverse_intermediates(
            hierarchy.chain_for(leaf, include_root=True)
        )
        report = analyze("fixture.example", chain)
        (record,) = [e for e in report.evidence
                     if e.rule_id == "R2.reversed_sequences"]
        # every cited edge points from a later subject to an earlier
        # issuer position — the definition of a reversal
        assert record.edges
        assert all(parent < child for child, parent in record.edges)
        assert record.certs

    def test_incomplete(self, analyze, chain):
        report = analyze("fixture.example", [chain[0]])
        (record,) = [e for e in report.evidence
                     if e.rule_id == "R3.incomplete"]
        assert record.verdict == "violation"
        assert record.certs == (chain[0].fingerprint_hex,)
        assert record.details["aia_outcome"] == "completed"
        assert record.details["missing_count"] == 2

    def test_misplaced_leaf(self, analyze, chain):
        report = analyze("fixture.example", [chain[1], chain[0], chain[2]])
        records = [e for e in report.evidence
                   if e.rule_id.startswith("R1.")]
        assert records
        assert records[0].verdict == "violation"
        assert records[0].details["deciding_index"] == 1


class TestReportSerialisation:
    def test_report_round_trip_preserves_evidence(self, analyze, chain):
        from repro.core.compliance import ReportTable

        report = analyze("fixture.example",
                         malform.duplicate_leaf([chain[0]]))
        payload = json.loads(report.to_json())
        restored = ReportTable().decode(payload)
        assert restored == report
        assert restored.evidence == report.evidence
