"""End-to-end measurement campaigns over the simulated network."""

import pytest

from repro.measurement import Campaign
from repro.webpki import Ecosystem, EcosystemConfig, VANTAGE_AU, VANTAGE_US


@pytest.fixture(scope="module")
def campaign():
    ecosystem = Ecosystem.generate(EcosystemConfig(n_domains=400, seed=21))
    return Campaign(ecosystem)


class TestCollection:
    def test_collect_reaches_most_domains(self, campaign):
        result = campaign.collect()
        population = len(campaign.ecosystem.deployments)
        for vantage in (VANTAGE_US, VANTAGE_AU):
            assert result.reachable_counts[vantage] >= 0.9 * population
        assert result.total_observations >= 0.9 * population

    def test_union_includes_vantage_disagreements(self, campaign):
        result = campaign.collect()
        variant_domains = {
            d.domain for d in campaign.ecosystem.deployments
            if d.alt_vantage_chain is not None
            and not d.unreachable_from
        }
        observed = [domain for domain, _ in result.observations]
        for domain in variant_domains:
            assert observed.count(domain) == 2

    def test_unique_counts_consistent(self, campaign):
        result = campaign.collect()
        assert 0 < result.unique_chains <= result.total_observations
        assert result.unique_certificates > 0

    def test_tls_version_comparison_high(self, campaign):
        identical = campaign.compare_tls_versions(sample=200)
        assert identical >= 95.0  # paper: 98.8%

    def test_vantages_share_decoded_chains(self, campaign, monkeypatch):
        """Each collect decodes every distinct served certificate once,
        not once per vantage or per chain that carries it, and the
        result equals an unshared sweep's."""
        from repro.net import Scanner, TLS12
        from repro.x509 import encoding

        network = campaign.ecosystem.install()
        domains = [d.domain for d in campaign.ecosystem.deployments]
        unshared = {
            vantage: Scanner(network, vantage).scan(domains,
                                                    versions=(TLS12,))
            for vantage in (VANTAGE_US, VANTAGE_AU)
        }
        decodes = []
        decode = encoding.certificate_from_dict

        def counting(obj):
            decodes.append(obj)
            return decode(obj)

        monkeypatch.setattr(encoding, "certificate_from_dict", counting)
        result = Campaign(campaign.ecosystem,
                          network=campaign.ecosystem.install()).collect()
        assert len(decodes) == result.unique_certificates
        for vantage, records in unshared.items():
            assert [(r.domain, r.chain_key) for r in records] == [
                (r.domain, r.chain_key) for r in result.per_vantage[vantage]
            ]


class TestUnionAccounting:
    """Two domains serving the identical chain are two *observations*
    but one unique *chain*.  ``unique_chains`` used to be keyed by
    (domain, chain_key), silently restating the observation count."""

    @pytest.fixture()
    def cloned_campaign(self):
        import dataclasses

        ecosystem = Ecosystem.generate(
            EcosystemConfig(n_domains=40, seed=21)
        )
        donor = next(
            d for d in ecosystem.deployments if not d.unreachable_from
        )
        clone = dataclasses.replace(
            donor,
            domain="clone-of-" + donor.domain,
            rank=len(ecosystem.deployments) + 1,
            case_study=None,
        )
        ecosystem.deployments.append(clone)
        return Campaign(ecosystem, network=ecosystem.install())

    def test_unique_chains_counts_distinct_chains(
        self, cloned_campaign, tmp_path
    ):
        from repro.obs import RunJournal
        from repro.obs.journal import read_journal
        from repro.obs.report import build_report, render_report_text

        path = tmp_path / "run.jsonl"
        with RunJournal.open(path, cloned_campaign.manifest()) as journal:
            result = cloned_campaign.collect(journal=journal)

        distinct_chains = {
            record.chain_key
            for records in result.per_vantage.values()
            for record in records
            if record.success and record.chain
        }
        assert result.unique_chains == len(distinct_chains)
        # the clone duplicates its donor's chain: strictly fewer
        # unique chains than union observations
        assert result.unique_chains < result.total_observations

        manifest, events = read_journal(path)
        collection = next(e for e in events if e["type"] == "collection")
        assert collection["unique_chains"] == result.unique_chains
        assert collection["observations"] == result.total_observations
        assert collection["unique_chains"] < collection["observations"]

        rendered = render_report_text(build_report(manifest, events))
        assert f"{result.unique_chains:,}" in rendered
        assert f"{result.total_observations:,}" in rendered


class TestMalformedChain:
    def test_collect_journals_an_undecodable_chain(self, tmp_path):
        """A host serving a chain that does not decode fails its scans;
        the collection completes and journals them."""
        from repro.net import CertificateMessage, ServerFlight, ServerHello
        from repro.net import TLS12
        from repro.obs import RunJournal
        from repro.obs.journal import read_journal

        ecosystem = Ecosystem.generate(EcosystemConfig(n_domains=40, seed=21))
        network = ecosystem.install()
        mangled = next(d.domain for d in ecosystem.deployments
                       if not d.unreachable_from)
        bad_pem = ("-----BEGIN CERTIFICATE-----\nnot base64!!\n"
                   "-----END CERTIFICATE-----\n")
        network.hosts[mangled].handlers[443] = (
            lambda payload: ServerFlight(ServerHello(TLS12),
                                         CertificateMessage(bad_pem))
        )
        campaign = Campaign(ecosystem, network=network)
        path = tmp_path / "run.jsonl"
        with RunJournal.open(path, campaign.manifest()) as journal:
            result = campaign.collect(journal=journal)

        assert mangled not in {domain for domain, _ in result.observations}
        assert result.total_observations > 30
        _, events = read_journal(path)
        scans = [e for e in events
                 if e["type"] == "scan" and e["domain"] == mangled]
        assert sorted(e["vantage"] for e in scans) == sorted(
            (VANTAGE_US, VANTAGE_AU)
        )
        for scan in scans:
            assert not scan["success"]
            assert scan["error"] == "malformed_chain"
            assert scan["attempts"] == 1
        assert sum(e["type"] == "collection" for e in events) == 1


class TestAnalysis:
    def test_analyze_scanned_matches_ground_truth(self, campaign):
        scanned, _ = campaign.analyze(campaign.collect().observations)
        truth, _ = campaign.analyze()
        # Scanning loses only the unreachable minority; headline rates
        # must agree within a couple of points.
        assert scanned.noncompliance_rate == pytest.approx(
            truth.noncompliance_rate, abs=2.5
        )

    def test_reports_returned_per_observation(self, campaign):
        observations = campaign.ecosystem.observations()[:50]
        report, reports = campaign.analyze(observations)
        assert report.total == len(reports) == 50

    def test_run_default_campaign_smoke(self):
        campaign = Campaign(Ecosystem.generate(
            EcosystemConfig(n_domains=150, seed=33)
        ))
        report, _ = campaign.analyze()
        assert report.total >= 140
        assert 0 <= report.noncompliance_rate <= 100


class TestFlakyCollection:
    def test_retries_recover_coverage(self):
        """A flaky population scanned with retries reaches near-full
        coverage; without retries it visibly drops."""
        from repro.net import RetryPolicy, Scanner
        from repro.webpki import Ecosystem, EcosystemConfig

        ecosystem = Ecosystem.generate(
            EcosystemConfig(n_domains=200, seed=31)
        )
        network = ecosystem.install()
        domains = [d.domain for d in ecosystem.deployments
                   if not d.unreachable_from][:150]
        for domain in domains:
            network.make_flaky(domain, 0.35)

        impatient = Scanner(network, "us")
        flaky_hits = sum(
            r.success for r in impatient.scan(domains)
        )
        patient = Scanner(network, "us", retry_policy=RetryPolicy(
            retries=5, base_delay=1.0, multiplier=1.0, jitter=0.0,
        ))
        patient_hits = sum(
            r.success for r in patient.scan(domains)
        )
        assert patient_hits > flaky_hits
        assert patient_hits >= 0.97 * len(domains)
