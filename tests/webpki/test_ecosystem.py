"""Ecosystem generation: structure, determinism, calibrated shape."""

import pytest

from repro.core import aggregate, analyze_chain
from repro.webpki import Ecosystem, EcosystemConfig, VANTAGE_AU, VANTAGE_US


class TestStructure:
    def test_deployment_count(self, small_ecosystem):
        # n_domains plus the fixed case studies.
        assert len(small_ecosystem.deployments) >= 1_200

    def test_case_studies_present(self, small_ecosystem):
        cases = small_ecosystem.case_studies()
        for name in ("fig3_long_list", "fig4_backtracking",
                     "fig2b_stale_leaves", "fig2d_foreign_chain",
                     "ns3_block_duplicates", "mot_incorrect_leaf"):
            assert name in cases

    def test_fig3_list_exceeds_gnutls_limit(self, small_ecosystem):
        chain = small_ecosystem.case_studies()["fig3_long_list"].chain
        assert len(chain) == 17

    def test_ns3_block_is_29_certs(self, small_ecosystem):
        chain = small_ecosystem.case_studies()["ns3_block_duplicates"].chain
        assert len(chain) == 29

    def test_registry_has_all_programs_populated(self, small_ecosystem):
        for name in ("mozilla", "chrome", "microsoft", "apple"):
            assert len(small_ecosystem.registry.store(name)) > 5

    def test_store_cohorts_differ(self, small_ecosystem):
        mozilla = small_ecosystem.registry.store("mozilla")
        microsoft = small_ecosystem.registry.store("microsoft")
        mozilla_fps = {c.fingerprint for c in mozilla}
        microsoft_fps = {c.fingerprint for c in microsoft}
        assert mozilla_fps != microsoft_fps

    def test_aia_repo_resolves_instance_certs(self, small_ecosystem):
        instance = small_ecosystem.instances[0]
        uri = instance.hierarchy.root.aia_uri
        assert small_ecosystem.aia_repo.fetch(uri) == (
            instance.hierarchy.root.certificate
        )

    def test_legacy_instances_exist(self, small_ecosystem):
        legacy = [i for i in small_ecosystem.instances if i.legacy]
        assert len(legacy) == 2
        for instance in legacy:
            anchor = instance.anchor
            deployed_root = instance.hierarchy.root.certificate
            assert anchor.public_key == deployed_root.public_key
            assert anchor.subject != deployed_root.subject

    def test_deployment_lookup(self, small_ecosystem):
        deployment = small_ecosystem.deployments[0]
        assert small_ecosystem.deployment_by_domain(deployment.domain) is (
            deployment
        )

    def test_unknown_domain_lookup_raises(self, small_ecosystem):
        from repro.errors import EcosystemError

        with pytest.raises(EcosystemError):
            small_ecosystem.deployment_by_domain("not-generated.example")


class TestObservations:
    def test_fully_unreachable_domains_excluded(self, small_ecosystem):
        unreachable = {
            d.domain
            for d in small_ecosystem.deployments
            if d.unreachable_from >= {VANTAGE_US, VANTAGE_AU}
        }
        observed = {domain for domain, _ in small_ecosystem.observations()}
        assert not (unreachable & observed)

    def test_vantage_variants_contribute_extra_chains(self, small_ecosystem):
        observations = small_ecosystem.observations()
        assert len(observations) >= len(
            {domain for domain, _ in observations}
        )


class TestDeterminism:
    def test_same_seed_same_world(self):
        a = Ecosystem.generate(EcosystemConfig(n_domains=120, seed=5))
        b = Ecosystem.generate(EcosystemConfig(n_domains=120, seed=5))
        fps_a = [c.fingerprint for _, chain in a.observations() for c in chain]
        fps_b = [c.fingerprint for _, chain in b.observations() for c in chain]
        assert fps_a == fps_b

    def test_world_keeps_every_fingerprint(self, monkeypatch):
        """Every certificate the 2,000-domain seed-833 world signs, in
        signing order, hashes to the digest recorded before generation
        was last optimised (``baselines/world-fingerprints.json``):
        journals, store segments and reports key on these fingerprints."""
        import hashlib
        import json
        from pathlib import Path

        from repro.x509 import Certificate

        baseline = json.loads(
            (Path(__file__).resolve().parents[2] / "baselines"
             / "world-fingerprints.json").read_text()
        )
        signed = []
        init = Certificate.__init__

        def recording_init(self, *args, **kwargs):
            init(self, *args, **kwargs)
            if self.signature:
                signed.append(self)

        monkeypatch.setattr(Certificate, "__init__", recording_init)
        Ecosystem.generate(EcosystemConfig(n_domains=baseline["domains"],
                                           seed=baseline["seed"]))
        monkeypatch.undo()
        digest = hashlib.sha256()
        for cert in signed:
            digest.update(cert.fingerprint)
        assert len(signed) == baseline["certificates"]
        assert digest.hexdigest() == baseline["sha256"]

    def test_different_seed_different_world(self):
        a = Ecosystem.generate(EcosystemConfig(n_domains=120, seed=5))
        b = Ecosystem.generate(EcosystemConfig(n_domains=120, seed=6))
        assert [d for d, _ in a.observations()] != [
            d for d, _ in b.observations()
        ]


class TestCalibratedShape:
    """The headline paper shapes at small scale (loose tolerances)."""

    @pytest.fixture(scope="class")
    def dataset(self, small_ecosystem):
        union = small_ecosystem.registry.union()
        reports = [
            analyze_chain(d, c, union, small_ecosystem.aia_repo)
            for d, c in small_ecosystem.observations()
        ]
        return aggregate(reports)

    def test_noncompliance_near_three_percent(self, dataset):
        assert 1.0 <= dataset.noncompliance_rate <= 6.5

    def test_omitted_root_dominates_completeness(self, dataset):
        from repro.core import CompletenessClass

        table = dataset.completeness_table()
        without_root = table[CompletenessClass.COMPLETE_WITHOUT_ROOT][1]
        assert without_root > 80.0

    def test_incomplete_is_small_minority(self, dataset):
        from repro.core import CompletenessClass

        share = dataset.completeness_table().get(
            CompletenessClass.INCOMPLETE, (0, 0.0)
        )[1]
        assert share <= 4.0

    def test_leaf_compliance_high(self, dataset):
        from repro.core import LeafPlacement

        table = dataset.leaf_table()
        matched = table.get(LeafPlacement.CORRECTLY_PLACED_MATCHED, (0, 0.0))[1]
        assert matched > 85.0

    def test_network_install_round_trips(self, small_ecosystem):
        from repro.net import Scanner

        network = small_ecosystem.install()
        scanner = Scanner(network, VANTAGE_US)
        deployment = next(
            d for d in small_ecosystem.deployments
            if VANTAGE_US not in d.unreachable_from
        )
        record = scanner.scan_domain(deployment.domain)
        assert record.success
        assert list(record.chain) == deployment.chain
