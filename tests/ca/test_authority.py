"""CertificateAuthority: roots, issuance, cross-signing, AIA wiring."""

import pytest

from repro.ca import CertificateAuthority, next_serial
from repro.core import issued
from repro.errors import IssuanceError
from repro.x509 import Name, Validity, utc

VALIDITY = Validity(utc(2020, 1, 1), utc(2035, 1, 1))


def _root(org="AuthTest", **kwargs):
    return CertificateAuthority(
        Name.build(organization=org, common_name=f"{org} Root"),
        validity=VALIDITY,
        key_seed=f"authtest/{org}".encode(),
        **kwargs,
    )


class TestRoot:
    def test_generated_root_is_self_signed(self):
        root = _root()
        assert root.is_root
        assert root.certificate.is_self_signed

    def test_root_requires_validity(self):
        with pytest.raises(IssuanceError):
            CertificateAuthority(Name.build(common_name="x"))

    def test_root_has_skid_and_ca_usage(self):
        cert = _root().certificate
        assert cert.subject_key_id == cert.public_key.key_id
        assert cert.is_ca
        assert cert.extensions.key_usage.key_cert_sign

    def test_aia_uri_derives_from_cn(self):
        root = _root("Slug Org", aia_base="http://aia.test")
        assert root.aia_uri == "http://aia.test/slug-org-root.crt"

    def test_no_aia_base_means_no_uri(self):
        assert _root().aia_uri is None


class TestIntermediateIssuance:
    def test_issuance_relation_holds(self):
        root = _root("RelOrg")
        child = root.issue_intermediate(Name.build(common_name="Rel Int"))
        assert issued(root.certificate, child.certificate)

    def test_intermediate_is_not_root(self):
        root = _root("NotRoot")
        child = root.issue_intermediate(Name.build(common_name="NR Int"))
        assert not child.is_root

    def test_akid_matches_parent_key(self):
        root = _root("AkidOrg")
        child = root.issue_intermediate(Name.build(common_name="Akid Int"))
        assert (
            child.certificate.authority_key_id
            == root.keypair.public_key.key_id
        )

    def test_akid_omittable(self):
        root = _root("NoAkid")
        child = root.issue_intermediate(
            Name.build(common_name="NA Int"), include_akid=False
        )
        assert child.certificate.authority_key_id is None

    def test_path_length_constraint_applied(self):
        root = _root("PathLen")
        child = root.issue_intermediate(
            Name.build(common_name="PL Int"), path_length=0
        )
        assert child.certificate.path_length_constraint == 0

    def test_aia_base_propagates(self):
        root = _root("Prop", aia_base="http://aia.prop")
        child = root.issue_intermediate(Name.build(common_name="Prop Int"))
        assert child.aia_uri.startswith("http://aia.prop/")
        assert child.certificate.aia_ca_issuer_uris == (root.aia_uri,)

    def test_validity_clamped_to_ca_expiry(self):
        root = _root("Clamp")
        child = root.issue_intermediate(
            Name.build(common_name="Clamp Int"),
            not_before=utc(2034, 1, 1),
            days=3650,
        )
        assert child.certificate.validity.not_after == VALIDITY.not_after


class TestLeafIssuance:
    def test_leaf_matches_domain(self):
        root = _root("LeafOrg")
        leaf = root.issue_leaf("leafy.example")
        assert leaf.matches_domain("leafy.example")
        assert not leaf.is_ca

    def test_leaf_custom_common_name(self):
        root = _root("CNOrg")
        leaf = root.issue_leaf("x.example", common_name="Custom CN")
        assert leaf.subject.common_name == "Custom CN"
        assert leaf.matches_domain("x.example")  # via SAN

    def test_leaf_san_override(self):
        root = _root("SanOrg")
        leaf = root.issue_leaf("a.example", san_domains=("b.example",))
        assert leaf.matches_domain("b.example")
        assert not leaf.matches_domain("a.example")

    def test_leaf_aia_uri_override(self):
        root = _root("OverrideOrg", aia_base="http://aia.default")
        leaf = root.issue_leaf("o.example", aia_uri="http://aia.custom/x.crt")
        assert leaf.aia_ca_issuer_uris == ("http://aia.custom/x.crt",)

    def test_leaf_without_aia(self):
        root = _root("NoAia", aia_base="http://aia.noaia")
        leaf = root.issue_leaf("n.example", include_aia=False)
        assert leaf.aia_ca_issuer_uris == ()

    def test_leaf_without_skid(self):
        root = _root("NoSkid")
        leaf = root.issue_leaf("ns.example", include_skid=False)
        assert leaf.subject_key_id is None


class TestCrossSign:
    def test_cross_sign_same_subject_and_key(self):
        primary = _root("PrimaryX")
        legacy = _root("LegacyX")
        cross = legacy.cross_sign(primary)
        assert cross.subject == primary.certificate.subject
        assert cross.public_key == primary.certificate.public_key
        assert cross.issuer == legacy.certificate.subject
        assert not cross.is_self_signed

    def test_cross_sign_verifies_under_signer(self):
        primary, legacy = _root("PX2"), _root("LX2")
        cross = legacy.cross_sign(primary)
        assert cross.verify_signature(legacy.keypair.public_key)
        assert issued(legacy.certificate, cross)


def test_serials_are_unique():
    serials = {next_serial() for _ in range(1000)}
    assert len(serials) == 1000


class TestIssueLeafParity:
    """``issue_leaf`` signs from per-CA encoded extensions instead of
    running the builder; every leaf must still be the certificate the
    builder signs from the same fields, down to its TBS bytes and
    fingerprint."""

    LEAF_VALIDITY = Validity(utc(2024, 1, 1), utc(2024, 4, 1))

    @staticmethod
    def _built_like_issue_leaf(ca, domain, serial, *, san_domains,
                               common_name, include_akid, include_skid,
                               include_aia, aia_uri):
        from repro.x509 import (
            CertificateBuilder,
            ExtendedKeyUsage,
            KeyUsage,
            generate_keypair,
        )

        key = generate_keypair("simulated", seed=b"parity/leaf")
        builder = (
            CertificateBuilder()
            .subject_name(Name.build(common_name=common_name or domain))
            .issuer_name(ca.name)
            .serial_number(serial)
            .validity(TestIssueLeafParity.LEAF_VALIDITY)
            .public_key(key.public_key)
            .end_entity()
            .san_domains(*(san_domains or (domain,)))
            .key_usage(KeyUsage.for_tls_server())
            .extended_key_usage(ExtendedKeyUsage.server_auth())
        )
        if include_skid:
            builder.skid_from_key()
        if include_akid:
            builder.akid(ca.keypair.public_key.key_id)
        if aia_uri is not None:
            builder.aia_ca_issuers(aia_uri)
        elif include_aia and ca.aia_base is not None:
            slug = ca.name.common_name.lower().replace(" ", "-")
            builder.aia_ca_issuers(f"{ca.aia_base}/{slug}.crt")
        return builder.sign(ca.keypair)

    @pytest.mark.parametrize("aia_base", [None, "http://aia.parity.example"])
    @pytest.mark.parametrize("include_skid", [True, False])
    @pytest.mark.parametrize("include_akid", [True, False])
    @pytest.mark.parametrize("include_aia", [True, False])
    @pytest.mark.parametrize("aia_uri", [None, "http://dead.example/x.crt"])
    @pytest.mark.parametrize("san_domains", [None, ("a.example", "b.example")])
    @pytest.mark.parametrize("common_name", [None, "Parity Appliance"])
    def test_issue_leaf_equals_the_builder(self, aia_base, include_skid,
                                           include_akid, include_aia,
                                           aia_uri, san_domains,
                                           common_name):
        from repro.x509 import from_pem

        ca = _root("Parity Org", aia_base=aia_base)
        options = dict(san_domains=san_domains, common_name=common_name,
                       include_akid=include_akid,
                       include_skid=include_skid, include_aia=include_aia,
                       aia_uri=aia_uri)
        leaf = ca.issue_leaf("parity.example", validity=self.LEAF_VALIDITY,
                             key_seed=b"parity/leaf", **options)
        expected = self._built_like_issue_leaf(
            ca, "parity.example", leaf.serial_number, **options)
        for field in ("subject", "issuer", "serial_number", "validity",
                      "public_key", "signature_algorithm", "signature",
                      "version"):
            assert getattr(leaf, field) == getattr(expected, field), field
        assert list(leaf.extensions) == list(expected.extensions)
        assert leaf.tbs_bytes == expected.tbs_bytes
        assert leaf.fingerprint == expected.fingerprint
        assert leaf.pem == expected.pem
        assert from_pem(leaf.pem).tbs_bytes == leaf.tbs_bytes
