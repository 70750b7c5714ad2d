"""Extension models: SAN matching, name-form classification, constraints."""

import pytest

from repro.errors import ExtensionError
from repro.x509 import (
    AuthorityInformationAccess,
    AuthorityKeyIdentifier,
    BasicConstraints,
    ExtendedKeyUsage,
    ExtensionOID,
    ExtensionSet,
    GeneralName,
    KeyUsage,
    OpaqueExtension,
    SubjectAlternativeName,
    SubjectKeyIdentifier,
    classify_name_form,
)
from repro.x509.oid import lookup


class TestGeneralNameMatching:
    def test_exact_dns_match(self):
        assert GeneralName("dns", "example.com").matches_domain("example.com")

    def test_case_insensitive(self):
        assert GeneralName("dns", "Example.COM").matches_domain("example.com")

    def test_trailing_dot_ignored(self):
        assert GeneralName("dns", "example.com.").matches_domain("example.com")

    def test_wildcard_matches_single_label(self):
        name = GeneralName("dns", "*.example.com")
        assert name.matches_domain("www.example.com")
        assert not name.matches_domain("a.b.example.com")

    def test_wildcard_does_not_match_apex(self):
        assert not GeneralName("dns", "*.example.com").matches_domain("example.com")

    def test_ip_matches_exactly(self):
        assert GeneralName("ip", "192.0.2.1").matches_domain("192.0.2.1")
        assert not GeneralName("ip", "192.0.2.1").matches_domain("192.0.2.2")

    def test_other_kind_never_matches(self):
        assert not GeneralName("other", "x").matches_domain("x")


class TestClassifyNameForm:
    @pytest.mark.parametrize("value", [
        "example.com", "www.example.co.uk", "*.example.com", "a-b.example.io",
    ])
    def test_domains(self, value):
        assert classify_name_form(value) == "domain"

    @pytest.mark.parametrize("value", ["192.0.2.1", "2001:db8::1"])
    def test_ips(self, value):
        assert classify_name_form(value) == "ip"

    @pytest.mark.parametrize("value", [
        "", "Plesk", "localhost", "SophosApplianceCertificate_4af1",
        "has space.com", "-bad.example.com", "toolong" + "x" * 64 + ".com",
        "1.2",  # numeric TLD
    ])
    def test_others(self, value):
        assert classify_name_form(value) == "other"


class TestSubjectAlternativeName:
    def test_for_domains_builder(self):
        san = SubjectAlternativeName.for_domains("a.example", "b.example")
        assert san.matches_domain("b.example")
        assert not san.matches_domain("c.example")


class TestBasicConstraints:
    def test_path_length_requires_ca(self):
        with pytest.raises(ExtensionError):
            BasicConstraints(ca=False, path_length=1)

    def test_negative_path_length_rejected(self):
        with pytest.raises(ExtensionError):
            BasicConstraints(ca=True, path_length=-1)

    def test_defaults_critical(self):
        assert BasicConstraints(ca=True).critical


class TestKeyUsage:
    def test_unknown_bits_rejected(self):
        with pytest.raises(ExtensionError):
            KeyUsage(frozenset({"teleportation"}))

    def test_ca_preset_signs_certs(self):
        assert KeyUsage.for_ca().key_cert_sign

    def test_server_preset_does_not_sign_certs(self):
        assert not KeyUsage.for_tls_server().key_cert_sign


def test_extensions_carry_no_instance_dict():
    for extension in (
        KeyUsage.for_ca(),
        SubjectAlternativeName.for_domains("a.example"),
        SubjectKeyIdentifier(b"k" * 20),
        AuthorityKeyIdentifier(b"k" * 20),
        AuthorityInformationAccess.ca_issuers("http://aia.example/ca.crt"),
        BasicConstraints(ca=False),
        ExtendedKeyUsage.server_auth(),
        OpaqueExtension(ExtensionOID.CERTIFICATE_POLICIES, b"x"),
    ):
        assert not hasattr(extension, "__dict__"), type(extension).__name__


class TestExtendedKeyUsage:
    def test_server_auth_preset(self):
        assert ExtendedKeyUsage.server_auth().allows_server_auth()

    def test_any_eku_allows_server_auth(self):
        from repro.x509 import EKUOID

        assert ExtendedKeyUsage((EKUOID.ANY,)).allows_server_auth()

    def test_code_signing_only_does_not(self):
        from repro.x509 import EKUOID

        assert not ExtendedKeyUsage((EKUOID.CODE_SIGNING,)).allows_server_auth()


class TestAIA:
    def test_ca_issuers_builder(self):
        aia = AuthorityInformationAccess.ca_issuers(
            "http://aia.example/ca.crt", ocsp_uri="http://ocsp.example"
        )
        assert aia.ca_issuer_uris == ("http://aia.example/ca.crt",)
        assert len(aia.descriptions) == 2


class TestExtensionSet:
    def test_duplicate_oid_rejected(self):
        skid = SubjectKeyIdentifier(b"\x01" * 20)
        with pytest.raises(ExtensionError):
            ExtensionSet((skid, skid))

    def test_typed_accessors(self):
        exts = ExtensionSet((
            SubjectKeyIdentifier(b"\x01" * 20),
            AuthorityKeyIdentifier(b"\x02" * 20),
            BasicConstraints(ca=True, path_length=2),
            KeyUsage.for_ca(),
        ))
        assert exts.subject_key_identifier.key_id == b"\x01" * 20
        assert exts.authority_key_identifier.key_id == b"\x02" * 20
        assert exts.basic_constraints.path_length == 2
        assert exts.key_usage.key_cert_sign
        assert exts.subject_alternative_name is None

    def test_contains_and_len(self):
        exts = ExtensionSet((BasicConstraints(ca=False),))
        assert ExtensionOID.BASIC_CONSTRAINTS in exts
        assert ExtensionOID.KEY_USAGE not in exts
        assert len(exts) == 1

    def test_opaque_extension_carries_bytes(self):
        opaque = OpaqueExtension(lookup("1.2.3.4"), b"blob")
        assert opaque.encode_value() == b"blob"
        exts = ExtensionSet((opaque,))
        assert exts.get(lookup("1.2.3.4")) is opaque

    def test_encode_is_deterministic(self):
        exts = ExtensionSet((BasicConstraints(ca=True), KeyUsage.for_ca()))
        assert exts.encode() == exts.encode()
