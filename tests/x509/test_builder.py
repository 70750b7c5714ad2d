"""CertificateBuilder: field validation and extension wiring."""

import dataclasses

import pytest

from repro.errors import BuilderError
from repro.x509 import (
    Certificate,
    CertificateBuilder,
    ExtendedKeyUsage,
    KeyUsage,
    Name,
    PublicKey,
    SimulatedKeyPair,
    Validity,
    generate_keypair,
    utc,
)


def _base(key=None):
    key = key or SimulatedKeyPair()
    return (
        CertificateBuilder()
        .subject_name(Name.build(common_name="b.example"))
        .issuer_name(Name.build(common_name="Issuer"))
        .serial_number(1)
        .validity(Validity(utc(2024, 1, 1), utc(2025, 1, 1)))
        .public_key(key.public_key)
    ), key


def _holds(cert, fact):
    """True when ``cert`` already holds ``fact`` in its slot; reading
    past ``__getattr__`` derives nothing."""
    try:
        object.__getattribute__(cert, fact)
    except AttributeError:
        return False
    return True


def _recomputed_tbs(cert):
    """The TBS encoding of a fresh certificate with ``cert``'s fields."""
    fresh = Certificate(**{spec.name: getattr(cert, spec.name)
                           for spec in dataclasses.fields(Certificate)})
    assert not _holds(fresh, "tbs_bytes")
    return fresh.tbs_bytes


class TestValidation:
    def test_missing_subject_rejected(self):
        key = SimulatedKeyPair()
        builder = (
            CertificateBuilder()
            .issuer_name(Name.build(common_name="i"))
            .serial_number(1)
            .validity(Validity(utc(2024, 1, 1), utc(2025, 1, 1)))
            .public_key(key.public_key)
        )
        with pytest.raises(BuilderError, match="subject"):
            builder.sign(key)

    def test_missing_everything_lists_all_fields(self):
        with pytest.raises(BuilderError) as excinfo:
            CertificateBuilder().sign(SimulatedKeyPair())
        message = str(excinfo.value)
        for fieldname in ("subject", "issuer", "serial_number", "validity",
                          "public_key"):
            assert fieldname in message

    def test_negative_serial_rejected(self):
        with pytest.raises(BuilderError):
            CertificateBuilder().serial_number(-1)

    def test_skid_from_key_requires_public_key(self):
        with pytest.raises(BuilderError):
            CertificateBuilder().skid_from_key()


class TestWiring:
    def test_signed_certificate_verifies(self, monkeypatch):
        calls = []
        real_verify = PublicKey.verify

        def counting_verify(self, data, signature):
            calls.append(self)
            return real_verify(self, data, signature)

        monkeypatch.setattr(PublicKey, "verify", counting_verify)
        for backend in ("simulated", "ecdsa"):
            builder, key = _base()
            signer = generate_keypair(backend)
            cert = builder.sign(signer)
            wrong = key.public_key

            # A failure is not remembered: it is checked again, and it
            # does not block the signer's key.
            assert not cert.verify_signature(wrong)
            assert not cert.verify_signature(wrong)
            assert len(calls) == 2
            assert cert.verify_signature(signer.public_key)
            assert len(calls) == 3

            # A repeat with the verifying key, or an equal but distinct
            # key object, returns True without hashing.
            twin = PublicKey(signer.public_key.scheme,
                             signer.public_key.key_bytes)
            assert twin is not signer.public_key
            assert cert.verify_signature(signer.public_key)
            assert cert.verify_signature(twin)
            assert len(calls) == 3

            # A wrong key still fails after a success.
            assert not cert.verify_signature(wrong)
            assert len(calls) == 4
            calls.clear()

    def test_certificate_has_no_instance_dict(self):
        builder, _ = _base()
        cert = builder.sign(SimulatedKeyPair())
        for fact in ("tbs_bytes", "fingerprint", "fingerprint_hex", "pem",
                     "is_self_signed"):
            getattr(cert, fact)
            assert _holds(cert, fact)
        assert not hasattr(cert, "__dict__")
        with pytest.raises(AttributeError):
            cert.not_a_fact

    def test_carried_facts_are_not_fields(self):
        # The TBS bytes and the verifying key live in slots that are not
        # fields, so replace() re-derives them for a certificate with
        # other fields.
        builder, _ = _base()
        signer = SimulatedKeyPair()
        cert = builder.sign(signer)
        assert cert.verify_signature(signer.public_key)
        renumbered = dataclasses.replace(cert, serial_number=2)
        assert _holds(cert, "tbs_bytes") and _holds(cert, "_verified_by")
        assert not _holds(renumbered, "tbs_bytes")
        assert not _holds(renumbered, "_verified_by")
        assert renumbered.tbs_bytes != cert.tbs_bytes
        assert not renumbered.verify_signature(signer.public_key)
        assert {f.name for f in dataclasses.fields(Certificate)}.isdisjoint(
            {"tbs_bytes", "_verified_by"}
        )

    def test_skid_from_key_uses_subject_key(self):
        builder, key = _base()
        cert = builder.skid_from_key().sign(SimulatedKeyPair())
        assert cert.subject_key_id == key.public_key.key_id

    def test_akid_records_issuer_key(self):
        builder, _key = _base()
        signer = SimulatedKeyPair()
        cert = builder.akid(signer.public_key.key_id).sign(signer)
        assert cert.authority_key_id == signer.public_key.key_id

    def test_ca_and_end_entity_helpers(self):
        builder, _ = _base()
        ca_cert = builder.ca(path_length=3).sign(SimulatedKeyPair())
        assert ca_cert.is_ca and ca_cert.path_length_constraint == 3
        builder2, _ = _base()
        ee = builder2.end_entity().sign(SimulatedKeyPair())
        assert not ee.is_ca

    def test_san_and_eku_helpers(self):
        builder, _ = _base()
        cert = (
            builder.san_domains("a.example", "b.example")
            .extended_key_usage(ExtendedKeyUsage.server_auth())
            .key_usage(KeyUsage.for_tls_server())
            .sign(SimulatedKeyPair())
        )
        assert cert.matches_domain("b.example")
        assert cert.extensions.extended_key_usage.allows_server_auth()

    def test_aia_helper(self):
        builder, _ = _base()
        cert = builder.aia_ca_issuers("http://aia/x.crt").sign(SimulatedKeyPair())
        assert cert.aia_ca_issuer_uris == ("http://aia/x.crt",)

    def test_signature_algorithm_recorded(self):
        builder, _ = _base()
        cert = builder.sign(SimulatedKeyPair())
        assert cert.signature_algorithm.name == "simulated-blake2"

    def test_not_valid_before_after_pair(self):
        key = SimulatedKeyPair()
        cert = (
            CertificateBuilder()
            .subject_name(Name.build(common_name="x"))
            .issuer_name(Name.build(common_name="x"))
            .serial_number(5)
            .not_valid_before(utc(2024, 1, 1))
            .not_valid_after(utc(2024, 7, 1))
            .public_key(key.public_key)
            .sign(key)
        )
        assert cert.validity.not_before == utc(2024, 1, 1)
        assert cert.validity.not_after == utc(2024, 7, 1)


def test_generated_certificates_carry_their_tbs_bytes(small_ecosystem):
    certs = {id(cert): cert for _, chain in small_ecosystem.observations()
             for cert in chain}
    for store in small_ecosystem.registry.stores.values():
        certs.update((id(anchor), anchor) for anchor in store)
    assert len(certs) > 1_000
    for cert in certs.values():
        assert _holds(cert, "tbs_bytes")
        assert cert.tbs_bytes == _recomputed_tbs(cert)
