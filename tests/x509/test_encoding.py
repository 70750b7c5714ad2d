"""PEM-like serialisation: loss-less round trips and corrupt input."""

import base64
import json
import textwrap

import pytest

from repro.errors import EncodingError
from repro.x509 import (
    CertificateBuilder,
    KeyUsage,
    Name,
    OpaqueExtension,
    SimulatedKeyPair,
    Validity,
    from_pem,
    load_pem_bundle,
    to_pem,
    to_pem_bundle,
    utc,
)
from repro.x509.encoding import certificate_from_dict, certificate_to_dict
from repro.x509.oid import lookup


def test_roundtrip_preserves_fingerprint(chain):
    for cert in chain:
        assert from_pem(to_pem(cert)) == cert


def test_roundtrip_preserves_extensions(chain):
    leaf = chain[0]
    restored = from_pem(to_pem(leaf))
    assert restored.subject_key_id == leaf.subject_key_id
    assert restored.authority_key_id == leaf.authority_key_id
    assert restored.aia_ca_issuer_uris == leaf.aia_ca_issuer_uris
    assert restored.matches_domain("fixture.example")


def test_bundle_roundtrip_preserves_order(chain):
    shuffled = [chain[-1], chain[0], chain[1]]
    assert load_pem_bundle(to_pem_bundle(shuffled)) == shuffled


def test_bundle_parses_with_surrounding_noise(chain):
    text = "# comment\n" + to_pem(chain[0]) + "\ntrailing garbage\n"
    assert load_pem_bundle(text) == [chain[0]]


def test_empty_text_yields_no_certs():
    assert load_pem_bundle("no pem here") == []


def test_from_pem_rejects_multiple_blocks(chain):
    with pytest.raises(EncodingError):
        from_pem(to_pem_bundle(list(chain[:2])))


def test_from_pem_rejects_zero_blocks():
    with pytest.raises(EncodingError):
        from_pem("nothing")


def test_unterminated_block_rejected(chain):
    text = to_pem(chain[0]).replace("-----END CERTIFICATE-----", "")
    with pytest.raises(EncodingError):
        load_pem_bundle(text)


def test_corrupt_base64_rejected(chain):
    text = to_pem(chain[0])
    corrupted = text.replace(text.splitlines()[2], "!!!not base64!!!")
    with pytest.raises(EncodingError):
        load_pem_bundle(corrupted)


def test_dict_roundtrip_all_extension_kinds():
    key = SimulatedKeyPair(seed=b"enc-all")
    cert = (
        CertificateBuilder()
        .subject_name(Name.build(common_name="all.example", organization="O"))
        .issuer_name(Name.build(common_name="Issuer"))
        .serial_number(77)
        .validity(Validity(utc(2024, 1, 1), utc(2025, 1, 1)))
        .public_key(key.public_key)
        .ca(path_length=1)
        .key_usage(KeyUsage.for_ca())
        .san_domains("all.example")
        .skid_from_key()
        .akid(b"\x09" * 20)
        .aia_ca_issuers("http://aia/all.crt")
        .add_extension(OpaqueExtension(lookup("1.2.3.4.5"), b"mystery", True))
        .sign(key)
    )
    restored = certificate_from_dict(certificate_to_dict(cert))
    assert restored == cert
    assert restored.extensions.get(lookup("1.2.3.4.5")).critical


def pem_block(payload: str) -> str:
    """``payload`` as one PEM block, valid base64 whatever it holds."""
    body = base64.b64encode(payload.encode()).decode()
    return f"-----BEGIN CERTIFICATE-----\n{body}\n-----END CERTIFICATE-----\n"


def test_malformed_dict_raises_encoding_error(chain):
    valid = certificate_to_dict(chain[0])
    payloads = {
        "missing fields": {"version": 3},
        "extension that is not an object": {**valid, "extensions": [1]},
        "duplicate extension": {**valid,
                                "extensions": valid["extensions"] * 2},
        "version that is not an int": {**valid, "version": "three"},
        "key scheme that is not a string": {**valid, "key_scheme": 5},
        # would fingerprint like serial 5, yet re-encode differently
        "serial that is not an int": {**valid, "serial": "5"},
    }
    for case, payload in payloads.items():
        with pytest.raises(EncodingError):
            certificate_from_dict(payload)
        with pytest.raises(EncodingError):
            load_pem_bundle(pem_block(json.dumps(payload)))
    too_deep = "[" * 100_000 + "]" * 100_000
    with pytest.raises(EncodingError):
        load_pem_bundle(pem_block(too_deep))


def test_key_scheme_without_a_verifier_does_not_decode(chain):
    """A key no backend verifies could verify nothing: the block does
    not decode, so the self-signed check never meets the scheme."""
    for scheme in ("bogus", "", "SIM-BLAKE2"):
        payload = {**certificate_to_dict(chain[-1]), "key_scheme": scheme}
        with pytest.raises(EncodingError, match=f"no verifier for key "
                           f"scheme {scheme!r}"):
            load_pem_bundle(pem_block(json.dumps(payload)))
    assert certificate_from_dict(certificate_to_dict(chain[-1])) == chain[-1]


def test_block_that_fails_to_decode_is_not_memoised(chain):
    bad = pem_block(json.dumps({"version": 3}))
    memo: dict = {}
    with pytest.raises(EncodingError):
        load_pem_bundle(to_pem(chain[0]) + bad, memo=memo)
    # the good block decoded before the bad one failed
    assert list(memo.values()) == [chain[0]]
    with pytest.raises(EncodingError):
        load_pem_bundle(bad, memo=memo)
    assert len(memo) == 1


def reference_to_pem(cert):
    """The encoder as it was before wrapping by slicing."""
    payload = json.dumps(certificate_to_dict(cert), separators=(",", ":"))
    body = base64.b64encode(payload.encode()).decode()
    wrapped = "\n".join(textwrap.wrap(body, 64))
    return f"-----BEGIN CERTIFICATE-----\n{wrapped}\n-----END CERTIFICATE-----\n"


def test_pem_body_is_wrapped_at_64_columns(small_ecosystem):
    certs = {id(cert): cert for _, chain in small_ecosystem.observations()
             for cert in chain}
    for cert in certs.values():
        assert to_pem(cert) == reference_to_pem(cert)
