"""Serialisation of certificates to and from a PEM-like container.

Real DER is not reproduced — the simulated certificates are not ASN.1
objects — but the container format keeps the familiar Web PKI workflow:
``-----BEGIN CERTIFICATE-----`` blocks wrapping base64 of a canonical
JSON payload, multiple blocks concatenated into bundle files exactly as
CAs ship ``fullchain.pem`` / ``ca-bundle.pem``.  Round-tripping is
loss-less, including signatures, so fingerprints survive encoding.
"""

from __future__ import annotations

import base64
import json
from datetime import datetime

from repro.errors import EncodingError, ExtensionError
from repro.x509.certificate import Certificate, certificate_with_facts
from repro.x509.extensions import (
    AccessDescription,
    AuthorityInformationAccess,
    AuthorityKeyIdentifier,
    BasicConstraints,
    Extension,
    ExtensionSet,
    ExtendedKeyUsage,
    GeneralName,
    KeyUsage,
    NameConstraints,
    OpaqueExtension,
    SubjectAlternativeName,
    SubjectKeyIdentifier,
)
from repro.x509.keys import PublicKey
from repro.x509.name import Name, NameAttribute, RelativeDistinguishedName
from repro.x509.oid import ExtensionOID, lookup
from repro.x509.validity import Validity, ensure_utc

_PEM_HEADER = "-----BEGIN CERTIFICATE-----"
_PEM_FOOTER = "-----END CERTIFICATE-----"


# ---------------------------------------------------------------------------
# Payload type checks
# ---------------------------------------------------------------------------

def _typed(value, field: str, *types: type):
    """``value`` if its exact type is one of ``types``, else raise.

    Exact, not ``isinstance``: JSON ``true`` decodes to a ``bool``, which
    is an ``int``.  A field of the wrong type must not decode at all —
    ``"serial": "5"`` would fingerprint like ``5`` (TBS bytes carry the
    serial as text) yet re-encode to different wire bytes, and
    ``"version": "three"`` would only fail later, inside ``tbs_bytes``.
    """
    if type(value) not in types:
        expected = " or ".join(t.__name__ for t in types)
        raise EncodingError(
            f"malformed certificate payload: {field!r} must be {expected},"
            f" not {type(value).__name__}"
        )
    return value


def _strings(value, field: str) -> tuple[str, ...]:
    """A JSON list of strings, as a tuple."""
    if type(value) is not list or any(type(item) is not str for item in value):
        raise EncodingError(
            f"malformed certificate payload: {field!r} must be a list of str"
        )
    return tuple(value)


def _string_pairs(value, field: str) -> list[tuple[str, str]]:
    """A JSON list of ``[str, str]`` pairs."""
    pairs = [_strings(item, field) for item in _typed(value, field, list)]
    if any(len(pair) != 2 for pair in pairs):
        raise EncodingError(
            f"malformed certificate payload: {field!r} entries must be pairs"
        )
    return pairs


# ---------------------------------------------------------------------------
# Name serialisation
# ---------------------------------------------------------------------------

def _name_to_obj(name: Name) -> list[list[list[str]]]:
    return [
        [[attr.oid.dotted, attr.value] for attr in rdn.attributes]
        for rdn in name.rdns
    ]


def _name_from_obj(obj: list[list[list[str]]]) -> Name:
    return Name(
        RelativeDistinguishedName(
            tuple(NameAttribute(lookup(dotted), value)
                  for dotted, value in _string_pairs(rdn, "name"))
        )
        for rdn in _typed(obj, "name", list)
    )


# ---------------------------------------------------------------------------
# Extension serialisation
# ---------------------------------------------------------------------------

def _ext_to_obj(ext: Extension) -> dict:
    base = {"oid": ext.oid.dotted, "critical": ext.critical}
    if isinstance(ext, SubjectAlternativeName):
        base["kind"] = "san"
        base["names"] = [[n.kind, n.value] for n in ext.names]
    elif isinstance(ext, SubjectKeyIdentifier):
        base["kind"] = "skid"
        base["key_id"] = ext.key_id.hex()
    elif isinstance(ext, AuthorityKeyIdentifier):
        base["kind"] = "akid"
        base["key_id"] = ext.key_id.hex() if ext.key_id is not None else None
        base["issuer"] = ext.authority_cert_issuer
        base["serial"] = ext.authority_cert_serial
    elif isinstance(ext, AuthorityInformationAccess):
        base["kind"] = "aia"
        base["descriptions"] = [[d.method.dotted, d.uri] for d in ext.descriptions]
    elif isinstance(ext, BasicConstraints):
        base["kind"] = "bc"
        base["ca"] = ext.ca
        base["path_length"] = ext.path_length
    elif isinstance(ext, KeyUsage):
        base["kind"] = "ku"
        base["bits"] = sorted(ext.bits)
    elif isinstance(ext, ExtendedKeyUsage):
        base["kind"] = "eku"
        base["purposes"] = [p.dotted for p in ext.purposes]
    elif isinstance(ext, NameConstraints):
        base["kind"] = "nc"
        base["permitted"] = list(ext.permitted)
        base["excluded"] = list(ext.excluded)
    else:
        base["kind"] = "opaque"
        base["value"] = ext.encode_value().hex()
    return base


def _ext_from_obj(obj: dict) -> Extension:
    kind = _typed(obj, "extension", dict).get("kind")
    critical = _typed(obj.get("critical", False), "critical", bool)
    if kind == "san":
        return SubjectAlternativeName(
            tuple(GeneralName(k, v)
                  for k, v in _string_pairs(obj["names"], "names")),
            critical,
        )
    if kind == "skid":
        return SubjectKeyIdentifier(bytes.fromhex(obj["key_id"]), critical)
    if kind == "akid":
        key_id = obj.get("key_id")
        return AuthorityKeyIdentifier(
            bytes.fromhex(key_id) if key_id is not None else None,
            _typed(obj.get("issuer"), "issuer", str, type(None)),
            _typed(obj.get("serial"), "serial", int, type(None)),
            critical,
        )
    if kind == "aia":
        return AuthorityInformationAccess(
            tuple(AccessDescription(lookup(m), u)
                  for m, u in _string_pairs(obj["descriptions"], "descriptions")),
            critical,
        )
    if kind == "bc":
        return BasicConstraints(
            _typed(obj["ca"], "ca", bool),
            _typed(obj.get("path_length"), "path_length", int, type(None)),
            critical,
        )
    if kind == "ku":
        return KeyUsage(frozenset(_strings(obj["bits"], "bits")), critical)
    if kind == "eku":
        return ExtendedKeyUsage(
            tuple(lookup(p) for p in _strings(obj["purposes"], "purposes")),
            critical,
        )
    if kind == "nc":
        return NameConstraints(
            _strings(obj["permitted"], "permitted"),
            _strings(obj["excluded"], "excluded"),
            critical,
        )
    if kind == "opaque":
        return OpaqueExtension(
            lookup(_typed(obj["oid"], "oid", str)),
            bytes.fromhex(obj["value"]),
            critical,
        )
    raise EncodingError(f"unknown extension kind {kind!r}")


# ---------------------------------------------------------------------------
# Certificate serialisation
# ---------------------------------------------------------------------------

def certificate_to_dict(cert: Certificate) -> dict:
    """A JSON-serialisable representation of the certificate."""
    return {
        "version": cert.version,
        "serial": cert.serial_number,
        "subject": _name_to_obj(cert.subject),
        "issuer": _name_to_obj(cert.issuer),
        "not_before": cert.validity.not_before.isoformat(),
        "not_after": cert.validity.not_after.isoformat(),
        "key_scheme": cert.public_key.scheme,
        "key_bytes": cert.public_key.key_bytes.hex(),
        "sig_alg": (
            cert.signature_algorithm.dotted
            if cert.signature_algorithm is not None
            else None
        ),
        "signature": cert.signature.hex(),
        "extensions": [_ext_to_obj(ext) for ext in cert.extensions],
    }


def certificate_from_dict(obj: dict) -> Certificate:
    """Inverse of :func:`certificate_to_dict`."""
    try:
        _typed(obj, "certificate", dict)
        sig_alg = _typed(obj.get("sig_alg"), "sig_alg", str, type(None))
        return certificate_with_facts(
            version=_typed(obj["version"], "version", int),
            serial_number=_typed(obj["serial"], "serial", int),
            subject=_name_from_obj(obj["subject"]),
            issuer=_name_from_obj(obj["issuer"]),
            validity=Validity(
                ensure_utc(datetime.fromisoformat(obj["not_before"])),
                ensure_utc(datetime.fromisoformat(obj["not_after"])),
            ),
            public_key=PublicKey(
                _typed(obj["key_scheme"], "key_scheme", str),
                bytes.fromhex(obj["key_bytes"]),
            ),
            extensions=ExtensionSet(
                tuple(_ext_from_obj(e)
                      for e in _typed(obj["extensions"], "extensions", list))
            ),
            signature_algorithm=lookup(sig_alg) if sig_alg else None,
            signature=bytes.fromhex(obj["signature"]),
        )
    except (KeyError, ValueError, TypeError, ExtensionError) as exc:
        raise EncodingError(f"malformed certificate payload: {exc}") from exc


def to_pem(cert: Certificate) -> str:
    """Encode one certificate as a PEM block.

    Every call encodes afresh; :attr:`Certificate.pem` keeps the result
    on the certificate, and bundles are joined from that.
    """
    payload = json.dumps(certificate_to_dict(cert), separators=(",", ":"))
    body = base64.b64encode(payload.encode()).decode()
    lines = "\n".join(body[i:i + 64] for i in range(0, len(body), 64))
    return f"{_PEM_HEADER}\n{lines}\n{_PEM_FOOTER}\n"


def from_pem(text: str) -> Certificate:
    """Decode exactly one PEM block; raises if zero or several are present."""
    certs = load_pem_bundle(text)
    if len(certs) != 1:
        raise EncodingError(f"expected exactly one PEM block, found {len(certs)}")
    return certs[0]


def to_pem_bundle(certs: list[Certificate]) -> str:
    """Concatenate PEM blocks the way ``fullchain.pem`` files do."""
    return "".join(cert.pem for cert in certs)


def _decode_block(body: str) -> Certificate:
    try:
        payload = base64.b64decode("".join(body.split()), validate=True)
        obj = json.loads(payload)
    except (ValueError, RecursionError) as exc:
        raise EncodingError(f"corrupt PEM body: {exc}") from exc
    return certificate_from_dict(obj)


def load_pem_bundle(text: str,
                    memo: dict[str, Certificate] | None = None
                    ) -> list[Certificate]:
    """Parse every PEM certificate block in ``text``, in file order.

    ``memo`` maps a block's body to its decoded certificate.  A block
    found there is not decoded again, so bundles loaded through one
    memo share the decoded object — and its cached fingerprint and TBS
    bytes — for every block they have in common.  A block is stored
    only after it decodes.  The memo holds every certificate decoded
    through it, so the caller decides how long that is by how long it
    keeps the memo.
    """
    certs: list[Certificate] = []
    position = 0
    while True:
        start = text.find(_PEM_HEADER, position)
        if start < 0:
            return certs
        start += len(_PEM_HEADER)
        end = text.find(_PEM_FOOTER, start)
        if end < 0:
            raise EncodingError("unterminated PEM block")
        position = end + len(_PEM_FOOTER)
        body = text[start:end]
        cert = memo.get(body) if memo is not None else None
        if cert is None:
            cert = _decode_block(body)
            if memo is not None:
                memo[body] = cert
        certs.append(cert)
