"""The X.509 certificate model.

A :class:`Certificate` is immutable once built.  Its canonical
*to-be-signed* (TBS) encoding is a stable byte string over all fields
except the signature, and the certificate fingerprint hashes TBS plus
signature — so two certificates are bit-for-bit duplicates in the
paper's sense iff their fingerprints match.
"""

from __future__ import annotations

import hashlib
from collections.abc import Sequence
from dataclasses import dataclass, field
from datetime import datetime
from functools import lru_cache

from repro.x509.extensions import Extension, ExtensionSet, classify_name_form
from repro.x509.keys import KeyPair, PublicKey
from repro.x509.name import Name
from repro.x509.oid import ObjectIdentifier
from repro.x509.validity import Validity


class _DerivedFacts:
    """The slots where a :class:`Certificate` keeps what it derives.

    None of them is a dataclass field, so ``dataclasses.replace``,
    equality and :func:`~repro.x509.encoding.certificate_to_dict` never
    see them.  Signing and decoding, which make the TBS bytes, fill
    the TBS bytes and fingerprint slots (:func:`certificate_with_facts`);
    a certificate built from its fields alone fills those on first read
    (:class:`_Underived`).  :attr:`Certificate.pem` and
    :attr:`Certificate.is_self_signed` fill theirs on first read.
    """

    __slots__ = ("tbs_bytes", "fingerprint", "fingerprint_hex", "_pem",
                 "_self_signed", "_verified_by")


@dataclass(frozen=True, slots=True)
class Certificate(_DerivedFacts):
    """An X.509 v3 certificate.

    Instances are hashable on their fingerprint, so they can live in
    sets and dictionaries — the dedup step of the topology analysis
    relies on this.  They carry no instance ``__dict__``: the fields and
    the derived facts (:class:`_DerivedFacts`) live in fixed slots, and
    the class has no ``__getattr__``, so the interpreter's specialised
    attribute reads apply to every field and fact.
    """

    subject: Name
    issuer: Name
    serial_number: int
    validity: Validity
    public_key: PublicKey
    extensions: ExtensionSet = field(default_factory=ExtensionSet)
    signature_algorithm: ObjectIdentifier | None = None
    signature: bytes = b""
    version: int = 3

    def __new__(cls, *args, **kwargs):
        """A certificate built from its fields alone (by a caller, or by
        ``dataclasses.replace``) is an :class:`_Underived` one, which
        derives its facts on first read."""
        return object.__new__(_Underived if cls is Certificate else cls)

    # ------------------------------------------------------------------
    # Canonical encodings and identity
    # ------------------------------------------------------------------

    def _encode_tbs(self) -> bytes:
        """Canonical to-be-signed encoding (stable across processes)."""
        return encode_tbs(
            self.version, self.serial_number,
            self.subject.rfc4514_string().encode(),
            self.issuer.rfc4514_string().encode(),
            self.validity, self.public_key, self.extensions.encode(),
        )

    @property
    def pem(self) -> str:
        """This certificate as a PEM block, encoded on first read and
        kept on the object.

        Kept on the object rather than looked up by fingerprint:
        certificates that differ only in ``signature_algorithm``, which
        the TBS bytes omit, are equal yet encode differently.
        """
        try:
            return self._pem
        except AttributeError:  # the first read encodes it
            pass
        from repro.x509.encoding import to_pem

        pem = to_pem(self)
        object.__setattr__(self, "_pem", pem)
        return pem

    def __hash__(self) -> int:
        return hash(self.fingerprint)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Certificate):
            return NotImplemented
        return self.fingerprint == other.fingerprint

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        subject = self.subject.rfc4514_string() or "<empty>"
        return f"Certificate(subject={subject!r}, serial={self.serial_number})"

    # ------------------------------------------------------------------
    # Structural predicates used by chain analysis
    # ------------------------------------------------------------------

    @property
    def subject_key_id(self) -> bytes | None:
        """The SKID value, or None if the extension is absent."""
        ext = self.extensions.subject_key_identifier
        return ext.key_id if ext is not None else None

    @property
    def authority_key_id(self) -> bytes | None:
        """The AKID keyIdentifier value, or None if absent."""
        ext = self.extensions.authority_key_identifier
        return ext.key_id if ext is not None else None

    @property
    def aia_ca_issuer_uris(self) -> tuple[str, ...]:
        """caIssuers URIs from the AIA extension (empty if absent)."""
        ext = self.extensions.authority_information_access
        return ext.ca_issuer_uris if ext is not None else ()

    @property
    def is_ca(self) -> bool:
        """True iff basicConstraints asserts cA=TRUE."""
        ext = self.extensions.basic_constraints
        return ext.ca if ext is not None else False

    @property
    def path_length_constraint(self) -> int | None:
        ext = self.extensions.basic_constraints
        return ext.path_length if ext is not None else None

    @property
    def is_self_signed(self) -> bool:
        """Subject equals issuer *and* its own key verifies its signature;
        decided on first read and kept on the object.

        The name check alone would misclassify certificates that merely
        reuse a DN; real implementations also check the signature (or at
        least the key identifiers), so we do too.
        """
        try:
            return self._self_signed
        except AttributeError:  # the first read decides it
            pass
        value = (self.subject == self.issuer
                 and self.verify_signature(self.public_key))
        object.__setattr__(self, "_self_signed", value)
        return value

    @property
    def is_self_issued(self) -> bool:
        """Subject equals issuer by name only (RFC 5280 self-issued)."""
        return self.subject == self.issuer

    def verify_signature(self, issuer_key: PublicKey) -> bool:
        """True iff ``issuer_key`` verifies this certificate's signature.

        The last key that verified it is remembered in a slot, and
        a later check with that key (the same object or an equal one)
        returns True without hashing.  A certificate carries one
        signature, so one slot covers the repeats; failed checks are
        not remembered and run again.
        """
        if not self.signature:
            return False
        verified_by = self._verified_by
        if verified_by is not None and (
            verified_by is issuer_key or verified_by == issuer_key
        ):
            return True
        if not issuer_key.verify(self.tbs_bytes, self.signature):
            return False
        object.__setattr__(self, "_verified_by", issuer_key)
        return True

    # ------------------------------------------------------------------
    # Identity matching (leaf placement analysis)
    # ------------------------------------------------------------------

    def matches_domain(self, domain: str) -> bool:
        """True iff a SAN dNSName/IP matches ``domain`` (CN as fallback).

        Per RFC 6125, the CN is only consulted when the certificate has
        no SAN extension at all.
        """
        san = self.extensions.subject_alternative_name
        if san is not None:
            return san.matches_domain(domain)
        cn = self.subject.common_name
        if cn is None:
            return False
        from repro.x509.extensions import GeneralName

        kind = classify_name_form(cn)
        if kind == "other":
            return False
        return GeneralName("dns" if kind == "domain" else "ip", cn).matches_domain(domain)

    def has_hostlike_identity(self) -> bool:
        """True iff CN or SAN is *formatted* as a domain name or IP.

        This is the paper's criterion for *Correctly Placed but
        Mismatched*: the certificate names some host, just not the one
        scanned.
        """
        san = self.extensions.subject_alternative_name
        if san is not None and any(n.kind in ("dns", "ip") for n in san.names):
            return True
        cn = self.subject.common_name
        return cn is not None and classify_name_form(cn) != "other"

    def is_valid_at(self, moment: datetime) -> bool:
        return self.validity.contains(moment)

    def summary(self) -> str:
        """One-line human-readable description for reports."""
        role = "root" if self.is_self_signed else ("ca" if self.is_ca else "leaf")
        return (
            f"[{role}] {self.subject.rfc4514_string() or '<empty>'} "
            f"<- {self.issuer.rfc4514_string() or '<empty>'} "
            f"(serial={self.serial_number}, {self.validity!r})"
        )


class _Underived(Certificate):
    """A certificate built from its fields alone: its fact slots start
    empty, and an empty one is derived on its first read and kept.

    The derivation hook lives on this class only, since any
    ``__getattr__`` keeps the interpreter from specialising the class's
    attribute reads; certificates made by signing or decoding are plain
    :class:`Certificate` objects, with their facts in place.
    """

    __slots__ = ()

    def __getattr__(self, name: str):
        """Fill the TBS bytes and fingerprint slots on the first read of
        any of them.  ``_verified_by`` (the last key that verified the
        signature) reads None until :meth:`verify_signature` fills it."""
        if name == "_verified_by":
            return None
        if name not in ("tbs_bytes", "fingerprint", "fingerprint_hex"):
            raise AttributeError(
                f"'Certificate' object has no attribute {name!r}")
        _fill_facts(self, self._encode_tbs())
        return object.__getattribute__(self, name)


def _fill_facts(certificate: Certificate, tbs: bytes) -> None:
    """Put ``tbs`` and the fingerprint it makes, SHA-256 over TBS bytes
    plus signature (bit-for-bit identity), in ``certificate``'s slots."""
    fingerprint = hashlib.sha256(tbs + b"||" + certificate.signature).digest()
    fill = object.__setattr__
    fill(certificate, "tbs_bytes", tbs)
    fill(certificate, "fingerprint", fingerprint)
    fill(certificate, "fingerprint_hex", fingerprint.hex())


def certificate_with_facts(*args, tbs: bytes | None = None,
                           **kwargs) -> Certificate:
    """``Certificate(*args, **kwargs)`` made the way signing and decoding
    make every certificate: a plain :class:`Certificate` with its TBS
    bytes (``tbs`` when the caller made them, else encoded here),
    fingerprint and fingerprint hex in their slots."""
    certificate = object.__new__(Certificate)
    certificate.__init__(*args, **kwargs)
    _fill_facts(certificate,
                certificate._encode_tbs() if tbs is None else tbs)
    object.__setattr__(certificate, "_verified_by", None)
    return certificate


# ---------------------------------------------------------------------------
# Encoding and signing
# ---------------------------------------------------------------------------

@lru_cache(maxsize=4096)
def _isoformat(moment: datetime) -> bytes:
    """``moment.isoformat()``, encoded.  A world's leaves share a few
    hundred validity bounds, and a cache hit costs a tenth of formatting
    an aware datetime.  Equal moments format alike: :class:`Validity`
    keeps every bound in UTC."""
    return moment.isoformat().encode()


def encode_tbs(version: int, serial_number: int, subject: bytes,
               issuer: bytes, validity: Validity, public_key: PublicKey,
               extensions: bytes) -> bytes:
    """The canonical TBS encoding: every field length-prefixed, in order.

    ``subject`` and ``issuer`` are the DNs' RFC 4514 text, encoded, and
    ``extensions`` is the :meth:`ExtensionSet.encode` block.  Both
    :attr:`Certificate.tbs_bytes` and :func:`sign_certificate` encode
    through here, so a signed certificate's TBS bytes are the ones its
    decoded copy recomputes.
    """
    out = bytearray()
    for part in (
        b"v%d" % version,
        str(serial_number).encode(),
        subject,
        issuer,
        _isoformat(validity.not_before),
        _isoformat(validity.not_after),
        public_key.scheme.encode(),
        public_key.key_bytes,
        extensions,
    ):
        out += len(part).to_bytes(4, "big")
        out += part
    return bytes(out)


def sign_certificate(
    keypair: KeyPair,
    subject: Name,
    issuer: Name,
    serial_number: int,
    validity: Validity,
    public_key: PublicKey,
    extensions: Sequence[tuple[Extension, bytes]],
) -> Certificate:
    """Sign one certificate; every certificate this library issues,
    through :class:`CertificateBuilder` or :meth:`issue_leaf
    <repro.ca.CertificateAuthority.issue_leaf>`, is signed here.

    ``extensions`` pairs each extension, in certificate order, with its
    :meth:`Extension.encode` bytes, so a CA encodes what its leaves
    share once.  The TBS bytes go into the ``tbs_bytes`` slot of the one
    :class:`Certificate` built, so no certificate encodes them twice.
    """
    tbs = encode_tbs(
        3, serial_number, subject.rfc4514_string().encode(),
        issuer.rfc4514_string().encode(), validity, public_key,
        b"\n".join([encoding for _, encoding in extensions]),
    )
    return certificate_with_facts(
        subject, issuer, serial_number, validity, public_key,
        ExtensionSet(tuple([extension for extension, _ in extensions])),
        keypair.signature_algorithm, keypair.sign(tbs), tbs=tbs,
    )
