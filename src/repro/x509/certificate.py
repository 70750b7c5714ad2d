"""The X.509 certificate model.

A :class:`Certificate` is immutable once built.  Its canonical
*to-be-signed* (TBS) encoding is a stable byte string over all fields
except the signature, and the certificate fingerprint hashes TBS plus
signature — so two certificates are bit-for-bit duplicates in the
paper's sense iff their fingerprints match.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from datetime import datetime
from functools import cached_property

from repro.x509.extensions import ExtensionSet, classify_name_form
from repro.x509.keys import PublicKey
from repro.x509.name import Name
from repro.x509.oid import ObjectIdentifier
from repro.x509.validity import Validity


@dataclass(frozen=True)
class Certificate:
    """An X.509 v3 certificate.

    Instances are hashable on their fingerprint, so they can live in
    sets and dictionaries — the dedup step of the topology analysis
    relies on this.
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

    #: The last key that verified the signature, set on the instance by
    #: :meth:`verify_signature`.  Not annotated, so not a dataclass
    #: field: ``dataclasses.replace`` and equality never see it.
    _verified_by = None

    # ------------------------------------------------------------------
    # Canonical encodings and identity
    # ------------------------------------------------------------------

    @cached_property
    def tbs_bytes(self) -> bytes:
        """Canonical to-be-signed encoding (stable across processes)."""
        parts = [
            b"v%d" % self.version,
            str(self.serial_number).encode(),
            self.subject.rfc4514_string().encode(),
            self.issuer.rfc4514_string().encode(),
            self.validity.not_before.isoformat().encode(),
            self.validity.not_after.isoformat().encode(),
            self.public_key.scheme.encode(),
            self.public_key.key_bytes,
            self.extensions.encode(),
        ]
        out = []
        for part in parts:
            out.append(len(part).to_bytes(4, "big"))
            out.append(part)
        return b"".join(out)

    @cached_property
    def fingerprint(self) -> bytes:
        """SHA-256 over TBS bytes plus signature: bit-for-bit identity."""
        return hashlib.sha256(self.tbs_bytes + b"||" + self.signature).digest()

    @cached_property
    def fingerprint_hex(self) -> str:
        return self.fingerprint.hex()

    @cached_property
    def pem(self) -> str:
        """This certificate as a PEM block, encoded once per object.

        Cached on the object rather than looked up by fingerprint:
        certificates that differ only in ``signature_algorithm``, which
        the TBS bytes omit, are equal yet encode differently.
        """
        from repro.x509.encoding import to_pem

        return to_pem(self)

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

    @cached_property
    def is_self_signed(self) -> bool:
        """Subject equals issuer *and* its own key verifies its signature.

        The name check alone would misclassify certificates that merely
        reuse a DN; real implementations also check the signature (or at
        least the key identifiers), so we do too.
        """
        if self.subject != self.issuer:
            return False
        return self.verify_signature(self.public_key)

    @property
    def is_self_issued(self) -> bool:
        """Subject equals issuer by name only (RFC 5280 self-issued)."""
        return self.subject == self.issuer

    def verify_signature(self, issuer_key: PublicKey) -> bool:
        """True iff ``issuer_key`` verifies this certificate's signature.

        The last key that verified it is remembered on the instance, and
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
