"""Fluent builder for certificates.

The builder mirrors the `cryptography` package's ``CertificateBuilder``
API shape (set fields, then ``sign``), which keeps test and example code
familiar to anyone who has issued certificates in Python before.
"""

from __future__ import annotations

from datetime import datetime

from repro.errors import BuilderError
from repro.x509.certificate import Certificate, sign_certificate
from repro.x509.extensions import (
    AuthorityInformationAccess,
    AuthorityKeyIdentifier,
    BasicConstraints,
    Extension,
    ExtendedKeyUsage,
    KeyUsage,
    SubjectAlternativeName,
    SubjectKeyIdentifier,
)
from repro.x509.keys import KeyPair, PublicKey
from repro.x509.name import Name
from repro.x509.validity import Validity


class CertificateBuilder:
    """Accumulates certificate fields, then signs with an issuer key.

    Every setter returns ``self`` so calls chain.  ``sign`` checks that
    the mandatory fields are present and raises :class:`BuilderError`
    otherwise.
    """

    def __init__(self) -> None:
        self._subject: Name | None = None
        self._issuer: Name | None = None
        self._serial: int | None = None
        self._validity: Validity | None = None
        self._public_key: PublicKey | None = None
        self._extensions: list[Extension] = []

    # ------------------------------------------------------------------
    # Field setters
    # ------------------------------------------------------------------

    def subject_name(self, name: Name) -> "CertificateBuilder":
        self._subject = name
        return self

    def issuer_name(self, name: Name) -> "CertificateBuilder":
        self._issuer = name
        return self

    def serial_number(self, serial: int) -> "CertificateBuilder":
        if serial < 0:
            raise BuilderError("serial number must be non-negative")
        self._serial = serial
        return self

    def validity(self, validity: Validity) -> "CertificateBuilder":
        self._validity = validity
        return self

    def not_valid_before(self, moment: datetime) -> "CertificateBuilder":
        """Set validity start; must be paired with :meth:`not_valid_after`."""
        after = self._validity.not_after if self._validity else moment
        self._validity = Validity(moment, max(moment, after))
        return self

    def not_valid_after(self, moment: datetime) -> "CertificateBuilder":
        before = self._validity.not_before if self._validity else moment
        self._validity = Validity(min(moment, before), moment)
        return self

    def public_key(self, key: PublicKey) -> "CertificateBuilder":
        self._public_key = key
        return self

    def add_extension(self, extension: Extension) -> "CertificateBuilder":
        self._extensions.append(extension)
        return self

    # ------------------------------------------------------------------
    # Convenience extension helpers
    # ------------------------------------------------------------------

    def san_domains(self, *domains: str) -> "CertificateBuilder":
        return self.add_extension(SubjectAlternativeName.for_domains(*domains))

    def ca(self, *, path_length: int | None = None) -> "CertificateBuilder":
        return self.add_extension(BasicConstraints(ca=True, path_length=path_length))

    def end_entity(self) -> "CertificateBuilder":
        return self.add_extension(BasicConstraints(ca=False))

    def skid_from_key(self) -> "CertificateBuilder":
        if self._public_key is None:
            raise BuilderError("set public_key before skid_from_key")
        return self.add_extension(SubjectKeyIdentifier(self._public_key.key_id))

    def akid(self, key_id: bytes | None) -> "CertificateBuilder":
        return self.add_extension(AuthorityKeyIdentifier(key_id))

    def aia_ca_issuers(self, uri: str) -> "CertificateBuilder":
        return self.add_extension(AuthorityInformationAccess.ca_issuers(uri))

    def key_usage(self, usage: KeyUsage) -> "CertificateBuilder":
        return self.add_extension(usage)

    def extended_key_usage(self, eku: ExtendedKeyUsage) -> "CertificateBuilder":
        return self.add_extension(eku)

    # ------------------------------------------------------------------
    # Signing
    # ------------------------------------------------------------------

    def sign(self, issuer_keypair: KeyPair) -> Certificate:
        """Finalise and sign the certificate with ``issuer_keypair``."""
        missing = [
            label
            for label, value in (
                ("subject", self._subject),
                ("issuer", self._issuer),
                ("serial_number", self._serial),
                ("validity", self._validity),
                ("public_key", self._public_key),
            )
            if value is None
        ]
        if missing:
            raise BuilderError(f"cannot sign: missing fields {missing}")
        return sign_certificate(
            issuer_keypair, self._subject, self._issuer, self._serial,
            self._validity, self._public_key,
            [(extension, extension.encode()) for extension in self._extensions],
        )
