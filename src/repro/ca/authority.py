"""Certificate authorities that mint the corpus.

A :class:`CertificateAuthority` owns a key pair and a CA certificate and
issues subordinate certificates (intermediates or leaves) with the SKID
/ AKID / AIA wiring that real CAs apply.  Roots are self-signed;
intermediates are created via :meth:`CertificateAuthority.issue_intermediate`;
cross-signs via :meth:`CertificateAuthority.cross_sign`.
"""

from __future__ import annotations

import contextlib
import itertools
from datetime import datetime, timedelta

from repro.errors import IssuanceError
from repro.x509 import (
    AuthorityInformationAccess,
    AuthorityKeyIdentifier,
    BasicConstraints,
    Certificate,
    CertificateBuilder,
    ExtendedKeyUsage,
    Extension,
    KeyPair,
    KeyUsage,
    Name,
    SubjectAlternativeName,
    SubjectKeyIdentifier,
    Validity,
    generate_keypair,
    sign_certificate,
)

_SERIALS = itertools.count(0x1000)


def next_serial() -> int:
    """A monotonically increasing serial number.

    Process-unique by default; inside a :func:`serial_context` block the
    numbering restarts from the given value, which is how the ecosystem
    generator achieves bit-for-bit reproducible corpora.
    """
    return next(_SERIALS)


@contextlib.contextmanager
def serial_context(start: int = 0x1000):
    """Temporarily restart serial numbering at ``start``.

    Not thread-safe: the counter is module-global.  Intended for
    deterministic generation runs (one at a time), after which the
    previous counter resumes.
    """
    global _SERIALS
    previous = _SERIALS
    _SERIALS = itertools.count(start)
    try:
        yield
    finally:
        _SERIALS = previous


def _encoded(extension: Extension) -> tuple[Extension, bytes]:
    """An extension paired with its encoding, as signing takes it."""
    return extension, extension.encode()


#: The extensions every leaf carries, whichever CA issues it: one shared
#: instance each, encoded once.
_LEAF_BASIC_CONSTRAINTS = _encoded(BasicConstraints(ca=False))
_LEAF_KEY_USAGE = _encoded(KeyUsage.for_tls_server())
_LEAF_EXTENDED_KEY_USAGE = _encoded(ExtendedKeyUsage.server_auth())


class CertificateAuthority:
    """A CA: a name, a key pair, and the certificate that certifies it.

    Parameters
    ----------
    name:
        The CA's subject DN.
    keypair:
        Signing key; generated (simulated backend) if omitted.
    certificate:
        The CA's own certificate.  Omit it to create a self-signed root.
    validity:
        Validity window for a generated self-signed root.
    aia_base:
        If set, certificates issued by this CA carry an AIA caIssuers
        URI of ``{aia_base}/{slug}.crt`` pointing at this CA's own
        certificate; the AIA repository serves it from there.
    path_length:
        pathLenConstraint for a generated root certificate.
    """

    def __init__(
        self,
        name: Name,
        *,
        keypair: KeyPair | None = None,
        certificate: Certificate | None = None,
        validity: Validity | None = None,
        aia_base: str | None = None,
        path_length: int | None = None,
        key_backend: str = "simulated",
        key_seed: bytes | None = None,
    ) -> None:
        self.name = name
        self.keypair = keypair or generate_keypair(key_backend, seed=key_seed)
        self.aia_base = aia_base
        #: The URI at which this CA's certificate is published, if any.
        self.aia_uri: str | None = None
        if aia_base is not None:
            slug = (name.common_name or "ca").lower().replace(" ", "-")
            self.aia_uri = f"{aia_base}/{slug}.crt"
        if certificate is None:
            if validity is None:
                raise IssuanceError("a generated root needs an explicit validity")
            certificate = self._self_sign(validity, path_length)
        self.certificate = certificate
        # The AKID and AIA every leaf of this CA carries, each with its
        # encoding (no AIA when the CA publishes no certificate).
        self._leaf_akid = _encoded(
            AuthorityKeyIdentifier(self.keypair.public_key.key_id))
        self._leaf_aia = (
            _encoded(AuthorityInformationAccess.ca_issuers(self.aia_uri))
            if self.aia_uri is not None else None
        )

    # ------------------------------------------------------------------

    def _self_sign(self, validity: Validity, path_length: int | None) -> Certificate:
        builder = (
            CertificateBuilder()
            .subject_name(self.name)
            .issuer_name(self.name)
            .serial_number(next_serial())
            .validity(validity)
            .public_key(self.keypair.public_key)
            .ca(path_length=path_length)
            .key_usage(KeyUsage.for_ca())
            .skid_from_key()
        )
        return builder.sign(self.keypair)

    @property
    def is_root(self) -> bool:
        """True iff this CA's certificate is self-signed."""
        return self.certificate.is_self_signed

    # ------------------------------------------------------------------
    # Issuance
    # ------------------------------------------------------------------

    def issue_intermediate(
        self,
        name: Name,
        *,
        validity: Validity | None = None,
        days: int = 1825,
        not_before: datetime | None = None,
        path_length: int | None = None,
        aia_base: str | None = None,
        key_backend: str = "simulated",
        key_seed: bytes | None = None,
        include_akid: bool = True,
        include_skid: bool = True,
        key_usage: KeyUsage | None = None,
    ) -> "CertificateAuthority":
        """Create a subordinate CA certified by this one.

        Returns a new :class:`CertificateAuthority` ready to issue in
        turn.  ``aia_base`` defaults to this CA's, so AIA chains stay
        fetchable end to end.
        """
        subordinate_key = generate_keypair(key_backend, seed=key_seed)
        validity = self._resolve_validity(validity, days, not_before)
        builder = (
            CertificateBuilder()
            .subject_name(name)
            .issuer_name(self.name)
            .serial_number(next_serial())
            .validity(validity)
            .public_key(subordinate_key.public_key)
            .ca(path_length=path_length)
            .key_usage(key_usage or KeyUsage.for_ca())
        )
        if include_skid:
            builder.skid_from_key()
        if include_akid:
            builder.akid(self.keypair.public_key.key_id)
        if self.aia_uri is not None:
            builder.aia_ca_issuers(self.aia_uri)
        certificate = builder.sign(self.keypair)
        return CertificateAuthority(
            name,
            keypair=subordinate_key,
            certificate=certificate,
            aia_base=aia_base if aia_base is not None else self.aia_base,
        )

    def issue_leaf(
        self,
        domain: str,
        *,
        san_domains: tuple[str, ...] | None = None,
        common_name: str | None = None,
        validity: Validity | None = None,
        days: int = 90,
        not_before: datetime | None = None,
        key_backend: str = "simulated",
        key_seed: bytes | None = None,
        include_akid: bool = True,
        include_skid: bool = True,
        include_aia: bool = True,
        aia_uri: str | None = None,
    ) -> Certificate:
        """Issue an end-entity (server) certificate for ``domain``.

        ``aia_uri`` overrides the default caIssuers URI — the failure
        injection hook for dead or wrong AIA endpoints.  The leaf is the
        one :class:`CertificateBuilder` would sign from the same fields
        (basicConstraints, SAN, keyUsage, EKU, then the optional SKID,
        AKID and AIA); only its own fields are built and encoded here,
        the CA's AKID and AIA once per CA.
        """
        leaf_key = generate_keypair(key_backend, seed=key_seed)
        validity = self._resolve_validity(validity, days, not_before)
        public_key = leaf_key.public_key
        extensions = [
            _LEAF_BASIC_CONSTRAINTS,
            _encoded(SubjectAlternativeName.for_domains(
                *(san_domains or (domain,)))),
            _LEAF_KEY_USAGE,
            _LEAF_EXTENDED_KEY_USAGE,
        ]
        if include_skid:
            extensions.append(_encoded(SubjectKeyIdentifier(public_key.key_id)))
        if include_akid:
            extensions.append(self._leaf_akid)
        if aia_uri is not None:
            extensions.append(
                _encoded(AuthorityInformationAccess.ca_issuers(aia_uri)))
        elif include_aia and self._leaf_aia is not None:
            extensions.append(self._leaf_aia)
        return sign_certificate(
            self.keypair, Name.build(common_name=common_name or domain),
            self.name, next_serial(), validity, public_key, extensions,
        )

    def cross_sign(
        self,
        other: "CertificateAuthority",
        *,
        validity: Validity | None = None,
        days: int = 1825,
        not_before: datetime | None = None,
    ) -> Certificate:
        """Issue a cross-sign: ``other``'s name and key, signed by us.

        The result has the same subject and SKID as ``other.certificate``
        but a different issuer — exactly the topology behind the paper's
        *Multiple Paths* class (Figure 2c).
        """
        validity = self._resolve_validity(validity, days, not_before)
        builder = (
            CertificateBuilder()
            .subject_name(other.name)
            .issuer_name(self.name)
            .serial_number(next_serial())
            .validity(validity)
            .public_key(other.keypair.public_key)
            .ca()
            .key_usage(KeyUsage.for_ca())
            .skid_from_key()
            .akid(self.keypair.public_key.key_id)
        )
        if self.aia_uri is not None:
            builder.aia_ca_issuers(self.aia_uri)
        return builder.sign(self.keypair)

    def _resolve_validity(
        self,
        validity: Validity | None,
        days: int,
        not_before: datetime | None,
    ) -> Validity:
        if validity is not None:
            return validity
        start = not_before or self.certificate.validity.not_before
        end = start + timedelta(days=days)
        # Clamp to the CA's own expiry when possible; never below start.
        ca_end = self.certificate.validity.not_after
        if end > ca_end > start:
            end = ca_end
        return Validity(start, end)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "root" if self.is_root else "intermediate"
        return f"CertificateAuthority({self.name.rfc4514_string()!r}, {kind})"
