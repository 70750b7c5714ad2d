"""X.509 v3 extensions relevant to chain construction.

Only the extensions the paper's analysis touches are modelled as rich
types; anything else can be carried as an :class:`OpaqueExtension`.
Each extension knows its OID, criticality, and a stable byte encoding
used when hashing the certificate.
"""

from __future__ import annotations

import ipaddress
from abc import ABC, abstractmethod
from dataclasses import dataclass, field

from repro.errors import ExtensionError
from repro.x509.oid import AccessMethodOID, EKUOID, ExtensionOID, ObjectIdentifier


class Extension(ABC):
    """Base class for modelled extensions."""

    # no instance dict: the slotted subclasses hold their fields only
    __slots__ = ()

    oid: ObjectIdentifier
    critical: bool = False

    @abstractmethod
    def encode_value(self) -> bytes:
        """A canonical byte encoding of the extension value."""

    def encode(self) -> bytes:
        flag = b"\x01" if self.critical else b"\x00"
        return self.oid.dotted.encode() + b"|" + flag + b"|" + self.encode_value()


@dataclass(frozen=True, slots=True)
class GeneralName:
    """A SAN entry: a DNS name or an IP address.

    ``kind`` is ``"dns"`` or ``"ip"``; other GeneralName forms
    (URI, email, directoryName) appear as ``"other"`` and never match a
    host name.
    """

    kind: str
    value: str

    def matches_domain(self, domain: str) -> bool:
        """RFC 6125-style match of this entry against ``domain``.

        Supports a single leading wildcard label (``*.example.com``).
        """
        if self.kind == "ip":
            return self.value == domain
        if self.kind != "dns":
            return False
        pattern = self.value.lower().rstrip(".")
        target = domain.lower().rstrip(".")
        if pattern == target:
            return True
        if pattern.startswith("*."):
            suffix = pattern[2:]
            if not suffix:
                return False
            head, _, rest = target.partition(".")
            return bool(head) and rest == suffix
        return False


def classify_name_form(value: str) -> str:
    """Classify a free-form CN/SAN value as ``"domain"``, ``"ip"`` or ``"other"``.

    This is the check behind the paper's *Correctly Placed but
    Mismatched* category: does the field at least *look like* a host
    identifier, even if it does not match the scanned domain?
    """
    if not value:
        return "other"
    try:
        ipaddress.ip_address(value)
        return "ip"
    except ValueError:
        pass
    candidate = value.lower().rstrip(".")
    if candidate.startswith("*."):
        candidate = candidate[2:]
    labels = candidate.split(".")
    if len(labels) < 2:
        return "other"
    for label in labels:
        if not label or len(label) > 63:
            return "other"
        if not all(ch.isalnum() or ch == "-" for ch in label):
            return "other"
        if label.startswith("-") or label.endswith("-"):
            return "other"
    if labels[-1].isdigit():
        return "other"
    return "domain"


@dataclass(frozen=True, slots=True)
class SubjectAlternativeName(Extension):
    """The SAN extension: additional identities for the subject."""

    names: tuple[GeneralName, ...]
    critical: bool = False
    oid = ExtensionOID.SUBJECT_ALTERNATIVE_NAME

    @classmethod
    def for_domains(cls, *domains: str) -> "SubjectAlternativeName":
        return cls(tuple(GeneralName("dns", d) for d in domains))

    def matches_domain(self, domain: str) -> bool:
        return any(name.matches_domain(domain) for name in self.names)

    def encode_value(self) -> bytes:
        return b";".join(f"{n.kind}:{n.value}".encode() for n in self.names)


@dataclass(frozen=True, slots=True)
class SubjectKeyIdentifier(Extension):
    """SKID: identifies the public key certified by this certificate."""

    key_id: bytes
    critical: bool = False
    oid = ExtensionOID.SUBJECT_KEY_IDENTIFIER

    def encode_value(self) -> bytes:
        return self.key_id


@dataclass(frozen=True, slots=True)
class AuthorityKeyIdentifier(Extension):
    """AKID: identifies the key that signed this certificate.

    Only the ``keyIdentifier`` form participates in chain construction;
    the issuer+serial form is carried for completeness.
    """

    key_id: bytes | None
    authority_cert_issuer: str | None = None
    authority_cert_serial: int | None = None
    critical: bool = False
    oid = ExtensionOID.AUTHORITY_KEY_IDENTIFIER

    def encode_value(self) -> bytes:
        parts = [self.key_id or b""]
        if self.authority_cert_issuer is not None:
            parts.append(self.authority_cert_issuer.encode())
        if self.authority_cert_serial is not None:
            parts.append(str(self.authority_cert_serial).encode())
        return b"&".join(parts)


@dataclass(frozen=True, slots=True)
class AccessDescription:
    """One AIA entry: an access method plus a URI."""

    method: ObjectIdentifier
    uri: str


@dataclass(frozen=True, slots=True)
class AuthorityInformationAccess(Extension):
    """AIA: where to fetch the issuer certificate (caIssuers) or OCSP."""

    descriptions: tuple[AccessDescription, ...]
    critical: bool = False
    oid = ExtensionOID.AUTHORITY_INFORMATION_ACCESS

    @classmethod
    def ca_issuers(cls, uri: str, *, ocsp_uri: str | None = None
                   ) -> "AuthorityInformationAccess":
        entries = [AccessDescription(AccessMethodOID.CA_ISSUERS, uri)]
        if ocsp_uri is not None:
            entries.append(AccessDescription(AccessMethodOID.OCSP, ocsp_uri))
        return cls(tuple(entries))

    @property
    def ca_issuer_uris(self) -> tuple[str, ...]:
        return tuple(
            d.uri for d in self.descriptions
            if d.method.dotted == AccessMethodOID.CA_ISSUERS.dotted
        )

    def encode_value(self) -> bytes:
        return b";".join(
            f"{d.method.dotted}:{d.uri}".encode() for d in self.descriptions
        )


@dataclass(frozen=True, slots=True)
class BasicConstraints(Extension):
    """basicConstraints: CA flag and optional path-length constraint."""

    ca: bool
    path_length: int | None = None
    critical: bool = True
    oid = ExtensionOID.BASIC_CONSTRAINTS

    def __post_init__(self) -> None:
        if self.path_length is not None and not self.ca:
            raise ExtensionError("pathLenConstraint requires cA=TRUE")
        if self.path_length is not None and self.path_length < 0:
            raise ExtensionError("pathLenConstraint must be non-negative")

    def encode_value(self) -> bytes:
        tail = b"" if self.path_length is None else str(self.path_length).encode()
        return (b"CA" if self.ca else b"EE") + b":" + tail


#: KeyUsage bit names, RFC 5280 §4.2.1.3 order.
KEY_USAGE_BITS = (
    "digital_signature",
    "content_commitment",
    "key_encipherment",
    "data_encipherment",
    "key_agreement",
    "key_cert_sign",
    "crl_sign",
    "encipher_only",
    "decipher_only",
)


@dataclass(frozen=True, slots=True)
class KeyUsage(Extension):
    """keyUsage bit flags; ``key_cert_sign`` is what issuers need."""

    bits: frozenset[str]
    critical: bool = True
    oid = ExtensionOID.KEY_USAGE

    def __post_init__(self) -> None:
        unknown = self.bits - set(KEY_USAGE_BITS)
        if unknown:
            raise ExtensionError(f"unknown keyUsage bits: {sorted(unknown)}")

    @classmethod
    def for_ca(cls) -> "KeyUsage":
        return cls(frozenset({"key_cert_sign", "crl_sign"}))

    @classmethod
    def for_tls_server(cls) -> "KeyUsage":
        return cls(frozenset({"digital_signature", "key_encipherment"}))

    @property
    def key_cert_sign(self) -> bool:
        return "key_cert_sign" in self.bits

    def encode_value(self) -> bytes:
        return ",".join(sorted(self.bits)).encode()


@dataclass(frozen=True, slots=True)
class ExtendedKeyUsage(Extension):
    """extKeyUsage purpose list."""

    purposes: tuple[ObjectIdentifier, ...]
    critical: bool = False
    oid = ExtensionOID.EXTENDED_KEY_USAGE

    @classmethod
    def server_auth(cls) -> "ExtendedKeyUsage":
        return cls((EKUOID.SERVER_AUTH, EKUOID.CLIENT_AUTH))

    def allows_server_auth(self) -> bool:
        dotted = {p.dotted for p in self.purposes}
        return EKUOID.SERVER_AUTH.dotted in dotted or EKUOID.ANY.dotted in dotted

    def encode_value(self) -> bytes:
        return b",".join(p.dotted.encode() for p in self.purposes)


@dataclass(frozen=True, slots=True)
class NameConstraints(Extension):
    """nameConstraints (RFC 5280 §4.2.1.10), dNSName subtrees only.

    A CA carrying this extension restricts the identities its subtree
    may certify: ``permitted`` subtrees whitelist, ``excluded`` subtrees
    blacklist (exclusion wins).  A subtree value of ``"example.com"``
    covers the name itself and every subdomain.
    """

    permitted: tuple[str, ...] = ()
    excluded: tuple[str, ...] = ()
    critical: bool = True
    oid = ExtensionOID.NAME_CONSTRAINTS

    @staticmethod
    def _in_subtree(domain: str, subtree: str) -> bool:
        domain = domain.lower().rstrip(".")
        subtree = subtree.lower().rstrip(".")
        if not subtree:
            return True  # the empty subtree covers everything
        return domain == subtree or domain.endswith("." + subtree)

    def allows(self, domain: str) -> bool:
        """True iff ``domain`` satisfies the constraints."""
        if any(self._in_subtree(domain, subtree) for subtree in self.excluded):
            return False
        if self.permitted:
            return any(
                self._in_subtree(domain, subtree) for subtree in self.permitted
            )
        return True

    def encode_value(self) -> bytes:
        return (
            b"permit:" + ",".join(self.permitted).encode()
            + b";exclude:" + ",".join(self.excluded).encode()
        )


@dataclass(frozen=True, slots=True)
class OpaqueExtension(Extension):
    """Any extension the library does not model structurally."""

    oid: ObjectIdentifier = field()
    value: bytes = b""
    critical: bool = False

    def encode_value(self) -> bytes:
        return self.value


class ExtensionSet:
    """The ordered, OID-unique set of extensions on one certificate."""

    __slots__ = ("_by_oid",)

    def __init__(self, extensions: tuple[Extension, ...] = ()) -> None:
        self._by_oid: dict[str, Extension] = {}
        for ext in extensions:
            if ext.oid.dotted in self._by_oid:
                raise ExtensionError(f"duplicate extension {ext.oid}")
            self._by_oid[ext.oid.dotted] = ext

    def get(self, oid: ObjectIdentifier) -> Extension | None:
        return self._by_oid.get(oid.dotted)

    def __contains__(self, oid: ObjectIdentifier) -> bool:
        return oid.dotted in self._by_oid

    def __iter__(self):
        return iter(self._by_oid.values())

    def __len__(self) -> int:
        return len(self._by_oid)

    def encode(self) -> bytes:
        return b"\n".join(ext.encode() for ext in self._by_oid.values())

    # Typed convenience accessors -------------------------------------------------

    @property
    def subject_alternative_name(self) -> SubjectAlternativeName | None:
        ext = self.get(ExtensionOID.SUBJECT_ALTERNATIVE_NAME)
        return ext if isinstance(ext, SubjectAlternativeName) else None

    @property
    def subject_key_identifier(self) -> SubjectKeyIdentifier | None:
        ext = self.get(ExtensionOID.SUBJECT_KEY_IDENTIFIER)
        return ext if isinstance(ext, SubjectKeyIdentifier) else None

    @property
    def authority_key_identifier(self) -> AuthorityKeyIdentifier | None:
        ext = self.get(ExtensionOID.AUTHORITY_KEY_IDENTIFIER)
        return ext if isinstance(ext, AuthorityKeyIdentifier) else None

    @property
    def authority_information_access(self) -> AuthorityInformationAccess | None:
        ext = self.get(ExtensionOID.AUTHORITY_INFORMATION_ACCESS)
        return ext if isinstance(ext, AuthorityInformationAccess) else None

    @property
    def basic_constraints(self) -> BasicConstraints | None:
        ext = self.get(ExtensionOID.BASIC_CONSTRAINTS)
        return ext if isinstance(ext, BasicConstraints) else None

    @property
    def key_usage(self) -> KeyUsage | None:
        ext = self.get(ExtensionOID.KEY_USAGE)
        return ext if isinstance(ext, KeyUsage) else None

    @property
    def extended_key_usage(self) -> ExtendedKeyUsage | None:
        ext = self.get(ExtensionOID.EXTENDED_KEY_USAGE)
        return ext if isinstance(ext, ExtendedKeyUsage) else None

    @property
    def name_constraints(self) -> NameConstraints | None:
        ext = self.get(ExtensionOID.NAME_CONSTRAINTS)
        return ext if isinstance(ext, NameConstraints) else None
