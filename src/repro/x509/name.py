"""Distinguished-name (DN) model.

A :class:`Name` is an ordered sequence of relative distinguished names
(RDNs); each :class:`RelativeDistinguishedName` is a set of attribute
type/value pairs.  For chain construction the critical operation is DN
*comparison* — RFC 5280 §7.1 name matching — which we implement with the
case-insensitive, whitespace-folding comparison that real
implementations apply to PrintableString values.
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

from repro.x509.oid import NameOID, ObjectIdentifier

_WHITESPACE_RUN = re.compile(r"\s+")


def _fold(value: str) -> str:
    """Fold an attribute value for RFC 5280 §7.1 comparison.

    Leading/trailing whitespace is stripped, internal whitespace runs
    are collapsed to a single space, and the result is case-folded
    (``casefold`` rather than ``lower`` so e.g. ``ß`` and ``SS``
    compare equal, matching caseIgnoreMatch semantics).
    """
    return _WHITESPACE_RUN.sub(" ", value.strip()).casefold()


@dataclass(frozen=True, slots=True)
class NameAttribute:
    """A single attribute type/value pair inside an RDN."""

    oid: ObjectIdentifier
    value: str

    def rfc4514_string(self) -> str:
        """Render as an RFC 4514 ``type=value`` fragment."""
        short = _SHORT_NAMES.get(self.oid.dotted, self.oid.dotted)
        escaped = self.value.replace("\\", "\\\\").replace(",", "\\,")
        return f"{short}={escaped}"

    def folded(self) -> tuple[str, str]:
        """The (oid, folded-value) pair used for name comparison."""
        return (self.oid.dotted, _fold(self.value))


_SHORT_NAMES = {
    NameOID.COMMON_NAME.dotted: "CN",
    NameOID.COUNTRY_NAME.dotted: "C",
    NameOID.LOCALITY_NAME.dotted: "L",
    NameOID.STATE_OR_PROVINCE.dotted: "ST",
    NameOID.ORGANIZATION_NAME.dotted: "O",
    NameOID.ORGANIZATIONAL_UNIT.dotted: "OU",
    NameOID.SERIAL_NUMBER.dotted: "serialNumber",
    NameOID.EMAIL_ADDRESS.dotted: "emailAddress",
}


@dataclass(frozen=True, slots=True)
class RelativeDistinguishedName:
    """An RDN: an unordered set of one or more attributes.

    Multi-valued RDNs are rare but legal; comparison treats the attribute
    set as order-insensitive per RFC 5280.
    """

    attributes: tuple[NameAttribute, ...]

    def __post_init__(self) -> None:
        if not self.attributes:
            raise ValueError("an RDN must contain at least one attribute")

    def folded(self) -> frozenset[tuple[str, str]]:
        """Order-insensitive folded form for comparison."""
        return frozenset(attr.folded() for attr in self.attributes)

    def rfc4514_string(self) -> str:
        return "+".join(attr.rfc4514_string() for attr in self.attributes)


#: :meth:`Name.build` keywords, in the RDN order they build.
_BUILD_ORDER = (
    ("country", NameOID.COUNTRY_NAME),
    ("state", NameOID.STATE_OR_PROVINCE),
    ("locality", NameOID.LOCALITY_NAME),
    ("organization", NameOID.ORGANIZATION_NAME),
    ("organizational_unit", NameOID.ORGANIZATIONAL_UNIT),
    ("common_name", NameOID.COMMON_NAME),
    ("serial_number", NameOID.SERIAL_NUMBER),
    ("email", NameOID.EMAIL_ADDRESS),
)
_BUILD_KEYS = frozenset(key for key, _ in _BUILD_ORDER)


class Name:
    """An ordered DN built from RDNs, with RFC 5280-style comparison.

    Equality and hashing use the folded comparison form, so two names
    that differ only in case or internal whitespace compare equal —
    matching what OpenSSL/NSS do when they link subject to issuer.
    """

    __slots__ = ("_rdns", "_folded", "_text")

    def __init__(self, rdns: Iterable[RelativeDistinguishedName]) -> None:
        self._rdns: tuple[RelativeDistinguishedName, ...] = tuple(rdns)
        self._folded: tuple[frozenset[tuple[str, str]], ...] = tuple(
            rdn.folded() for rdn in self._rdns
        )
        #: the RFC 4514 text, rendered on first use
        self._text: str | None = None

    @classmethod
    def build(cls, **attributes: str) -> "Name":
        """Convenience constructor from keyword arguments.

        Recognised keywords: ``common_name``, ``country``, ``locality``,
        ``state``, ``organization``, ``organizational_unit``,
        ``serial_number``, ``email``.  Each becomes a single-attribute RDN
        in a stable canonical order (C, ST, L, O, OU, CN, ...).
        """
        unknown = attributes.keys() - _BUILD_KEYS
        if unknown:
            raise TypeError(f"unknown name attributes: {sorted(unknown)}")
        rdns = [
            RelativeDistinguishedName((NameAttribute(oid, attributes[key]),))
            for key, oid in _BUILD_ORDER
            if attributes.get(key) is not None
        ]
        return cls(rdns)

    @property
    def rdns(self) -> tuple[RelativeDistinguishedName, ...]:
        return self._rdns

    def __iter__(self) -> Iterator[RelativeDistinguishedName]:
        return iter(self._rdns)

    def __len__(self) -> int:
        return len(self._rdns)

    def __bool__(self) -> bool:
        return bool(self._rdns)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Name):
            return NotImplemented
        return self._folded == other._folded

    def __hash__(self) -> int:
        return hash(self._folded)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Name({self.rfc4514_string()!r})"

    def rfc4514_string(self) -> str:
        """Render the DN as an RFC 4514 string (most-significant first)."""
        text = self._text
        if text is None:
            text = self._text = ",".join(
                rdn.rfc4514_string() for rdn in self._rdns
            )
        return text

    def get_attributes(self, oid: ObjectIdentifier) -> list[str]:
        """All attribute values of the given type, in RDN order."""
        return [
            attr.value
            for rdn in self._rdns
            for attr in rdn.attributes
            if attr.oid.dotted == oid.dotted
        ]

    @property
    def common_name(self) -> str | None:
        """The first commonName value, or None if the DN has none."""
        values = self.get_attributes(NameOID.COMMON_NAME)
        return values[0] if values else None

    def is_empty(self) -> bool:
        """True for the empty DN (legal, seen on some broken certs)."""
        return not self._rdns


EMPTY_NAME = Name(())
