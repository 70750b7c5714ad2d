"""X.509 substrate: certificates, names, keys, extensions, encoding.

This subpackage provides everything the rest of the library needs to
mint, inspect, and serialise certificates.  Public names are re-exported
here so callers can write ``from repro.x509 import Certificate, Name``.
"""

from repro.x509.builder import CertificateBuilder
from repro.x509.certificate import Certificate, sign_certificate
from repro.x509.encoding import (
    from_pem,
    load_pem_bundle,
    to_pem,
    to_pem_bundle,
)
from repro.x509.extensions import (
    AccessDescription,
    AuthorityInformationAccess,
    AuthorityKeyIdentifier,
    BasicConstraints,
    ExtendedKeyUsage,
    Extension,
    ExtensionSet,
    GeneralName,
    KeyUsage,
    NameConstraints,
    OpaqueExtension,
    SubjectAlternativeName,
    SubjectKeyIdentifier,
    classify_name_form,
)
from repro.x509.keys import (
    DEPRECATED_SIGNATURE_ALGORITHMS,
    ECDSAKeyPair,
    KeyPair,
    PublicKey,
    SimulatedKeyPair,
    WeakSimulatedKeyPair,
    generate_keypair,
)
from repro.x509.name import (
    EMPTY_NAME,
    Name,
    NameAttribute,
    RelativeDistinguishedName,
)
from repro.x509.oid import (
    AccessMethodOID,
    EKUOID,
    ExtensionOID,
    NameOID,
    ObjectIdentifier,
    SignatureAlgorithmOID,
)
from repro.x509.validity import Validity, ensure_utc, utc

__all__ = [
    "AccessDescription",
    "AccessMethodOID",
    "AuthorityInformationAccess",
    "AuthorityKeyIdentifier",
    "BasicConstraints",
    "Certificate",
    "DEPRECATED_SIGNATURE_ALGORITHMS",
    "CertificateBuilder",
    "ECDSAKeyPair",
    "EKUOID",
    "EMPTY_NAME",
    "ExtendedKeyUsage",
    "Extension",
    "ExtensionOID",
    "ExtensionSet",
    "GeneralName",
    "KeyPair",
    "KeyUsage",
    "Name",
    "NameAttribute",
    "NameConstraints",
    "NameOID",
    "ObjectIdentifier",
    "OpaqueExtension",
    "PublicKey",
    "RelativeDistinguishedName",
    "SignatureAlgorithmOID",
    "SimulatedKeyPair",
    "SubjectAlternativeName",
    "SubjectKeyIdentifier",
    "Validity",
    "WeakSimulatedKeyPair",
    "classify_name_form",
    "ensure_utc",
    "from_pem",
    "generate_keypair",
    "load_pem_bundle",
    "sign_certificate",
    "to_pem",
    "to_pem_bundle",
    "utc",
]
