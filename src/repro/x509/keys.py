"""Key-pair abstractions with two interchangeable backends.

Chain construction needs exactly one cryptographic predicate: *does
this public key verify that certificate's signature?*  Two backends
implement it:

* :class:`SimulatedKeyPair` — a deterministic, dependency-free scheme
  where a "signature" binds the signer's public identity to the signed
  bytes via BLAKE2b.  It is **not** secure against forgery (any party
  can compute it), but within a closed simulation it yields exactly the
  verification relation real ECDSA would: ``verify(pub, data, sig)``
  holds iff ``sig`` was produced under that same public identity.  It is
  ~3 orders of magnitude faster than real signing, which is what makes
  million-certificate corpora practical.
* :class:`ECDSAKeyPair` — real ECDSA P-256 via the ``cryptography``
  package, used in tests to cross-check that the analysis pipeline is
  backend-agnostic.

Both expose the same interface, and certificates record which scheme
signed them so verification dispatches correctly.
"""

from __future__ import annotations

import hashlib
import os
from abc import ABC, abstractmethod
from dataclasses import dataclass

from repro.errors import SignatureError
from repro.x509.oid import ObjectIdentifier, SignatureAlgorithmOID

_KEY_ID_LENGTH = 20  # bytes, mirroring RFC 5280 §4.2.1.2 method (1)


def _blake2(*parts: bytes) -> bytes:
    """BLAKE2b-256 over the length-prefixed parts, hashed as one buffer."""
    buffer = bytearray()
    for part in parts:
        buffer += len(part).to_bytes(4, "big")
        buffer += part
    return hashlib.blake2b(buffer, digest_size=32).digest()


@dataclass(frozen=True, slots=True)
class PublicKey:
    """A public key: opaque bytes plus the scheme that interprets them.

    ``key_bytes`` is the canonical encoding (simulated identity bytes, or
    a DER SubjectPublicKeyInfo for ECDSA).  Two public keys are the same
    key iff their bytes and scheme match.
    """

    scheme: str
    key_bytes: bytes

    @property
    def key_id(self) -> bytes:
        """The Subject Key Identifier derived from this key (20 bytes)."""
        return _blake2(self.scheme.encode(), self.key_bytes)[:_KEY_ID_LENGTH]

    @property
    def fingerprint(self) -> str:
        """Short hex fingerprint for logs and repr."""
        return self.key_id.hex()[:16]

    def verify(self, data: bytes, signature: bytes) -> bool:
        """True iff ``signature`` over ``data`` verifies under this key."""
        backend = _SCHEMES.get(self.scheme)
        if backend is None:
            raise SignatureError(f"unknown signature scheme {self.scheme!r}")
        return backend.verify(self, data, signature)


class KeyPair(ABC):
    """Common interface for signing key pairs."""

    #: scheme tag stored on certificates signed by this key
    scheme: str

    @property
    @abstractmethod
    def public_key(self) -> PublicKey:
        """The public half."""

    @abstractmethod
    def sign(self, data: bytes) -> bytes:
        """Produce a signature over ``data``."""

    @property
    def signature_algorithm(self) -> ObjectIdentifier:
        """The OID recorded in certificates signed by this key."""
        return _SCHEMES[self.scheme].oid


class _SchemeBackend(ABC):
    """Verification dispatch for one scheme tag."""

    oid: ObjectIdentifier

    @abstractmethod
    def verify(self, public: PublicKey, data: bytes, signature: bytes) -> bool:
        ...


# ---------------------------------------------------------------------------
# Simulated scheme
# ---------------------------------------------------------------------------

class SimulatedKeyPair(KeyPair):
    """Fast deterministic key pair for scan-scale corpora.

    ``seed`` makes key generation reproducible; omit it for a random key.
    """

    scheme = "sim-blake2"

    def __init__(self, seed: bytes | None = None) -> None:
        self._secret = _blake2(b"sim-key", seed) if seed is not None else os.urandom(32)
        self._public = PublicKey(self.scheme, _blake2(b"sim-pub", self._secret))

    @property
    def public_key(self) -> PublicKey:
        return self._public

    def sign(self, data: bytes) -> bytes:
        # The signature binds the *public* identity to the data; see the
        # module docstring for why this models the verification relation.
        return _blake2(b"sim-sig", self._public.key_bytes, data)


class _SimulatedBackend(_SchemeBackend):
    oid = SignatureAlgorithmOID.SIMULATED_BLAKE2

    def verify(self, public: PublicKey, data: bytes, signature: bytes) -> bool:
        expected = _blake2(b"sim-sig", public.key_bytes, data)
        return signature == expected


class WeakSimulatedKeyPair(SimulatedKeyPair):
    """A simulated key whose certificates record a deprecated algorithm.

    Functionally identical to :class:`SimulatedKeyPair` but tagged with
    the sha1WithRSAEncryption OID, so policy layers that reject
    deprecated signature algorithms (the BetterTLS DEPRECATED_CRYPTO
    test) have something real to reject.
    """

    scheme = "sim-weak"

    def __init__(self, seed: bytes | None = None) -> None:
        super().__init__(seed=seed)
        # Recompute the public identity under the weak scheme tag so
        # weak and strong keys never cross-verify.
        self._public = PublicKey(self.scheme, _blake2(b"weak-pub", self._secret))

    def sign(self, data: bytes) -> bytes:
        return _blake2(b"weak-sig", self._public.key_bytes, data)


class _WeakSimulatedBackend(_SchemeBackend):
    oid = SignatureAlgorithmOID.RSA_WITH_SHA1

    def verify(self, public: PublicKey, data: bytes, signature: bytes) -> bool:
        expected = _blake2(b"weak-sig", public.key_bytes, data)
        return signature == expected


# ---------------------------------------------------------------------------
# ECDSA P-256 scheme (real crypto via `cryptography`)
# ---------------------------------------------------------------------------

class ECDSAKeyPair(KeyPair):
    """Real ECDSA P-256 key pair backed by the ``cryptography`` package."""

    scheme = "ecdsa-p256"

    def __init__(self) -> None:
        from cryptography.hazmat.primitives.asymmetric import ec

        self._private = ec.generate_private_key(ec.SECP256R1())
        self._public = PublicKey(self.scheme, _ecdsa_public_bytes(self._private))

    @property
    def public_key(self) -> PublicKey:
        return self._public

    def sign(self, data: bytes) -> bytes:
        from cryptography.hazmat.primitives import hashes
        from cryptography.hazmat.primitives.asymmetric import ec

        return self._private.sign(data, ec.ECDSA(hashes.SHA256()))


def _ecdsa_public_bytes(private) -> bytes:
    from cryptography.hazmat.primitives import serialization

    return private.public_key().public_bytes(
        serialization.Encoding.DER,
        serialization.PublicFormat.SubjectPublicKeyInfo,
    )


class _ECDSABackend(_SchemeBackend):
    oid = SignatureAlgorithmOID.ECDSA_WITH_SHA256

    def verify(self, public: PublicKey, data: bytes, signature: bytes) -> bool:
        from cryptography.exceptions import InvalidSignature
        from cryptography.hazmat.primitives import hashes, serialization
        from cryptography.hazmat.primitives.asymmetric import ec

        key = serialization.load_der_public_key(public.key_bytes)
        try:
            key.verify(signature, data, ec.ECDSA(hashes.SHA256()))
        except InvalidSignature:
            return False
        return True


_SCHEMES: dict[str, _SchemeBackend] = {
    SimulatedKeyPair.scheme: _SimulatedBackend(),
    WeakSimulatedKeyPair.scheme: _WeakSimulatedBackend(),
    ECDSAKeyPair.scheme: _ECDSABackend(),
}


def has_verifier(scheme: str) -> bool:
    """True when a backend verifies signatures of ``scheme``."""
    return scheme in _SCHEMES


#: Signature algorithm OIDs considered deprecated by modern clients.
DEPRECATED_SIGNATURE_ALGORITHMS = frozenset({
    SignatureAlgorithmOID.RSA_WITH_SHA1.dotted,
})


def generate_keypair(backend: str = "simulated", seed: bytes | None = None) -> KeyPair:
    """Factory for key pairs.

    Parameters
    ----------
    backend:
        ``"simulated"`` (default), ``"weak"`` (deprecated-algorithm
        tag), or ``"ecdsa"``.
    seed:
        Only honoured by the simulated backend; makes the key
        deterministic.
    """
    if backend == "simulated":
        return SimulatedKeyPair(seed=seed)
    if backend == "weak":
        return WeakSimulatedKeyPair(seed=seed)
    if backend == "ecdsa":
        if seed is not None:
            raise ValueError("the ecdsa backend does not support seeded keys")
        return ECDSAKeyPair()
    raise ValueError(f"unknown key backend {backend!r}")
