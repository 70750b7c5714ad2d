"""Exception hierarchy for the ``repro`` library.

Every error raised by this library derives from :class:`ReproError`, so
callers can catch one base class.  Sub-hierarchies mirror the package
layout: X.509 modelling errors, CA/issuance errors, chain-construction
errors, trust/AIA errors, and simulated-network errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


# ---------------------------------------------------------------------------
# X.509 substrate
# ---------------------------------------------------------------------------

class X509Error(ReproError):
    """Base class for X.509 modelling errors."""


class EncodingError(X509Error):
    """A certificate or name could not be encoded or decoded."""


class SignatureError(X509Error):
    """A signature could not be created or did not verify."""


class ExtensionError(X509Error):
    """An extension is malformed, duplicated, or missing when required."""


class BuilderError(X509Error):
    """A :class:`~repro.x509.builder.CertificateBuilder` was misused."""


# ---------------------------------------------------------------------------
# CA toolkit
# ---------------------------------------------------------------------------

class CAError(ReproError):
    """Base class for certificate-authority errors."""


class IssuanceError(CAError):
    """A certificate could not be issued (bad profile, expired CA, ...)."""


class HierarchyError(CAError):
    """A CA hierarchy definition is inconsistent."""


# ---------------------------------------------------------------------------
# Chain construction / validation
# ---------------------------------------------------------------------------

class ChainError(ReproError):
    """Base class for chain-construction and path-validation errors."""


class PathBuildingError(ChainError):
    """No candidate certification path could be constructed.

    Attributes
    ----------
    reason:
        A short machine-readable reason code (e.g. ``"no_issuer_found"``,
        ``"length_limit_exceeded"``, ``"untrusted_root"``).
    """

    def __init__(self, message: str, reason: str = "unspecified") -> None:
        super().__init__(message)
        self.reason = reason


class PathValidationError(ChainError):
    """A constructed path failed validation checks.

    Attributes
    ----------
    reason:
        A short machine-readable reason code mirroring the error labels
        used by real TLS implementations (e.g. ``"expired"``,
        ``"unknown_issuer"``, ``"not_a_ca"``).
    """

    def __init__(self, message: str, reason: str = "unspecified") -> None:
        super().__init__(message)
        self.reason = reason


class ChainLengthError(PathBuildingError):
    """The certificate list or constructed path exceeds a client limit."""

    def __init__(self, message: str) -> None:
        super().__init__(message, reason="length_limit_exceeded")


# ---------------------------------------------------------------------------
# Trust / AIA
# ---------------------------------------------------------------------------

class TrustError(ReproError):
    """Base class for root-store and AIA errors."""


class RootStoreError(TrustError):
    """A root store operation failed (unknown store, duplicate anchor)."""


class AIAFetchError(TrustError):
    """An AIA caIssuers fetch failed.

    Attributes
    ----------
    uri:
        The URI that was fetched (or missing).
    reason:
        One of ``"missing_aia"``, ``"unreachable"``, ``"wrong_certificate"``,
        ``"not_found"``.
    """

    def __init__(self, message: str, uri: str | None, reason: str) -> None:
        super().__init__(message)
        self.uri = uri
        self.reason = reason


# ---------------------------------------------------------------------------
# Simulated network
# ---------------------------------------------------------------------------

class NetworkError(ReproError):
    """Base class for simulated-network errors."""


class HostUnreachableError(NetworkError):
    """The simulated host is not reachable from this vantage point."""


class ConnectionResetError_(NetworkError):
    """The simulated peer reset the connection."""


class TLSHandshakeError(NetworkError):
    """The simulated TLS handshake failed before a Certificate message."""


class HTTPError(NetworkError):
    """A simulated HTTP exchange returned a non-success status.

    Attributes
    ----------
    status:
        Numeric status code of the simulated response.
    """

    def __init__(self, message: str, status: int) -> None:
        super().__init__(message)
        self.status = status


# ---------------------------------------------------------------------------
# Measurement / ecosystem
# ---------------------------------------------------------------------------

class MeasurementError(ReproError):
    """Base class for measurement-campaign errors."""


class JournalError(MeasurementError):
    """A run journal could not be written, read, or resumed.

    Raised on manifest mismatches (resuming a journal recorded under a
    different config/seed/root store) and on structurally broken
    journal files; a merely truncated final line is *not* an error —
    crash-safe resume drops it.
    """


class StoreError(MeasurementError):
    """A persistent verdict store could not be opened or written.

    Raised when the directory is not a verdict store (missing or
    foreign ``meta.json``), when a segment is damaged in its interior
    (a torn *final* record is not an error — recovery truncates it),
    or when the store is used after :meth:`close`.
    """


class PayloadError(ReproError):
    """A recorded report payload does not decode; journal and store
    readers re-raise it naming the file and record."""


class MetricsError(ReproError):
    """A metrics snapshot file could not be read or is malformed.

    Raised by :func:`repro.obs.metrics.load_snapshot` for an unreadable
    file, invalid JSON, or a metric family whose shape is not the one
    :meth:`~repro.obs.metrics.MetricsRegistry.snapshot` writes; the
    message names the bad family.
    """


class EcosystemError(ReproError):
    """The synthetic ecosystem definition is inconsistent."""
