"""Path validation — step (2) of Figure 1.

Once a candidate path exists, the client checks it: signatures link up,
every certificate is inside its validity window, intermediates are CAs
allowed to sign (BasicConstraints, KeyUsage, pathLenConstraint), the
path terminates at a trust anchor, and the leaf names the requested
host.  Errors carry reason codes modelled on the strings real clients
print (``date_invalid``, ``unknown_issuer``, ``domain_mismatch``...),
because the differential harness groups results by them exactly as the
paper does.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime

from repro.trust.revocation import RevocationRegistry, RevocationStatus
from repro.trust.rootstore import RootStore
from repro.x509 import Certificate


@dataclass(frozen=True, slots=True)
class ValidationResult:
    """Outcome of validating one constructed path.

    ``error`` is None on success, otherwise one of the reason codes in
    :data:`ERROR_CODES`; ``failing_index`` points into the path (0 =
    leaf) where the check failed, when meaningful.
    """

    ok: bool
    error: str | None = None
    failing_index: int | None = None

    def __bool__(self) -> bool:  # pragma: no cover - convenience
        return self.ok


#: Every reason code :func:`validate_path` can emit.
ERROR_CODES = (
    "empty_path",
    "bad_signature",
    "unknown_issuer",
    "date_invalid",
    "not_a_ca",
    "bad_key_usage",
    "path_length_exceeded",
    "domain_mismatch",
    "revoked",
    "revocation_unknown",
)


def validate_path(
    path: list[Certificate],
    store: RootStore,
    *,
    at_time: datetime,
    domain: str | None = None,
    check_trust: bool = True,
    revocation: RevocationRegistry | None = None,
    revocation_hard_fail: bool = False,
) -> ValidationResult:
    """Validate ``path`` (leaf first, anchor last).

    The check order mirrors the precedence common to the studied
    clients: linkage/signatures, trust anchoring, validity dates,
    CA-capability of intermediates, path length, revocation, and
    finally hostname.  ``domain=None`` skips the hostname check
    (library-style validation); ``check_trust=False`` skips anchoring
    (used by tests that validate structure only).  With a
    ``revocation`` registry, revoked certificates fail with
    ``"revoked"``; an UNKNOWN status fails only under
    ``revocation_hard_fail`` (soft-fail is what browsers ship).
    """
    if not path:
        return ValidationResult(False, "empty_path")
    result = validate_unanchored(
        path, at_time=at_time, domain=domain, revocation=revocation,
        revocation_hard_fail=revocation_hard_fail,
    )
    return anchor_verdict(result, path, store) if check_trust else result


def anchor_verdict(unanchored: ValidationResult, path: list[Certificate],
                   store: RootStore) -> ValidationResult:
    """:func:`validate_path`'s verdict from :func:`validate_unanchored`'s.

    Trust anchoring is the only check that reads the store.  It ranks
    after a broken link below the terminal and before every other
    check: a terminal that does not sign itself (the linkage ends in
    the air), or whose key ``store`` does not hold, is an unknown
    issuer.
    """
    if unanchored.error == "bad_signature":
        return unanchored
    terminal = path[-1]
    if not (
        terminal.verify_signature(terminal.public_key)
        and (store.contains_key_of(terminal) or terminal in store)
    ):
        return ValidationResult(False, "unknown_issuer", len(path) - 1)
    return unanchored


def validate_unanchored(
    path: list[Certificate],
    *,
    at_time: datetime,
    domain: str | None = None,
    revocation: RevocationRegistry | None = None,
    revocation_hard_fail: bool = False,
) -> ValidationResult:
    """Every check of :func:`validate_path` but trust anchoring, over a
    non-empty ``path``; it reads no root store, so one result serves
    every store the path is anchored against."""
    # 1. Signature linkage: every cert must be signed by its successor
    #    (the terminal's own signature is part of anchoring).
    for index in range(len(path) - 1):
        if not path[index].verify_signature(path[index + 1].public_key):
            return ValidationResult(False, "bad_signature", index)

    # 2. Validity windows.
    for index, cert in enumerate(path):
        if not cert.is_valid_at(at_time):
            return ValidationResult(False, "date_invalid", index)

    # 3. Intermediate constraints (every cert above the leaf).
    for index, cert in enumerate(path[1:], start=1):
        if not cert.is_ca:
            return ValidationResult(False, "not_a_ca", index)
        usage = cert.extensions.key_usage
        if usage is not None and not usage.key_cert_sign:
            return ValidationResult(False, "bad_key_usage", index)
        constraint = cert.path_length_constraint
        if constraint is not None:
            # Non-self-issued intermediates strictly between this cert
            # and the leaf must number at most pathLenConstraint.
            below = [c for c in path[1:index] if not c.is_self_issued]
            if len(below) > constraint:
                return ValidationResult(False, "path_length_exceeded", index)

    # 4. Revocation (trust anchors are exempt by convention).
    if revocation is not None:
        for index, cert in enumerate(path):
            if index == len(path) - 1 and cert.is_self_signed:
                continue
            status = revocation.status(cert)
            if status is RevocationStatus.REVOKED:
                return ValidationResult(False, "revoked", index)
            if (status is RevocationStatus.UNKNOWN
                    and revocation_hard_fail):
                return ValidationResult(False, "revocation_unknown", index)

    # 5. Hostname.
    if domain is not None and not path[0].matches_domain(domain):
        return ValidationResult(False, "domain_mismatch", 0)

    return ValidationResult(True)
