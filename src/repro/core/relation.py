"""The issuance-relation predicate: does certificate A certify B?

Section 3.1 of the paper distils three criteria from prior work
(Larisch et al., Zhang et al.) for "A issued B":

1. A's public key verifies B's signature;
2. A's subject DN equals B's issuer DN;
3. A's SKID equals B's AKID.

Where a certificate lacks one of the identifier fields, the relation is
considered fulfilled if *either* criterion 2 or criterion 3 holds (plus
the signature, which has no absence excuse).  :class:`RelationPolicy`
makes each criterion toggleable so the ablation bench can quantify how
much each rule contributes.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.x509 import Certificate


@dataclass(frozen=True, slots=True)
class RelationPolicy:
    """Which criteria the issuance predicate enforces.

    The default is the paper's rule: signature required, and at least
    one of name-match / KID-match among the fields that are present.
    """

    require_signature: bool = True
    use_name_match: bool = True
    use_kid_match: bool = True

    def __post_init__(self) -> None:
        if not (self.require_signature or self.use_name_match or self.use_kid_match):
            raise ValueError("a relation policy must enforce at least one criterion")


#: The paper's configuration.
DEFAULT_POLICY = RelationPolicy()

#: Pure structural matching, no cryptography — what a scanner that has
#: not parsed keys can do, and the fast path for topology pre-filtering.
STRUCTURAL_POLICY = RelationPolicy(require_signature=False)


@dataclass(frozen=True, slots=True)
class RelationEvidence:
    """Why (or why not) the predicate held, for reports and debugging.

    ``kid_match`` is None when either side lacks the relevant
    identifier — "absent" is distinct from "mismatched", and clients
    weight the two differently (Table 9, KID Matching Priority).
    """

    signature_valid: bool
    name_match: bool
    kid_match: bool | None
    holds: bool


def evaluate(issuer: Certificate, subject: Certificate,
             policy: RelationPolicy = DEFAULT_POLICY) -> RelationEvidence:
    """Evaluate the issuance relation with full evidence."""
    signature_valid = subject.verify_signature(issuer.public_key)
    name_match = (not issuer.subject.is_empty()
                  and issuer.subject == subject.issuer)

    skid = issuer.subject_key_id
    akid = subject.authority_key_id
    kid_match: bool | None
    if skid is None or akid is None:
        kid_match = None
    else:
        kid_match = skid == akid

    holds = True
    if policy.require_signature and not signature_valid:
        holds = False
    if holds:
        identifier_ok = False
        checked_any = False
        if policy.use_name_match:
            checked_any = True
            identifier_ok = identifier_ok or name_match
        if policy.use_kid_match and kid_match is not None:
            checked_any = True
            identifier_ok = identifier_ok or kid_match
        if checked_any and not identifier_ok:
            holds = False
    return RelationEvidence(
        signature_valid=signature_valid,
        name_match=name_match,
        kid_match=kid_match,
        holds=holds,
    )


def issued(issuer: Certificate, subject: Certificate,
           policy: RelationPolicy = DEFAULT_POLICY) -> bool:
    """True iff ``issuer`` certifies ``subject`` under ``policy``."""
    return evaluate(issuer, subject, policy).holds


def _structural_match(issuer: Certificate, subject: Certificate,
                      policy: RelationPolicy) -> bool:
    """Can ``issuer`` possibly certify ``subject``, ignoring signatures?

    Mirrors the identifier half of :func:`evaluate` exactly: True when
    the name or a determinate KID matches under the active policy, and
    also when no identifier criterion was checkable (the relation then
    rests on the signature alone).  A False here implies
    ``evaluate(...).holds`` is False regardless of the signature, which
    is what lets :func:`find_issuers` skip the (comparatively costly)
    signature check for structurally impossible candidates.
    """
    checked_any = False
    if policy.use_name_match:
        checked_any = True
        if (not issuer.subject.is_empty()
                and issuer.subject == subject.issuer):
            return True
    if policy.use_kid_match:
        skid = issuer.subject_key_id
        akid = subject.authority_key_id
        if skid is not None and akid is not None:
            checked_any = True
            if skid == akid:
                return True
    return not checked_any


def issuer_positions(subject: Certificate, candidates: list[Certificate],
                     policy: RelationPolicy = DEFAULT_POLICY) -> list[int]:
    """Indexes of the candidates that certify ``subject``, in order.

    A certificate never counts as its own issuer here: self-signed
    certificates terminate chains rather than extend them.  Candidates
    that fail both the name and KID criteria are rejected structurally,
    without evaluating the signature — the result is identical to
    running :func:`issued` over every candidate.
    """
    fingerprint = subject.fingerprint
    return [
        index
        for index, candidate in enumerate(candidates)
        if candidate.fingerprint != fingerprint
        and _structural_match(candidate, subject, policy)
        and issued(candidate, subject, policy)
    ]


def find_issuers(subject: Certificate, candidates: list[Certificate],
                 policy: RelationPolicy = DEFAULT_POLICY) -> list[Certificate]:
    """All candidates that certify ``subject``, in candidate order
    (see :func:`issuer_positions`)."""
    return [candidates[index]
            for index in issuer_positions(subject, candidates, policy)]
