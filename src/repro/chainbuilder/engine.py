"""The policy-parameterised chain-construction engine (Figure 1 step 1).

One forward builder impersonates all eight clients: it starts from the
first presented certificate, repeatedly selects an issuer among the
candidates its :class:`~repro.chainbuilder.policy.ClientPolicy` can see
(presented list, intermediate cache, root store, AIA), ordered by the
policy's priority rules, and terminates when it reaches a trusted
anchor.  Backtracking-capable policies explore alternatives on failure;
the rest commit to their first choice, exactly the deficiency the
paper's I-3 case documents.

What does not depend on the client (which presented certificates and
which anchors issued a certificate, and how a path fares in every
validation check but trust anchoring) lives in one :class:`ChainFacts`
table per chain, which every builder over that chain reads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import datetime

from repro import obs
from repro.chainbuilder.policy import (
    ClientPolicy,
    KIDPriority,
    SearchScope,
    ValidityPriority,
)
from repro.chainbuilder.verify import (
    ValidationResult,
    anchor_verdict,
    validate_unanchored,
)
from repro.core.relation import DEFAULT_POLICY, issued, issuer_positions
from repro.errors import AIAFetchError
from repro.trust.aia import AIAFetcher
from repro.trust.cache import IntermediateCache
from repro.trust.revocation import RevocationRegistry, RevocationStatus
from repro.trust.rootstore import RootStore
from repro.x509 import Certificate

#: Source tags for where a path certificate came from.
SOURCE_PRESENTED = "presented"
SOURCE_CACHE = "cache"
SOURCE_STORE = "store"
SOURCE_AIA = "aia"


@dataclass(frozen=True, slots=True)
class PathStep:
    """One certificate in a constructed path, with provenance."""

    certificate: Certificate
    source: str
    position: int | None  # index in the presented list, if applicable


@dataclass
class BuildStats:
    """Counters the capability and differential benches report."""

    candidates_considered: int = 0
    backtracks: int = 0
    aia_fetches: int = 0
    cache_lookups: int = 0


@dataclass
class BuildResult:
    """Outcome of one construction attempt.

    ``anchored`` — the path terminates at a certificate whose key is in
    the client's root store.  ``path`` is always the best-effort
    construction (even on failure, so differential analysis can see
    *which wrong* path a deficient client committed to).  ``error`` is
    a reason code on failure (``no_issuer_found``, ``untrusted_root``,
    ``length_limit_exceeded``, ``input_list_too_long``,
    ``self_signed_leaf_rejected``, ``empty_input``).
    """

    anchored: bool
    steps: list[PathStep] = field(default_factory=list)
    error: str | None = None
    stats: BuildStats = field(default_factory=BuildStats)

    @property
    def path(self) -> list[Certificate]:
        return [step.certificate for step in self.steps]

    @property
    def structure(self) -> str:
        """Paper notation over presented positions, e.g. ``"8->1->16->0"``.

        Certificates pulled from the store/cache/AIA render as their
        source tag.
        """
        labels = [
            str(step.position) if step.position is not None else step.source
            for step in self.steps
        ]
        return "->".join(reversed(labels))


@dataclass(frozen=True, slots=True)
class ClientVerdict:
    """Construction plus validation — what a client ultimately reports."""

    build: BuildResult
    validation: ValidationResult

    @property
    def ok(self) -> bool:
        return self.build.anchored and self.validation.ok

    @property
    def error(self) -> str | None:
        if self.build.error is not None and not self.build.anchored:
            return self.build.error
        return self.validation.error


class ChainFacts:
    """What every client's construction over one presented list reads.

    Which presented certificates issued a certificate, which anchors of
    a root program did, and how a path fares in every validation check
    but trust anchoring do not depend on the client asking.  The
    differential harness builds one table per chain and hands it to all
    eight builders; each builder applies only its own policy to what
    the table returns (search scope, the used-set filter, partial
    validation, priority, backtracking and limits).  Entries are filled
    on first use.  Nothing is cached on the certificates themselves.

    The Firefox cache lookup and AIA fetches stay with each builder:
    they have per-call side effects (LRU recency, hit/miss and fetch
    counters, fault plans) that every client's construction must still
    cause.
    """

    __slots__ = ("presented", "_presented_issuers", "_store_issuers",
                 "_validations")

    def __init__(self, presented: list[Certificate]) -> None:
        self.presented = presented
        self._presented_issuers: dict[bytes, tuple[PathStep, ...]] = {}
        self._store_issuers: dict[tuple[RootStore, bytes],
                                  tuple[PathStep, ...]] = {}
        self._validations: dict[tuple, ValidationResult] = {}

    def presented_issuers(self, subject: Certificate) -> tuple[PathStep, ...]:
        """The presented certificates that issued ``subject``, as steps
        in list order (:func:`~repro.core.relation.issuer_positions`:
        a copy of the subject never counts, and the name/KID
        pre-filter spares the signature check)."""
        fingerprint = subject.fingerprint
        steps = self._presented_issuers.get(fingerprint)
        if steps is None:
            presented = self.presented
            steps = self._presented_issuers[fingerprint] = tuple(
                PathStep(presented[index], SOURCE_PRESENTED, index)
                for index in issuer_positions(subject, presented)
            )
        return steps

    def store_issuers(self, store: RootStore,
                      subject: Certificate) -> tuple[PathStep, ...]:
        """``store``'s anchors that plausibly issued ``subject``."""
        key = (store, subject.fingerprint)
        steps = self._store_issuers.get(key)
        if steps is None:
            steps = self._store_issuers[key] = tuple(
                PathStep(anchor, SOURCE_STORE, None)
                for anchor in store.find_issuers_of(subject)
            )
        return steps

    def validation(self, path: list[Certificate], store: RootStore, *,
                   at_time: datetime, domain: str | None,
                   revocation: RevocationRegistry | None,
                   ) -> ValidationResult:
        """:func:`~repro.chainbuilder.verify.validate_path`'s verdict.

        Every check but trust anchoring runs once per distinct path,
        domain, time and revocation registry; only the anchoring reads
        ``store``.
        """
        key = (tuple([cert.fingerprint for cert in path]), revocation,
               domain, at_time)
        unanchored = self._validations.get(key)
        if unanchored is None:
            unanchored = self._validations[key] = validate_unanchored(
                path, at_time=at_time, domain=domain, revocation=revocation,
            )
        return anchor_verdict(unanchored, path, store)


class ChainBuilder:
    """A TLS client model: policy + trust environment.

    Parameters
    ----------
    policy:
        The client's behavioural profile.
    store:
        The client's root store.
    aia_fetcher:
        Resolver for AIA URIs; only consulted when the policy enables
        AIA fetching.
    cache:
        Intermediate cache; only consulted when the policy enables it
        (Firefox).  The caller owns population via ``cache.observe``.
    revocation:
        Optional revocation registry.  Partial-validation policies
        (MbedTLS) consult it while *building* — revoked candidates are
        never added to the path — and every policy consults it during
        validation.
    """

    def __init__(
        self,
        policy: ClientPolicy,
        store: RootStore,
        *,
        aia_fetcher: AIAFetcher | None = None,
        cache: IntermediateCache | None = None,
        revocation: RevocationRegistry | None = None,
    ) -> None:
        self.policy = policy
        self.store = store
        self.aia_fetcher = aia_fetcher
        self.cache = cache
        self.revocation = revocation

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def build(self, presented: list[Certificate], *, at_time: datetime,
              facts: ChainFacts | None = None) -> BuildResult:
        """Construct a certification path from ``presented``.

        ``facts`` is the table of ``presented`` shared with other
        builders over the same list; without one the build makes its
        own.
        """
        if facts is None:
            facts = ChainFacts(presented)
        elif facts.presented is not presented:
            raise ValueError("the fact table was built for another "
                             "presented list")
        result = self._build(facts, at_time=at_time)
        metrics = obs.get_metrics()
        metrics.counter("chainbuilder.builds",
                        client=self.policy.name,
                        outcome="anchored" if result.anchored else "failed",
                        ).inc()
        stats = result.stats
        metrics.counter("chainbuilder.paths_explored").inc(
            stats.candidates_considered
        )
        metrics.counter("chainbuilder.backtracks").inc(stats.backtracks)
        return result

    def _build(self, facts: ChainFacts, *,
               at_time: datetime) -> BuildResult:
        presented = facts.presented
        ctx = _BuildContext()
        if not presented:
            return BuildResult(False, [], "empty_input", ctx.stats)
        limit = self.policy.max_input_list
        if limit is not None and len(presented) > limit:
            # GnuTLS bounds the *presented list*, not the built path —
            # duplicates and irrelevant certificates count against it.
            return BuildResult(False, [], "input_list_too_long", ctx.stats)

        leaf = presented[0]
        if leaf.is_self_signed:
            if not self.policy.allow_self_signed_leaf:
                return BuildResult(
                    False,
                    [PathStep(leaf, SOURCE_PRESENTED, 0)],
                    "self_signed_leaf_rejected",
                    ctx.stats,
                )
            step = PathStep(leaf, SOURCE_PRESENTED, 0)
            if self.store.contains_key_of(leaf):
                return BuildResult(True, [step], None, ctx.stats)
            return BuildResult(False, [step], "untrusted_root", ctx.stats)

        root_step = PathStep(leaf, SOURCE_PRESENTED, 0)
        outcome = self._extend([root_step], facts, at_time, ctx)
        if outcome is not None:
            return outcome
        # No anchored path: return the deepest failure recorded.
        if ctx.best_failure is not None:
            ctx.best_failure.stats = ctx.stats
            return ctx.best_failure
        return BuildResult(False, [root_step], "no_issuer_found", ctx.stats)

    def build_and_validate(
        self,
        presented: list[Certificate],
        *,
        domain: str | None,
        at_time: datetime,
        facts: ChainFacts | None = None,
    ) -> ClientVerdict:
        """Full Figure 1 pipeline: construct, then validate.

        ``facts`` is as for :meth:`build`; validation reads it too.
        """
        if facts is None:
            facts = ChainFacts(presented)
        build = self.build(presented, at_time=at_time, facts=facts)
        path = build.path
        if not path:
            validation = ValidationResult(False, build.error or "empty_path")
        else:
            validation = facts.validation(
                path, self.store, at_time=at_time, domain=domain,
                revocation=self.revocation,
            )
        return ClientVerdict(build, validation)

    # ------------------------------------------------------------------
    # Construction internals
    # ------------------------------------------------------------------

    def _extend(
        self,
        steps: list[PathStep],
        facts: ChainFacts,
        at_time: datetime,
        ctx: "_BuildContext",
    ) -> BuildResult | None:
        """DFS extension; returns an anchored result or None."""
        current = steps[-1]
        max_len = self.policy.max_path_length
        if max_len is not None and len(steps) >= max_len:
            ctx.record_failure(steps, "length_limit_exceeded")
            return None

        candidates = self._candidates_for(
            current, facts, steps, at_time, ctx.stats
        )
        if not candidates:
            ctx.record_failure(steps, "no_issuer_found")
            return None

        tried = 0
        for step in candidates:
            if tried >= 1 and not self.policy.backtracking:
                break
            if tried >= 1:
                ctx.stats.backtracks += 1
            tried += 1
            new_steps = [*steps, step]
            cert = step.certificate
            if cert.is_self_signed or step.source == SOURCE_STORE:
                if self.store.contains_key_of(cert):
                    return BuildResult(True, new_steps, None, ctx.stats)
                ctx.record_failure(new_steps, "untrusted_root")
                continue
            result = self._extend(new_steps, facts, at_time, ctx)
            if result is not None:
                return result
        return None

    def _candidates_for(
        self,
        current: PathStep,
        facts: ChainFacts,
        steps: list[PathStep],
        at_time: datetime,
        stats: BuildStats,
    ) -> list[PathStep]:
        """Collect, filter and priority-order issuer candidates."""
        subject = current.certificate
        used = {step.certificate.fingerprint for step in steps}

        # (a) the presented list, within the policy's search scope
        start = 0
        if (
            self.policy.search_scope is SearchScope.FORWARD
            and current.position is not None
        ):
            start = current.position + 1
        found = [
            step for step in facts.presented_issuers(subject)
            if step.position >= start
            and step.certificate.fingerprint not in used
        ]

        # (b) the intermediate cache (Firefox)
        if self.policy.use_intermediate_cache and self.cache is not None:
            stats.cache_lookups += 1
            for candidate in self.cache.find_issuers(subject):
                if candidate.fingerprint not in used and not any(
                    s.certificate.fingerprint == candidate.fingerprint
                    for s in found
                ):
                    found.append(PathStep(candidate, SOURCE_CACHE, None))

        # (c) the root store
        for step in facts.store_issuers(self.store, subject):
            anchor = step.certificate
            if anchor.fingerprint not in used and not any(
                s.certificate.fingerprint == anchor.fingerprint for s in found
            ):
                found.append(step)

        # (d) AIA, only when nothing local turned up
        if not found and self.policy.aia_fetching and self.aia_fetcher is not None:
            for uri in subject.aia_ca_issuer_uris:
                stats.aia_fetches += 1
                try:
                    fetched = self.aia_fetcher.fetch(uri)
                except AIAFetchError:
                    continue
                if (
                    fetched.fingerprint not in used
                    and fetched.fingerprint != subject.fingerprint
                    and issued(fetched, subject, DEFAULT_POLICY)
                ):
                    found.append(PathStep(fetched, SOURCE_AIA, None))
                    break

        stats.candidates_considered += len(found)
        obs.get_metrics().histogram(
            "chainbuilder.candidate_pool_size"
        ).observe(len(found))

        if self.policy.partial_validation:
            # MbedTLS validates while building: out-of-window or revoked
            # candidates never make it onto the path.
            found = [
                step for step in found
                if step.certificate.is_valid_at(at_time)
                and (
                    self.revocation is None
                    or self.revocation.status(step.certificate)
                    is not RevocationStatus.REVOKED
                )
            ]

        if len(found) < 2:
            # ``sorted`` computes the key even for a lone element; with
            # no choice to make, skip the ranking.
            return found
        return sorted(
            found, key=lambda step: self._priority_key(step, steps, at_time)
        )

    # ------------------------------------------------------------------
    # Priority ordering
    # ------------------------------------------------------------------

    def _priority_key(self, step: PathStep, steps: list[PathStep],
                      at_time: datetime):
        """Lower tuples sort first; stable sort keeps list order on ties."""
        subject = steps[-1].certificate
        candidate = step.certificate
        return (
            self._kid_rank(candidate, subject),
            self._anchor_rank(candidate),
            self._validity_rank(candidate, at_time),
            self._key_usage_rank(candidate),
            self._basic_constraints_rank(candidate, steps),
        )

    def _kid_rank(self, candidate: Certificate, subject: Certificate) -> int:
        mode = self.policy.kid_priority
        if mode is KIDPriority.NONE:
            return 0
        akid = subject.authority_key_id
        skid = candidate.subject_key_id
        if akid is None or skid is None:
            status = "absent"
        elif akid == skid:
            status = "match"
        else:
            status = "mismatch"
        if mode is KIDPriority.MATCH_OR_ABSENT_OVER_MISMATCH:
            return 0 if status in ("match", "absent") else 1
        return {"match": 0, "absent": 1, "mismatch": 2}[status]

    def _anchor_rank(self, candidate: Certificate) -> int:
        if not self.policy.prefer_trusted_anchor:
            return 0
        return 0 if self.store.contains_key_of(candidate) else 1

    def _validity_rank(self, candidate: Certificate, at_time: datetime):
        mode = self.policy.validity_priority
        if mode is ValidityPriority.NONE:
            return (0, 0.0, 0.0)
        valid = candidate.is_valid_at(at_time)
        if mode is ValidityPriority.FIRST_VALID:
            return (0 if valid else 1, 0.0, 0.0)
        if not valid:
            return (1, 0.0, 0.0)
        validity = candidate.validity
        return (
            0,
            -validity.not_before.timestamp(),
            -validity.duration.total_seconds(),
        )

    def _key_usage_rank(self, candidate: Certificate) -> int:
        if not self.policy.key_usage_priority:
            return 0
        usage = candidate.extensions.key_usage
        # Correct or missing KeyUsage outranks an incorrect one (KUP).
        return 0 if usage is None or usage.key_cert_sign else 1

    def _basic_constraints_rank(self, candidate: Certificate,
                                steps: list[PathStep]) -> int:
        if not self.policy.basic_constraints_priority:
            return 0
        if not candidate.is_ca:
            return 1
        constraint = candidate.path_length_constraint
        if constraint is None:
            return 0
        intermediates_below = sum(
            1 for step in steps[1:] if not step.certificate.is_self_issued
        )
        return 0 if constraint >= intermediates_below else 1

class _BuildContext:
    """Per-build mutable state: counters plus the deepest failure seen."""

    __slots__ = ("stats", "best_failure")

    def __init__(self) -> None:
        self.stats = BuildStats()
        self.best_failure: BuildResult | None = None

    def record_failure(self, steps: list[PathStep], reason: str) -> None:
        """Remember the deepest failing path for the final error report."""
        if self.best_failure is None or len(steps) >= len(self.best_failure.steps):
            self.best_failure = BuildResult(False, list(steps), reason, self.stats)
