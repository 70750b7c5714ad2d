"""Differential testing of client models over a chain corpus (§5.2).

Real-world chains have no ground-truth verdict, so the paper compares
clients against each other: chains where implementations disagree are
the interesting ones, and manual review attributes each disagreement to
a construction deficiency (I-1 order reorganisation, I-2 long chains,
I-3 backtracking, I-4 AIA).  This module runs any set of client models
over a corpus, groups outcomes, and auto-attributes library
discrepancies to those four causes using the same reasoning the paper
applies by hand.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from datetime import datetime

from repro.chainbuilder.clients import (
    ALL_CLIENTS,
    DIFFERENTIAL_BROWSERS,
    LIBRARIES,
)
from repro.chainbuilder.engine import ChainBuilder, ChainFacts, ClientVerdict
from repro.chainbuilder.policy import ClientPolicy
from repro.obs.evidence import Evidence
from repro.obs.trace import phase_scope
from repro.trust.aia import AIAFetcher
from repro.trust.cache import IntermediateCache
from repro.trust.rootstore import RootStoreRegistry
from repro.x509 import Certificate

#: Attribution tags mirroring the paper's issue identifiers.
ISSUE_ORDER = "I-1:order_reorganization"
ISSUE_LONG_CHAIN = "I-2:long_chain"
ISSUE_BACKTRACKING = "I-3:backtracking"
ISSUE_AIA = "I-4:aia_completion"
ISSUE_OTHER = "other"


@dataclass(frozen=True, slots=True)
class RecordedVerdict:
    """A client verdict reconstructed from a persistent store.

    Duck-types the ``.ok`` / ``.error`` surface of
    :class:`~repro.chainbuilder.engine.ClientVerdict` — everything the
    outcome aggregation reads — without the build trace a live
    validation carries.  ``ChainOutcome.result_of`` on a reconstructed
    verdict therefore reproduces the original result label byte for
    byte, which is what keeps warm differential runs identical.
    """

    ok: bool
    error: str | None = None


@dataclass
class ChainOutcome:
    """All client verdicts for one (domain, chain) observation."""

    domain: str
    chain_length: int
    verdicts: dict[str, ClientVerdict]

    def result_of(self, client: str) -> str:
        """Normalised result label: ``"ok"`` or the error reason."""
        verdict = self.verdicts[client]
        return "ok" if verdict.ok else (verdict.error or "unknown_error")

    def subset_results(self, clients: tuple[ClientPolicy, ...]) -> dict[str, str]:
        return {c.name: self.result_of(c.name) for c in clients
                if c.name in self.verdicts}

    def all_pass(self, clients: tuple[ClientPolicy, ...]) -> bool:
        return all(v == "ok" for v in self.subset_results(clients).values())

    def discrepant(self, clients: tuple[ClientPolicy, ...]) -> bool:
        results = set(self.subset_results(clients).values())
        return len(results) > 1

    def to_event(self) -> dict[str, object]:
        """JSON-ready journal payload: verdicts plus attribution evidence."""
        return {
            "domain": self.domain,
            "chain_length": self.chain_length,
            "results": {name: self.result_of(name) for name in self.verdicts},
            "attribution": [
                e.to_dict() for e in attribute_with_evidence(self)
            ] if self.discrepant(LIBRARIES) else [],
        }


@dataclass
class DifferentialReport:
    """Aggregated §5.2 statistics over one corpus."""

    outcomes: list[ChainOutcome] = field(default_factory=list)

    @property
    def total(self) -> int:
        return len(self.outcomes)

    def pass_all(self, clients: tuple[ClientPolicy, ...]) -> int:
        return sum(1 for o in self.outcomes if o.all_pass(clients))

    def discrepancies(self, clients: tuple[ClientPolicy, ...]
                      ) -> list[ChainOutcome]:
        return [o for o in self.outcomes if o.discrepant(clients)]

    def failure_rate(self, clients: tuple[ClientPolicy, ...]) -> float:
        """Share of chains failing in at least one of ``clients``."""
        if not self.outcomes:
            return 0.0
        failing = sum(1 for o in self.outcomes if not o.all_pass(clients))
        return 100.0 * failing / len(self.outcomes)

    def attribution_counts(self) -> Counter:
        """Counts per paper issue tag among library discrepancies."""
        counts: Counter = Counter()
        for outcome in self.discrepancies(LIBRARIES):
            for tag in attribute_library_discrepancy(outcome):
                counts[tag] += 1
        return counts


def attribute_library_discrepancy(outcome: ChainOutcome) -> set[str]:
    """Attribute one library discrepancy to the paper's I-1..I-4 causes.

    Tag-only view of :func:`attribute_with_evidence`, kept for callers
    that just count (the Table-style attribution summaries).
    """
    return {record.rule_id for record in attribute_with_evidence(outcome)}


def attribute_with_evidence(outcome: ChainOutcome) -> tuple[Evidence, ...]:
    """Attribute one library discrepancy, citing the client verdicts.

    The rules formalise the paper's manual analysis:

    * I-1 — MbedTLS alone cannot find an issuer while another library
      validates: the forward-only scan met a disordered chain.
    * I-2 — GnuTLS rejects the presented list as too long.
    * I-3 — a non-backtracking library anchored at an untrusted root
      while CryptoAPI (backtracking) validated.
    * I-4 — CryptoAPI validates but AIA-less libraries cannot complete
      the chain.

    Every record's ``details`` carries the per-client result map that
    triggered the rule, so a journal replay can re-derive the tag.
    """
    results = outcome.subset_results(LIBRARIES)
    ok_clients = {name for name, result in results.items() if result == "ok"}
    records: list[Evidence] = []

    def cite(rule_id: str, summary: str, clients: tuple[str, ...]) -> None:
        records.append(Evidence(
            rule_id=rule_id,
            verdict="attribution",
            summary=summary,
            details={
                "domain": outcome.domain,
                "chain_length": outcome.chain_length,
                "results": {name: results[name] for name in clients
                            if name in results},
            },
        ))

    if results.get("mbedtls") in ("no_issuer_found", "unknown_issuer") and (
        "openssl" in ok_clients or "gnutls" in ok_clients
    ):
        # Another AIA-less library succeeded, so the chain was locally
        # completable: MbedTLS's failure is its forward-only scan.
        cite(ISSUE_ORDER,
             "MbedTLS's forward-only scan dead-ended on a chain another "
             "AIA-less library completed locally",
             ("mbedtls", "openssl", "gnutls"))
    if results.get("gnutls") == "input_list_too_long":
        cite(ISSUE_LONG_CHAIN,
             f"GnuTLS rejected the presented list of "
             f"{outcome.chain_length} certificates as too long",
             ("gnutls",))
    if "cryptoapi" in ok_clients and any(
        results.get(name) == "untrusted_root"
        for name in ("openssl", "gnutls", "mbedtls")
    ):
        cite(ISSUE_BACKTRACKING,
             "a non-backtracking library anchored at an untrusted root "
             "while CryptoAPI backtracked to a trusted one",
             ("cryptoapi", "openssl", "gnutls", "mbedtls"))
    if "cryptoapi" in ok_clients and all(
        results.get(name) in ("no_issuer_found", "unknown_issuer")
        for name in ("openssl", "gnutls")
    ):
        # Both scope-unrestricted, AIA-less libraries dead-ended: the
        # chain needed a certificate that only AIA could supply.
        cite(ISSUE_AIA,
             "only AIA completion (CryptoAPI) could supply the missing "
             "intermediate; AIA-less libraries dead-ended",
             ("cryptoapi", "openssl", "gnutls"))
    if not records:
        cite(ISSUE_OTHER,
             "library verdicts disagree for a reason outside I-1..I-4",
             tuple(results))
    return tuple(records)


class DifferentialHarness:
    """Runs a set of client models over (domain, chain) observations.

    Each client consults its own root program from ``registry``;
    AIA-capable clients share ``aia_fetcher``; Firefox gets a private
    :class:`IntermediateCache` that can be pre-warmed with
    :meth:`prime_cache` to model an aged browser profile.
    """

    def __init__(
        self,
        registry: RootStoreRegistry,
        *,
        clients: tuple[ClientPolicy, ...] = ALL_CLIENTS,
        aia_fetcher: AIAFetcher | None = None,
    ) -> None:
        self.clients = clients
        self.cache = IntermediateCache(capacity=10_000)
        self._builders: dict[str, ChainBuilder] = {}
        for client in clients:
            self._builders[client.name] = ChainBuilder(
                client,
                registry.store(client.root_store),
                aia_fetcher=aia_fetcher,
                cache=self.cache if client.use_intermediate_cache else None,
            )

    def prime_cache(self, chains: list[list[Certificate]]) -> int:
        """Warm the intermediate cache from previously seen chains."""
        return sum(self.cache.observe_chain(chain) for chain in chains)

    def capability_digest(self) -> str:
        """Content hash of everything a stored outcome depends on.

        Covers every policy field of every client (enums by value),
        each client's root-store digest, whether it can fetch AIA, and
        the intermediate-cache population it validates against.  A
        persisted outcome is only reused under an identical digest —
        change a client's capabilities (or prime the cache) and every
        stored outcome silently invalidates, which is the safe
        direction.
        """
        import hashlib
        import json
        from dataclasses import fields as dataclass_fields

        description = []
        for client in self.clients:
            builder = self._builders[client.name]
            policy = {}
            for spec in dataclass_fields(client):
                value = getattr(client, spec.name)
                policy[spec.name] = getattr(value, "value", value)
            description.append({
                "policy": policy,
                "root_store_digest": builder.store.digest(),
                "aia": builder.aia_fetcher is not None,
                "cache_entries": (len(self.cache)
                                  if builder.cache is not None else None),
            })
        blob = json.dumps(description, sort_keys=True,
                          separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    def evaluate(self, domain: str, chain: list[Certificate], *,
                 at_time: datetime) -> ChainOutcome:
        """One observation through every client, over one fact table."""
        facts = ChainFacts(chain)
        verdicts = {
            name: builder.build_and_validate(
                chain, domain=domain, at_time=at_time, facts=facts
            )
            for name, builder in self._builders.items()
        }
        return ChainOutcome(domain, len(chain), verdicts)

    def run(
        self,
        observations: list[tuple[str, list[Certificate]]],
        *,
        at_time: datetime,
        observe_into_cache: bool = False,
        journal=None,
        verdict_store=None,
    ) -> DifferentialReport:
        """Evaluate a corpus; optionally let Firefox learn as it goes.

        With ``observe_into_cache`` the cache ingests each chain *after*
        evaluating it, modelling a browsing session in corpus order.
        With a ``journal`` (:class:`repro.obs.RunJournal`), every
        outcome is appended as a ``differential`` event carrying the
        per-client verdicts, the I-1..I-4 attribution evidence, and the
        served chain's fingerprint key; observations whose (domain,
        chain) the journal already holds from an earlier run are not
        re-appended, so resuming never duplicates events.

        Repeated (domain, chain) observations are evaluated once and
        the outcome reused — unlike compliance verdicts, outcomes are
        keyed on the domain too, because client validation is
        name-sensitive end to end.

        ``verdict_store`` (a
        :class:`~repro.measurement.store.VerdictStore`) persists
        outcomes across process lifetimes, keyed on ``(domain,
        chain_key, capability_digest)``; stored outcomes are
        reconstructed with :class:`RecordedVerdict` stand-ins, so
        result labels, attribution evidence, and journal events on a
        warm run are byte-identical to a cold one.

        Both reuses are disabled while ``observe_into_cache`` is
        set: a learning intermediate cache makes each verdict depend on
        every chain Firefox saw before it, so evaluation must stay
        strictly sequential and un-reused to mean anything — a
        persistent store under a learning cache is rejected outright.

        The run is one ``differential`` phase (``phase.*`` metrics and
        a span of that name).
        :meth:`evaluate`, which the fuzzer and the figure helpers call
        once per chain, records none.
        """
        if verdict_store is not None and observe_into_cache:
            raise ValueError(
                "a persistent outcome store cannot back a learning "
                "intermediate cache: outcomes would depend on "
                "evaluation history"
            )
        report = DifferentialReport()
        with phase_scope("differential"):
            if observe_into_cache:
                for domain, chain in observations:
                    outcome = self.evaluate(domain, chain, at_time=at_time)
                    report.outcomes.append(outcome)
                    self._journal_outcome(journal, domain, chain, outcome)
                    self.cache.observe_chain(chain)
                return report

            capability = (self.capability_digest()
                          if verdict_store is not None else None)
            local: dict[tuple[str, tuple[bytes, ...]], ChainOutcome] = {}
            for domain, chain in observations:
                pair = (domain, tuple(c.fingerprint for c in chain))
                outcome = local.get(pair)
                if outcome is None:
                    outcome = self._stored_or_evaluated(
                        domain, chain, at_time, verdict_store, capability
                    )
                    local[pair] = outcome
                report.outcomes.append(outcome)
                self._journal_outcome(journal, domain, chain, outcome)
        return report

    def _stored_or_evaluated(self, domain, chain, at_time, verdict_store,
                             capability) -> ChainOutcome:
        """The stored outcome of one observation, else a fresh one
        (written through to ``verdict_store`` when there is one)."""
        if verdict_store is None:
            return self.evaluate(domain, chain, at_time=at_time)
        hexkey = tuple(c.fingerprint_hex for c in chain)
        payload = verdict_store.get_outcome(domain, hexkey, capability)
        if payload is not None:
            return ChainOutcome(
                domain, int(payload["chain_length"]),
                {name: RecordedVerdict(
                    result == "ok", None if result == "ok" else result,
                ) for name, result in payload["results"].items()},
            )
        outcome = self.evaluate(domain, chain, at_time=at_time)
        verdict_store.put_outcome(
            domain, hexkey, capability,
            chain_length=outcome.chain_length,
            results={name: outcome.result_of(name)
                     for name in outcome.verdicts},
        )
        return outcome

    @staticmethod
    def _journal_outcome(journal, domain, chain, outcome) -> None:
        if journal is not None:
            journal.record("differential",
                           chain_key=[c.fingerprint_hex for c in chain],
                           **outcome.to_event())


__all__ = [
    "ChainOutcome",
    "DifferentialHarness",
    "DifferentialReport",
    "RecordedVerdict",
    "ISSUE_AIA",
    "ISSUE_BACKTRACKING",
    "ISSUE_LONG_CHAIN",
    "ISSUE_ORDER",
    "ISSUE_OTHER",
    "attribute_library_discrepancy",
    "attribute_with_evidence",
    "DIFFERENTIAL_BROWSERS",
]
