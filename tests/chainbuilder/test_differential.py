"""Differential harness: outcomes, attribution rules, cache modes."""

import hashlib
import json
import random

import pytest

from repro import obs
from repro.ca import build_hierarchy, malform
from repro.chainbuilder import (
    ALL_CLIENTS,
    DIFFERENTIAL_BROWSERS,
    ChainFuzzer,
    DifferentialHarness,
    LIBRARIES,
    attribute_library_discrepancy,
)
from repro.chainbuilder.differential import (
    ISSUE_AIA,
    ISSUE_BACKTRACKING,
    ISSUE_LONG_CHAIN,
    ISSUE_ORDER,
    ISSUE_OTHER,
    ChainOutcome,
)
from repro.trust import RootStoreRegistry, StaticAIARepository
from repro.webpki import Ecosystem, EcosystemConfig
from repro.x509 import utc

NOW = utc(2024, 6, 15)


@pytest.fixture(scope="module")
def world():
    h = build_hierarchy(
        "Diff", depth=2, key_seed_prefix="diff",
        aia_base="http://aia.diff.example",
    )
    registry = RootStoreRegistry()
    registry.add_everywhere(h.root.certificate)
    repo = StaticAIARepository()
    for authority in h.authorities:
        repo.publish(authority.aia_uri, authority.certificate)
    leaf = h.issue_leaf("diff.example", not_before=utc(2024, 1, 1), days=365)
    return h, leaf, registry, repo


class TestHarness:
    def test_compliant_chain_unanimous(self, world):
        h, leaf, registry, repo = world
        harness = DifferentialHarness(registry, aia_fetcher=repo)
        outcome = harness.evaluate("diff.example", h.chain_for(leaf), at_time=NOW)
        assert outcome.all_pass(ALL_CLIENTS)
        assert not outcome.discrepant(ALL_CLIENTS)

    def test_reversed_chain_fails_only_mbedtls(self, world):
        h, leaf, registry, repo = world
        harness = DifferentialHarness(registry, aia_fetcher=repo)
        chain = malform.reverse_intermediates(h.chain_for(leaf))
        outcome = harness.evaluate("diff.example", chain, at_time=NOW)
        results = outcome.subset_results(LIBRARIES)
        assert results["openssl"] == "ok"
        assert results["mbedtls"] != "ok"
        assert outcome.discrepant(LIBRARIES)
        assert attribute_library_discrepancy(outcome) == {ISSUE_ORDER}

    def test_incomplete_chain_attributed_to_aia(self, world):
        h, leaf, registry, repo = world
        harness = DifferentialHarness(registry, aia_fetcher=repo)
        outcome = harness.evaluate("diff.example", [leaf], at_time=NOW)
        results = outcome.subset_results(LIBRARIES)
        assert results["cryptoapi"] == "ok"
        assert results["openssl"] == "no_issuer_found"
        assert ISSUE_AIA in attribute_library_discrepancy(outcome)

    def test_long_list_attributed_to_gnutls_limit(self, world):
        h, leaf, registry, repo = world
        harness = DifferentialHarness(registry, aia_fetcher=repo)
        chain = malform.duplicate_certificate(
            h.chain_for(leaf, include_root=True), 1, copies=14
        )
        outcome = harness.evaluate("diff.example", chain, at_time=NOW)
        assert outcome.subset_results(LIBRARIES)["gnutls"] == "input_list_too_long"
        assert ISSUE_LONG_CHAIN in attribute_library_discrepancy(outcome)

    def test_report_aggregates(self, world):
        h, leaf, registry, repo = world
        harness = DifferentialHarness(registry, aia_fetcher=repo)
        observations = [
            ("diff.example", h.chain_for(leaf)),
            ("diff.example", malform.reverse_intermediates(h.chain_for(leaf))),
            ("diff.example", [leaf]),
        ]
        report = harness.run(observations, at_time=NOW)
        assert report.total == 3
        # Firefox's cold cache cannot complete the bare-leaf chain, so
        # only the first two pass every differential browser.
        assert report.pass_all(DIFFERENTIAL_BROWSERS) == 2
        assert report.pass_all(LIBRARIES) == 1
        assert len(report.discrepancies(LIBRARIES)) == 2
        assert 0 < report.failure_rate(LIBRARIES) <= 100

    def test_firefox_cache_learning(self, world):
        h, leaf, registry, repo = world
        harness = DifferentialHarness(registry, aia_fetcher=repo)
        observations = [
            ("diff.example", h.chain_for(leaf, include_root=True)),
            ("diff.example", [leaf]),
        ]
        report = harness.run(observations, at_time=NOW,
                             observe_into_cache=True)
        # Firefox learned the intermediates from the first chain, so it
        # completes the bare-leaf chain from cache.
        assert report.outcomes[1].result_of("firefox") == "ok"

    def test_firefox_cold_cache_fails(self, world):
        h, leaf, registry, repo = world
        harness = DifferentialHarness(registry, aia_fetcher=repo)
        outcome = harness.evaluate("cold.example", [leaf], at_time=NOW)
        assert outcome.result_of("firefox") != "ok"


class TestAttributionRules:
    def _outcome(self, results):
        from repro.chainbuilder import BuildResult, ClientVerdict
        from repro.chainbuilder.verify import ValidationResult

        verdicts = {}
        for name, label in results.items():
            if label == "ok":
                verdicts[name] = ClientVerdict(
                    BuildResult(True), ValidationResult(True)
                )
            else:
                verdicts[name] = ClientVerdict(
                    BuildResult(False, error=label),
                    ValidationResult(False, label),
                )
        return ChainOutcome("x.example", 3, verdicts)

    def test_backtracking_rule(self):
        outcome = self._outcome({
            "openssl": "untrusted_root", "gnutls": "untrusted_root",
            "mbedtls": "ok", "cryptoapi": "ok",
        })
        assert ISSUE_BACKTRACKING in attribute_library_discrepancy(outcome)

    def test_order_rule_requires_other_library_passing(self):
        outcome = self._outcome({
            "openssl": "no_issuer_found", "gnutls": "no_issuer_found",
            "mbedtls": "no_issuer_found", "cryptoapi": "ok",
        })
        tags = attribute_library_discrepancy(outcome)
        assert ISSUE_ORDER not in tags
        assert ISSUE_AIA in tags

    def test_unclassified_falls_back_to_other(self):
        outcome = self._outcome({
            "openssl": "date_invalid", "gnutls": "ok",
            "mbedtls": "ok", "cryptoapi": "ok",
        })
        assert attribute_library_discrepancy(outcome) == {ISSUE_OTHER}


class TestPinnedOutcomes:
    #: SHA-256 over the 312 outcomes' ``to_event()`` payloads of the
    #: 300-domain seed-833 ecosystem, computed with this recipe before
    #: the builder carried TBS bytes out of signing, certificates
    #: remembered their verifying key and lone issuer candidates went
    #: unranked.  Any changed verdict, error label or attribution
    #: record changes it.
    PINNED = "2daa1d2d5ab0d2206b30991d8b22e5b2a46b347b4c2b5e2c1a56e2e1845459b7"

    def test_cli_mode_outcomes_are_pinned(self):
        ecosystem = Ecosystem.generate(
            EcosystemConfig(n_domains=300, seed=833)
        )
        harness = DifferentialHarness(
            ecosystem.registry, aia_fetcher=ecosystem.aia_repo
        )
        # the CLI's mode: Firefox's intermediate cache learns as it goes
        report = harness.run(ecosystem.observations(),
                             at_time=ecosystem.config.now,
                             observe_into_cache=True)
        digest = hashlib.sha256()
        for outcome in report.outcomes:
            digest.update(json.dumps(outcome.to_event(), sort_keys=True,
                                     separators=(",", ":")).encode())
            digest.update(b"\n")
        assert report.total == 312
        assert digest.hexdigest() == self.PINNED


@pytest.fixture(scope="module")
def reference_world():
    """The 300-domain seed-833 ecosystem the pinned digests cover."""
    return Ecosystem.generate(EcosystemConfig(n_domains=300, seed=833))


def _harness(ecosystem):
    return DifferentialHarness(ecosystem.registry,
                               aia_fetcher=ecosystem.aia_repo)


class TestPinnedBuilds:
    #: SHA-256 over what every client built and validated for the 312
    #: outcomes of the 300-domain seed-833 ecosystem in the CLI's
    #: learning mode: per outcome and client in order, the anchored
    #: flag, the error, each step's fingerprint, source and position,
    #: the four BuildStats counters and the ValidationResult fields.
    #: Recorded before the clients shared one fact table per chain.
    #: A client that walks another path changes it even when its
    #: result label (which ``TestPinnedOutcomes`` pins) stays.
    PINNED = "4330bff63affddc30df152f784841b3db8d18144b5829177063444394c471ce3"

    def test_cli_mode_builds_are_pinned(self, reference_world):
        report = _harness(reference_world).run(
            reference_world.observations(),
            at_time=reference_world.config.now, observe_into_cache=True,
        )
        digest = hashlib.sha256()
        for outcome in report.outcomes:
            for name, verdict in outcome.verdicts.items():
                build, validation = verdict.build, verdict.validation
                stats = build.stats
                record = [
                    name, build.anchored, build.error,
                    [[step.certificate.fingerprint_hex, step.source,
                      step.position] for step in build.steps],
                    [stats.candidates_considered, stats.backtracks,
                     stats.aia_fetches, stats.cache_lookups],
                    [validation.ok, validation.error,
                     validation.failing_index],
                ]
                digest.update(json.dumps(record,
                                         separators=(",", ":")).encode())
                digest.update(b"\n")
        assert report.total == 312
        assert digest.hexdigest() == self.PINNED

    def test_shared_table_equals_each_client_alone(self, reference_world):
        """Every client reads the harness's one table per chain; each
        must build and validate exactly what it builds with a table of
        its own, on the world's chains and on fuzzed mutants of them
        (disordered, duplicated, truncated, with strangers inserted)."""
        now = reference_world.config.now
        shared = _harness(reference_world)
        alone = _harness(reference_world)
        observations = reference_world.observations()
        fuzzer = ChainFuzzer(shared, observations, rng=random.Random(22))
        mutants = []
        for _ in range(400):
            domain, base = fuzzer.rng.choice(observations)
            mutant, _applied = fuzzer.mutate(base, fuzzer.rng.randint(1, 3))
            mutants.append((domain, mutant))
        builders = alone._builders  # noqa: SLF001 - each client alone
        for domain, chain in [*observations, *mutants]:
            outcome = shared.evaluate(domain, chain, at_time=now)
            for name, builder in builders.items():
                verdict = builder.build_and_validate(
                    chain, domain=domain, at_time=now)
                assert verdict == outcome.verdicts[name], (domain, name)
            # both Firefox caches learn the same chains in the same order
            shared.cache.observe_chain(chain)
            alone.cache.observe_chain(chain)


    def test_shared_table_keeps_each_root_program(self):
        """A root that only two programs trust: the table's store
        issuers are per program, so the other clients still fail."""
        h = build_hierarchy("DiffPrograms", depth=1,
                            key_seed_prefix="diff-programs")
        registry = RootStoreRegistry()
        registry.add_to(h.root.certificate, ("microsoft", "apple"))
        leaf = h.issue_leaf("programs.example",
                            not_before=utc(2024, 1, 1), days=365)
        chain = h.chain_for(leaf)
        shared = DifferentialHarness(registry)
        alone = DifferentialHarness(registry)
        outcome = shared.evaluate("programs.example", chain, at_time=NOW)
        for name, builder in alone._builders.items():  # noqa: SLF001
            assert builder.build_and_validate(
                chain, domain="programs.example", at_time=NOW,
            ) == outcome.verdicts[name], name
        results = outcome.subset_results(ALL_CLIENTS)
        assert {name for name, result in results.items()
                if result == "ok"} == {"cryptoapi", "edge", "safari"}


class TestDifferentialPhase:
    def test_run_is_one_differential_phase(self, reference_world):
        harness = _harness(reference_world)
        now = reference_world.config.now
        observations = reference_world.observations()
        with obs.instrumented() as (metrics, _tracer):
            harness.run(observations, at_time=now,
                        observe_into_cache=True)
            # a single evaluation (fuzzer, figure helpers) is no phase
            harness.evaluate(*observations[0], at_time=now)
        series = metrics.snapshot()["phase.wall_seconds"]["series"]
        phases = [s for s in series
                  if s["labels"] == {"phase": "differential"}]
        assert len(phases) == 1
        assert phases[0]["count"] == 1 and phases[0]["sum"] > 0

    def test_run_leaves_one_differential_span(self, reference_world):
        """The phase is also a span of the same name, so a traced
        differential run shows where its time went."""
        harness = _harness(reference_world)
        now = reference_world.config.now
        observations = reference_world.observations()[:20]
        with obs.instrumented() as (_metrics, tracer):
            harness.run(observations, at_time=now)
            harness.evaluate(*observations[0], at_time=now)
        assert [root.name for root in tracer.roots()] == ["differential"]
