"""Engine edge cases: AIA oddities, candidate interplay, tie-breaking."""

import pytest

from repro.ca import build_hierarchy
from repro.chainbuilder import (
    ChainBuilder,
    ClientPolicy,
    KIDPriority,
    SearchScope,
)
from repro.trust import IntermediateCache, RootStore, StaticAIARepository
from repro.x509 import utc

NOW = utc(2024, 6, 15)

AIA_POLICY = ClientPolicy(
    name="edge-aia", display_name="EdgeAIA", kind="library",
    aia_fetching=True, backtracking=True,
)


@pytest.fixture(scope="module")
def world():
    h = build_hierarchy(
        "EngEdge", depth=2, key_seed_prefix="engedge",
        aia_base="http://aia.engedge.example",
    )
    leaf = h.issue_leaf("engedge.example", not_before=utc(2024, 1, 1),
                        days=365)
    store = RootStore("engedge", [h.root.certificate])
    return h, leaf, store


class TestAIAEdges:
    def test_aia_serving_requester_itself_is_skipped(self, world):
        h, _leaf, store = world
        uri = "http://aia.engedge.example/self.crt"
        leaf = h.issuing_ca.issue_leaf(
            "selfloop.example", aia_uri=uri,
            not_before=utc(2024, 1, 1), days=365,
        )
        repo = StaticAIARepository()
        repo.publish(uri, leaf)  # the CAcert pathology
        builder = ChainBuilder(AIA_POLICY, store, aia_fetcher=repo)
        result = builder.build([leaf], at_time=NOW)
        assert not result.anchored
        assert result.error == "no_issuer_found"

    def test_aia_serving_non_issuer_is_skipped(self, world):
        h, _leaf, store = world
        other = build_hierarchy("EngEdgeO", depth=0,
                                key_seed_prefix="engedge-o")
        uri = "http://aia.engedge.example/wrong.crt"
        leaf = h.issuing_ca.issue_leaf(
            "wrongaia.example", aia_uri=uri,
            not_before=utc(2024, 1, 1), days=365,
        )
        repo = StaticAIARepository()
        repo.publish(uri, other.root.certificate)
        builder = ChainBuilder(AIA_POLICY, store, aia_fetcher=repo)
        result = builder.build([leaf], at_time=NOW)
        assert not result.anchored

    def test_aia_failures_do_not_crash_the_build(self, world):
        h, _leaf, store = world
        leaf = h.issuing_ca.issue_leaf(
            "deadaia.example",
            aia_uri="http://aia.engedge.example/404.crt",
            not_before=utc(2024, 1, 1), days=365,
        )
        builder = ChainBuilder(AIA_POLICY, store,
                               aia_fetcher=StaticAIARepository())
        result = builder.build([leaf], at_time=NOW)
        assert result.error == "no_issuer_found"
        assert result.stats.aia_fetches == 1

    def test_fetcher_bug_propagates_out_of_the_build(self, world):
        # only AIAFetchError means "no certificate at this URI"; any
        # other exception is a fault in the fetcher, not a verdict
        class BrokenFetcher:
            def fetch(self, uri):
                raise RuntimeError("fetcher bug")

        h, _leaf, store = world
        leaf = h.issuing_ca.issue_leaf(
            "brokenaia.example", not_before=utc(2024, 1, 1), days=365,
        )
        builder = ChainBuilder(AIA_POLICY, store,
                               aia_fetcher=BrokenFetcher())
        with pytest.raises(RuntimeError, match="fetcher bug"):
            builder.build([leaf], at_time=NOW)

    def test_local_candidates_suppress_aia(self, world):
        h, leaf, store = world
        repo = StaticAIARepository()
        for authority in h.authorities:
            repo.publish(authority.aia_uri, authority.certificate)
        builder = ChainBuilder(AIA_POLICY, store, aia_fetcher=repo)
        result = builder.build(h.chain_for(leaf), at_time=NOW)
        assert result.anchored
        assert result.stats.aia_fetches == 0


class TestCandidateInterplay:
    def test_cache_candidates_deduplicate_against_presented(self, world):
        h, leaf, store = world
        cache = IntermediateCache()
        cache.observe_chain(h.chain_for(leaf, include_root=True))
        policy = AIA_POLICY.replace(use_intermediate_cache=True,
                                    aia_fetching=False)
        builder = ChainBuilder(policy, store, cache=cache)
        chain = h.chain_for(leaf)
        result = builder.build(chain, at_time=NOW)
        assert result.anchored
        # The presented intermediates win over their cache twins.
        presented_sources = [s.source for s in result.steps
                             if s.certificate in chain]
        assert all(src == "presented" for src in presented_sources)

    def test_forward_scope_still_sees_store_and_cache(self, world):
        h, leaf, store = world
        cache = IntermediateCache()
        cache.observe(h.intermediates[1].certificate)  # the issuing CA
        policy = AIA_POLICY.replace(
            search_scope=SearchScope.FORWARD,
            use_intermediate_cache=True,
            aia_fetching=False,
        )
        builder = ChainBuilder(policy, store, cache=cache)
        # Only the upper intermediate is presented (after the leaf); the
        # issuing CA must come from the cache despite forward scope.
        result = builder.build(
            [leaf, h.intermediates[0].certificate], at_time=NOW
        )
        assert result.anchored
        assert "cache" in result.structure

    def test_kid_priority_with_absent_akid_on_subject(self, world):
        """A subject with no AKID at all: every candidate ranks 'absent'
        and list order decides, even under KP2."""
        h, _leaf, store = world
        bare_leaf = h.issuing_ca.issue_leaf(
            "noakid.example", include_akid=False,
            not_before=utc(2024, 1, 1), days=365,
        )
        policy = AIA_POLICY.replace(
            kid_priority=KIDPriority.MATCH_OVER_ABSENT_OVER_MISMATCH,
            aia_fetching=False,
        )
        builder = ChainBuilder(policy, store)
        result = builder.build(h.chain_for(bare_leaf), at_time=NOW)
        assert result.anchored


class TestStructureRendering:
    def test_structure_empty_for_empty_build(self, world):
        _h, _leaf, store = world
        builder = ChainBuilder(AIA_POLICY, store)
        result = builder.build([], at_time=NOW)
        assert result.structure == ""

    def test_structure_mixes_positions_and_sources(self, world):
        h, leaf, store = world
        builder = ChainBuilder(AIA_POLICY.replace(aia_fetching=False), store)
        result = builder.build(h.chain_for(leaf), at_time=NOW)
        assert result.structure == "store->2->1->0"
