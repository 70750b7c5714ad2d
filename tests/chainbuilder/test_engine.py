"""The chain-construction engine: scopes, priorities, limits, sources."""

import pytest

from repro.ca import build_hierarchy, malform
from repro.chainbuilder import (
    ChainBuilder,
    ChainFacts,
    ClientPolicy,
    KIDPriority,
    SearchScope,
    ValidityPriority,
)
from repro.trust import IntermediateCache, RootStore, StaticAIARepository
from repro.x509 import utc

NOW = utc(2024, 6, 15)

BASELINE = ClientPolicy(name="t-base", display_name="T", kind="library")


@pytest.fixture(scope="module")
def world():
    h = build_hierarchy(
        "Engine", depth=2, key_seed_prefix="engine",
        aia_base="http://aia.engine.example",
    )
    leaf = h.issue_leaf("engine.example", not_before=utc(2024, 1, 1), days=365)
    store = RootStore("engine", [h.root.certificate])
    repo = StaticAIARepository()
    for authority in h.authorities:
        repo.publish(authority.aia_uri, authority.certificate)
    return h, leaf, store, repo


def _builder(world, policy=BASELINE, cache=None):
    _h, _leaf, store, repo = world
    return ChainBuilder(policy, store, aia_fetcher=repo, cache=cache)


class TestHappyPath:
    def test_compliant_chain_builds(self, world):
        h, leaf, _, _ = world
        result = _builder(world).build(h.chain_for(leaf), at_time=NOW)
        assert result.anchored
        assert result.structure == "store->2->1->0"
        assert [s.source for s in result.steps] == [
            "presented", "presented", "presented", "store",
        ]

    def test_root_included_chain_terminates_in_list(self, world):
        h, leaf, _, _ = world
        chain = h.chain_for(leaf, include_root=True)
        result = _builder(world).build(chain, at_time=NOW)
        assert result.anchored
        assert result.structure == "3->2->1->0"

    def test_validation_passes(self, world):
        h, leaf, _, _ = world
        verdict = _builder(world).build_and_validate(
            h.chain_for(leaf), domain="engine.example", at_time=NOW
        )
        assert verdict.ok and verdict.error is None

    def test_empty_input(self, world):
        result = _builder(world).build([], at_time=NOW)
        assert result.error == "empty_input"

    def test_fact_table_of_another_list_is_refused(self, world):
        h, leaf, _, _ = world
        chain = h.chain_for(leaf)
        with pytest.raises(ValueError, match="another presented list"):
            _builder(world).build(list(chain), at_time=NOW,
                                  facts=ChainFacts(chain))

    def test_lone_candidates_are_not_ranked(self, world, monkeypatch):
        h, leaf, _, _ = world
        ranked = []
        priority_key = ChainBuilder._priority_key

        def counting_priority_key(self, step, steps, at_time):
            ranked.append(step)
            return priority_key(self, step, steps, at_time)

        monkeypatch.setattr(ChainBuilder, "_priority_key",
                            counting_priority_key)
        result = _builder(world).build(h.chain_for(leaf), at_time=NOW)
        assert result.structure == "store->2->1->0"
        # three hops, one candidate at each: nothing to rank
        assert result.stats.candidates_considered == 3
        assert ranked == []


class TestSearchScope:
    def test_all_scope_reorders(self, world):
        h, leaf, _, _ = world
        disordered = malform.reverse_intermediates(h.chain_for(leaf))
        assert _builder(world).build(disordered, at_time=NOW).anchored

    def test_forward_scope_fails_disordered(self, world):
        h, leaf, _, _ = world
        policy = BASELINE.replace(search_scope=SearchScope.FORWARD)
        disordered = [h.chain_for(leaf)[0], h.chain_for(leaf)[2],
                      h.chain_for(leaf)[1]]
        result = _builder(world, policy).build(disordered, at_time=NOW)
        assert not result.anchored
        assert result.error == "no_issuer_found"

    def test_forward_scope_skips_redundant(self, world):
        h, leaf, _, _ = world
        other = build_hierarchy("EngX", depth=0, key_seed_prefix="engx")
        policy = BASELINE.replace(search_scope=SearchScope.FORWARD)
        chain = [leaf, other.root.certificate, *h.chain_for(leaf)[1:]]
        assert _builder(world, policy).build(chain, at_time=NOW).anchored


class TestLimits:
    def test_input_list_limit(self, world):
        h, leaf, _, _ = world
        policy = BASELINE.replace(max_input_list=3)
        chain = malform.duplicate_leaf(h.chain_for(leaf))  # 4 certs
        result = _builder(world, policy).build(chain, at_time=NOW)
        assert result.error == "input_list_too_long"
        assert result.path == []

    def test_input_list_limit_counts_duplicates(self, world):
        h, leaf, _, _ = world
        policy = BASELINE.replace(max_input_list=4)
        chain = h.chain_for(leaf, include_root=True)  # exactly 4: fine
        assert _builder(world, policy).build(chain, at_time=NOW).anchored

    def test_path_length_limit(self, world):
        h, leaf, _, _ = world
        policy = BASELINE.replace(max_path_length=3)
        # Needs leaf + 2 intermediates + root = 4 > 3.
        result = _builder(world, policy).build(h.chain_for(leaf), at_time=NOW)
        assert not result.anchored
        assert result.error == "length_limit_exceeded"

    def test_path_length_limit_exact_fit(self, world):
        h, leaf, _, _ = world
        policy = BASELINE.replace(max_path_length=4)
        assert _builder(world, policy).build(h.chain_for(leaf), at_time=NOW).anchored

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            ClientPolicy(name="x", display_name="x", kind="library",
                         max_path_length=1)
        with pytest.raises(ValueError):
            ClientPolicy(name="x", display_name="x", kind="compiler")


class TestSelfSignedLeaf:
    def test_rejected_by_default(self, world):
        h, _, _, _ = world
        result = _builder(world).build([h.root.certificate], at_time=NOW)
        assert result.error == "self_signed_leaf_rejected"

    def test_allowed_but_untrusted(self, world):
        other = build_hierarchy("EngSelf", depth=0, key_seed_prefix="engself")
        policy = BASELINE.replace(allow_self_signed_leaf=True)
        result = _builder(world, policy).build(
            [other.root.certificate], at_time=NOW
        )
        assert result.error == "untrusted_root"
        assert len(result.path) == 1

    def test_allowed_and_trusted(self, world):
        h, _, _, _ = world
        policy = BASELINE.replace(allow_self_signed_leaf=True)
        result = _builder(world, policy).build([h.root.certificate], at_time=NOW)
        assert result.anchored


class TestBacktracking:
    @pytest.fixture(scope="class")
    def fork(self):
        """A leaf whose issuer has two candidate parents: the untrusted
        self-signed original and a trusted cross-sign."""
        trusted = build_hierarchy("EngTrust", depth=0, key_seed_prefix="engt")
        rogue = build_hierarchy("EngRogue", depth=0, key_seed_prefix="engr")
        cross = trusted.root.cross_sign(rogue.root, not_before=utc(2021, 1, 1))
        issuing = rogue.root.issue_intermediate(
            __import__("repro.x509", fromlist=["Name"]).Name.build(
                common_name="EngRogue Issuing"
            ),
            not_before=utc(2021, 1, 1), days=3650,
        )
        leaf = issuing.issue_leaf("fork.example", not_before=utc(2024, 1, 1),
                                  days=365)
        store = RootStore("fork", [trusted.root.certificate])
        chain = [leaf, rogue.root.certificate, issuing.certificate, cross]
        return chain, store

    def test_no_backtracking_commits_to_untrusted(self, fork):
        chain, store = fork
        builder = ChainBuilder(BASELINE, store)
        result = builder.build(chain, at_time=NOW)
        assert not result.anchored
        assert result.error == "untrusted_root"

    def test_backtracking_recovers(self, fork):
        chain, store = fork
        policy = BASELINE.replace(backtracking=True)
        result = ChainBuilder(policy, store).build(chain, at_time=NOW)
        assert result.anchored
        assert result.stats.backtracks >= 1


class TestAIAAndCache:
    def test_aia_completion_when_enabled(self, world):
        h, leaf, _, _ = world
        policy = BASELINE.replace(aia_fetching=True)
        result = _builder(world, policy).build([leaf], at_time=NOW)
        assert result.anchored
        assert result.stats.aia_fetches >= 1
        assert "aia" in result.structure

    def test_aia_ignored_when_disabled(self, world):
        _h, leaf, _, _ = world
        result = _builder(world).build([leaf], at_time=NOW)
        assert not result.anchored
        assert result.stats.aia_fetches == 0

    def test_cache_completion(self, world):
        h, leaf, _, _ = world
        cache = IntermediateCache()
        cache.observe_chain(h.chain_for(leaf, include_root=True))
        policy = BASELINE.replace(use_intermediate_cache=True)
        result = _builder(world, policy, cache=cache).build([leaf], at_time=NOW)
        assert result.anchored
        assert any(s.source == "cache" for s in result.steps)

    def test_cold_cache_fails(self, world):
        _h, leaf, _, _ = world
        policy = BASELINE.replace(use_intermediate_cache=True)
        result = _builder(world, policy, cache=IntermediateCache()).build(
            [leaf], at_time=NOW
        )
        assert not result.anchored


class TestPriorities:
    def test_partial_validation_skips_expired(self, world):
        h, leaf, store, repo = world
        expired = h.root.issue_intermediate(
            h.intermediates[0].name,
            not_before=utc(2020, 1, 1), days=100,
        )
        # Wrong expired variant listed first; partial validation skips it.
        chain = [leaf, expired.certificate, *h.chain_for(leaf)[1:]]
        policy = BASELINE.replace(partial_validation=True)
        result = ChainBuilder(policy, store, aia_fetcher=repo).build(
            chain, at_time=NOW
        )
        assert result.anchored
        assert expired.certificate not in result.path

    def test_vp1_prefers_first_valid(self, world):
        h, leaf, store, _ = world
        expired = h.intermediates[0]  # placeholder; real variant below
        policy = BASELINE.replace(validity_priority=ValidityPriority.FIRST_VALID)
        # handled thoroughly in capability tests; here just ensure no crash
        result = ChainBuilder(policy, store).build(h.chain_for(leaf), at_time=NOW)
        assert result.anchored

    def test_stats_counters_populate(self, world):
        h, leaf, _, _ = world
        result = _builder(world).build(h.chain_for(leaf), at_time=NOW)
        assert result.stats.candidates_considered >= 3
