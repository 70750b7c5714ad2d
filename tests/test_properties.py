"""Property-based tests (hypothesis) on core invariants.

These cover the structures whose correctness everything else leans on:
name folding, validity arithmetic, PEM round-tripping, topology
invariants under arbitrary chain mutations, and the token bucket's rate
guarantee.
"""

from __future__ import annotations

from datetime import timedelta

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.ca import build_hierarchy, malform
from repro.core import ChainTopology, analyze_order
from repro.core.leaf import classify_leaf_placement
from repro.net import SimClock, TokenBucket
from repro.x509 import (
    Name,
    Validity,
    classify_name_form,
    from_pem,
    load_pem_bundle,
    to_pem,
    to_pem_bundle,
    utc,
)

# ---------------------------------------------------------------------------
# Shared corpus: a fixed hierarchy plus a pool of related/unrelated certs.
# Built once at import: hypothesis re-runs functions many times.
# ---------------------------------------------------------------------------

_H = build_hierarchy("Prop", depth=2, key_seed_prefix="prop",
                     aia_base="http://aia.prop.example")
_LEAF = _H.issue_leaf("prop.example", not_before=utc(2024, 1, 1), days=365)
_BASE_CHAIN = _H.chain_for(_LEAF, include_root=True)
_OTHER = build_hierarchy("PropOther", depth=1, key_seed_prefix="prop-other")
_POOL = [*_BASE_CHAIN, _OTHER.root.certificate,
         _OTHER.intermediates[0].certificate,
         _H.issue_leaf("prop.example", not_before=utc(2023, 1, 1), days=365)]

chains = st.lists(
    st.sampled_from(_POOL), min_size=1, max_size=10,
).map(lambda certs: [_LEAF, *certs])


# ---------------------------------------------------------------------------
# Name folding
# ---------------------------------------------------------------------------

name_text = st.text(
    alphabet=st.characters(whitelist_categories=("Lu", "Ll", "Nd", "Zs")),
    min_size=1, max_size=30,
).filter(lambda s: s.strip())


#: Values whose uppercase form case-folds back to the original's fold —
#: true for almost everything, excluded exceptions being Unicode
#: oddities (ß, ẖ, dotless ı) where real DN matchers also disagree.
case_roundtrippable = name_text.filter(
    lambda s: s.upper().casefold() == s.casefold()
)


@given(value=case_roundtrippable)
def test_name_comparison_case_insensitive(value):
    assert Name.build(common_name=value) == Name.build(common_name=value.upper())


@given(value=name_text)
def test_name_comparison_whitespace_insensitive(value):
    padded = "  " + value.replace(" ", "   ") + " "
    assert Name.build(common_name=value) == Name.build(common_name=padded)


@given(value=name_text)
def test_name_hash_consistent_with_eq(value):
    # Some characters (e.g. dotless ı) are not case-roundtrippable, so
    # equality may legitimately fail; the invariant is that hashing
    # always agrees with equality.
    a = Name.build(common_name=value)
    b = Name.build(common_name=value.swapcase())
    if a == b:
        assert hash(a) == hash(b)
    assert a == Name.build(common_name=value.casefold())


# ---------------------------------------------------------------------------
# Validity arithmetic
# ---------------------------------------------------------------------------

instants = st.integers(min_value=0, max_value=3650).map(
    lambda days: utc(2020, 1, 1) + timedelta(days=days)
)


@given(start=instants, length=st.integers(min_value=0, max_value=2000),
       probe=instants)
def test_validity_contains_iff_within_bounds(start, length, probe):
    window = Validity(start, start + timedelta(days=length))
    inside = window.not_before <= probe <= window.not_after
    assert window.contains(probe) == inside
    assert window.is_expired(probe) == (probe > window.not_after)
    assert window.is_not_yet_valid(probe) == (probe < window.not_before)


@given(a_start=instants, a_len=st.integers(1, 500),
       b_start=instants, b_len=st.integers(1, 500))
def test_validity_overlap_symmetric(a_start, a_len, b_start, b_len):
    a = Validity(a_start, a_start + timedelta(days=a_len))
    b = Validity(b_start, b_start + timedelta(days=b_len))
    assert a.overlaps(b) == b.overlaps(a)


# ---------------------------------------------------------------------------
# PEM round trips
# ---------------------------------------------------------------------------

@settings(max_examples=25, suppress_health_check=[HealthCheck.too_slow])
@given(chain=chains)
def test_pem_bundle_roundtrip(chain):
    assert load_pem_bundle(to_pem_bundle(chain)) == chain


@settings(max_examples=25)
@given(cert=st.sampled_from(_POOL))
def test_pem_single_roundtrip_preserves_identity(cert):
    restored = from_pem(to_pem(cert))
    assert restored == cert
    assert restored.is_self_signed == cert.is_self_signed
    assert restored.is_ca == cert.is_ca


# ---------------------------------------------------------------------------
# Topology invariants under arbitrary mutations
# ---------------------------------------------------------------------------

@settings(max_examples=60, suppress_health_check=[HealthCheck.too_slow])
@given(chain=chains)
def test_topology_invariants(chain):
    topology = ChainTopology(chain)
    labels = topology.position_labels()
    # One label per presented certificate.
    assert len(labels) == len(chain)
    # Node positions are first occurrences of their fingerprints.
    for position, node in topology.nodes.items():
        assert node.occurrences[0] == position
        assert chain[position].fingerprint == node.certificate.fingerprint
    # Every path starts at the anchor and never revisits a node.
    for path in topology.leaf_paths:
        assert path[0] == 0
        assert len(path) == len(set(path))
    # Relevant positions are closed under the parent relation.
    for position in topology.relevant_positions:
        for parent in topology.parents[position]:
            assert parent in topology.relevant_positions
    # The counted irrelevant certificates are the listed ones.
    assert topology.has_irrelevant == bool(topology.irrelevant_nodes())
    assert (analyze_order(chain).irrelevant_count
            == len(topology.irrelevant_nodes()))


@settings(max_examples=60, suppress_health_check=[HealthCheck.too_slow])
@given(chain=chains)
def test_order_analysis_total_function(chain):
    analysis = analyze_order(chain)
    # compliant implies zero defects, and vice versa for this corpus
    if analysis.compliant:
        assert not analysis.defects
    assert analysis.path_count == len(analysis.path_structures)


@settings(max_examples=40, suppress_health_check=[HealthCheck.too_slow])
@given(chain=chains, seed=st.integers(0, 2**16))
def test_duplication_never_removes_defects(chain, seed):
    """Duplicating a certificate can only add the duplicate defect."""
    import random as _random

    rng = _random.Random(seed)
    index = rng.randrange(len(chain))
    duplicated = malform.duplicate_certificate(chain, index)
    before = analyze_order(chain).defects
    after = analyze_order(duplicated).defects
    from repro.core import OrderDefect

    assert OrderDefect.DUPLICATE_CERTIFICATES in after
    assert before - {OrderDefect.DUPLICATE_CERTIFICATES} <= after


@settings(max_examples=40, suppress_health_check=[HealthCheck.too_slow])
@given(chain=chains, seed=st.integers(0, 2**16))
def test_shuffle_preserves_multiset(chain, seed):
    import random as _random

    shuffled = malform.shuffle_chain(chain, _random.Random(seed))
    assert sorted(c.fingerprint for c in shuffled) == sorted(
        c.fingerprint for c in chain
    )


@settings(max_examples=40, suppress_health_check=[HealthCheck.too_slow])
@given(chain=chains)
def test_leaf_classification_total(chain):
    analysis = classify_leaf_placement("prop.example", chain)
    assert analysis.placement is not None
    # First cert is always the real leaf here, so placement is correct.
    assert analysis.placement.correctly_placed


# ---------------------------------------------------------------------------
# classify_name_form is total and stable
# ---------------------------------------------------------------------------

@given(value=st.text(max_size=80))
def test_classify_name_form_total(value):
    assert classify_name_form(value) in ("domain", "ip", "other")


@given(label=st.from_regex(r"[a-z][a-z0-9-]{0,20}[a-z0-9]", fullmatch=True),
       tld=st.sampled_from(["com", "org", "net", "io"]))
def test_wellformed_domains_classify_as_domains(label, tld):
    assert classify_name_form(f"{label}.{tld}") == "domain"


# ---------------------------------------------------------------------------
# Token bucket never exceeds its configured rate
# ---------------------------------------------------------------------------

@settings(max_examples=40)
@given(
    rate=st.floats(min_value=10, max_value=1e6),
    consumptions=st.lists(st.floats(min_value=0, max_value=1e5),
                          min_size=1, max_size=30),
)
def test_token_bucket_rate_bound(rate, consumptions):
    clock = SimClock()
    bucket = TokenBucket(clock, rate=rate, burst=rate)
    for amount in consumptions:
        bucket.consume(amount)
    total = sum(consumptions)
    elapsed = clock.now()
    # Everything beyond the initial burst must have taken time.
    assert total <= rate * elapsed + rate + 1e-6


# ---------------------------------------------------------------------------
# Repair postconditions under arbitrary mutations
# ---------------------------------------------------------------------------

from repro.core import repair_chain, verify_repair  # noqa: E402
from repro.errors import ChainError  # noqa: E402
from repro.trust import RootStore  # noqa: E402

_REPAIR_STORE = RootStore("prop-repair", [_H.root.certificate])


@settings(max_examples=50, suppress_health_check=[HealthCheck.too_slow])
@given(chain=chains, seed=st.integers(0, 2**16))
def test_repair_always_yields_single_compliant_path(chain, seed):
    import random as _random

    rng = _random.Random(seed)
    mutated = malform.shuffle_chain(
        malform.duplicate_certificate(chain, rng.randrange(len(chain))),
        rng,
        keep_leaf_first=True,
    )
    try:
        result = repair_chain(mutated, domain="prop.example",
                              store=_REPAIR_STORE)
    except ChainError:
        return  # a list with no end-entity cert is legitimately unrepairable
    assert verify_repair(mutated, result, domain="prop.example")
    # Only input certificates appear (no fetcher was provided).
    allowed = {cert.fingerprint for cert in mutated}
    assert all(cert.fingerprint in allowed for cert in result.chain)


@settings(max_examples=30, suppress_health_check=[HealthCheck.too_slow])
@given(chain=chains, seed=st.integers(0, 2**16))
def test_repair_idempotent(chain, seed):
    import random as _random

    rng = _random.Random(seed)
    mutated = malform.shuffle_chain(chain, rng, keep_leaf_first=True)
    try:
        once = repair_chain(mutated, domain="prop.example",
                            store=_REPAIR_STORE)
    except ChainError:
        return
    twice = repair_chain(once.chain, domain="prop.example",
                         store=_REPAIR_STORE)
    assert twice.chain == once.chain
    assert not twice.changed


# ---------------------------------------------------------------------------
# Certificate-pool path enumeration invariants
# ---------------------------------------------------------------------------

from repro.core import CertificatePool  # noqa: E402


@settings(max_examples=40, suppress_health_check=[HealthCheck.too_slow])
@given(chain=chains)
def test_pool_paths_are_linked_and_acyclic(chain):
    from repro.core import issued

    pool = CertificatePool(list(chain))
    for path in pool.all_paths(chain[0], max_depth=8):
        assert path[0].fingerprint == chain[0].fingerprint
        fingerprints = [cert.fingerprint for cert in path]
        assert len(fingerprints) == len(set(fingerprints))
        for child, parent in zip(path, path[1:]):
            assert issued(parent, child)


# ---------------------------------------------------------------------------
# The construction engine is a total function over arbitrary lists
# ---------------------------------------------------------------------------

from repro.chainbuilder import ALL_CLIENTS, ChainBuilder  # noqa: E402
from repro.chainbuilder.verify import ERROR_CODES  # noqa: E402

_ENGINE_STORE = RootStore("prop-engine", [_H.root.certificate])
_BUILD_ERRORS = {
    "no_issuer_found", "untrusted_root", "length_limit_exceeded",
    "input_list_too_long", "self_signed_leaf_rejected", "empty_input",
}
_CLIENT_CYCLE = list(ALL_CLIENTS)


@settings(max_examples=60, suppress_health_check=[HealthCheck.too_slow])
@given(chain=chains, pick=st.integers(0, len(_CLIENT_CYCLE) - 1))
def test_engine_total_function(chain, pick):
    """Every client yields a well-formed verdict on every input list:
    no exceptions, known error codes, paths linked by issuance."""
    from repro.core import issued

    policy = _CLIENT_CYCLE[pick]
    builder = ChainBuilder(policy, _ENGINE_STORE)
    verdict = builder.build_and_validate(
        chain, domain="prop.example", at_time=utc(2024, 6, 15)
    )
    if verdict.error is not None:
        assert verdict.error in _BUILD_ERRORS | set(ERROR_CODES), verdict.error
    path = verdict.build.path
    for child, parent in zip(path, path[1:]):
        assert issued(parent, child)
    if verdict.ok:
        assert verdict.build.anchored
        assert _ENGINE_STORE.contains_key_of(path[-1])


@settings(max_examples=40, suppress_health_check=[HealthCheck.too_slow])
@given(chain=chains)
def test_engine_deterministic_per_input(chain):
    """Two runs of the same client over the same list agree exactly."""
    from repro.chainbuilder import CHROME

    builder = ChainBuilder(CHROME, _ENGINE_STORE)
    first = builder.build(chain, at_time=utc(2024, 6, 15))
    second = builder.build(chain, at_time=utc(2024, 6, 15))
    assert first.anchored == second.anchored
    assert first.structure == second.structure
    assert first.error == second.error
