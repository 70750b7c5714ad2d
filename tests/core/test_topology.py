"""Chain topology graphs: labels, paths, cycles, the Figure 2 shapes."""

import pytest

from repro.ca import build_cross_signed_pair, build_hierarchy, malform
from repro.core import ChainTopology, certificate_role


@pytest.fixture(scope="module")
def world():
    h = build_hierarchy("Topo", depth=2, key_seed_prefix="topo")
    leaf = h.issue_leaf("topo.example")
    other = build_hierarchy("TopoOther", depth=1, key_seed_prefix="topo-o")
    return h, leaf, other


class TestBasics:
    def test_empty_chain_rejected(self):
        with pytest.raises(ValueError):
            ChainTopology([])

    def test_compliant_chain_single_path(self, world):
        h, leaf, _ = world
        topo = ChainTopology(h.chain_for(leaf, include_root=True))
        assert topo.leaf_paths == [(0, 1, 2, 3)]
        assert topo.is_single_compliant_path()
        assert not topo.has_duplicates
        assert not topo.has_irrelevant
        assert not topo.has_reversed_path

    def test_roles(self, world):
        h, leaf, _ = world
        assert certificate_role(leaf) == "leaf"
        assert certificate_role(h.intermediates[0].certificate) == "intermediate"
        assert certificate_role(h.root.certificate) == "root"

    def test_bare_leaf_terminates_immediately(self, world):
        _h, leaf, _ = world
        topo = ChainTopology([leaf])
        assert topo.leaf_paths == [(0,)]
        assert topo.terminal_nodes()[0].certificate is leaf


class TestDuplicateLabels:
    def test_labels_follow_paper_notation(self, world):
        h, leaf, _ = world
        chain = h.chain_for(leaf)
        duplicated = malform.duplicate_certificate(chain, 1, copies=2)
        topo = ChainTopology(duplicated)
        assert topo.position_labels() == ["0", "1", "2", "1[1]", "1[2]"]

    def test_duplicate_node_tracks_occurrences(self, world):
        h, leaf, _ = world
        chain = malform.duplicate_leaf(h.chain_for(leaf))
        topo = ChainTopology(chain)
        assert topo.nodes[0].occurrences == (0, 1)
        assert topo.duplicate_roles() == {"leaf"}

    def test_max_duplicate_count(self, world):
        h, leaf, _ = world
        chain = malform.duplicate_certificate(h.chain_for(leaf), 0, copies=25)
        assert ChainTopology(chain).max_duplicate_count == 26

    def test_dedup_does_not_create_phantom_edges(self, world):
        h, leaf, _ = world
        chain = malform.duplicate_leaf(h.chain_for(leaf))
        topo = ChainTopology(chain)
        # Duplicates collapse; a single path over unique nodes remains.
        assert len(topo.leaf_paths) == 1


class TestIrrelevant:
    def test_unconnected_root_is_irrelevant(self, world):
        h, leaf, other = world
        chain = malform.insert_irrelevant(
            h.chain_for(leaf), [other.root.certificate]
        )
        topo = ChainTopology(chain)
        assert [n.certificate for n in topo.irrelevant_nodes()] == [
            other.root.certificate
        ]

    def test_stale_leaf_is_irrelevant(self, world):
        h, leaf, _ = world
        stale = h.issue_leaf("topo.example")
        chain = malform.append_stale_leaves(h.chain_for(leaf), [stale])
        topo = ChainTopology(chain)
        assert stale in [n.certificate for n in topo.irrelevant_nodes()]

    def test_ancestors_are_relevant(self, world):
        h, leaf, _ = world
        topo = ChainTopology(h.chain_for(leaf, include_root=True))
        assert topo.relevant_positions == frozenset({0, 1, 2, 3})


class TestReversedAndMultipath:
    def test_reversed_intermediates_detected(self, world):
        h, leaf, _ = world
        chain = malform.reverse_intermediates(h.chain_for(leaf, include_root=True))
        topo = ChainTopology(chain)
        assert topo.has_reversed_path
        assert topo.all_paths_reversed
        assert topo.path_structure(topo.leaf_paths[0]) == "1->2->3->0"

    def test_cross_sign_yields_multiple_paths(self):
        primary, legacy, cross = build_cross_signed_pair(
            "TopoXS", key_seed_prefix="topo-xs"
        )
        leaf = primary.issue_leaf("xs.example")
        chain = [leaf, primary.intermediates[0].certificate, cross,
                 primary.root.certificate, legacy.root.certificate]
        topo = ChainTopology(chain)
        assert topo.has_multiple_paths
        assert len(topo.leaf_paths) == 2
        assert not topo.is_single_compliant_path()

    def test_misplaced_cross_sign_reverses_one_path(self):
        primary, legacy, cross = build_cross_signed_pair(
            "TopoXS2", key_seed_prefix="topo-xs2"
        )
        leaf = primary.issue_leaf("xs2.example")
        # Root placed before the intermediate: the direct path reverses.
        chain = [leaf, primary.root.certificate,
                 primary.intermediates[0].certificate, cross,
                 legacy.root.certificate]
        topo = ChainTopology(chain)
        assert topo.has_reversed_path
        assert not topo.all_paths_reversed

    def test_cyclic_cross_signs_terminate(self):
        # CVE-2024-0567 shape: A signs B and B signs A.
        a = build_hierarchy("CycleA", depth=0, key_seed_prefix="cycle-a")
        b = build_hierarchy("CycleB", depth=0, key_seed_prefix="cycle-b")
        a_by_b = b.root.cross_sign(a.root)
        b_by_a = a.root.cross_sign(b.root)
        leaf = a.issue_leaf("cycle.example")
        topo = ChainTopology([leaf, a_by_b, b_by_a])
        assert topo.leaf_paths  # terminates rather than recursing forever
        for path in topo.leaf_paths:
            assert len(path) == len(set(path))
