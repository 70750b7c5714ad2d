"""Chain topology graphs (Section 3.1, Figure 2).

A server-provided certificate list is modelled as a graph: one node per
*unique* certificate (bit-for-bit duplicates collapse onto their first
occurrence, relabelled ``p[i]`` exactly as the paper does), and a
directed edge from each certificate to every in-list candidate issuer.
All of the order-compliance classes — duplicates, irrelevant
certificates, multiple paths, reversed sequences — read directly off
this structure.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from repro.core.relation import DEFAULT_POLICY, RelationPolicy, issued
from repro.x509 import Certificate


def certificate_role(cert: Certificate) -> str:
    """Coarse role: ``"root"`` (self-signed), ``"intermediate"`` (CA), or ``"leaf"``."""
    if cert.is_self_signed:
        return "root"
    if cert.is_ca:
        return "intermediate"
    return "leaf"


@dataclass(frozen=True, slots=True)
class TopologyNode:
    """One unique certificate in the chain graph.

    ``position`` is the index of its first occurrence in the original
    list — the paper's node number.  ``occurrences`` lists every index
    where the identical certificate appears.
    """

    position: int
    certificate: Certificate
    occurrences: tuple[int, ...]

    @property
    def label(self) -> str:
        return str(self.position)

    @property
    def is_duplicated(self) -> bool:
        return len(self.occurrences) > 1

    @property
    def role(self) -> str:
        return certificate_role(self.certificate)


class ChainTopology:
    """The issuance-structure graph of one server-provided list.

    Parameters
    ----------
    certificates:
        The list exactly as the server sent it (leaf expected first,
        but nothing is assumed).
    policy:
        The issuance-relation policy used for edges.
    """

    def __init__(self, certificates: list[Certificate],
                 policy: RelationPolicy = DEFAULT_POLICY) -> None:
        if not certificates:
            raise ValueError("cannot build a topology for an empty chain")
        self.certificates = list(certificates)
        self.policy = policy
        self._build_nodes()
        self._build_edges()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def _build_nodes(self) -> None:
        first_seen: dict[bytes, int] = {}
        occurrences: dict[int, list[int]] = {}
        for index, cert in enumerate(self.certificates):
            anchor = first_seen.setdefault(cert.fingerprint, index)
            occurrences.setdefault(anchor, []).append(index)
        self.nodes: dict[int, TopologyNode] = {
            anchor: TopologyNode(
                position=anchor,
                certificate=self.certificates[anchor],
                occurrences=tuple(positions),
            )
            for anchor, positions in occurrences.items()
        }

    def _build_edges(self) -> None:
        # parents[p] = positions of unique certs that issued node p.
        self.parents: dict[int, list[int]] = {p: [] for p in self.nodes}
        self.children: dict[int, list[int]] = {p: [] for p in self.nodes}
        positions = sorted(self.nodes)
        for child in positions:
            child_cert = self.nodes[child].certificate
            if child_cert.is_self_signed:
                continue  # roots terminate paths; no parent edges
            for parent in positions:
                if parent == child:
                    continue
                if issued(self.nodes[parent].certificate, child_cert, self.policy):
                    self.parents[child].append(parent)
                    self.children[parent].append(child)

    # ------------------------------------------------------------------
    # Labels (the paper's C_p / C_p[i] notation)
    # ------------------------------------------------------------------

    def position_labels(self) -> list[str]:
        """A label per original list position: ``"p"`` or ``"p[i]"``."""
        labels: list[str] = []
        seen_count: dict[int, int] = {}
        for index, cert in enumerate(self.certificates):
            anchor = self._anchor_of(index)
            count = seen_count.get(anchor, 0)
            labels.append(str(anchor) if count == 0 else f"{anchor}[{count}]")
            seen_count[anchor] = count + 1
        return labels

    def _anchor_of(self, index: int) -> int:
        fingerprint = self.certificates[index].fingerprint
        for node in self.nodes.values():
            if node.certificate.fingerprint == fingerprint:
                return node.position
        raise AssertionError("unreachable: every position has an anchor")

    # ------------------------------------------------------------------
    # Duplicates
    # ------------------------------------------------------------------

    @property
    def has_duplicates(self) -> bool:
        return any(node.is_duplicated for node in self.nodes.values())

    def duplicated_nodes(self) -> list[TopologyNode]:
        return [node for node in self.nodes.values() if node.is_duplicated]

    def duplicate_roles(self) -> set[str]:
        """Roles of duplicated certificates: subset of {leaf, intermediate, root}."""
        return {node.role for node in self.duplicated_nodes()}

    @property
    def max_duplicate_count(self) -> int:
        """Most repeated single certificate (paper max observed: 26)."""
        if not self.nodes:
            return 0
        return max(len(node.occurrences) for node in self.nodes.values())

    # ------------------------------------------------------------------
    # Paths
    # ------------------------------------------------------------------

    @property
    def anchor(self) -> TopologyNode:
        """The node at position 0 — the presumed leaf C0."""
        return self.nodes[0]

    @cached_property
    def leaf_paths(self) -> list[tuple[int, ...]]:
        """All maximal issuer-ward paths starting at C0.

        Each path is a tuple of node positions ``(0, p1, p2, ...)``
        following parent edges to a terminal: a node with no in-list
        parent, or a self-signed certificate.  Cycles (cyclic
        cross-signs, CVE-2024-0567) are cut by never revisiting a node
        within one path.
        """
        paths: list[tuple[int, ...]] = []

        def walk(node: int, trail: tuple[int, ...]) -> None:
            parents = [p for p in self.parents[node] if p not in trail]
            if not parents:
                paths.append(trail)
                return
            for parent in parents:
                walk(parent, trail + (parent,))

        walk(0, (0,))
        return paths

    @property
    def has_multiple_paths(self) -> bool:
        return len(self.leaf_paths) > 1

    # ------------------------------------------------------------------
    # Irrelevant certificates
    # ------------------------------------------------------------------

    @cached_property
    def relevant_positions(self) -> frozenset[int]:
        """Positions in the ancestor closure of C0 (C0 included)."""
        seen: set[int] = set()
        stack = [0]
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            stack.extend(self.parents[node])
        return frozenset(seen)

    def irrelevant_nodes(self) -> list[TopologyNode]:
        """Unique certificates with no issuance link toward C0.

        Duplicates are already collapsed, so (matching the paper)
        duplicated copies of relevant certificates do not count.
        """
        return [
            node
            for position, node in sorted(self.nodes.items())
            if position not in self.relevant_positions
        ]

    @property
    def irrelevant_count(self) -> int:
        """How many unique certificates :meth:`irrelevant_nodes` lists,
        counted without building the list: every relevant position is
        a node."""
        return len(self.nodes) - len(self.relevant_positions)

    @property
    def has_irrelevant(self) -> bool:
        return self.irrelevant_count > 0

    # ------------------------------------------------------------------
    # Reversed sequences
    # ------------------------------------------------------------------

    def path_is_reversed(self, path: tuple[int, ...]) -> bool:
        """True if any issuer on ``path`` appears before its subject.

        Compliant order puts each certificate's issuer *after* it in
        the list, so an edge child→parent with ``parent < child`` (by
        first-occurrence position) is a reversal.
        """
        return any(parent < child for child, parent in zip(path, path[1:]))

    @cached_property
    def reversed_path_flags(self) -> list[bool]:
        return [self.path_is_reversed(path) for path in self.leaf_paths]

    @property
    def has_reversed_path(self) -> bool:
        return any(self.reversed_path_flags)

    @property
    def all_paths_reversed(self) -> bool:
        return bool(self.reversed_path_flags) and all(self.reversed_path_flags)

    # ------------------------------------------------------------------
    # Structure summaries
    # ------------------------------------------------------------------

    def path_structure(self, path: tuple[int, ...]) -> str:
        """Render a path the way the paper writes it, e.g. ``"1->2->0"``.

        The paper lists positions in *list order of traversal from the
        first out-of-place certificate*; we render issuer-ward from the
        leaf, reversed, which matches the ``1->2->0`` examples: the
        final element is the leaf's position.
        """
        return "->".join(str(p) for p in reversed(path))

    def terminal_nodes(self) -> list[TopologyNode]:
        """The last node of each leaf path (deduplicated, path order)."""
        seen: set[int] = set()
        terminals: list[TopologyNode] = []
        for path in self.leaf_paths:
            last = path[-1]
            if last not in seen:
                seen.add(last)
                terminals.append(self.nodes[last])
        return terminals

    def is_single_compliant_path(self) -> bool:
        """True iff the chain is exactly one in-order, duplicate-free path.

        This is the order-compliance predicate of Section 3.1: no
        duplicates, no irrelevant certificates, a single path, and that
        path in issuance order covering every certificate in the list.
        """
        if self.has_duplicates or self.has_irrelevant:
            return False
        if len(self.leaf_paths) != 1:
            return False
        path = self.leaf_paths[0]
        if self.path_is_reversed(path):
            return False
        return len(path) == len(self.nodes)
