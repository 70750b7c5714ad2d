"""Issuance-order compliance analysis (Section 4.2 / Table 5).

Wraps :class:`~repro.core.topology.ChainTopology` into the four
non-compliance classes the paper reports: duplicate certificates,
irrelevant certificates, multiple paths, and reversed sequences.  A
chain may belong to several classes at once (the paper's Table 5 rows
sum past its total for the same reason).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace

from repro.core.relation import DEFAULT_POLICY, RelationPolicy
from repro.obs.evidence import Evidence, order_evidence
from repro.core.topology import ChainTopology
from repro.x509 import Certificate


class OrderDefect(enum.Enum):
    """The Table 5 non-compliance classes."""

    DUPLICATE_CERTIFICATES = "duplicate_certificates"
    IRRELEVANT_CERTIFICATES = "irrelevant_certificates"
    MULTIPLE_PATHS = "multiple_paths"
    REVERSED_SEQUENCES = "reversed_sequences"


@dataclass(frozen=True)
class OrderAnalysis:
    """The full order-compliance verdict for one chain.

    Attributes
    ----------
    defects:
        The set of :class:`OrderDefect` classes present.
    duplicate_roles:
        Roles of duplicated certs ({"leaf", "intermediate", "root"}).
    max_duplicate_count:
        Largest repetition count of a single certificate.
    irrelevant_count:
        Unique certificates unconnected to C0.
    path_count:
        Number of leaf-terminating paths in the topology.
    reversed_any / reversed_all:
        Whether ≥1 / all paths violate issuance order.
    path_structures:
        Paper-notation renderings (``"1->2->0"``) of every path.
    compliant:
        True iff the chain is a single, complete, in-order path with
        neither duplicates nor irrelevant certificates.
    """

    defects: frozenset[OrderDefect]
    duplicate_roles: frozenset[str]
    max_duplicate_count: int
    irrelevant_count: int
    path_count: int
    reversed_any: bool
    reversed_all: bool
    path_structures: tuple[str, ...]
    compliant: bool
    #: machine-readable citations per defect (see repro.obs.evidence)
    evidence: tuple[Evidence, ...] = ()

    def has(self, defect: OrderDefect) -> bool:
        return defect in self.defects


def analyze_order(chain: list[Certificate],
                  policy: RelationPolicy = DEFAULT_POLICY,
                  *, topology: ChainTopology | None = None) -> OrderAnalysis:
    """Run the Section 4.2 analysis on one certificate list.

    Pass a pre-built ``topology`` to avoid recomputing it when several
    analyses share one chain.
    """
    topo = topology if topology is not None else ChainTopology(chain, policy)
    defects: set[OrderDefect] = set()
    if topo.has_duplicates:
        defects.add(OrderDefect.DUPLICATE_CERTIFICATES)
    if topo.has_irrelevant:
        defects.add(OrderDefect.IRRELEVANT_CERTIFICATES)
    if topo.has_multiple_paths:
        defects.add(OrderDefect.MULTIPLE_PATHS)
    if topo.has_reversed_path:
        defects.add(OrderDefect.REVERSED_SEQUENCES)
    analysis = OrderAnalysis(
        defects=frozenset(defects),
        duplicate_roles=frozenset(topo.duplicate_roles()),
        max_duplicate_count=topo.max_duplicate_count,
        irrelevant_count=topo.irrelevant_count,
        path_count=len(topo.leaf_paths),
        reversed_any=topo.has_reversed_path,
        reversed_all=topo.all_paths_reversed,
        path_structures=tuple(topo.path_structure(p) for p in topo.leaf_paths),
        compliant=topo.is_single_compliant_path(),
    )
    if defects:
        analysis = replace(analysis, evidence=order_evidence(topo, analysis))
    return analysis
