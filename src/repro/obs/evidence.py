"""Machine-readable evidence records behind every compliance verdict.

The paper's contribution is *explaining* non-compliance, not merely
counting it: which structural rule a served chain violates, which
certificates are implicated, and which topology edges a client could
still walk.  This module gives each verdict that provenance layer — an
:class:`Evidence` record cites the rule from the paper's taxonomy, the
certificate fingerprints involved, and the topology-graph edges that
prove the claim, so a classification in an aggregate table can always
be traced back to the bytes that produced it.

Rule identifiers follow the paper's structure:

* ``R1.*`` — Section 3.1 rule (1): the end-entity certificate first
  (Table 3 placement classes);
* ``R2.*`` — rule (2): issuance order (Table 5 defect classes);
* ``R3.*`` — rule (3): completeness (Table 7 classes and the Section
  4.3 AIA-recoverability outcomes);
* ``I-1`` … ``I-4`` — the Section 5.2 client-disagreement issues
  (order reorganisation, long chains, backtracking, AIA completion).

The module deliberately imports nothing from :mod:`repro.core` — the
builders consume analysis objects through their public attributes, so
``core`` modules can import this one without a cycle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Mapping

from repro.obs.journal import json_kind, typed, typed_strings

__all__ = [
    "Evidence",
    "RULE_LEAF_PLACEMENT",
    "RULE_ORDER",
    "RULE_COMPLETENESS",
    "evidence_from_dict",
    "render_evidence",
]

#: Rule-ID prefixes for the three Section 3.1 structural rules.
RULE_LEAF_PLACEMENT = "R1"
RULE_ORDER = "R2"
RULE_COMPLETENESS = "R3"


@dataclass(frozen=True)
class Evidence:
    """One machine-readable citation supporting a verdict.

    Attributes
    ----------
    rule_id:
        Taxonomy identifier, e.g. ``"R2.duplicate_certificates"`` or
        ``"I-3:backtracking"``.
    verdict:
        ``"violation"`` for a broken rule, ``"info"`` for supporting
        context (e.g. the completeness class of a complete chain),
        ``"attribution"`` for a differential-disagreement cause.
    summary:
        One human-readable sentence stating the claim.
    certs:
        Hex fingerprints of every certificate the claim cites.
    edges:
        Topology-graph edges cited, as ``(subject_position,
        issuer_position)`` pairs over the chain's unique-node labels.
    details:
        Extra machine-readable facts (positions, outcome codes,
        per-client verdicts...); values must be JSON-serialisable.
        Treat it as read-only: a decoded report may share its evidence
        records, ``details`` included, with every equal record that the
        same :class:`~repro.core.compliance.ReportTable` decoded.
    """

    rule_id: str
    verdict: str
    summary: str
    certs: tuple[str, ...] = ()
    edges: tuple[tuple[int, int], ...] = ()
    details: Mapping[str, object] = field(default_factory=dict)

    def to_dict(self) -> dict[str, object]:
        """JSON-ready dict (inverse of :func:`evidence_from_dict`)."""
        return {
            "rule_id": self.rule_id,
            "verdict": self.verdict,
            "summary": self.summary,
            "certs": list(self.certs),
            "edges": [list(edge) for edge in self.edges],
            "details": dict(self.details),
        }

    def render(self) -> str:
        """Multi-line human rendering used by ``repro-chain explain``."""
        lines = [f"[{self.rule_id}] {self.verdict}: {self.summary}"]
        for fingerprint in self.certs:
            lines.append(f"    cert {fingerprint[:16]}…{fingerprint[-4:]}")
        if self.edges:
            rendered = ", ".join(f"{a}->{b}" for a, b in self.edges)
            lines.append(f"    edges {rendered}")
        for key in sorted(self.details):
            lines.append(f"    {key} = {self.details[key]!r}")
        return "\n".join(lines)


def evidence_from_dict(payload: Mapping[str, object]) -> Evidence:
    """Rebuild an :class:`Evidence` from its :meth:`Evidence.to_dict`,
    each field of its exact JSON type (an absent ``certs``, ``edges`` or
    ``details`` is empty); anything else raises :class:`TypeError`
    (:class:`KeyError` for an absent one)."""
    if type(payload) is not dict:
        raise TypeError(f"an evidence record must be an object, "
                        f"not {json_kind(payload)}")
    return Evidence(
        rule_id=typed(payload, "rule_id", str),
        verdict=typed(payload, "verdict", str),
        summary=typed(payload, "summary", str),
        certs=(tuple(typed_strings(payload, "certs"))
               if "certs" in payload else ()),
        edges=_edges(payload) if "edges" in payload else (),
        details=(dict(typed(payload, "details", dict))
                 if "details" in payload else {}),
    )


def _edges(payload) -> tuple[tuple[int, int], ...]:
    edges = typed(payload, "edges", list)
    for edge in edges:
        if not (type(edge) is list and len(edge) == 2
                and type(edge[0]) is int and type(edge[1]) is int):
            raise TypeError("'edges' must be an array of two-integer "
                            "arrays")
    return tuple(map(tuple, edges))


# ---------------------------------------------------------------------------
# Builders — duck-typed over the core analysis objects.
# ---------------------------------------------------------------------------

def leaf_evidence(domain: str, chain, analysis) -> tuple[Evidence, ...]:
    """Evidence for a Table 3 leaf-placement verdict.

    ``analysis`` is a :class:`repro.core.leaf.LeafAnalysis`; records
    are produced only when the placement deviates from the compliant
    first-position match (violations and the manual-review OTHER bin).
    """
    placement = analysis.placement.value
    if analysis.compliant and placement == "correctly_placed_matched":
        return ()
    index = analysis.deciding_index
    certs: tuple[str, ...] = ()
    details: dict[str, object] = {"placement": placement}
    if index is not None:
        certs = (chain[index].fingerprint_hex,)
        details["deciding_index"] = index
    verdict = "violation" if not analysis.compliant else "info"
    if index is None:
        summary = (
            f"no certificate in the list names {domain} or any host"
        )
    elif analysis.compliant:
        summary = (
            f"first certificate names a host but not {domain} "
            f"(validation, not structure)"
        )
    else:
        summary = (
            f"the certificate for {domain} sits at position {index}, "
            f"not first"
        )
    return (Evidence(
        rule_id=f"{RULE_LEAF_PLACEMENT}.{placement}",
        verdict=verdict,
        summary=summary,
        certs=certs,
        details=details,
    ),)


def order_evidence(topology, analysis) -> tuple[Evidence, ...]:
    """Evidence for the Table 5 issuance-order defects on one chain.

    ``topology`` is the shared :class:`repro.core.topology.ChainTopology`
    and ``analysis`` the :class:`repro.core.order.OrderAnalysis` derived
    from it; each defect class present yields one record citing the
    certificates and graph edges that exhibit it.
    """
    records: list[Evidence] = []
    defects = {d.value for d in analysis.defects}

    if "duplicate_certificates" in defects:
        nodes = topology.duplicated_nodes()
        records.append(Evidence(
            rule_id=f"{RULE_ORDER}.duplicate_certificates",
            verdict="violation",
            summary=(
                f"{len(nodes)} certificate(s) appear more than once "
                f"(max repetition {analysis.max_duplicate_count})"
            ),
            certs=tuple(n.certificate.fingerprint_hex for n in nodes),
            details={
                "occurrences": {
                    str(n.position): list(n.occurrences) for n in nodes
                },
                "roles": sorted(analysis.duplicate_roles),
            },
        ))

    if "irrelevant_certificates" in defects:
        nodes = topology.irrelevant_nodes()
        records.append(Evidence(
            rule_id=f"{RULE_ORDER}.irrelevant_certificates",
            verdict="violation",
            summary=(
                f"{len(nodes)} certificate(s) have no issuance link "
                f"toward the served leaf C0"
            ),
            certs=tuple(n.certificate.fingerprint_hex for n in nodes),
            details={"positions": [n.position for n in nodes]},
        ))

    if "multiple_paths" in defects:
        records.append(Evidence(
            rule_id=f"{RULE_ORDER}.multiple_paths",
            verdict="violation",
            summary=(
                f"the topology admits {analysis.path_count} distinct "
                f"leaf-terminating paths"
            ),
            edges=tuple(
                (child, parent)
                for path in topology.leaf_paths
                for child, parent in zip(path, path[1:])
            ),
            details={"paths": list(analysis.path_structures)},
        ))

    if "reversed_sequences" in defects:
        reversed_edges = tuple(
            (child, parent)
            for path in topology.leaf_paths
            for child, parent in zip(path, path[1:])
            if parent < child
        )
        cited = sorted({p for edge in reversed_edges for p in edge})
        records.append(Evidence(
            rule_id=f"{RULE_ORDER}.reversed_sequences",
            verdict="violation",
            summary=(
                "issuer certificates appear before their subjects "
                f"({'all' if analysis.reversed_all else 'some'} paths "
                "reversed)"
            ),
            certs=tuple(
                topology.nodes[p].certificate.fingerprint_hex for p in cited
            ),
            edges=reversed_edges,
            details={"paths": list(analysis.path_structures)},
        ))

    return tuple(records)


def completeness_evidence(topology, analysis, *,
                          store_name: str | None = None
                          ) -> tuple[Evidence, ...]:
    """Evidence for the Table 7 completeness verdict on one chain.

    Cites the terminal certificate(s) of every leaf path — the
    certificates whose issuers decide the class — plus the Section 4.3
    AIA-recoverability outcome for incomplete chains.
    """
    category = analysis.category.value
    terminals = topology.terminal_nodes()
    details: dict[str, object] = {"category": category}
    if store_name:
        details["store"] = store_name
    if analysis.complete:
        return (Evidence(
            rule_id=f"{RULE_COMPLETENESS}.{category}",
            verdict="info",
            summary=(
                "a leaf path terminates at a self-signed certificate"
                if category == "complete_with_root"
                else "the terminal certificate's issuer is a root-store "
                     "anchor (root omitted, as TLS permits)"
            ),
            certs=tuple(
                n.certificate.fingerprint_hex for n in terminals
            ),
            details=details,
        ),)
    details["aia_outcome"] = analysis.aia_outcome
    if analysis.missing_count is not None:
        details["missing_count"] = analysis.missing_count
    if analysis.aia_fixable:
        summary = (
            f"intermediates are missing but recursive AIA recovers the "
            f"chain ({analysis.missing_count} certificate(s) fetched)"
        )
    elif analysis.aia_outcome == "unsupported":
        summary = (
            "intermediates are missing and the analysing client has no "
            "AIA support"
        )
    else:
        summary = (
            f"intermediates are missing and AIA cannot recover the "
            f"chain ({analysis.aia_outcome})"
        )
    return (Evidence(
        rule_id=f"{RULE_COMPLETENESS}.incomplete",
        verdict="violation",
        summary=summary,
        certs=tuple(n.certificate.fingerprint_hex for n in terminals),
        details=details,
    ),)


def render_evidence(records, *, indent: str = "  ") -> str:
    """Render an evidence sequence as an indented block."""
    if not records:
        return f"{indent}(no evidence records — chain is compliant)"
    lines: list[str] = []
    for record in records:
        for line in record.render().splitlines():
            lines.append(f"{indent}{line}")
    return "\n".join(lines)
