"""Regeneration of the paper's figures as structured data.

Figures in the paper are diagrams rather than plots, so "regenerating"
one means computing the structure it depicts from the corpus: topology
graphs with the paper's node labels (Figure 2), the problematic
certificate lists of Figures 3–4 together with per-client outcomes, the
two-step validation pipeline trace of Figure 1, and the Figure 5
validity-priority candidates.  Each function returns plain data plus a
``render`` string suitable for a terminal.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime

from repro.core.topology import ChainTopology
from repro.webpki.ecosystem import Ecosystem
from repro.x509 import Certificate, Validity, utc


@dataclass(frozen=True, slots=True)
class TopologySketch:
    """A Figure 2-style rendering of one chain's issuance structure."""

    domain: str
    labels: tuple[str, ...]
    roles: tuple[str, ...]
    edges: tuple[tuple[int, int], ...]  # (subject position, issuer position)
    paths: tuple[str, ...]

    def render(self) -> str:
        nodes = ", ".join(
            f"{label}:{role}" for label, role in zip(self.labels, self.roles)
        )
        edges = ", ".join(f"{a}->{b}" for a, b in self.edges)
        paths = "; ".join(self.paths)
        return (
            f"{self.domain}\n  nodes: {nodes}\n  edges: {edges}\n"
            f"  paths: {paths}"
        )


def topology_sketch(domain: str, chain: list[Certificate]) -> TopologySketch:
    """Compute the Figure 2 sketch for one chain."""
    topology = ChainTopology(chain)
    labels = tuple(topology.position_labels())
    roles = []
    for index in range(len(chain)):
        anchor = int(labels[index].split("[")[0])
        roles.append(topology.nodes[anchor].role)
    edges = tuple(
        (child, parent)
        for child, parents in sorted(topology.parents.items())
        for parent in parents
    )
    return TopologySketch(
        domain=domain,
        labels=labels,
        roles=tuple(roles),
        edges=edges,
        paths=tuple(topology.path_structure(p) for p in topology.leaf_paths),
    )


def figure_1_trace(ecosystem: Ecosystem, domain: str,
                   *, client: str = "chrome") -> dict[str, object]:
    """Figure 1: the two-step pipeline (construction, then validation).

    Returns the constructed path structure and the validation verdict
    for one domain under one client model.
    """
    from repro.chainbuilder import DifferentialHarness

    deployment = ecosystem.deployment_by_domain(domain)
    harness = DifferentialHarness(
        ecosystem.registry, aia_fetcher=ecosystem.aia_repo
    )
    verdict = harness._builders[client].build_and_validate(  # noqa: SLF001
        deployment.chain, domain=domain, at_time=ecosystem.config.now
    )
    return {
        "domain": domain,
        "client": client,
        "construction": {
            "anchored": verdict.build.anchored,
            "structure": verdict.build.structure,
            "error": verdict.build.error,
        },
        "validation": {
            "ok": verdict.validation.ok,
            "error": verdict.validation.error,
        },
    }


def figure_2_sketches(ecosystem: Ecosystem) -> dict[str, TopologySketch]:
    """Figure 2 (a–d): compliant, stale-leaf, cross-sign, foreign-chain."""
    cases = ecosystem.case_studies()
    sketches: dict[str, TopologySketch] = {}
    # (a) a compliant chain: the first defect-free deployment.
    for deployment in ecosystem.deployments:
        if not deployment.plan.any_defect and len(deployment.chain) >= 3:
            sketches["a_compliant"] = topology_sketch(
                deployment.domain, deployment.chain
            )
            break
    if "fig2b_stale_leaves" in cases:
        dep = cases["fig2b_stale_leaves"]
        sketches["b_stale_leaves"] = topology_sketch(dep.domain, dep.chain)
    if "fig4_backtracking" in cases:
        dep = cases["fig4_backtracking"]
        sketches["c_cross_signed"] = topology_sketch(dep.domain, dep.chain)
    if "fig2d_foreign_chain" in cases:
        dep = cases["fig2d_foreign_chain"]
        sketches["d_foreign_chain"] = topology_sketch(dep.domain, dep.chain)
    return sketches


def figure_case_outcomes(ecosystem: Ecosystem, case: str,
                         *, at_time: datetime | None = None
                         ) -> dict[str, object]:
    """Figures 3 & 4: the case chain plus every client's verdict."""
    from repro.chainbuilder import ALL_CLIENTS, DifferentialHarness

    deployment = ecosystem.case_studies()[case]
    harness = DifferentialHarness(
        ecosystem.registry, aia_fetcher=ecosystem.aia_repo
    )
    moment = at_time or ecosystem.config.now
    outcome = harness.evaluate(deployment.domain, deployment.chain,
                               at_time=moment)
    return {
        "domain": deployment.domain,
        "list_length": len(deployment.chain),
        "sketch": topology_sketch(deployment.domain, deployment.chain),
        "results": {c.name: outcome.result_of(c.name) for c in ALL_CLIENTS},
        "structures": {c.name: outcome.verdicts[c.name].build.structure
                       for c in ALL_CLIENTS},
    }


@dataclass(frozen=True, slots=True)
class PriorityCandidate:
    """One Figure 5 candidate: a subject DN plus its validity window."""

    label: str
    subject: str
    validity: Validity
    preferred: bool


def figure_5_candidates() -> list[PriorityCandidate]:
    """Figure 5: two same-subject intermediates, newest preferred.

    Mirrors the DigiCert example: candidates share the subject DN and
    key identifier and differ only in validity; the recommendation is
    to prefer the most recently issued one.
    """
    subject = "C=US,O=DigiCert-like Inc,CN=TLS RSA SHA256 2020 CA1"
    candidate_a = PriorityCandidate(
        label="A",
        subject=subject,
        validity=Validity(utc(2021, 4, 14), utc(2031, 4, 13)),
        preferred=True,
    )
    candidate_b = PriorityCandidate(
        label="B",
        subject=subject,
        validity=Validity(utc(2020, 9, 24), utc(2030, 9, 23)),
        preferred=False,
    )
    return [candidate_a, candidate_b]
