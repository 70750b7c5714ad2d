"""Construction explanations: why a client chose the path it chose.

Differential findings are only actionable if the *reason* for a
divergence is visible.  :func:`explain_build` re-derives, for every hop
of a client's construction, the full candidate slate with each
candidate's priority ranking and provenance — turning "MbedTLS failed"
into "MbedTLS's forward scan saw no candidates after position 2".
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime

from repro.chainbuilder.engine import (
    BuildResult,
    BuildStats,
    ChainBuilder,
    ChainFacts,
    PathStep,
)
from repro.x509 import Certificate


@dataclass(frozen=True, slots=True)
class CandidateExplanation:
    """One candidate issuer at one hop."""

    subject: str
    source: str
    position: int | None
    rank: tuple
    chosen: bool
    valid_now: bool

    def render(self) -> str:
        mark = "->" if self.chosen else "  "
        where = (
            f"presented[{self.position}]" if self.position is not None
            else self.source
        )
        validity = "" if self.valid_now else " (expired/not yet valid)"
        return f"{mark} {self.subject} via {where}{validity}"


@dataclass(frozen=True, slots=True)
class HopExplanation:
    """The candidate slate considered while extending one certificate."""

    extending: str
    candidates: tuple[CandidateExplanation, ...]

    @property
    def chosen(self) -> CandidateExplanation | None:
        return next((c for c in self.candidates if c.chosen), None)

    def render(self) -> str:
        lines = [f"extending {self.extending}:"]
        if not self.candidates:
            lines.append("   (no candidates — construction dead-ends here)")
        lines.extend(f"  {c.render()}" for c in self.candidates)
        return "\n".join(lines)


@dataclass(frozen=True)
class BuildExplanation:
    """The whole construction, hop by hop, plus the outcome."""

    client: str
    result: BuildResult
    hops: tuple[HopExplanation, ...]

    def render(self) -> str:
        status = "anchored" if self.result.anchored else (
            f"FAILED ({self.result.error})"
        )
        lines = [
            f"{self.client}: {status}; path {self.result.structure}",
        ]
        lines.extend(hop.render() for hop in self.hops)
        return "\n".join(lines)


def explain_build(
    builder: ChainBuilder,
    presented: list[Certificate],
    *,
    at_time: datetime,
) -> BuildExplanation:
    """Build with ``builder`` and annotate every hop's candidate slate.

    The explanation re-derives candidates along the path the builder
    actually walked (the best-effort path on failure), using the same
    collection and ranking code over the build's own fact table, so it
    cannot drift from the engine.
    """
    facts = ChainFacts(presented)
    result = builder.build(presented, at_time=at_time, facts=facts)
    hops: list[HopExplanation] = []
    prefix: list[PathStep] = []
    for index, step in enumerate(result.steps):
        prefix.append(step)
        if step.certificate.is_self_signed or step.source == "store":
            break  # terminals never consult a candidate slate
        candidates = builder._candidates_for(  # noqa: SLF001 - same package
            step, facts, prefix, at_time, BuildStats()
        )
        next_fingerprint = (
            result.steps[index + 1].certificate.fingerprint
            if index + 1 < len(result.steps)
            else None
        )
        hops.append(HopExplanation(
            extending=step.certificate.subject.rfc4514_string() or "<empty>",
            candidates=tuple(
                CandidateExplanation(
                    subject=(
                        c.certificate.subject.rfc4514_string() or "<empty>"
                    ),
                    source=c.source,
                    position=c.position,
                    rank=builder._priority_key(  # noqa: SLF001
                        c, prefix, at_time
                    ),
                    chosen=c.certificate.fingerprint == next_fingerprint,
                    valid_now=c.certificate.is_valid_at(at_time),
                )
                for c in candidates
            ),
        ))
    return BuildExplanation(
        client=builder.policy.display_name,
        result=result,
        hops=tuple(hops),
    )
