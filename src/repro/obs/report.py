"""Run reports: one consumable artifact per finished campaign.

PRs 1–4 made campaigns *emit* telemetry — journals, evidence records,
metrics snapshots — but nothing consumed it.  A :class:`RunReport`
aggregates one finished run into the summary a measurement paper (or a
CI gate) actually reads:

* the run's **identity** (config / seed / root-store digest from the
  journal manifest), so two reports are comparable only when they
  should be;
* **per-vantage reachability** and degradation, the Section 3.1
  collection story;
* the **verdict breakdown by rule ID** with evidence counts — how many
  domains violate ``R2.reversed_sequences``, how many evidence records
  back that up — plus per-domain verdict summaries that power
  cross-run regression diffing (:mod:`repro.obs.diff`);
* the **top-K slowest domains** by simulated scan duration;
* **retry / breaker / cache rollups** and **per-phase wall/CPU/RSS**
  resource attribution, read from a metrics snapshot when one is
  supplied (phase histograms are produced by
  :func:`repro.obs.trace.phase_scope`).

Reports built from a journal alone are **deterministic**: every field
derives from journal bytes, so two identical seeded runs render
byte-identical console text.  The timing-dependent phase section
appears only when a metrics snapshot is passed in.

``to_dict``/``from_dict`` are lossless inverses; rendering comes in
console text, Markdown, and self-contained HTML flavours.
"""

from __future__ import annotations

import html as _html
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.errors import JournalError, PayloadError

__all__ = [
    "REPORT_VERSION",
    "DomainVerdict",
    "PhaseStat",
    "RuleStat",
    "RunReport",
    "SlowScan",
    "VantageStat",
    "build_report",
    "flatten_metrics",
    "render_report_html",
    "render_report_markdown",
    "render_report_text",
    "report_from_journal",
]

#: Bump when the report schema changes incompatibly.
REPORT_VERSION = 1


# ----------------------------------------------------------------------
# Leaf records
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class VantageStat:
    """Collection outcome for one vantage point."""

    vantage: str
    attempted: int
    reached: int
    wire_bytes: int
    degraded_reason: str | None = None

    @property
    def reachability_pct(self) -> float:
        return 100.0 * self.reached / self.attempted if self.attempted \
            else 0.0


@dataclass(frozen=True)
class RuleStat:
    """How often one taxonomy rule ID was cited across the run."""

    rule_id: str
    verdict: str  # violation | info | attribution
    domains: int  # distinct domains citing it
    evidence: int  # total evidence records


@dataclass(frozen=True)
class DomainVerdict:
    """One domain's compliance summary (diffing granularity).

    ``rules`` holds the *violated* rule IDs only — the set whose change
    across runs constitutes a verdict flip.
    """

    compliant: bool
    rules: tuple[str, ...]
    chains: int = 1


@dataclass(frozen=True)
class SlowScan:
    """One of the top-K slowest scans (simulated seconds)."""

    domain: str
    vantage: str
    seconds: float
    attempts: int


@dataclass(frozen=True)
class PhaseStat:
    """Resource attribution for one named pipeline phase."""

    phase: str
    count: int
    wall_seconds: float
    cpu_seconds: float
    rss_peak_bytes: float | None = None


# ----------------------------------------------------------------------
# The report
# ----------------------------------------------------------------------

@dataclass
class RunReport:
    """Everything :func:`build_report` distils out of one run."""

    identity: dict[str, Any]
    run: str = "campaign"
    domains: int | None = None
    observations: int | None = None
    unique_chains: int | None = None
    unique_certificates: int | None = None
    degraded_vantages: dict[str, str] = field(default_factory=dict)
    vantages: tuple[VantageStat, ...] = ()
    verdict_total: int = 0
    verdict_compliant: int = 0
    rules: tuple[RuleStat, ...] = ()
    domain_verdicts: dict[str, DomainVerdict] = field(default_factory=dict)
    slowest: tuple[SlowScan, ...] = ()
    differential: dict[str, dict[str, str]] = field(default_factory=dict)
    phases: tuple[PhaseStat, ...] = ()
    metric_totals: dict[str, float] = field(default_factory=dict)

    @property
    def verdict_noncompliant(self) -> int:
        return self.verdict_total - self.verdict_compliant

    @property
    def noncompliance_pct(self) -> float:
        if not self.verdict_total:
            return 0.0
        return 100.0 * self.verdict_noncompliant / self.verdict_total

    @property
    def degraded(self) -> bool:
        return bool(self.degraded_vantages)

    def rollups(self) -> dict[str, float]:
        """Retry / breaker / cache totals distilled from the metrics.

        Empty when the report was built without a metrics snapshot.
        Hit rate is derived, not stored, so it never drifts from its
        inputs.
        """
        totals = self.metric_totals
        if not totals:
            return {}
        out: dict[str, float] = {}
        for name in (
            "scan.retry.attempts", "scan.retry.budget_exhausted",
            "breaker.tripped", "breaker.skipped", "breaker.probes",
            "breaker.closed", "campaign.chains_resumed",
            "campaign.cache_hits", "cache.hits", "cache.misses",
        ):
            value = totals.get(name)
            if value:
                out[name] = value
        analyzed = totals.get("campaign.chains_analyzed", 0.0)
        fanned = totals.get("campaign.cache_hits", 0.0)
        if analyzed:
            out["verdict_cache_hit_rate_pct"] = round(
                100.0 * fanned / analyzed, 2
            )
        hits, misses = totals.get("cache.hits", 0.0), totals.get(
            "cache.misses", 0.0
        )
        if hits + misses:
            out["cache_hit_rate_pct"] = round(
                100.0 * hits / (hits + misses), 2
            )
        return out

    # -- serialisation -------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready dict; :meth:`from_dict` is its lossless inverse."""
        return {
            "report_version": REPORT_VERSION,
            "run": self.run,
            "identity": dict(self.identity),
            "collection": {
                "domains": self.domains,
                "observations": self.observations,
                "unique_chains": self.unique_chains,
                "unique_certificates": self.unique_certificates,
                "degraded_vantages": dict(self.degraded_vantages),
            },
            "vantages": [
                {
                    "vantage": v.vantage,
                    "attempted": v.attempted,
                    "reached": v.reached,
                    "wire_bytes": v.wire_bytes,
                    "degraded_reason": v.degraded_reason,
                }
                for v in self.vantages
            ],
            "verdicts": {
                "total": self.verdict_total,
                "compliant": self.verdict_compliant,
            },
            "rules": [
                {
                    "rule_id": r.rule_id,
                    "verdict": r.verdict,
                    "domains": r.domains,
                    "evidence": r.evidence,
                }
                for r in self.rules
            ],
            "domain_verdicts": {
                domain: {
                    "compliant": dv.compliant,
                    "rules": list(dv.rules),
                    "chains": dv.chains,
                }
                for domain, dv in sorted(self.domain_verdicts.items())
            },
            "slowest": [
                {
                    "domain": s.domain,
                    "vantage": s.vantage,
                    "seconds": s.seconds,
                    "attempts": s.attempts,
                }
                for s in self.slowest
            ],
            "differential": {
                domain: dict(results)
                for domain, results in sorted(self.differential.items())
            },
            "phases": [
                {
                    "phase": p.phase,
                    "count": p.count,
                    "wall_seconds": p.wall_seconds,
                    "cpu_seconds": p.cpu_seconds,
                    "rss_peak_bytes": p.rss_peak_bytes,
                }
                for p in self.phases
            ],
            "metric_totals": dict(sorted(self.metric_totals.items())),
        }

    def to_json(self, *, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "RunReport":
        """Inverse of :meth:`to_dict`."""
        version = payload.get("report_version")
        if version != REPORT_VERSION:
            raise ValueError(
                f"unsupported report version {version!r} "
                f"(expected {REPORT_VERSION})"
            )
        collection = payload.get("collection", {})
        return cls(
            identity=dict(payload.get("identity", {})),
            run=payload.get("run", "campaign"),
            domains=collection.get("domains"),
            observations=collection.get("observations"),
            unique_chains=collection.get("unique_chains"),
            unique_certificates=collection.get("unique_certificates"),
            degraded_vantages=dict(collection.get("degraded_vantages", {})),
            vantages=tuple(
                VantageStat(
                    vantage=v["vantage"],
                    attempted=v["attempted"],
                    reached=v["reached"],
                    wire_bytes=v["wire_bytes"],
                    degraded_reason=v.get("degraded_reason"),
                )
                for v in payload.get("vantages", ())
            ),
            verdict_total=payload.get("verdicts", {}).get("total", 0),
            verdict_compliant=payload.get("verdicts", {}).get(
                "compliant", 0
            ),
            rules=tuple(
                RuleStat(
                    rule_id=r["rule_id"],
                    verdict=r["verdict"],
                    domains=r["domains"],
                    evidence=r["evidence"],
                )
                for r in payload.get("rules", ())
            ),
            domain_verdicts={
                domain: DomainVerdict(
                    compliant=dv["compliant"],
                    rules=tuple(dv.get("rules", ())),
                    chains=dv.get("chains", 1),
                )
                for domain, dv in payload.get(
                    "domain_verdicts", {}
                ).items()
            },
            slowest=tuple(
                SlowScan(
                    domain=s["domain"],
                    vantage=s["vantage"],
                    seconds=s["seconds"],
                    attempts=s["attempts"],
                )
                for s in payload.get("slowest", ())
            ),
            differential={
                domain: dict(results)
                for domain, results in payload.get(
                    "differential", {}
                ).items()
            },
            phases=tuple(
                PhaseStat(
                    phase=p["phase"],
                    count=p["count"],
                    wall_seconds=p["wall_seconds"],
                    cpu_seconds=p["cpu_seconds"],
                    rss_peak_bytes=p.get("rss_peak_bytes"),
                )
                for p in payload.get("phases", ())
            ),
            metric_totals=dict(payload.get("metric_totals", {})),
        )


# ----------------------------------------------------------------------
# Building
# ----------------------------------------------------------------------

def _verdict_summary(payload: dict[str, Any]) -> tuple[
        bool, tuple[str, ...], list[tuple[str, str]]]:
    """(compliant, violated rule IDs, cited (rule ID, verdict) pairs)
    from one journal verdict payload.

    Derived from the evidence records the journal already carries
    rather than re-running analysis: a chain is compliant iff no
    section produced a ``violation`` evidence record and the order
    analysis says compliant — exactly the predicate
    ``ChainComplianceReport.compliant`` encodes, without importing
    :mod:`repro.core` into the journal-consuming layer.
    """
    cited = [(str(record.get("rule_id")), str(record.get("verdict")))
             for section in ("leaf", "order", "completeness")
             for record in payload.get(section, {}).get("evidence", ())]
    violations = sorted({rule for rule, verdict in cited
                         if verdict == "violation"})
    compliant = not violations and bool(
        payload.get("order", {}).get("compliant", True)
    )
    return compliant, tuple(violations), cited


def build_report(manifest: dict[str, Any],
                 events: list[dict[str, Any]], *,
                 metrics: dict[str, Any] | None = None,
                 top_slowest: int = 10) -> RunReport:
    """Aggregate one run's journal events (and optional metrics
    snapshot) into a :class:`RunReport`.

    ``manifest``/``events`` are :func:`repro.obs.journal.read_journal`
    output; ``metrics`` is a ``MetricsRegistry.snapshot()`` dict (the
    ``scan --metrics-out`` file).  Everything journal-derived is
    deterministic for a seeded run; metrics-derived sections carry the
    wall-clock noise of the machine that ran them.
    """
    from repro.obs.journal import manifest_identity

    identity = manifest_identity(manifest)
    if "cache" in manifest:
        # Warm-started runs record which verdict store served them;
        # surfaced with the rest of the identity but (like the rest of
        # the manifest extras) never part of resume identity checks.
        identity["cache"] = dict(manifest["cache"])
    report = RunReport(
        identity=identity,
        run=str(manifest.get("run", "campaign")),
    )

    # -- collection ----------------------------------------------------
    vantage_stats: dict[str, dict[str, Any]] = {}
    slow: list[SlowScan] = []
    degraded: dict[str, str] = {}
    rule_domains: dict[tuple[str, str], set[str]] = {}
    rule_evidence: dict[tuple[str, str], int] = {}

    for event in events:
        kind = event.get("type")
        if kind == "scan":
            vantage = str(event.get("vantage"))
            stat = vantage_stats.setdefault(
                vantage, {"attempted": 0, "reached": 0, "wire_bytes": 0}
            )
            stat["attempted"] += 1
            if event.get("success"):
                stat["reached"] += 1
                stat["wire_bytes"] += int(event.get("wire_bytes", 0))
            slow.append(SlowScan(
                domain=str(event.get("domain")),
                vantage=vantage,
                seconds=float(event.get("duration", 0.0)),
                attempts=int(event.get("attempts", 1)),
            ))
        elif kind == "collection":
            report.domains = event.get("domains")
            report.observations = event.get("observations")
            report.unique_chains = event.get("unique_chains")
            report.unique_certificates = event.get("unique_certificates")
            degraded.update(event.get("degraded_vantages") or {})
        elif kind == "degradation":
            if "vantage" in event:
                degraded[str(event["vantage"])] = str(
                    event.get("reason", "unknown")
                )
        elif kind == "verdict":
            domain = str(event.get("domain"))
            try:
                compliant, rules, cited = _verdict_summary(
                    event.get("report") or {}
                )
            except (AttributeError, TypeError) as exc:
                raise PayloadError(
                    f"verdict for {domain!r}: report payload does not "
                    f"decode ({type(exc).__name__}: {exc})") from None
            report.verdict_total += 1
            if compliant:
                report.verdict_compliant += 1
            previous = report.domain_verdicts.get(domain)
            if previous is None:
                report.domain_verdicts[domain] = DomainVerdict(
                    compliant=compliant, rules=rules
                )
            else:
                # A domain serving several distinct chains is compliant
                # only if every chain is; violated rules accumulate.
                report.domain_verdicts[domain] = DomainVerdict(
                    compliant=previous.compliant and compliant,
                    rules=tuple(sorted({*previous.rules, *rules})),
                    chains=previous.chains + 1,
                )
            for key in cited:
                rule_domains.setdefault(key, set()).add(domain)
                rule_evidence[key] = rule_evidence.get(key, 0) + 1
        elif kind == "differential":
            domain = str(event.get("domain"))
            results = event.get("results") or {}
            report.differential[domain] = {
                str(client): str(outcome)
                for client, outcome in results.items()
            }
            for record in event.get("attribution") or ():
                key = (str(record.get("rule_id")),
                       str(record.get("verdict", "attribution")))
                rule_domains.setdefault(key, set()).add(domain)
                rule_evidence[key] = rule_evidence.get(key, 0) + 1

    report.degraded_vantages = degraded
    report.vantages = tuple(
        VantageStat(
            vantage=vantage,
            attempted=stat["attempted"],
            reached=stat["reached"],
            wire_bytes=stat["wire_bytes"],
            degraded_reason=degraded.get(vantage),
        )
        for vantage, stat in sorted(vantage_stats.items())
    )
    slow.sort(key=lambda s: (-s.seconds, s.domain, s.vantage))
    report.slowest = tuple(slow[:top_slowest])
    report.rules = tuple(
        RuleStat(
            rule_id=rule_id,
            verdict=verdict,
            domains=len(rule_domains[(rule_id, verdict)]),
            evidence=rule_evidence[(rule_id, verdict)],
        )
        for rule_id, verdict in sorted(rule_domains)
    )

    # -- metrics-derived sections --------------------------------------
    if metrics:
        report.metric_totals = flatten_metrics(metrics)
        report.phases = phase_stats(metrics)
    return report


def report_from_journal(path: str | Path, *,
                        metrics: dict[str, Any] | None = None,
                        top_slowest: int = 10) -> RunReport:
    """Validate + read a journal file and build its report (a verdict
    that does not decode is a :class:`JournalError` naming both)."""
    from repro.obs.journal import validate_journal

    manifest, events = validate_journal(path)
    try:
        return build_report(manifest, events, metrics=metrics,
                            top_slowest=top_slowest)
    except PayloadError as exc:
        raise JournalError(f"{Path(path)}: {exc}") from None


def flatten_metrics(snapshot: dict[str, Any]) -> dict[str, float]:
    """One ``name -> number`` map from a registry snapshot.

    Counters/gauges flatten to their family total plus one
    ``name{k=v,...}`` entry per labeled series; histograms contribute
    ``name.count`` and ``name.sum``.  This is the diffable surface the
    threshold gates in :mod:`repro.obs.diff` and the health rules in
    :mod:`repro.obs.health` operate on.
    """
    flat: dict[str, float] = {}
    for name in sorted(snapshot):
        family = snapshot[name]
        kind = family.get("type", "counter")
        series = family.get("series", [])
        if kind == "histogram":
            count = sum(int(s.get("count", 0)) for s in series)
            total = sum(float(s.get("sum", 0.0)) for s in series)
            if count:
                flat[f"{name}.count"] = float(count)
                flat[f"{name}.sum"] = total
            continue
        family_total = 0.0
        for entry in series:
            value = float(entry.get("value", 0.0))
            family_total += value
            labels = entry.get("labels", {})
            if labels and value:
                rendered = ",".join(
                    f"{k}={v}" for k, v in sorted(labels.items())
                )
                flat[f"{name}{{{rendered}}}"] = value
        if family_total:
            flat[name] = family_total
    return flat


def phase_stats(snapshot: dict[str, Any]) -> tuple[PhaseStat, ...]:
    """Per-phase resource table from the ``phase.*`` histograms: the
    report's "Phase resources" rows and ``stats``'s phase timing."""
    def by_phase(family: str, field_name: str) -> dict[str, float]:
        out: dict[str, float] = {}
        for series in snapshot.get(family, {}).get("series", []):
            phase = series.get("labels", {}).get("phase")
            if phase is not None and series.get("count"):
                out[phase] = float(series.get(field_name, 0.0))
        return out

    wall = by_phase("phase.wall_seconds", "sum")
    cpu = by_phase("phase.cpu_seconds", "sum")
    rss = by_phase("phase.rss_peak_bytes", "max")
    counts: dict[str, int] = {}
    for series in snapshot.get("phase.wall_seconds", {}).get("series", []):
        phase = series.get("labels", {}).get("phase")
        if phase is not None and series.get("count"):
            counts[phase] = int(series["count"])
    return tuple(
        PhaseStat(
            phase=phase,
            count=counts.get(phase, 0),
            wall_seconds=wall.get(phase, 0.0),
            cpu_seconds=cpu.get(phase, 0.0),
            rss_peak_bytes=rss.get(phase),
        )
        for phase in sorted(set(wall) | set(cpu) | set(rss))
    )


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------

def _fmt_seconds(value: float) -> str:
    return f"{value:,.3f}s"


def _fmt_bytes(value: float) -> str:
    if value >= 1 << 30:
        return f"{value / (1 << 30):,.2f} GiB"
    if value >= 1 << 20:
        return f"{value / (1 << 20):,.2f} MiB"
    if value >= 1 << 10:
        return f"{value / (1 << 10):,.2f} KiB"
    return f"{int(value):,} B"


def _fmt_count(value: int | None) -> str:
    return "?" if value is None else f"{value:,}"


def _sections(report: RunReport) -> list[tuple[str, list[list[str]]]]:
    """(title, rows) section list shared by every renderer.

    Rows are lists of cells; the first row of a section may be a
    header (renderer-specific).  Keeping the *content* in one place
    guarantees the three output formats never disagree on numbers.
    """
    sections: list[tuple[str, list[list[str]]]] = []

    identity_rows = [["field", "value"], ["run", report.run]]
    for key in sorted(report.identity):
        value = report.identity[key]
        if isinstance(value, dict):
            value = " ".join(
                f"{k}={value[k]}" for k in sorted(value)
            )
        identity_rows.append([key, str(value)])
    sections.append(("Run identity", identity_rows))

    collection_rows = [
        ["quantity", "value"],
        ["domains", _fmt_count(report.domains)],
        ["observations (union)", _fmt_count(report.observations)],
        ["unique chains", _fmt_count(report.unique_chains)],
        ["unique certificates", _fmt_count(report.unique_certificates)],
        ["degraded", "yes" if report.degraded else "no"],
    ]
    sections.append(("Collection", collection_rows))

    if report.vantages:
        rows = [["vantage", "reached", "attempted", "share",
                 "wire bytes", "status"]]
        for v in report.vantages:
            rows.append([
                v.vantage,
                f"{v.reached:,}",
                f"{v.attempted:,}",
                f"{v.reachability_pct:.1f}%",
                f"{v.wire_bytes:,}",
                v.degraded_reason or "ok",
            ])
        sections.append(("Vantage reachability", rows))

    if report.verdict_total:
        rows = [
            ["verdict", "chains"],
            ["compliant", f"{report.verdict_compliant:,}"],
            ["non-compliant", f"{report.verdict_noncompliant:,}"],
            ["non-compliance rate", f"{report.noncompliance_pct:.2f}%"],
        ]
        sections.append(("Verdicts", rows))

    if report.rules:
        rows = [["rule", "kind", "domains", "evidence"]]
        for r in report.rules:
            rows.append([r.rule_id, r.verdict, f"{r.domains:,}",
                         f"{r.evidence:,}"])
        sections.append(("Rule breakdown", rows))

    if report.differential:
        disagreements = sum(
            1 for results in report.differential.values()
            if len(set(results.values())) > 1
        )
        rows = [
            ["quantity", "value"],
            ["chains evaluated", f"{len(report.differential):,}"],
            ["client disagreements", f"{disagreements:,}"],
        ]
        sections.append(("Differential", rows))

    if report.slowest:
        rows = [["domain", "vantage", "scan time", "attempts"]]
        for s in report.slowest:
            rows.append([s.domain, s.vantage, _fmt_seconds(s.seconds),
                         str(s.attempts)])
        sections.append(
            (f"Slowest scans (top {len(report.slowest)})", rows)
        )

    rollups = report.rollups()
    if rollups:
        rows = [["rollup", "value"]]
        for name in sorted(rollups):
            value = rollups[name]
            rendered = (f"{value:,.2f}" if name.endswith("_pct")
                        else f"{value:,.0f}")
            rows.append([name, rendered])
        sections.append(("Resilience / cache rollups", rows))

    if report.phases:
        rows = [["phase", "scopes", "wall", "cpu", "peak rss"]]
        for p in report.phases:
            rows.append([
                p.phase,
                str(p.count),
                _fmt_seconds(p.wall_seconds),
                _fmt_seconds(p.cpu_seconds),
                ("-" if p.rss_peak_bytes is None
                 else _fmt_bytes(p.rss_peak_bytes)),
            ])
        sections.append(("Phase resources", rows))

    return sections


def _render_table(rows: list[list[str]]) -> list[str]:
    """Aligned console table: header, rule, rows; numbers untouched."""
    widths = [
        max(len(row[col]) for row in rows)
        for col in range(len(rows[0]))
    ]
    lines = []
    for index, row in enumerate(rows):
        cells = []
        for col, cell in enumerate(row):
            if col == len(row) - 1:
                cells.append(cell)
            else:
                cells.append(f"{cell:<{widths[col]}}")
        lines.append("  ".join(cells).rstrip())
        if index == 0:
            lines.append("-" * (sum(widths) + 2 * (len(widths) - 1)))
    return lines


def render_report_text(report: RunReport) -> str:
    """Deterministic console rendering (the ``repro report`` default)."""
    title = f"run report — {report.run}"
    lines = [title, "=" * len(title)]
    for section_title, rows in _sections(report):
        lines.append("")
        lines.append(f"== {section_title} ==")
        lines.extend(_render_table(rows))
    return "\n".join(lines) + "\n"


def render_report_markdown(report: RunReport) -> str:
    """GitHub-flavoured Markdown rendering."""
    lines = [f"# Run report — {report.run}"]
    for section_title, rows in _sections(report):
        lines.append("")
        lines.append(f"## {section_title}")
        lines.append("")
        header, *body = rows
        lines.append("| " + " | ".join(header) + " |")
        lines.append("|" + "|".join(" --- " for _ in header) + "|")
        for row in body:
            lines.append("| " + " | ".join(row) + " |")
    return "\n".join(lines) + "\n"


_HTML_STYLE = """\
body { font: 14px/1.45 system-ui, sans-serif; margin: 2em auto;
       max-width: 60em; color: #1a1a1a; }
h1 { font-size: 1.4em; border-bottom: 2px solid #444; }
h2 { font-size: 1.1em; margin-top: 1.6em; }
table { border-collapse: collapse; margin: 0.5em 0; }
th, td { border: 1px solid #bbb; padding: 0.25em 0.7em;
         text-align: left; }
th { background: #f0f0f0; }
tr:nth-child(even) td { background: #fafafa; }
"""


def render_report_html(report: RunReport) -> str:
    """Self-contained single-file HTML rendering (inline CSS only)."""
    esc = _html.escape
    parts = [
        "<!DOCTYPE html>",
        '<html lang="en"><head><meta charset="utf-8">',
        f"<title>Run report — {esc(report.run)}</title>",
        f"<style>{_HTML_STYLE}</style>",
        "</head><body>",
        f"<h1>Run report — {esc(report.run)}</h1>",
    ]
    for section_title, rows in _sections(report):
        parts.append(f"<h2>{esc(section_title)}</h2>")
        header, *body = rows
        parts.append("<table><thead><tr>")
        parts.extend(f"<th>{esc(cell)}</th>" for cell in header)
        parts.append("</tr></thead><tbody>")
        for row in body:
            parts.append(
                "<tr>"
                + "".join(f"<td>{esc(cell)}</td>" for cell in row)
                + "</tr>"
            )
        parts.append("</tbody></table>")
    parts.append("</body></html>")
    return "\n".join(parts) + "\n"
