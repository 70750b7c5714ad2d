"""Run reports: one consumable artifact per finished campaign.

A :class:`RunReport` aggregates one finished run's journal (and
metrics) into the summary a measurement paper (or a CI gate) reads:

* the run's **identity** (config / seed / root-store digest from the
  journal manifest), so two reports are comparable only when they
  should be;
* **per-vantage reachability** and degradation, the Section 3.1
  collection story;
* the **verdict breakdown by rule ID** with evidence counts — how many
  domains violate ``R2.reversed_sequences``, how many evidence records
  back that up — plus per-domain verdict summaries that power
  cross-run regression diffing (:mod:`repro.obs.diff`).  Each verdict
  is decoded by the codec resume uses
  (:class:`~repro.core.compliance.ReportTable`), so a chain's
  compliance is the report's own ``compliant``, the conjunction of the
  three Section 3.1 rules, and a verdict that does not decode is
  refused as every other journal reader refuses it;
* the **top-K slowest domains** by simulated scan duration;
* **retry / breaker / cache rollups** and **per-phase wall/CPU/RSS**
  resource attribution, read from a metrics snapshot when one is
  supplied (phase histograms are produced by
  :func:`repro.obs.trace.phase_scope`).

Reports built from a journal alone are **deterministic**: every field
derives from journal bytes, so two identical seeded runs render
byte-identical console text.  The timing-dependent phase section
appears only when a metrics snapshot is passed in.

``to_dict``/``from_dict`` are lossless inverses: each record
serialises with keys equal to its field names and decodes type-exact
from them, so a report JSON that does not decode is one
:class:`~repro.errors.PayloadError`.  Rendering comes in console text,
Markdown, and self-contained HTML flavours.
"""

from __future__ import annotations

import html as _html
import json
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path
from typing import Any

from repro.errors import JournalError, PayloadError
from repro.obs.journal import (
    json_kind,
    read_journal,
    typed,
    typed_number,
    typed_strings,
)

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


def _array(decode):
    """The decoder of an array whose every element ``decode`` reads."""
    def read(section, name):
        values = typed(section, name, list)
        return tuple(decode(values, index) for index in range(len(values)))
    return read


def _mapping(decode):
    """The decoder of an object whose every value ``decode`` reads."""
    def read(section, name):
        mapping = typed(section, name, dict)
        return {key: decode(mapping, key) for key in mapping}
    return read


def _record(kind: type):
    """The decoder of one ``kind`` record (:data:`_RECORD_FIELDS`)."""
    return lambda section, name: _fields_of(kind, typed(section, name, dict))


def _fields_of(kind: type, payload: dict):
    """A ``kind`` record from an object keyed by its field names, each
    value of its field's JSON type; an absent field with a default
    takes it."""
    return kind(**{name: decode(payload, name)
                   for name, has_default, decode in _RECORD_FIELDS[kind]
                   if name in payload or not has_default})


def _string(section, name):
    return typed(section, name, str)


#: How a report field of each annotation decodes from its JSON value.
_FIELD_DECODERS = {
    "str": _string,
    "int": lambda section, name: typed(section, name, int),
    "bool": lambda section, name: typed(section, name, bool),
    "float": typed_number,
    "str | None": lambda section, name: typed(section, name, str, True),
    "int | None": lambda section, name: typed(section, name, int, True),
    "float | None": lambda section, name: (
        None if section[name] is None else typed_number(section, name)),
    "tuple[str, ...]": lambda section, name: tuple(
        typed_strings(section, name)),
    "dict[str, Any]": lambda section, name: dict(typed(section, name, dict)),
    "dict[str, str]": _mapping(_string),
    "dict[str, float]": _mapping(typed_number),
    "dict[str, dict[str, str]]": _mapping(_mapping(_string)),
    "dict[str, DomainVerdict]": _mapping(_record(DomainVerdict)),
    "tuple[VantageStat, ...]": _array(_record(VantageStat)),
    "tuple[RuleStat, ...]": _array(_record(RuleStat)),
    "tuple[SlowScan, ...]": _array(_record(SlowScan)),
    "tuple[PhaseStat, ...]": _array(_record(PhaseStat)),
}


# ----------------------------------------------------------------------
# The report
# ----------------------------------------------------------------------

@dataclass
class RunReport:
    """Everything :func:`build_report` distils out of one run."""

    identity: dict[str, Any] = field(default_factory=dict)
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
        out: dict[str, Any] = {"report_version": REPORT_VERSION}
        for name, value in _plain(self).items():
            section, key = _SECTIONED.get(name, (None, name))
            (out if section is None
             else out.setdefault(section, {}))[key] = value
        return out

    def to_json(self, *, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "RunReport":
        """Inverse of :meth:`to_dict`, type-exact: a payload of another
        :data:`REPORT_VERSION`, or with a value of another JSON type or a
        record without a required field, raises
        :class:`~repro.errors.PayloadError`."""
        try:
            if type(payload) is not dict:
                raise TypeError(f"a run report must be an object, "
                                f"not {json_kind(payload)}")
            version = payload.get("report_version")
            if type(version) is not int or version != REPORT_VERSION:
                raise ValueError(f"unsupported report version {version!r} "
                                 f"(expected {REPORT_VERSION})")
            sections = {None: payload, **{
                section: typed(payload, section, dict)
                for section in ("collection", "verdicts")
                if section in payload}}
            values = {}
            for name, _, _ in _RECORD_FIELDS[cls]:
                section, key = _SECTIONED.get(name, (None, name))
                if key in sections.get(section, ()):
                    values[name] = sections[section][key]
            return _fields_of(cls, values)
        except (KeyError, TypeError, ValueError) as exc:
            raise PayloadError(f"run report does not decode "
                               f"({type(exc).__name__}: {exc})") from None


#: The report fields its JSON nests in a section: (section, key there).
_SECTIONED = {
    **{name: ("collection", name)
       for name in ("domains", "observations", "unique_chains",
                    "unique_certificates", "degraded_vantages")},
    "verdict_total": ("verdicts", "total"),
    "verdict_compliant": ("verdicts", "compliant"),
}

#: Each record's fields, the report's own among them: name, whether it
#: has a default, and its decoder (by annotation, :data:`_FIELD_DECODERS`).
_RECORD_FIELDS = {
    record: tuple((f.name, f.default is not MISSING
                   or f.default_factory is not MISSING,
                   _FIELD_DECODERS[f.type]) for f in fields(record))
    for record in (VantageStat, RuleStat, DomainVerdict, SlowScan, PhaseStat,
                   RunReport)
}


def _plain(value):
    """A report value as JSON: a record as an object keyed by its field
    names, a tuple as an array."""
    if type(value) in _RECORD_FIELDS:
        return {name: _plain(getattr(value, name))
                for name, _, _ in _RECORD_FIELDS[type(value)]}
    if type(value) is tuple:
        return [_plain(item) for item in value]
    if type(value) is dict:
        return {key: _plain(item) for key, item in value.items()}
    return value


# ----------------------------------------------------------------------
# Building
# ----------------------------------------------------------------------

def build_report(manifest: dict[str, Any],
                 events: list[dict[str, Any]], *,
                 metrics: dict[str, Any] | None = None,
                 top_slowest: int = 10) -> RunReport:
    """Aggregate one run's journal events (and optional metrics
    snapshot) into a :class:`RunReport`.

    ``manifest``/``events`` are :func:`repro.obs.journal.read_journal`
    output, whose field checks let every event field be read as it
    stands; ``metrics`` is a ``MetricsRegistry.snapshot()`` dict (the
    ``scan --metrics-out`` file).  Everything journal-derived is
    deterministic for a seeded run; metrics-derived sections carry the
    wall-clock noise of the machine that ran them.

    Each verdict decodes through one
    :class:`~repro.core.compliance.ReportTable`, as resume does, so a
    chain is compliant here exactly when the scan counted it so, and
    its violated rules are the ``violation`` evidence it cites; a
    verdict that does not decode raises
    :class:`~repro.errors.PayloadError` naming its domain.
    """
    # core imports obs, so the codec loads when a report is first built
    from repro.core.compliance import ReportTable
    from repro.obs.evidence import evidence_from_dict
    from repro.obs.journal import manifest_identity

    identity = manifest_identity(manifest)
    if "cache" in manifest:
        # Warm-started runs record which verdict store served them;
        # surfaced with the rest of the identity but (like the rest of
        # the manifest extras) never part of resume identity checks.
        identity["cache"] = dict(manifest["cache"])
    report = RunReport(
        identity=identity,
        run=manifest.get("run", "campaign"),
    )

    # -- collection ----------------------------------------------------
    vantage_stats: dict[str, dict[str, Any]] = {}
    slow: list[SlowScan] = []
    degraded: dict[str, str] = {}
    rule_domains: dict[tuple[str, str], set[str]] = {}
    rule_evidence: dict[tuple[str, str], int] = {}
    table = ReportTable()

    for event in events:
        kind = event["type"]
        if kind == "scan":
            vantage = event["vantage"]
            stat = vantage_stats.setdefault(
                vantage, {"attempted": 0, "reached": 0, "wire_bytes": 0}
            )
            stat["attempted"] += 1
            if event.get("success"):
                stat["reached"] += 1
                stat["wire_bytes"] += event.get("wire_bytes", 0)
            slow.append(SlowScan(
                domain=event["domain"],
                vantage=vantage,
                seconds=event.get("duration", 0.0),
                attempts=event.get("attempts", 1),
            ))
        elif kind == "collection":
            report.domains = event.get("domains")
            report.observations = event.get("observations")
            report.unique_chains = event.get("unique_chains")
            report.unique_certificates = event.get("unique_certificates")
            degraded.update(event.get("degraded_vantages", {}))
        elif kind == "degradation":
            degraded[event["vantage"]] = event.get("reason", "unknown")
        elif kind == "verdict":
            domain = event["domain"]
            try:
                verdict = table.decode(event["report"])
            except PayloadError as exc:
                raise PayloadError(f"verdict for {domain!r}: {exc}") from None
            compliant = verdict.compliant
            cited = [(e.rule_id, e.verdict) for e in verdict.evidence]
            rules = tuple(sorted({rule for rule, cited_as in cited
                                  if cited_as == "violation"}))
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
            domain = event["domain"]
            report.differential[domain] = dict(event.get("results", {}))
            for record in map(evidence_from_dict,
                              event.get("attribution", ())):
                key = (record.rule_id, record.verdict)
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
    """Read a journal file (:func:`~repro.obs.journal.read_journal`)
    and build its report; a journal the read refuses, or a verdict that
    does not decode, is a :class:`JournalError` naming the journal."""
    manifest, events = read_journal(path)
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
