"""Whole-chain compliance verdicts (Section 3.1's three rules).

A chain is *compliant* iff (1) the end-entity certificate appears first,
(2) certificates follow issuance order, and (3) every certificate needed
for a complete path is present, the root alone being optional.
:func:`analyze_chain` runs all three analyses over one shared topology
and rolls them into a :class:`ChainComplianceReport`.
"""

from __future__ import annotations

import json
import marshal
from dataclasses import dataclass, replace

from repro import obs
from repro.core.completeness import (
    CompletenessAnalysis,
    CompletenessClass,
    analyze_completeness,
)
from repro.core.leaf import (
    LeafAnalysis,
    LeafPlacement,
    classify_leaf_placement,
)
from repro.core.order import OrderAnalysis, OrderDefect, analyze_order
from repro.core.relation import DEFAULT_POLICY, RelationPolicy
from repro.core.topology import ChainTopology
from repro.errors import PayloadError
from repro.obs.evidence import Evidence, evidence_from_dict
from repro.obs.metrics import NullMetricsRegistry
from repro.trust.aia import AIAFetcher
from repro.trust.rootstore import RootStore
from repro.x509 import Certificate

#: Compact separators matching the journal's on-disk record encoding.
_encode_compact = json.JSONEncoder(
    separators=(",", ":"), check_circular=False
).encode


def _plain(value) -> bool:
    """True when ``value`` JSON-encodes as ``"value"`` verbatim."""
    return (type(value) is str and value.isascii() and value.isprintable()
            and '"' not in value and "\\" not in value)


def _json_str(value: str) -> str:
    """``json.dumps(value)`` with a fast path for plain ASCII text."""
    if _plain(value):
        return f'"{value}"'
    return _encode_compact(value)


#: Encodings of the fixed-vocabulary strings (enum values, rule IDs,
#: taxonomy verdicts) that appear in every report; bounded so hostile
#: input cannot grow it without limit.
_COMMON_JSON: dict[str, str] = {}

#: The report :meth:`ChainComplianceReport.to_json` encoded last, with
#: its text.  The analysis hands each fresh report to the verdict store
#: and then to the journal, which would otherwise encode it twice in a
#: row; reports are immutable, so the text cannot go stale.
_last_encoded: tuple = (None, "")


def _json_common(value: str) -> str:
    """:func:`_json_str` memoised for small fixed vocabularies."""
    cached = _COMMON_JSON.get(value)
    if cached is None:
        cached = _json_str(value)
        if len(_COMMON_JSON) < 1024:
            _COMMON_JSON[value] = cached
    return cached


def _json_int(value: int | None) -> str:
    return "null" if value is None else str(value)


def _json_str_array(values) -> str:
    """Compact JSON array of strings, assembled without the encoder."""
    if not values:
        return "[]"
    if all(map(_plain, values)):
        return '["' + '","'.join(values) + '"]'
    return "[" + ",".join(_json_value(v) for v in values) + "]"


def _json_value(value) -> str:
    kind = type(value)
    if kind is str:
        return _json_str(value)
    if kind is bool:
        return "true" if value else "false"
    if kind is int:
        return str(value)
    if value is None:
        return "null"
    return _encode_compact(value)


def _json_details(details) -> str:
    if not details:
        return "{}"
    parts = []
    for key, value in details.items():
        if not _plain(key):
            # the generic encoder coerces/escapes exotic keys; match it
            return _encode_compact(dict(details))
        parts.append('"' + key + '":' + _json_value(value))
    return "{" + ",".join(parts) + "}"


def _json_evidence(evidence) -> str:
    if not evidence:
        return "[]"
    parts: list[str] = []
    append = parts.append
    for e in evidence:
        append(',{"rule_id":' if parts else '{"rule_id":')
        append(_json_common(e.rule_id))
        append(',"verdict":')
        append(_json_common(e.verdict))
        append(',"summary":')
        append(_json_str(e.summary))
        append(',"certs":')
        append(_json_str_array(e.certs))
        edges = e.edges
        append(',"edges":')
        append("[]" if not edges
               else _encode_compact([list(edge) for edge in edges]))
        append(',"details":')
        append(_json_details(e.details))
        append("}")
    return "[" + "".join(parts) + "]"


@dataclass(frozen=True)
class ChainComplianceReport:
    """All three per-chain analyses plus the combined verdict.

    ``compliant`` is the conjunction of the three Section 3.1 rules.
    The individual analyses stay accessible so dataset aggregation can
    build the per-defect tables.
    """

    domain: str
    chain_length: int
    leaf: LeafAnalysis
    order: OrderAnalysis
    completeness: CompletenessAnalysis

    @property
    def compliant(self) -> bool:
        return (
            self.leaf.compliant
            and self.order.compliant
            and self.completeness.complete
        )

    @property
    def defect_summary(self) -> tuple[str, ...]:
        """Short slugs of every rule violated (empty when compliant)."""
        defects: list[str] = []
        if not self.leaf.compliant:
            defects.append(f"leaf:{self.leaf.placement.value}")
        defects.extend(f"order:{d.value}" for d in sorted(
            self.order.defects, key=lambda d: d.value))
        if not self.completeness.complete:
            defects.append("completeness:incomplete")
        return tuple(defects)

    @property
    def evidence(self) -> tuple[Evidence, ...]:
        """Every evidence record the three analyses produced, in rule
        order (R1 leaf, R2 order, R3 completeness)."""
        return (
            *self.leaf.evidence,
            *self.order.evidence,
            *self.completeness.evidence,
        )

    # -- journal serialisation -----------------------------------------

    def to_dict(self) -> dict[str, object]:
        """JSON-ready dict capturing the whole report, evidence included.

        The representation is lossless: :meth:`from_dict` rebuilds a
        report that aggregates (and renders) identically, which is what
        makes a crash-interrupted campaign resumable from its journal.
        """
        return {
            "domain": self.domain,
            "chain_length": self.chain_length,
            "leaf": {
                "placement": self.leaf.placement.value,
                "deciding_index": self.leaf.deciding_index,
                "evidence": [e.to_dict() for e in self.leaf.evidence],
            },
            "order": {
                "defects": sorted(d.value for d in self.order.defects),
                "duplicate_roles": sorted(self.order.duplicate_roles),
                "max_duplicate_count": self.order.max_duplicate_count,
                "irrelevant_count": self.order.irrelevant_count,
                "path_count": self.order.path_count,
                "reversed_any": self.order.reversed_any,
                "reversed_all": self.order.reversed_all,
                "path_structures": list(self.order.path_structures),
                "compliant": self.order.compliant,
                "evidence": [e.to_dict() for e in self.order.evidence],
            },
            "completeness": {
                "category": self.completeness.category.value,
                "missing_count": self.completeness.missing_count,
                "aia_outcome": self.completeness.aia_outcome,
                "evidence": [
                    e.to_dict() for e in self.completeness.evidence
                ],
            },
        }

    def to_json(self) -> str:
        """The compact JSON encoding of :meth:`to_dict`, byte for byte.

        Hand-assembled rather than routed through the generic encoder
        because verdict serialisation dominates the journal append cost
        at corpus scale — the encoder only ever sees the (usually lone)
        evidence list; everything else is direct string assembly.  The
        equivalence is pinned by tests: for every report ``to_json()``
        equals the compact ``json`` encoding of ``to_dict()``, so
        journal lines are identical whichever path produced them.
        """
        global _last_encoded
        last = _last_encoded
        if last[0] is self:
            return last[1]
        leaf, order, comp = self.leaf, self.order, self.completeness
        text = "".join((
            '{"domain":', _json_str(self.domain),
            ',"chain_length":', str(self.chain_length),
            ',"leaf":{"placement":', _json_common(leaf.placement.value),
            ',"deciding_index":', _json_int(leaf.deciding_index),
            ',"evidence":', _json_evidence(leaf.evidence),
            '},"order":{"defects":',
            _json_str_array(sorted(d.value for d in order.defects)),
            ',"duplicate_roles":',
            _json_str_array(sorted(order.duplicate_roles)),
            ',"max_duplicate_count":', _json_int(order.max_duplicate_count),
            ',"irrelevant_count":', _json_int(order.irrelevant_count),
            ',"path_count":', _json_int(order.path_count),
            ',"reversed_any":', "true" if order.reversed_any else "false",
            ',"reversed_all":', "true" if order.reversed_all else "false",
            ',"path_structures":', _json_str_array(order.path_structures),
            ',"compliant":', "true" if order.compliant else "false",
            ',"evidence":', _json_evidence(order.evidence),
            '},"completeness":{"category":',
            _json_common(comp.category.value),
            ',"missing_count":', _json_int(comp.missing_count),
            ',"aia_outcome":',
            ("null" if comp.aia_outcome is None
             else _json_common(comp.aia_outcome)),
            ',"evidence":', _json_evidence(comp.evidence),
            "}}",
        ))
        _last_encoded = (self, text)
        return text

    @classmethod
    def from_dict(cls, payload: dict) -> "ChainComplianceReport":
        """Inverse of :meth:`to_dict` (used by journal resume); raises
        :class:`~repro.errors.PayloadError` when it does not decode.
        Decodes through a single-use :class:`ReportTable`."""
        return ReportTable().decode(payload)


#: The marshal format of the sharing keys: version 2 writes no object
#: references, so equal values of equal types always encode alike.
_KEY_FORMAT = 2


def _sharing_key(kind: type, section) -> tuple | None:
    """The key under which a :class:`ReportTable` shares the decode of
    one payload section: ``kind`` and the section's marshal encoding.
    The encoding tags every value with its exact type (``1``, ``1.0``
    and ``true`` encode apart, as do ``0``, ``false`` and ``null``, and
    ``0.0`` and ``-0.0``) and keeps list and key order, so sections
    with equal keys hold equal JSON values and decode alike.  None for
    a value marshal cannot encode (no JSON decoder makes one)."""
    try:
        return kind, marshal.dumps(section, _KEY_FORMAT)
    except ValueError:
        return None


class ReportTable:
    """The report codec's decoder: payloads in, reports out, sharing
    what repeats.

    The verdicts of a corpus fall into a handful of classes, so the
    sections a store replays are nearly all repeats.  One table hands
    every payload it decodes the same :class:`LeafAnalysis`,
    :class:`OrderAnalysis`, :class:`CompletenessAnalysis` and
    :class:`Evidence` instance for an equal section (see
    :func:`_sharing_key`).  A section the table has not seen decodes
    field by field in :meth:`ChainComplianceReport.to_dict` order, so a
    payload that does not decode is refused with the same
    :class:`~repro.errors.PayloadError` whichever table decodes it.

    :meth:`intern` shares equal strings too, for callers that keep
    strings beside the reports (the verdict store's index keys).
    """

    __slots__ = ("_shared", "_strings")

    def __init__(self) -> None:
        self._shared: dict[tuple, object] = {}
        self._strings: dict[str, str] = {}

    def intern(self, value):
        """The first string equal to ``value`` this table saw (``value``
        itself if none); anything but a string passes through."""
        if type(value) is not str:
            return value
        return self._strings.setdefault(value, value)

    def decode(self, payload) -> ChainComplianceReport:
        """Inverse of :meth:`ChainComplianceReport.to_dict`; raises
        :class:`~repro.errors.PayloadError` when it does not decode."""
        try:
            leaf = payload["leaf"]
            order = payload["order"]
            completeness = payload["completeness"]
            return ChainComplianceReport(
                domain=payload["domain"],
                chain_length=payload["chain_length"],
                leaf=self._share(LeafAnalysis, leaf, self._leaf),
                order=self._share(OrderAnalysis, order, self._order),
                completeness=self._share(CompletenessAnalysis, completeness,
                                         self._completeness),
            )
        except (KeyError, TypeError, ValueError, AttributeError,
                IndexError, OverflowError) as exc:
            raise PayloadError(
                f"report payload does not decode "
                f"({type(exc).__name__}: {exc})"
            ) from None

    def _share(self, kind: type, section, decode):
        """The table's ``kind`` instance for ``section``: the one an
        equal section decoded to, else ``decode(section)``, kept."""
        key = _sharing_key(kind, section)
        shared = self._shared.get(key)
        if shared is None:
            shared = decode(section)
            if key is not None:
                self._shared[key] = shared
        return shared

    def _evidence(self, section) -> tuple[Evidence, ...]:
        return tuple(self._share(Evidence, record, evidence_from_dict)
                     for record in section.get("evidence", ()))

    def _leaf(self, section) -> LeafAnalysis:
        return LeafAnalysis(
            placement=LeafPlacement(section["placement"]),
            deciding_index=section["deciding_index"],
            evidence=self._evidence(section),
        )

    def _order(self, section) -> OrderAnalysis:
        return OrderAnalysis(
            defects=frozenset(OrderDefect(d) for d in section["defects"]),
            duplicate_roles=frozenset(section["duplicate_roles"]),
            max_duplicate_count=section["max_duplicate_count"],
            irrelevant_count=section["irrelevant_count"],
            path_count=section["path_count"],
            reversed_any=section["reversed_any"],
            reversed_all=section["reversed_all"],
            path_structures=tuple(section["path_structures"]),
            compliant=section["compliant"],
            evidence=self._evidence(section),
        )

    def _completeness(self, section) -> CompletenessAnalysis:
        return CompletenessAnalysis(
            category=CompletenessClass(section["category"]),
            missing_count=section["missing_count"],
            aia_outcome=section["aia_outcome"],
            evidence=self._evidence(section),
        )


def analyze_chain(
    domain: str,
    chain: list[Certificate],
    store: RootStore,
    fetcher: AIAFetcher | None = None,
    *,
    policy: RelationPolicy = DEFAULT_POLICY,
) -> ChainComplianceReport:
    """Run the full Section 3.1 compliance analysis on one observation."""
    if not chain:
        raise ValueError(f"{domain}: cannot analyse an empty chain")
    topology = ChainTopology(chain, policy)
    report = ChainComplianceReport(
        domain=domain,
        chain_length=len(chain),
        leaf=classify_leaf_placement(domain, chain),
        order=analyze_order(chain, policy, topology=topology),
        completeness=analyze_completeness(
            chain, store, fetcher, policy=policy, topology=topology
        ),
    )
    record_outcome(report)
    return report


def rebind_for_domain(report: ChainComplianceReport, domain: str,
                      chain: list[Certificate]) -> ChainComplianceReport:
    """Re-bind a cached verdict to another observation of the same chain.

    Of the three Section 3.1 analyses only R1 (leaf placement) depends
    on the queried domain — order and completeness are pure functions of
    (chain, store, fetcher) — so a report computed for one observation
    of a byte-identical chain transfers to any other observation by
    recomputing the leaf classification alone.  This is what lets the
    verdict store key reports on the chain fingerprints rather than on
    (domain, chain).
    """
    if report.domain == domain:
        return report
    return replace(
        report,
        domain=domain,
        leaf=classify_leaf_placement(domain, chain),
    )


def record_outcome(report: ChainComplianceReport) -> None:
    """Mirror the Tables 3/5/7 classifications into the metrics registry.

    A handful of no-op calls when instrumentation is disabled; with a
    live registry these counters reproduce the paper's headline
    breakdowns directly from a campaign run.  :func:`analyze_chain`
    calls this once per analysis; the analyse pipeline calls it once
    per observation the verdict store served, so the counters match a
    run that analysed every observation from scratch.
    """
    metrics = obs.get_metrics()
    if isinstance(metrics, NullMetricsRegistry):
        return
    metrics.counter("compliance.chains").inc()
    metrics.counter("compliance.leaf_placement",
                    placement=report.leaf.placement.value).inc()
    metrics.counter(
        "compliance.order",
        status="compliant" if report.order.compliant else "noncompliant",
    ).inc()
    for defect in report.order.defects:
        metrics.counter("compliance.order_defect", defect=defect.value).inc()
    metrics.counter("compliance.completeness",
                    category=report.completeness.category.value).inc()
    metrics.counter(
        "compliance.verdict",
        verdict="compliant" if report.compliant else "noncompliant",
    ).inc()
