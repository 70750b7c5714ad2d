"""Whole-chain compliance verdicts (Section 3.1's three rules).

A chain is *compliant* iff (1) the end-entity certificate appears first,
(2) certificates follow issuance order, and (3) every certificate needed
for a complete path is present, the root alone being optional.
:func:`analyze_chain` runs all three analyses over one shared topology
and rolls them into a :class:`ChainComplianceReport`.
"""

from __future__ import annotations

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
from repro.obs.journal import (
    encode_compact,
    encode_str,
    encode_str_array,
    typed,
    typed_strings,
)
from repro.obs.metrics import NullMetricsRegistry
from repro.trust.aia import AIAFetcher
from repro.trust.rootstore import RootStore
from repro.x509 import Certificate

#: Encodings of the fixed-vocabulary strings (enum values, rule IDs,
#: taxonomy verdicts) that appear in every report; bounded so hostile
#: input cannot grow it without limit.
_COMMON_JSON: dict[str, str] = {}


def _json_common(value: str) -> str:
    """:func:`~repro.obs.journal.encode_str` memoised for small fixed
    vocabularies."""
    cached = _COMMON_JSON.get(value)
    if cached is None:
        cached = encode_str(value)
        if len(_COMMON_JSON) < 1024:
            _COMMON_JSON[value] = cached
    return cached


def _json_int(value: int | None) -> str:
    return "null" if value is None else str(value)


def _json_value(value) -> str:
    kind = type(value)
    if kind is str:
        return encode_str(value)
    if kind is bool:
        return "true" if value else "false"
    if kind is int:
        return str(value)
    if value is None:
        return "null"
    return encode_compact(value)


def _json_details(details) -> str:
    if not details:
        return "{}"
    parts = []
    for key, value in details.items():
        if type(key) is not str:
            # the generic encoder coerces other keys; match it
            return encode_compact(dict(details))
        parts.append(encode_str(key) + ":" + _json_value(value))
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
        append(encode_str(e.summary))
        append(',"certs":')
        append(encode_str_array(e.certs))
        edges = e.edges
        append(',"edges":')
        append("[]" if not edges
               else encode_compact([list(edge) for edge in edges]))
        append(',"details":')
        append(_json_details(e.details))
        append("}")
    return "[" + "".join(parts) + "]"


def _leaf_json(leaf: LeafAnalysis) -> str:
    """The compact JSON of a report's ``leaf`` section."""
    return "".join((
        '{"placement":', _json_common(leaf.placement.value),
        ',"deciding_index":', _json_int(leaf.deciding_index),
        ',"evidence":', _json_evidence(leaf.evidence), "}",
    ))


def _order_json(order: OrderAnalysis) -> str:
    """The compact JSON of a report's ``order`` section."""
    return "".join((
        '{"defects":',
        encode_str_array(sorted(d.value for d in order.defects)),
        ',"duplicate_roles":',
        encode_str_array(sorted(order.duplicate_roles)),
        ',"max_duplicate_count":', _json_int(order.max_duplicate_count),
        ',"irrelevant_count":', _json_int(order.irrelevant_count),
        ',"path_count":', _json_int(order.path_count),
        ',"reversed_any":', "true" if order.reversed_any else "false",
        ',"reversed_all":', "true" if order.reversed_all else "false",
        ',"path_structures":', encode_str_array(order.path_structures),
        ',"compliant":', "true" if order.compliant else "false",
        ',"evidence":', _json_evidence(order.evidence), "}",
    ))


def _completeness_json(completeness: CompletenessAnalysis) -> str:
    """The compact JSON of a report's ``completeness`` section."""
    aia_outcome = completeness.aia_outcome
    return "".join((
        '{"category":', _json_common(completeness.category.value),
        ',"missing_count":', _json_int(completeness.missing_count),
        ',"aia_outcome":',
        "null" if aia_outcome is None else _json_common(aia_outcome),
        ',"evidence":', _json_evidence(completeness.evidence), "}",
    ))


def _report_json(domain: str, chain_length: int, leaf: str, order: str,
                 completeness: str) -> str:
    """A report's compact JSON around its three encoded sections."""
    return "".join((
        '{"domain":', encode_str(domain),
        ',"chain_length":', str(chain_length),
        ',"leaf":', leaf, ',"order":', order,
        ',"completeness":', completeness, "}",
    ))


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

    # -- serialisation -------------------------------------------------

    def to_json(self) -> str:
        """The report's compact JSON, evidence included: the one
        encoding of a verdict, which the journal frames and the verdict
        store writes, and which a :class:`ReportTable` decodes back.

        Assembled as strings rather than routed through the generic
        encoder because verdict serialisation dominates the journal
        append cost at corpus scale — the encoder only ever sees what
        the fast paths cannot shortcut (escaped text, odd evidence
        details).  The three sections have an encoder each, which
        :meth:`ReportTable.encode` keys its sharing on.
        """
        return _report_json(self.domain, self.chain_length,
                            _leaf_json(self.leaf), _order_json(self.order),
                            _completeness_json(self.completeness))


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


#: Each section type's encoder, which the table keys its texts on.
_SECTION_JSON = {LeafAnalysis: _leaf_json, OrderAnalysis: _order_json,
                 CompletenessAnalysis: _completeness_json}


class ReportTable:
    """The report codec's table: payloads in, reports out, and reports
    in, lines out, sharing what repeats.

    The verdicts of a corpus fall into a handful of classes, so nearly
    every section a store replays or writes repeats an earlier one.
    One table hands every report the same :class:`LeafAnalysis`,
    :class:`OrderAnalysis` and :class:`CompletenessAnalysis` instance
    for an equal section:

    * :meth:`decode` keys a payload's sections, and their
      :class:`Evidence` records, on their marshal encoding (see
      :func:`_sharing_key`).  A section the table has not seen decodes
      field by field in :meth:`ChainComplianceReport.to_json` order,
      each field checked for its exact JSON type, so a payload that
      does not decode is refused with the same
      :class:`~repro.errors.PayloadError` whichever table decodes it.
      Decoding encodes nothing, so a read-only pass (the journal
      read every journal reader takes its reports from) pays for no
      text.
    * :meth:`encode` keys a fresh report's sections on their encoded
      JSON text, which the report's line is assembled from anyway.
      :meth:`end_decode` keys each section :meth:`decode` made on its
      text too, once per distinct section, so a written report shares
      the sections of replayed ones.

    The table remembers the text of every section it keyed, so
    :meth:`text` assembles the line of a report built on its sections
    from lookups, encoding only a section it does not hold.

    :meth:`intern` shares equal strings too, for callers that keep
    strings beside the reports (the verdict store's index keys).
    :meth:`end_decode` drops the marshal keys and the interned strings,
    which only decoding reads, and keeps the sections for
    :meth:`encode` and :meth:`text`.
    """

    __slots__ = ("_shared", "_strings", "_texts", "_text_of")

    def __init__(self) -> None:
        self._shared: dict[tuple, object] = {}
        self._strings: dict[str, str] = {}
        #: text → the section first keyed on it
        self._texts: dict[str, object] = {}
        #: id(section) → text, for each section in ``_texts``, which
        #: holds it, so the id stays its own
        self._text_of: dict[int, str] = {}

    def intern(self, value):
        """The first string equal to ``value`` this table saw (``value``
        itself if none); anything but a string passes through."""
        if type(value) is not str:
            return value
        return self._strings.setdefault(value, value)

    def end_decode(self) -> None:
        """Key every section :meth:`decode` made on its text, encoding
        each distinct section once, and forget the decode-only maps
        (marshal keys, interned strings); the sections stay shared with
        :meth:`encode` and :meth:`text`."""
        for (kind, _), section in self._shared.items():
            encode = _SECTION_JSON.get(kind)
            if encode is not None:  # not an evidence record
                self._key(encode(section), section)
        self._shared = {}
        self._strings = {}

    def _key(self, text: str, section):
        """The section keyed on ``text``: the first one this table keyed
        on it, else ``section``, now keyed."""
        shared = self._texts.setdefault(text, section)
        if shared is section:
            self._text_of[id(section)] = text
        return shared

    def _text(self, section, encode) -> str:
        """``section``'s text: the one it was keyed on, else encoded."""
        text = self._text_of.get(id(section))
        return encode(section) if text is None else text

    def encode(self, report: ChainComplianceReport
               ) -> tuple[ChainComplianceReport, str]:
        """The report to keep for ``report``, and its JSON text.

        Each section is keyed on its text, and the first section of
        equal text this table keyed, decoded or encoded, stands in for
        ``report``'s: the returned report is ``report`` itself when its
        sections are new, else one rebuilt on the shared sections.  The
        text is the report's :meth:`~ChainComplianceReport.to_json`."""
        leaf_text = _leaf_json(report.leaf)
        leaf = self._key(leaf_text, report.leaf)
        order_text = _order_json(report.order)
        order = self._key(order_text, report.order)
        completeness_text = _completeness_json(report.completeness)
        completeness = self._key(completeness_text, report.completeness)
        if not (leaf is report.leaf and order is report.order
                and completeness is report.completeness):
            report = ChainComplianceReport(report.domain, report.chain_length,
                                           leaf, order, completeness)
        return report, _report_json(report.domain, report.chain_length,
                                    leaf_text, order_text, completeness_text)

    def text(self, report: ChainComplianceReport) -> str:
        """``report``'s :meth:`~ChainComplianceReport.to_json` text,
        each section this table keyed served from its kept text and
        any other (a leaf re-bound to another domain) encoded."""
        return _report_json(report.domain, report.chain_length,
                            self._text(report.leaf, _leaf_json),
                            self._text(report.order, _order_json),
                            self._text(report.completeness,
                                       _completeness_json))

    def decode(self, payload) -> ChainComplianceReport:
        """The report whose :meth:`~ChainComplianceReport.to_json` text
        parses to ``payload``; raises :class:`~repro.errors.PayloadError`
        when it does not decode."""
        try:
            leaf = payload["leaf"]
            order = payload["order"]
            completeness = payload["completeness"]
            return ChainComplianceReport(
                domain=typed(payload, "domain", str),
                chain_length=typed(payload, "chain_length", int),
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
        if "evidence" not in section:
            return ()
        return tuple(self._share(Evidence, record, evidence_from_dict)
                     for record in typed(section, "evidence", list))

    def _leaf(self, section) -> LeafAnalysis:
        return LeafAnalysis(
            placement=LeafPlacement(section["placement"]),
            deciding_index=typed(section, "deciding_index", int, True),
            evidence=self._evidence(section),
        )

    def _order(self, section) -> OrderAnalysis:
        return OrderAnalysis(
            defects=frozenset(
                map(OrderDefect, typed_strings(section, "defects"))),
            duplicate_roles=frozenset(
                typed_strings(section, "duplicate_roles")),
            max_duplicate_count=typed(section, "max_duplicate_count", int),
            irrelevant_count=typed(section, "irrelevant_count", int),
            path_count=typed(section, "path_count", int),
            reversed_any=typed(section, "reversed_any", bool),
            reversed_all=typed(section, "reversed_all", bool),
            path_structures=tuple(typed_strings(section, "path_structures")),
            compliant=typed(section, "compliant", bool),
            evidence=self._evidence(section),
        )

    def _completeness(self, section) -> CompletenessAnalysis:
        return CompletenessAnalysis(
            category=CompletenessClass(section["category"]),
            missing_count=typed(section, "missing_count", int, True),
            aia_outcome=typed(section, "aia_outcome", str, True),
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
