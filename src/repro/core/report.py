"""Dataset-level aggregation of per-chain compliance reports.

Takes the per-domain :class:`~repro.core.compliance.ChainComplianceReport`
objects a measurement campaign produced and rolls them into the counts
the paper's tables print (``repro.measurement.tables`` turns them into
rows): leaf-placement classes (Table 3), issuance order defects
(Table 5), completeness classes (Table 7), and the 2.9% headline.
Cross-tabulations by arbitrary metadata (HTTP server software for
Table 10, issuing CA for Table 11) are supported through a
``group_key`` callback.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field

from repro.core.compliance import ChainComplianceReport
from repro.core.completeness import CompletenessClass


@dataclass
class DatasetReport:
    """Aggregated compliance statistics for one corpus.

    Populate with :meth:`add` (or build with :func:`aggregate`), then
    read the counters.  All percentages are of :attr:`total`.
    """

    total: int = 0
    leaf_placements: Counter = field(default_factory=Counter)
    order_defects: Counter = field(default_factory=Counter)
    order_noncompliant: int = 0
    duplicate_roles: Counter = field(default_factory=Counter)
    completeness: Counter = field(default_factory=Counter)
    reversed_all_paths: int = 0
    incomplete_aia_outcomes: Counter = field(default_factory=Counter)
    missing_one_intermediate: int = 0
    noncompliant: int = 0
    noncompliant_domains: list[str] = field(default_factory=list)

    def add(self, report: ChainComplianceReport) -> None:
        """Fold one per-chain report into the counters."""
        self.total += 1
        self.leaf_placements[report.leaf.placement] += 1
        if not report.order.compliant:
            self.order_noncompliant += 1
        for defect in report.order.defects:
            self.order_defects[defect] += 1
        for role in report.order.duplicate_roles:
            self.duplicate_roles[role] += 1
        if report.order.reversed_any and report.order.reversed_all:
            self.reversed_all_paths += 1
        self.completeness[report.completeness.category] += 1
        if report.completeness.category is CompletenessClass.INCOMPLETE:
            self.incomplete_aia_outcomes[report.completeness.aia_outcome] += 1
            if report.completeness.missing_count == 1:
                self.missing_one_intermediate += 1
        if not report.compliant:
            self.noncompliant += 1
            self.noncompliant_domains.append(report.domain)

    def merge(self, other: DatasetReport) -> None:
        """Fold another aggregate into this one, in place.

        Exactly equivalent to having :meth:`add`-ed ``other``'s chains
        after this report's own: counters sum, and ``other``'s
        ``noncompliant_domains`` extend this list in their recorded
        order.  Sharded campaigns aggregate each shard independently
        and merge shard-by-shard in shard order, so the final report
        is byte-identical to one built from the whole corpus at once
        — without ever holding every per-chain report in memory.
        """
        self.total += other.total
        self.leaf_placements.update(other.leaf_placements)
        self.order_defects.update(other.order_defects)
        self.order_noncompliant += other.order_noncompliant
        self.duplicate_roles.update(other.duplicate_roles)
        self.completeness.update(other.completeness)
        self.reversed_all_paths += other.reversed_all_paths
        self.incomplete_aia_outcomes.update(other.incomplete_aia_outcomes)
        self.missing_one_intermediate += other.missing_one_intermediate
        self.noncompliant += other.noncompliant
        self.noncompliant_domains.extend(other.noncompliant_domains)

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------

    def to_dict(self) -> dict[str, object]:
        """JSON-ready dict of every counter, deterministically ordered.

        Two runs over the same observations — sequential or parallel,
        fresh or resumed — must serialise to byte-identical JSON, which
        is what the pipeline determinism tests compare.  Enum keys
        flatten to their values; counter mappings are sorted by key;
        ``noncompliant_domains`` keeps observation order.
        """
        def _counts(counter: Counter, key=lambda k: k) -> dict[str, int]:
            return {
                str(key(k)): v
                for k, v in sorted(counter.items(), key=lambda kv: str(kv[0]))
            }

        enum_value = (lambda k: k.value)
        return {
            "total": self.total,
            "noncompliant": self.noncompliant,
            "noncompliance_rate": self.noncompliance_rate,
            "leaf_placements": _counts(self.leaf_placements, enum_value),
            "order_noncompliant": self.order_noncompliant,
            "order_defects": _counts(self.order_defects, enum_value),
            "duplicate_roles": _counts(self.duplicate_roles),
            "reversed_all_paths": self.reversed_all_paths,
            "completeness": _counts(self.completeness, enum_value),
            "incomplete_aia_outcomes": _counts(self.incomplete_aia_outcomes),
            "missing_one_intermediate": self.missing_one_intermediate,
            "noncompliant_domains": list(self.noncompliant_domains),
        }

    # ------------------------------------------------------------------
    # Derived figures
    # ------------------------------------------------------------------

    def pct(self, count: int) -> float:
        """``count`` as a percentage of the corpus (0.0 for empty)."""
        return 100.0 * count / self.total if self.total else 0.0

    @property
    def noncompliance_rate(self) -> float:
        """The headline rate (paper: 2.9% of Tranco Top 1M)."""
        return self.pct(self.noncompliant)

    @property
    def incomplete_total(self) -> int:
        return self.completeness.get(CompletenessClass.INCOMPLETE, 0)

    @property
    def aia_fixable_incomplete(self) -> int:
        """Incomplete chains recoverable by recursive AIA (paper: 94.5%)."""
        return self.incomplete_aia_outcomes.get("completed", 0)


def aggregate(reports: Iterable[ChainComplianceReport]) -> DatasetReport:
    """Aggregate an iterable of per-chain reports."""
    dataset = DatasetReport()
    for report in reports:
        dataset.add(report)
    return dataset


def aggregate_by(
    reports: Iterable[ChainComplianceReport],
    group_key: Callable[[ChainComplianceReport], str],
) -> dict[str, DatasetReport]:
    """Aggregate with a grouping callback (Tables 10/11 cross-tabs)."""
    groups: dict[str, DatasetReport] = {}
    for report in reports:
        groups.setdefault(group_key(report), DatasetReport()).add(report)
    return groups
