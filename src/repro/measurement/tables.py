"""Regeneration of every table in the paper's evaluation.

Each ``table_N`` function returns structured data (rows as dicts) and a
``render_table_N`` companion produces the paper-style plain-text table.
Tables 3/5/7/8/10/11 are computed from a measured corpus via
:class:`TableContext`; Tables 1/4/6 restate modelled characteristics;
Table 9 runs the live capability harness.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property

from repro.core.completeness import CompletenessClass, analyze_completeness
from repro.core.compliance import ChainComplianceReport
from repro.core.leaf import LeafPlacement
from repro.core.order import OrderDefect
from repro.core.report import DatasetReport, aggregate
from repro.measurement.stats import cell, format_table, pct
from repro.trust.rootstore import STORE_NAMES
from repro.webpki.ecosystem import Ecosystem
from repro.x509 import Certificate


@dataclass
class TableContext:
    """A measured corpus plus its per-chain reports and ground truth."""

    ecosystem: Ecosystem
    observations: list[tuple[str, list[Certificate]]]
    reports: list[ChainComplianceReport]

    @classmethod
    def build(cls, ecosystem: Ecosystem) -> "TableContext":
        from repro.measurement.campaign import Campaign

        campaign = Campaign(ecosystem)
        observations = ecosystem.observations()
        _, reports = campaign.analyze(observations)
        return cls(ecosystem, observations, reports)

    @classmethod
    def from_dataset(cls, ecosystem: Ecosystem,
                     dataset: DatasetReport) -> "TableContext":
        """A context over an aggregate a run already produced.

        Enough for the tables that read only :attr:`dataset` (3/5/7);
        the ones that walk per-chain reports (8/10/11) need
        :meth:`build`.  Nothing is analysed again.
        """
        ctx = cls(ecosystem, [], [])
        ctx.dataset = dataset  # fills the cached property
        return ctx

    @cached_property
    def dataset(self) -> DatasetReport:
        return aggregate(self.reports)

    @cached_property
    def deployment_meta(self) -> dict[str, tuple[str, str]]:
        """domain -> (server name, CA profile name)."""
        return {
            d.domain: (d.server, d.ca_profile)
            for d in self.ecosystem.deployments
        }

    def report_server(self, report: ChainComplianceReport) -> str:
        return self.deployment_meta.get(report.domain, ("other", "other"))[0]

    def report_ca(self, report: ChainComplianceReport) -> str:
        return self.deployment_meta.get(report.domain, ("other", "other"))[1]


# ---------------------------------------------------------------------------
# Table 1 — capability comparison against BetterTLS (static)
# ---------------------------------------------------------------------------

#: (group, capability, covered_by_bettertls, covered_by_this_work)
TABLE1_ROWS: tuple[tuple[str, str, bool, bool], ...] = (
    ("Basic Capabilities", "ORDER_REORGANIZATION", False, True),
    ("Basic Capabilities", "REDUNDANCY_ELIMINATION", False, True),
    ("Basic Capabilities", "AIA_COMPLETION", False, True),
    ("Priority Preferences", "EXPIRED", True, True),
    ("Priority Preferences", "NAME_CONSTRAINTS", True, False),
    ("Priority Preferences", "BAD_EKU", True, False),
    ("Priority Preferences", "MISS_BASIC_CONSTRAINTS", True, False),
    ("Priority Preferences", "NOT_A_CA", True, False),
    ("Priority Preferences", "DEPRECATED_CRYPTO", True, False),
    ("Priority Preferences", "BAD_PATH_LENGTH", False, True),
    ("Priority Preferences", "BAD_KID", False, True),
    ("Priority Preferences", "BAD_KU", False, True),
    ("Restriction Settings", "PATH_LENGTH_CONSTRAINT", False, True),
    ("Restriction Settings", "SELF_SIGNED_LEAF_CERT", False, True),
)


def table_1() -> list[dict[str, str]]:
    """Table 1: BetterTLS vs this work, as row dictionaries."""
    return [
        {
            "group": group,
            "type": capability,
            "bettertls": "yes" if bettertls else "no",
            "this_work": "yes" if ours else "no",
        }
        for group, capability, bettertls, ours in TABLE1_ROWS
    ]


def render_table_1() -> str:
    return format_table(
        ("Group", "Type", "BetterTLS", "This Work"),
        [(r["group"], r["type"], r["bettertls"], r["this_work"])
         for r in table_1()],
    )


# ---------------------------------------------------------------------------
# Table 3 — leaf certificate deployment
# ---------------------------------------------------------------------------

_TABLE3_ORDER = (
    LeafPlacement.CORRECTLY_PLACED_MATCHED,
    LeafPlacement.CORRECTLY_PLACED_MISMATCHED,
    LeafPlacement.INCORRECTLY_PLACED_MATCHED,
    LeafPlacement.INCORRECTLY_PLACED_MISMATCHED,
    LeafPlacement.OTHER,
)


def table_3(ctx: TableContext) -> list[dict[str, object]]:
    dataset = ctx.dataset
    rows = []
    for placement in _TABLE3_ORDER:
        count = dataset.leaf_placements.get(placement, 0)
        rows.append(
            {
                "placement": placement.value,
                "count": count,
                "percent": pct(count, dataset.total),
            }
        )
    return rows


def render_table_3(ctx: TableContext) -> str:
    total = ctx.dataset.total
    return format_table(
        ("Placement", "Domains"),
        [(r["placement"], cell(r["count"], total)) for r in table_3(ctx)],
    )


# ---------------------------------------------------------------------------
# Table 4 / Table 6 — modelled characteristics
# ---------------------------------------------------------------------------

def table_4() -> list[dict[str, str]]:
    from repro.webpki.httpservers import table4_rows

    return table4_rows()


def render_table_4() -> str:
    rows = table_4()
    headers = tuple(rows[0].keys())
    return format_table(headers, [tuple(r.values()) for r in rows])


def table_6() -> list[dict[str, str]]:
    from repro.ca.profiles import table6_rows

    return table6_rows()


def render_table_6() -> str:
    rows = table_6()
    headers = tuple(rows[0].keys())
    return format_table(headers, [tuple(r.values()) for r in rows])


# ---------------------------------------------------------------------------
# Table 5 — non-compliant issuance order
# ---------------------------------------------------------------------------

_TABLE5_ORDER = (
    OrderDefect.DUPLICATE_CERTIFICATES,
    OrderDefect.IRRELEVANT_CERTIFICATES,
    OrderDefect.MULTIPLE_PATHS,
    OrderDefect.REVERSED_SEQUENCES,
)


def table_5(ctx: TableContext) -> list[dict[str, object]]:
    dataset = ctx.dataset
    rows = []
    for defect in _TABLE5_ORDER:
        count = dataset.order_defects.get(defect, 0)
        rows.append(
            {
                "type": defect.value,
                "count": count,
                "percent_of_noncompliant": pct(count, dataset.order_noncompliant),
            }
        )
    rows.append(
        {
            "type": "total",
            "count": dataset.order_noncompliant,
            "percent_of_noncompliant": 100.0,
        }
    )
    return rows


def render_table_5(ctx: TableContext) -> str:
    dataset = ctx.dataset
    return format_table(
        ("Type", "Domains"),
        [
            (r["type"], cell(r["count"], dataset.order_noncompliant))
            for r in table_5(ctx)
        ],
    )


# ---------------------------------------------------------------------------
# Table 7 — completeness of certificate chain
# ---------------------------------------------------------------------------

_TABLE7_ORDER = (
    CompletenessClass.COMPLETE_WITH_ROOT,
    CompletenessClass.COMPLETE_WITHOUT_ROOT,
    CompletenessClass.INCOMPLETE,
)


def table_7(ctx: TableContext) -> list[dict[str, object]]:
    dataset = ctx.dataset
    return [
        {
            "type": category.value,
            "count": dataset.completeness.get(category, 0),
            "percent": pct(dataset.completeness.get(category, 0), dataset.total),
        }
        for category in _TABLE7_ORDER
    ]


def render_table_7(ctx: TableContext) -> str:
    total = ctx.dataset.total
    return format_table(
        ("Type", "Domains"),
        [(r["type"], cell(r["count"], total)) for r in table_7(ctx)],
    )


# ---------------------------------------------------------------------------
# Table 8 — additional incomplete chains per root store ± AIA
# ---------------------------------------------------------------------------

def table_8(ctx: TableContext) -> dict[str, dict[str, int]]:
    """Additional incomplete chains per individual store, with/without AIA.

    "Additional" is relative to the paper's baseline: the union store
    with AIA support (the Table 7 classification).
    """
    baseline_incomplete = {
        report.domain
        for report in ctx.reports
        if report.completeness.category is CompletenessClass.INCOMPLETE
    }
    result: dict[str, dict[str, int]] = {}
    fetcher = ctx.ecosystem.aia_repo
    for store_name in STORE_NAMES:
        store = ctx.ecosystem.registry.store(store_name)
        with_aia = without_aia = 0
        for domain, chain in ctx.observations:
            if domain in baseline_incomplete:
                continue
            if not analyze_completeness(chain, store, fetcher).complete:
                with_aia += 1
            if not analyze_completeness(chain, store, None).complete:
                without_aia += 1
        result[store_name] = {
            "aia_supported": with_aia,
            "aia_not_supported": without_aia,
        }
    return result


def render_table_8(ctx: TableContext) -> str:
    data = table_8(ctx)
    return format_table(
        ("Root Store", *STORE_NAMES),
        [
            ("AIA Supported",
             *[f"{data[s]['aia_supported']:,}" for s in STORE_NAMES]),
            ("AIA Not Supported",
             *[f"{data[s]['aia_not_supported']:,}" for s in STORE_NAMES]),
        ],
    )


# ---------------------------------------------------------------------------
# Table 9 — client capability matrix (live harness)
# ---------------------------------------------------------------------------

# The client models load only here: a scan renders no Table 9, so it
# does not pay for importing the path builder.

def table_9() -> dict[str, dict[str, str]]:
    from repro.chainbuilder import ALL_CLIENTS, run_capability_matrix

    return run_capability_matrix(ALL_CLIENTS)


def render_table_9(matrix: dict[str, dict[str, str]] | None = None) -> str:
    from repro.chainbuilder import ALL_CLIENTS, client_by_name

    matrix = matrix or table_9()
    # Preserve Table 9's column order for known clients; extras (e.g.
    # the recommended policy) append after.
    known = [c.name for c in ALL_CLIENTS if c.name in matrix]
    extras = [name for name in matrix if name not in known]
    columns = [*known, *extras]
    labels = [client_by_name(name).display_name for name in columns]
    capabilities = next(iter(matrix.values())).keys()
    return format_table(
        ("Capability", *labels),
        [
            (cap, *[matrix[name][cap] for name in columns])
            for cap in capabilities
        ],
    )


# ---------------------------------------------------------------------------
# Table 10 — HTTP servers × non-compliance type
# ---------------------------------------------------------------------------

_SERVER_COLUMNS = ("apache", "nginx", "azure", "cloudflare", "iis",
                   "aws-elb", "other")


def table_10(ctx: TableContext) -> dict[str, Counter]:
    """Per non-compliance type, a counter of HTTP server names."""
    rows: dict[str, Counter] = {
        "overview": Counter(),
        "duplicate_certificates": Counter(),
        "duplicate_leaf": Counter(),
        "irrelevant_certificates": Counter(),
        "multiple_paths": Counter(),
        "reversed_sequences": Counter(),
        "incomplete_chain": Counter(),
    }
    for report in ctx.reports:
        if report.compliant:
            continue
        server = ctx.report_server(report)
        rows["overview"][server] += 1
        order = report.order
        if order.has(OrderDefect.DUPLICATE_CERTIFICATES):
            rows["duplicate_certificates"][server] += 1
            if "leaf" in order.duplicate_roles:
                rows["duplicate_leaf"][server] += 1
        if order.has(OrderDefect.IRRELEVANT_CERTIFICATES):
            rows["irrelevant_certificates"][server] += 1
        if order.has(OrderDefect.MULTIPLE_PATHS):
            rows["multiple_paths"][server] += 1
        if order.has(OrderDefect.REVERSED_SEQUENCES):
            rows["reversed_sequences"][server] += 1
        if report.completeness.category is CompletenessClass.INCOMPLETE:
            rows["incomplete_chain"][server] += 1
    return rows


def render_table_10(ctx: TableContext) -> str:
    data = table_10(ctx)
    body = []
    for row_name, counter in data.items():
        total = sum(counter.values())
        body.append(
            (row_name,
             *[cell(counter.get(s, 0), total) if total else "0"
               for s in _SERVER_COLUMNS],
             f"{total:,}")
        )
    return format_table(("Non-compliant Type", *_SERVER_COLUMNS, "Total"), body)


# ---------------------------------------------------------------------------
# Table 11 — CAs × non-compliance type
# ---------------------------------------------------------------------------

_CA_COLUMNS = ("lets-encrypt", "digicert", "sectigo", "zerossl", "gogetssl",
               "taiwan-ca", "cyber-folks", "trustico")


def table_11(ctx: TableContext) -> dict[str, dict[str, object]]:
    """Per CA: totals, non-compliant counts, and per-defect counts."""
    totals: Counter = Counter()
    noncompliant: Counter = Counter()
    per_defect: dict[str, Counter] = {
        "duplicate_certificates": Counter(),
        "irrelevant_certificates": Counter(),
        "multiple_paths": Counter(),
        "reversed_sequences": Counter(),
        "incomplete_chain": Counter(),
    }
    for report in ctx.reports:
        ca = ctx.report_ca(report)
        totals[ca] += 1
        if report.compliant:
            continue
        noncompliant[ca] += 1
        order = report.order
        if order.has(OrderDefect.DUPLICATE_CERTIFICATES):
            per_defect["duplicate_certificates"][ca] += 1
        if order.has(OrderDefect.IRRELEVANT_CERTIFICATES):
            per_defect["irrelevant_certificates"][ca] += 1
        if order.has(OrderDefect.MULTIPLE_PATHS):
            per_defect["multiple_paths"][ca] += 1
        if order.has(OrderDefect.REVERSED_SEQUENCES):
            per_defect["reversed_sequences"][ca] += 1
        if report.completeness.category is CompletenessClass.INCOMPLETE:
            per_defect["incomplete_chain"][ca] += 1
    result: dict[str, dict[str, object]] = {}
    for ca in (*_CA_COLUMNS, "other"):
        result[ca] = {
            "total": totals.get(ca, 0),
            "noncompliant": noncompliant.get(ca, 0),
            "noncompliant_rate": pct(noncompliant.get(ca, 0), totals.get(ca, 0)),
            **{row: counter.get(ca, 0) for row, counter in per_defect.items()},
        }
    return result


def render_all(ctx: TableContext, *, include_table_9: bool = False) -> str:
    """Every regenerable table for one corpus, as one report string.

    Table 9 (the live capability harness, including the path-length
    ladder probe) takes tens of seconds, so it is opt-in.
    """
    sections = [
        ("Table 1 — capability coverage vs BetterTLS", render_table_1()),
        ("Table 3 — leaf certificate deployment", render_table_3(ctx)),
        ("Table 4 — HTTP server characteristics", render_table_4()),
        ("Table 5 — non-compliant issuance order", render_table_5(ctx)),
        ("Table 6 — CA/reseller issuance characteristics", render_table_6()),
        ("Table 7 — completeness of certificate chain", render_table_7(ctx)),
        ("Table 8 — additional incomplete chains (store x AIA)",
         render_table_8(ctx)),
        ("Table 10 — HTTP servers of non-compliant chains",
         render_table_10(ctx)),
        ("Table 11 — CAs of non-compliant chains", render_table_11(ctx)),
    ]
    if include_table_9:
        sections.insert(
            7, ("Table 9 — client capabilities", render_table_9())
        )
    return "\n\n".join(f"== {title} ==\n{body}" for title, body in sections)


def render_table_11(ctx: TableContext) -> str:
    data = table_11(ctx)
    rows = [
        ("Non-compliant",
         *[cell(data[ca]["noncompliant"], data[ca]["total"]) for ca in _CA_COLUMNS]),
    ]
    for defect in ("duplicate_certificates", "irrelevant_certificates",
                   "multiple_paths", "reversed_sequences", "incomplete_chain"):
        rows.append(
            (defect,
             *[cell(data[ca][defect], data[ca]["total"]) for ca in _CA_COLUMNS])
        )
    rows.append(("Total", *[f"{data[ca]['total']:,}" for ca in _CA_COLUMNS]))
    return format_table(("Type", *_CA_COLUMNS), rows)
