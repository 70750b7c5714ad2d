#!/usr/bin/env python3
"""Regenerate every paper artefact and print paper-vs-measured.

This is the EXPERIMENTS.md generator: it runs the full reproduction at
the requested scale and prints, for every table/figure/statistic in the
paper, the paper's value next to the measured one.

Run: ``python examples/paper_comparison.py [n_domains] [seed]``
"""

import sys

from repro.chainbuilder import (
    ALL_CLIENTS,
    DIFFERENTIAL_BROWSERS,
    DifferentialHarness,
    LIBRARIES,
    run_capability_matrix,
)
from repro.core import CompletenessClass, LeafPlacement, OrderDefect
from repro.measurement import (
    Campaign,
    TableContext,
    figure_case_outcomes,
    render_table_9,
    table_3,
    table_5,
    table_7,
    table_8,
    table_10,
    table_11,
)
from repro.webpki import Ecosystem, EcosystemConfig

PAPER_TOTAL = 906_336


def pct(count, total):
    return 100.0 * count / total if total else 0.0


def main(n_domains: int = 10_000, seed: int = 833) -> None:
    print(f"# Paper vs measured ({n_domains:,} domains, seed {seed})\n")
    ecosystem = Ecosystem.generate(
        EcosystemConfig(n_domains=n_domains, seed=seed)
    )
    ctx = TableContext.build(ecosystem)
    dataset = ctx.dataset
    total = dataset.total

    print(f"corpus: {total:,} chains (paper: {PAPER_TOTAL:,})\n")

    print("## Section 4 headline")
    print(f"non-compliant: paper 2.9% | measured "
          f"{dataset.noncompliance_rate:.2f}%\n")

    print("## Table 3 (leaf placement, % of corpus)")
    leaf = {row["placement"]: row["percent"] for row in table_3(ctx)}
    paper3 = {
        LeafPlacement.CORRECTLY_PLACED_MATCHED: 92.5,
        LeafPlacement.CORRECTLY_PLACED_MISMATCHED: 6.9,
        LeafPlacement.INCORRECTLY_PLACED_MATCHED: 0.0,
        LeafPlacement.INCORRECTLY_PLACED_MISMATCHED: 0.0,
        LeafPlacement.OTHER: 0.6,
    }
    for placement, paper_value in paper3.items():
        measured = leaf[placement.value]
        print(f"  {placement.value:32} paper {paper_value:5.1f}% | "
              f"measured {measured:5.2f}%")

    print("\n## Table 5 (share of order-non-compliant chains)")
    order = {row["type"]: row["percent_of_noncompliant"]
             for row in table_5(ctx)}
    paper5 = {
        OrderDefect.DUPLICATE_CERTIFICATES: 35.2,
        OrderDefect.IRRELEVANT_CERTIFICATES: 17.9,
        OrderDefect.MULTIPLE_PATHS: 1.5,
        OrderDefect.REVERSED_SEQUENCES: 50.5,
    }
    print(f"  order-non-compliant rate      paper 1.9% | measured "
          f"{pct(dataset.order_noncompliant, total):.2f}%")
    for defect, paper_value in paper5.items():
        measured = order[defect.value]
        print(f"  {defect.value:30} paper {paper_value:5.1f}% | "
              f"measured {measured:5.1f}%")

    print("\n## Table 7 (completeness, % of corpus)")
    completeness = {row["type"]: row["percent"] for row in table_7(ctx)}
    paper7 = {
        CompletenessClass.COMPLETE_WITH_ROOT: 8.7,
        CompletenessClass.COMPLETE_WITHOUT_ROOT: 89.9,
        CompletenessClass.INCOMPLETE: 1.3,
    }
    for category, paper_value in paper7.items():
        measured = completeness[category.value]
        print(f"  {category.value:24} paper {paper_value:5.1f}% | "
              f"measured {measured:5.2f}%")
    incomplete = dataset.incomplete_total
    print(f"  missing exactly one      paper 72.2% | measured "
          f"{pct(dataset.missing_one_intermediate, incomplete):.1f}%")
    print(f"  AIA-recoverable          paper 94.5% | measured "
          f"{pct(dataset.aia_fixable_incomplete, incomplete):.1f}%")
    print(f"  AIA failure classes      paper 579 missing / 88 dead / 1 wrong"
          f" | measured {dict(dataset.incomplete_aia_outcomes)}")

    print("\n## Table 8 (additional incomplete chains; scaled to paper corpus)")
    t8 = table_8(ctx)
    for store, modes in t8.items():
        scaled_on = round(modes["aia_supported"] * PAPER_TOTAL / total)
        scaled_off = round(modes["aia_not_supported"] * PAPER_TOTAL / total)
        print(f"  {store:10} AIA on: {scaled_on:7,} (paper 4-66) | "
              f"AIA off: {scaled_off:9,} (paper ~225.4-225.6k)")

    print("\n## Table 9 (client capabilities)")
    print(render_table_9(run_capability_matrix(ALL_CLIENTS)))

    print("\n## Table 10 (servers of non-compliant chains; shares)")
    t10 = table_10(ctx)
    overview = t10["overview"]
    ov_total = sum(overview.values())
    paper10 = {"apache": 39.7, "nginx": 35.7, "azure": 5.5,
               "cloudflare": 3.3, "iis": 3.0, "aws-elb": 2.3}
    for server, paper_value in paper10.items():
        print(f"  {server:12} paper {paper_value:5.1f}% | measured "
              f"{pct(overview.get(server, 0), ov_total):5.1f}%")
    print(f"  azure duplicate-leaf: paper 0 | measured "
          f"{t10['duplicate_leaf'].get('azure', 0)}")

    print("\n## Table 11 (per-CA non-compliance rates)")
    t11 = table_11(ctx)
    paper11 = {"lets-encrypt": 1.2, "digicert": 7.9, "sectigo": 10.7,
               "zerossl": 2.5, "gogetssl": 16.7, "taiwan-ca": 50.4,
               "cyber-folks": 66.2, "trustico": 65.7}
    for ca, paper_value in paper11.items():
        row = t11[ca]
        print(f"  {ca:14} paper {paper_value:5.1f}% | measured "
              f"{row['noncompliant_rate']:5.1f}% "
              f"(n={row['total']:,})")

    print("\n## Section 3.1 methodology")
    campaign = Campaign(ecosystem)
    identical = campaign.compare_tls_versions(
        sample=min(n_domains, 2000)
    )
    print(f"  TLS1.2 == TLS1.3 chains: paper 98.8% | measured "
          f"{identical:.1f}%")

    print("\n## Section 5.2 differential testing")
    harness = DifferentialHarness(
        ecosystem.registry, aia_fetcher=ecosystem.aia_repo
    )
    diff = harness.run(ecosystem.observations(),
                       at_time=ecosystem.config.now,
                       observe_into_cache=True)
    print(f"  library building issues: paper 40.9% | measured "
          f"{diff.failure_rate(LIBRARIES):.1f}%")
    print(f"  browser building issues: paper 12.5% | measured "
          f"{diff.failure_rate(DIFFERENTIAL_BROWSERS):.1f}%")
    nc_domains = {r.domain for r in ctx.reports if not r.compliant}
    nc = [o for o in diff.outcomes if o.domain in nc_domains]
    print(f"  nc subset pass-all browsers: paper 61.1% | measured "
          f"{pct(sum(o.all_pass(DIFFERENTIAL_BROWSERS) for o in nc), len(nc)):.1f}%")
    print(f"  nc subset pass-all libraries: paper 47.4% | measured "
          f"{pct(sum(o.all_pass(LIBRARIES) for o in nc), len(nc)):.1f}%")
    print(f"  attribution: {dict(diff.attribution_counts())}")
    print("  (paper: I-1 51 chains, I-2 10, I-3 1, I-4 8,553)")

    print("\n## Figures 3 & 4 (case studies)")
    for case in ("fig3_long_list", "fig4_backtracking"):
        data = figure_case_outcomes(ecosystem, case)
        print(f"  {case}: {data['results']}")


if __name__ == "__main__":
    main(*[int(a) for a in sys.argv[1:3]])
