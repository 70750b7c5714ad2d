"""Zero-overhead-by-default guard.

The instrumentation threaded through ``analyze_chain`` must be free
when disabled.  We measure (a) the compliance hot path with the null
instrumentation installed — the shipping default — and (b) the cost of
the exact null-hook call sequence one ``analyze_chain`` performs, and
require (b) to stay under 5% of (a).  Measuring the hook sequence
directly (rather than an A/B against a hook-free build we no longer
have) keeps the guard deterministic: it fails if someone makes the
null objects do work, grows the per-chain hook count dramatically, or
swaps a null singleton for a real registry by default.

Each quantity is timed as the best of :data:`ROUNDS` rounds, the order
alternating from round to round (docs/PERFORMANCE.md, "Methodology"):
one timing of each is at the mercy of whatever else the machine runs
in that window, and a ratio of single timings swings across the budget
on unchanged code.
"""

import time

from repro import obs
from repro.core import analyze_chain

ITERATIONS = 200
ROUNDS = 5


def _time(fn, n: int) -> float:
    start = time.perf_counter()
    for _ in range(n):
        fn()
    return time.perf_counter() - start


def _best_times(*fns) -> list[float]:
    """Each function's best time over :data:`ITERATIONS` calls across
    :data:`ROUNDS` rounds, measured in forward order on even rounds and
    in reverse order on odd ones."""
    best = [float("inf")] * len(fns)
    for round_index in range(ROUNDS):
        order = range(len(fns))
        for index in (order if round_index % 2 == 0 else reversed(order)):
            best[index] = min(best[index], _time(fns[index], ITERATIONS))
    return best


def _null_hooks_for_one_chain() -> None:
    """The obs calls one ``analyze_chain`` makes on the null path."""
    metrics = obs.get_metrics()
    metrics.counter("compliance.chains").inc()
    metrics.counter("compliance.leaf_placement", placement="x").inc()
    metrics.counter("compliance.order", status="x").inc()
    metrics.counter("compliance.order_defect", defect="x").inc()
    metrics.counter("compliance.completeness", category="x").inc()
    metrics.counter("compliance.verdict", verdict="x").inc()
    # campaign-level per-chain accounting
    metrics.counter("campaign.chains_analyzed").inc()
    # AIA fetches an incomplete chain might trigger
    metrics.counter("aia.fetch.attempts").inc()
    metrics.counter("aia.fetch.success").inc()


def test_disabled_instrumentation_costs_under_5_percent(chain, store,
                                                        aia_repo):
    assert not obs.enabled()

    def hot_path():
        analyze_chain("fixture.example", chain, store, aia_repo)

    hot_path()  # warm caches before timing
    _time(_null_hooks_for_one_chain, 10)

    analysis_seconds, hook_seconds = _best_times(
        hot_path, _null_hooks_for_one_chain
    )
    # Generous margin: the hooks typically land well under 1%.
    assert hook_seconds < 0.05 * analysis_seconds, (
        f"null instrumentation hooks cost {hook_seconds:.6f}s for "
        f"{ITERATIONS} chains vs {analysis_seconds:.6f}s of analysis "
        f"({100 * hook_seconds / analysis_seconds:.1f}% — budget is 5%)"
    )


def test_journal_off_and_evidence_overhead_under_5_percent(chain, store,
                                                           aia_repo):
    """The no-journal branch of a campaign loop must be near-free.

    ``Campaign.analyze`` adds two per-chain decisions when journaling
    is off (skip the chain-key hash, skip the verdict lookup); evidence
    attachment adds tuple/replace work inside ``analyze_chain``.  The
    branch cost is measured directly, and the evidence builders are
    exercised standalone — together they must stay under 5% of the
    analysis they annotate.
    """
    from repro.core import ChainTopology, analyze_completeness
    from repro.obs.evidence import completeness_evidence

    assert not obs.enabled()
    journal = None

    def no_journal_branch() -> None:
        # the exact per-chain work analyze() does when journal is None
        key = () if journal is not None else ()
        recorded = None if journal is None else journal.verdict_for("d", key)
        assert recorded is None

    topology = ChainTopology(chain)
    analysis = analyze_completeness(chain, store, aia_repo,
                                    topology=topology)

    def evidence_build() -> None:
        completeness_evidence(topology, analysis, store_name=store.name)

    def hot_path():
        analyze_chain("fixture.example", chain, store, aia_repo)

    hot_path()
    evidence_build()

    analysis_seconds, branch_seconds, evidence_seconds = _best_times(
        hot_path, no_journal_branch, evidence_build
    )
    added = branch_seconds + evidence_seconds
    assert added < 0.05 * analysis_seconds, (
        f"journal-off branch + evidence build cost {added:.6f}s for "
        f"{ITERATIONS} chains vs {analysis_seconds:.6f}s of analysis "
        f"({100 * added / analysis_seconds:.1f}% — budget is 5%)"
    )


def test_null_singletons_are_shared_not_allocated():
    """The disabled path must not allocate per call."""
    metrics = obs.get_metrics()
    assert metrics.counter("a") is metrics.counter("b", label="x")
    assert metrics.histogram("h") is metrics.histogram("h2")
    tracer = obs.get_tracer()
    assert tracer.span("a") is tracer.span("b", attr=1)
