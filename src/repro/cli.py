"""Command-line interface for the reproduction.

Subcommands mirror the library's main workflows::

    repro-chain scan --domains 3000            # generate + scan + tables
    repro-chain analyze chain.pem --domain x   # lint one deployment
    repro-chain repair chain.pem --domain x    # fix one deployment
    repro-chain explain x --journal run.jsonl  # verdict provenance
    repro-chain capabilities                   # Table 9 (live harness)
    repro-chain differential --domains 2000    # §5.2 summary
    repro-chain stats metrics.json             # render a metrics snapshot
    repro-chain save-corpus corpus.jsonl       # archive observations
    repro-chain report run.jsonl               # aggregate a run report
    repro-chain diff-runs base.json run.jsonl  # cross-run regression gate
    repro-chain watch run.jsonl                # live dashboard over a run

``scan`` accepts ``--metrics-out``/``--trace-out``/``--openmetrics-out``
to export the run's observability data, ``--journal`` to write (or
crash-safely resume) an append-only run journal of per-domain events,
and ``--report-out`` to distil that journal into a run report artifact
(see docs/OBSERVABILITY.md and docs/REPORTING.md).  ``diff-runs`` exits
0 when per-domain verdicts are identical, 1 on verdict flips, 2 when a
``--threshold`` metric gate is breached — CI wires it against a
committed baseline report.

Live telemetry: ``scan --serve [HOST:]PORT`` embeds an HTTP server
(``/metrics``, ``/healthz``, ``/progress``, ``/report``) for the
duration of the run, repeatable ``--health`` rules drive ``/healthz``
and make ``scan`` exit 3 when a rule is still breached at end-of-run,
and ``watch`` renders either a journal or such a server as a live
dashboard (docs/OBSERVABILITY.md, "Live monitoring").  Every command
is also reachable as ``python -m repro.cli ...``.
"""

from __future__ import annotations

import argparse
import gc
import sys
from contextlib import contextmanager

from repro.x509 import load_pem_bundle, to_pem_bundle

#: Journal records buffered between flushes (no journal's bytes depend on it)
_JOURNAL_FLUSH_EVERY = 64


@contextmanager
def _collector_policy():
    """The process's cyclic-collector policy for a command that builds
    a world (ecosystem, network, store index, journal) and then runs a
    per-chain loop over it.

    Automatic collection is off while the world is built: set-up makes
    no cyclic garbage, so every pass there would only walk objects
    that live until exit.  The yielded ``start_hot_loop()`` freezes
    what set-up built into the permanent generation, which later
    passes skip, and turns collection back on (if it was on at entry)
    for the loop, whose per-chain garbage it does collect; ``cache
    compact``, which only opens and rewrites a store, never calls it.
    On every exit the heap is unfrozen and the collector left as it
    was found, so an in-process caller of :func:`main` keeps its own
    policy.
    Library code never touches the collector; this is the CLI's choice
    for its process (docs/PERFORMANCE.md, "The collector policy").
    """
    enabled = gc.isenabled()
    gc.disable()

    def start_hot_loop() -> None:
        gc.freeze()
        if enabled:
            gc.enable()

    try:
        yield start_hot_loop
    finally:
        gc.unfreeze()
        if enabled:
            gc.enable()
        else:
            gc.disable()


def _unwritable(command: str, *paths: str | None) -> bool:
    """Report the first output path that cannot be written.

    A path whose directory is missing or unwritable, or which names a
    directory, gets one ``repro-chain <command>: <path>: <reason>``
    line on stderr and True back; the command then exits with its
    input-error code.  Commands check before any work, so a long run
    never ends in a traceback at its first write.
    """
    import errno
    import os

    for path in paths:
        if not path:
            continue
        directory = os.path.dirname(os.path.abspath(path))
        if not os.path.isdir(directory):
            code = (errno.ENOTDIR if os.path.exists(directory)
                    else errno.ENOENT)
        elif os.path.isdir(path):
            code = errno.EISDIR
        elif not os.access(path if os.path.exists(path) else directory,
                           os.W_OK):
            code = errno.EACCES
        else:
            continue
        print(f"repro-chain {command}: {path}: {os.strerror(code)}",
              file=sys.stderr)
        return True
    return False


def _cmd_scan(args: argparse.Namespace) -> int:
    from repro import obs
    from repro.errors import JournalError, StoreError
    from repro.measurement import (
        Campaign, TableContext, render_table_3, render_table_5,
        render_table_7,
    )
    from repro.webpki import Ecosystem, EcosystemConfig

    health_monitor = None
    if args.health:
        rules = []
        for spec in args.health:
            try:
                rules.append(obs.parse_health_rule(spec))
            except ValueError as exc:
                print(f"repro-chain scan: {exc}", file=sys.stderr)
                return 2
        health_monitor = obs.HealthMonitor(rules)
    serve_address = None
    if args.serve is not None:
        try:
            serve_address = obs.parse_serve_address(args.serve)
        except ValueError as exc:
            print(f"repro-chain scan: {exc}", file=sys.stderr)
            return 2
    if args.shard_size and not args.simulate_network:
        print("repro-chain scan: --shard-size requires --simulate-network",
              file=sys.stderr)
        return 2
    if args.report_out and not args.journal:
        print("repro-chain scan: --report-out requires --journal (the "
              "report is built from the run journal)", file=sys.stderr)
        return 2
    if _unwritable("scan", args.metrics_out, args.trace_out,
                   args.openmetrics_out, args.report_out, args.output):
        return 2

    obs.configure()
    # only --trace-out reads the spans: without it none are kept
    tracer = obs.Tracer() if args.trace_out else obs.NULL_TRACER
    with obs.instrumented(tracer=tracer) as (registry, _), \
            _collector_policy() as start_hot_loop:
        obs.catalogue.preregister(registry)
        ecosystem = Ecosystem.generate(
            EcosystemConfig(n_domains=args.domains, seed=args.seed)
        )
        campaign = Campaign(
            ecosystem,
            network=ecosystem.install() if args.simulate_network else None,
        )
        verdict_store = None
        if args.cache_dir:
            from repro.measurement import VerdictStore

            try:
                verdict_store = VerdictStore(args.cache_dir)
            except StoreError as exc:
                print(f"repro-chain scan: {exc}", file=sys.stderr)
                return 2
            loaded = verdict_store.stats()
            if loaded["recovered_records"]:
                print(f"verdict store: truncated a torn segment tail "
                      f"({loaded['recovered_records']} records "
                      f"recovered)", file=sys.stderr)
            print(f"verdict store: {loaded['reports']:,} reports / "
                  f"{loaded['outcomes']:,} outcomes loaded from "
                  f"{args.cache_dir}")
        manifest = campaign.manifest()
        if verdict_store is not None:
            manifest["cache"] = verdict_store.identity()
        journal = None
        if args.journal:
            try:
                journal = obs.RunJournal.open(
                    args.journal, manifest, flush_every=_JOURNAL_FLUSH_EVERY,
                )
            except JournalError as exc:
                print(f"repro-chain scan: {exc}", file=sys.stderr)
                return 2
            if journal.verdict_count:
                print(f"journal: resuming {journal.verdict_count:,} "
                      f"recorded verdicts from {args.journal}")
        snapshot_writer = None
        if args.openmetrics_out:
            snapshot_writer = obs.SnapshotWriter(
                registry, args.openmetrics_out,
                interval=args.snapshot_interval,
            )
        progress_factory = None
        if args.progress:
            def progress_factory(vantage: str, total: int):
                return obs.ProgressLine(
                    total, prefix=f"scan[{vantage}]", force=True
                )
        status = server = None
        if serve_address is not None:
            status = obs.RunStatus()
            server = obs.TelemetryServer(
                registry, host=serve_address[0], port=serve_address[1],
                health=health_monitor, status=status,
                journal_path=args.journal or None,
            )
            try:
                server.start()
            except OSError as exc:
                print(f"repro-chain scan: cannot serve on "
                      f"{args.serve}: {exc}", file=sys.stderr)
                if journal is not None:
                    journal.close()
                return 2
            # flushed eagerly so a parallel scraper (CI, `repro-chain
            # watch`) can read the ephemeral port before the scan ends
            print(f"serving telemetry on {server.url}", flush=True)
        retry_policy = None
        if args.retries:
            from repro.net import RetryPolicy

            retry_policy = RetryPolicy(
                retries=args.retries, base_delay=args.backoff
            )
        observations = (None if args.simulate_network
                        else ecosystem.observations())
        start_hot_loop()
        try:
            if args.simulate_network:
                shard_size = args.shard_size or len(ecosystem.deployments)
                sharded = campaign.run_sharded(
                    shard_size,
                    journal=journal, retry_policy=retry_policy,
                    breaker_threshold=args.breaker_threshold or None,
                    verdict_store=verdict_store,
                    snapshot_writer=snapshot_writer,
                    status=status, progress_factory=progress_factory,
                    output=args.output,
                )
                report = sharded.report
                written = sharded.total_observations
                # reachability from the result, not the metrics
                # snapshot: resumed shards fold from the journal
                # without re-scanning, so the registry only covers
                # the shards this process actually ran
                for vantage in sorted(sharded.attempted_counts):
                    reached = sharded.reachable_counts.get(vantage, 0)
                    attempts = sharded.attempted_counts[vantage]
                    share = (100.0 * reached / attempts
                             if attempts else 0.0)
                    print(f"vantage {vantage:<4} reachable "
                          f"{reached:,}/{attempts:,} ({share:.1f}%)")
                for vantage, reason in sorted(
                    sharded.degraded_vantages.items()
                ):
                    if status is not None:
                        status.mark_degraded(vantage, reason)
                    print(f"warning: vantage {vantage} degraded "
                          f"({reason}); union dataset is partial",
                          file=sys.stderr)
                resumed_note = (
                    f" ({sharded.resumed_shards} resumed from journal)"
                    if sharded.resumed_shards else ""
                )
                print(f"shards: {len(sharded.shards)} × "
                      f"{shard_size:,} domains{resumed_note}")
            else:
                if status is not None:
                    status.begin_phase("analyze", len(observations))
                report, _ = campaign.analyze(
                    observations, journal=journal,
                    snapshot_writer=snapshot_writer,
                    verdict_store=verdict_store, status=status,
                )
                if args.output:
                    from repro.measurement import save_observations

                    save_observations(args.output, observations)
                written = len(observations)
            if status is not None:
                status.finish()
        except (JournalError, StoreError) as exc:
            print(f"repro-chain scan: {exc}", file=sys.stderr)
            return 2
        finally:
            if journal is not None:
                journal.close()
            if verdict_store is not None:
                store_stats = verdict_store.stats()
                verdict_store.close()
            if server is not None:
                server.stop()
        if verdict_store is not None:
            print(f"verdict store: {store_stats['hits']:,} hits / "
                  f"{store_stats['misses']:,} misses / "
                  f"{store_stats['writes']:,} writes")
        # every observation the run did not resume was either served
        # by the store (a hit) or analysed (a miss)
        hits = int(registry.total("campaign.cache_hits"))
        misses = int(registry.total("campaign.chains_analyzed")
                     - registry.total("campaign.chains_resumed")) - hits
        rate = 100.0 * hits / (hits + misses) if hits + misses else 0.0
        print(f"verdict cache: {hits:,} hits / {misses:,} misses "
              f"({rate:.1f}% hit rate)")
        print(f"chains: {report.total:,}  "
              f"non-compliant: {report.noncompliant:,} "
              f"({report.noncompliance_rate:.2f}%)")
        ctx = TableContext.from_dataset(ecosystem, report)
        for title, renderer in (
            ("Table 3 (leaf placement)", render_table_3),
            ("Table 5 (issuance order)", render_table_5),
            ("Table 7 (completeness)", render_table_7),
        ):
            print(f"\n== {title} ==")
            print(renderer(ctx))
        if args.output:
            print(f"\nwrote {written:,} observations to {args.output}")
        if journal is not None:
            print(f"wrote {journal.events_written:,} journal events "
                  f"to {args.journal}")
        if args.metrics_out:
            with open(args.metrics_out, "w", encoding="utf-8") as handle:
                handle.write(registry.to_json())
            print(f"wrote metrics to {args.metrics_out}")
        if snapshot_writer is not None:
            snapshot_writer.write_now()
            print(f"wrote OpenMetrics snapshot to {args.openmetrics_out}")
        if args.trace_out:
            with open(args.trace_out, "w", encoding="utf-8") as handle:
                handle.write(tracer.to_json())
            print(f"wrote Chrome trace to {args.trace_out}")
        if args.report_out:
            try:
                run_report = obs.report_from_journal(
                    args.journal, metrics=registry.snapshot()
                )
            except JournalError as exc:
                print(f"repro-chain scan: {exc}", file=sys.stderr)
                return 2
            with open(args.report_out, "w", encoding="utf-8") as handle:
                handle.write(_format_report(run_report, args.report_out))
            print(f"wrote run report to {args.report_out}")
        if health_monitor is not None:
            # End-of-run SLO gate over the final registry state; the
            # same monitor served /healthz live.  Exit 3 keeps the
            # journal/input error code (2) unambiguous for CI.
            verdict = health_monitor.evaluate(registry.snapshot())
            for spec in verdict.unmatched:
                print(f"health: rule {spec!r} matched no metric",
                      file=sys.stderr)
            if not verdict.ok:
                for failure in verdict.failures:
                    print(f"health: FAIL {failure.metric} = "
                          f"{failure.value:g} "
                          f"(rule {failure.rule.spec})", file=sys.stderr)
                return 3
            print(f"health: ok ({len(verdict.results)} checks)")
    return 0


def _format_report(report, destination: str,
                   fmt: str | None = None) -> str:
    """Render a RunReport in the requested (or extension-implied)
    format: ``.json`` stays machine-readable, ``.html``/``.md`` pick
    their markup, anything else gets the console text."""
    from repro import obs

    if fmt is None:
        lowered = destination.lower()
        if lowered.endswith(".json"):
            fmt = "json"
        elif lowered.endswith((".html", ".htm")):
            fmt = "html"
        elif lowered.endswith((".md", ".markdown")):
            fmt = "markdown"
        else:
            fmt = "text"
    if fmt == "json":
        return report.to_json() + "\n"
    if fmt == "html":
        return obs.render_report_html(report)
    if fmt == "markdown":
        return obs.render_report_markdown(report)
    return obs.render_report_text(report)


def _cmd_stats(args: argparse.Namespace) -> int:
    """Render a metrics snapshot (from a file or a fresh small run)."""
    from repro import obs
    from repro.errors import MetricsError

    if args.openmetrics and not args.metrics:
        print("repro-chain stats: --openmetrics requires a metrics "
              "file argument", file=sys.stderr)
        return 2
    if args.metrics:
        try:
            snapshot = obs.load_snapshot(args.metrics)
        except MetricsError as exc:
            print(f"repro-chain stats: {args.metrics}: {exc}",
                  file=sys.stderr)
            return 2
        if args.openmetrics:
            sys.stdout.write(obs.to_openmetrics(snapshot))
        else:
            print(obs.render_metrics_table(snapshot, top=args.top))
        return 0

    from repro.measurement import Campaign
    from repro.obs.report import phase_stats
    from repro.webpki import Ecosystem, EcosystemConfig

    with obs.instrumented(tracer=obs.NULL_TRACER) as (registry, _), \
            _collector_policy() as start_hot_loop:
        ecosystem = Ecosystem.generate(
            EcosystemConfig(n_domains=args.domains, seed=args.seed)
        )
        campaign = Campaign(ecosystem, network=ecosystem.install())
        start_hot_loop()
        campaign.run_sharded(len(ecosystem.deployments))
        snapshot = registry.snapshot()
        print(obs.render_metrics_table(snapshot, top=args.top))
        print()
        print("== phase timing ==")
        for phase in phase_stats(snapshot):
            rate = ""
            if phase.phase == "analyze" and phase.wall_seconds > 0:
                per_second = (registry.total("campaign.chains_analyzed")
                              / phase.wall_seconds)
                rate = f"  ({per_second:,.0f} chains/s)"
            print(f"{phase.phase:<24} x{phase.count}  "
                  f"{phase.wall_seconds * 1e3:,.1f} ms{rate}")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    """Aggregate one run journal into a rendered run report."""
    from repro import obs
    from repro.errors import JournalError, MetricsError

    if _unwritable("report", args.out, args.json_out):
        return 2
    metrics = None
    if args.metrics:
        try:
            metrics = obs.load_snapshot(args.metrics)
        except MetricsError as exc:
            print(f"repro-chain report: {args.metrics}: {exc}",
                  file=sys.stderr)
            return 2
    try:
        report = obs.report_from_journal(
            args.journal, metrics=metrics, top_slowest=args.top
        )
    except (OSError, JournalError) as exc:
        print(f"repro-chain report: {exc}", file=sys.stderr)
        return 2
    rendered = _format_report(report, args.out or "-", args.format)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(rendered)
        print(f"wrote run report to {args.out}")
    else:
        sys.stdout.write(rendered)
    if args.json_out:
        with open(args.json_out, "w", encoding="utf-8") as handle:
            handle.write(report.to_json() + "\n")
        print(f"wrote machine-readable report to {args.json_out}")
    return 0


def _load_run_report(path: str):
    """A RunReport from either a report JSON or a raw journal.

    A file whose whole content is a JSON object carrying
    ``report_version`` is a serialised report; anything else is treated
    as a JSONL run journal and aggregated on the fly.
    """
    import json

    from repro import obs

    with open(path, encoding="utf-8") as handle:
        raw = handle.read()
    try:
        payload = json.loads(raw)
    except json.JSONDecodeError:
        payload = None
    if isinstance(payload, dict) and "report_version" in payload:
        return obs.RunReport.from_dict(payload)
    return obs.report_from_journal(path)


def _cmd_diff_runs(args: argparse.Namespace) -> int:
    """Structurally compare two runs; exit code is the CI verdict."""
    from repro import obs
    from repro.errors import JournalError, PayloadError
    from repro.obs.diff import parse_threshold

    if _unwritable("diff-runs", args.json_out):
        return 3
    thresholds: dict[str, float] = {}
    for spec in args.threshold or ():
        try:
            name, pct = parse_threshold(spec)
        except ValueError as exc:
            print(f"repro-chain diff-runs: {exc}", file=sys.stderr)
            return 3
        thresholds[name] = pct
    loaded = []
    for path in (args.before, args.after):
        try:
            loaded.append(_load_run_report(path))
        except JournalError as exc:
            # the journal reader's messages start with the path
            print(f"repro-chain diff-runs: {exc}", file=sys.stderr)
            return 3
        except (OSError, ValueError, PayloadError) as exc:
            reason = getattr(exc, "strerror", None) or exc
            print(f"repro-chain diff-runs: {path}: {reason}",
                  file=sys.stderr)
            return 3
    before, after = loaded
    diff = obs.diff_reports(before, after, thresholds=thresholds)
    sys.stdout.write(obs.render_diff_text(diff))
    if args.json_out:
        with open(args.json_out, "w", encoding="utf-8") as handle:
            handle.write(diff.to_json() + "\n")
        print(f"wrote machine-readable diff to {args.json_out}")
    return diff.exit_code


def _load_chain_and_store(args: argparse.Namespace):
    """The chain, root store and AIA source ``analyze``/``repair`` run
    on; or, when the chain or ``--roots`` file cannot be read, exit
    status 2 after one ``repro-chain <command>: <path>: <reason>`` line
    (1 would read as a non-compliant verdict for ``analyze``)."""
    from repro.errors import EncodingError
    from repro.trust import RootStore, StaticAIARepository

    def read_bundle(path: str):
        try:
            with open(path, encoding="utf-8") as handle:
                return load_pem_bundle(handle.read())
        except OSError as exc:
            reason = exc.strerror or str(exc)
        except (EncodingError, UnicodeDecodeError) as exc:
            reason = str(exc)
        print(f"repro-chain {args.command}: {path}: {reason}",
              file=sys.stderr)
        return None

    chain = read_bundle(args.chain)
    if chain is None:
        return 2
    if not chain:
        print(f"repro-chain {args.command}: {args.chain}: no certificates "
              f"found", file=sys.stderr)
        return 2
    if args.roots:
        anchors = read_bundle(args.roots)
        if anchors is None:
            return 2
    else:
        anchors = [cert for cert in chain if cert.is_self_signed]
    return chain, RootStore("cli", anchors), StaticAIARepository()


def _cmd_analyze(args: argparse.Namespace) -> int:
    from repro.core import analyze_chain

    loaded = _load_chain_and_store(args)
    if loaded == 2:
        return 2
    chain, store, fetcher = loaded
    report = analyze_chain(args.domain, chain, store, fetcher)
    print(f"domain        : {args.domain}")
    print(f"certificates  : {len(chain)}")
    print(f"leaf placement: {report.leaf.placement.value}")
    print(f"order         : "
          f"{'compliant' if report.order.compliant else 'NON-COMPLIANT'}")
    for defect in sorted(d.value for d in report.order.defects):
        print(f"  - {defect}")
    print(f"paths         : {', '.join(report.order.path_structures)}")
    print(f"completeness  : {report.completeness.category.value}")
    print(f"verdict       : "
          f"{'COMPLIANT' if report.compliant else 'NON-COMPLIANT'}")
    return 0 if report.compliant else 1


def _print_explanation(domain: str, chain_length: int, report) -> None:
    from repro import obs

    print(f"domain       : {domain}")
    print(f"chain length : {chain_length}")
    print(f"verdict      : "
          f"{'COMPLIANT' if report.compliant else 'NON-COMPLIANT'}")
    if report.defect_summary:
        print(f"defects      : {', '.join(report.defect_summary)}")
    print("evidence:")
    print(obs.render_evidence(report.evidence))


def _explain_from_journal(args: argparse.Namespace) -> int:
    from repro import obs
    from repro.core.compliance import ReportTable
    from repro.errors import JournalError
    from repro.measurement.parallel import journaled_report

    try:
        _, events = obs.read_journal(args.journal)
    except JournalError as exc:
        print(f"repro-chain explain: {exc}", file=sys.stderr)
        return 2
    verdicts = [e for e in events
                if e["type"] == "verdict" and e["domain"] == args.domain]
    differentials = [e for e in events
                     if e["type"] == "differential"
                     and e["domain"] == args.domain]
    if not verdicts and not differentials:
        print(f"repro-chain explain: no recorded events for "
              f"{args.domain!r} in {args.journal}", file=sys.stderr)
        return 2
    first = True
    table = ReportTable()
    for event in verdicts:
        if not first:
            print()
        first = False
        try:
            report = journaled_report(table, args.journal, args.domain,
                                      event["report"])
        except JournalError as exc:
            print(f"repro-chain explain: {exc}", file=sys.stderr)
            return 2
        _print_explanation(args.domain, report.chain_length, report)
        if event["chain_key"]:
            print("chain (presented order):")
            for fingerprint in event["chain_key"]:
                print(f"  {fingerprint[:16]}…{fingerprint[-4:]}")
    for event in differentials:
        if not first:
            print()
        first = False
        print(f"differential : {args.domain} "
              f"({event.get('chain_length', '?')} certificates)")
        for client, result in sorted(event.get("results", {}).items()):
            print(f"  {client:<12} {result}")
        attribution = [
            obs.evidence_from_dict(payload)
            for payload in event.get("attribution", ())
        ]
        if attribution:
            print("attribution:")
            print(obs.render_evidence(attribution))
    return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    """Render the machine-readable evidence behind a domain's verdict."""
    if args.journal:
        return _explain_from_journal(args)

    from repro.measurement import analyze_observations
    from repro.webpki import Ecosystem, EcosystemConfig

    with _collector_policy() as start_hot_loop:
        ecosystem = Ecosystem.generate(
            EcosystemConfig(n_domains=args.domains, seed=args.seed)
        )
        matches = [(domain, chain)
                   for domain, chain in ecosystem.observations()
                   if domain == args.domain]
        if not matches:
            print(f"repro-chain explain: {args.domain!r} is not in the "
                  f"generated ecosystem (--domains {args.domains} "
                  f"--seed {args.seed})", file=sys.stderr)
            return 2
        store = ecosystem.registry.union()
        start_hot_loop()
        # The scan's own analyse pass, run over this domain's
        # observations alone.
        reports, _ = analyze_observations(
            matches, store=store, fetcher=ecosystem.aia_repo,
        )
    for index, ((domain, chain), report) in enumerate(zip(matches, reports)):
        if index:
            print()
        _print_explanation(domain, len(chain), report)
    return 0


def _cmd_repair(args: argparse.Namespace) -> int:
    from repro.core import repair_chain

    if _unwritable("repair", args.output):
        return 2
    loaded = _load_chain_and_store(args)
    if loaded == 2:
        return 2
    chain, store, fetcher = loaded
    result = repair_chain(
        chain, domain=args.domain, store=store, fetcher=fetcher,
        include_root=args.include_root,
    )
    print(f"repair: {result.summary()}")
    if not result.complete:
        print("warning: chain is still incomplete "
              "(no AIA source for the missing intermediates)")
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(to_pem_bundle(result.chain))
        print(f"wrote {len(result.chain)} certificates to {args.output}")
    else:
        sys.stdout.write(to_pem_bundle(result.chain))
    return 0


def _cmd_capabilities(args: argparse.Namespace) -> int:
    from repro.chainbuilder import (
        ALL_CLIENTS, ExtendedEnvironment, RECOMMENDED, client_by_name,
        run_capabilities, run_capability_matrix, run_extended_capabilities,
    )
    from repro.measurement import render_table_9

    if args.client:
        policy = client_by_name(args.client)
        print(f"{policy.display_name}:")
        for capability, value in run_capabilities(policy).items():
            print(f"  {capability:28} {value}")
        if args.extended:
            env = ExtendedEnvironment.create()
            for capability, value in run_extended_capabilities(
                policy, env
            ).items():
                print(f"  {capability:28} {value}  (extended)")
        return 0
    clients = (*ALL_CLIENTS, RECOMMENDED) if args.recommended else ALL_CLIENTS
    print(render_table_9(run_capability_matrix(clients)))
    return 0


def _cmd_differential(args: argparse.Namespace) -> int:
    from repro import obs
    from repro.chainbuilder import (
        DIFFERENTIAL_BROWSERS, DifferentialHarness, LIBRARIES,
    )
    from repro.errors import JournalError, StoreError
    from repro.webpki import Ecosystem, EcosystemConfig

    with _collector_policy() as start_hot_loop:
        ecosystem = Ecosystem.generate(
            EcosystemConfig(n_domains=args.domains, seed=args.seed)
        )
        harness = DifferentialHarness(
            ecosystem.registry, aia_fetcher=ecosystem.aia_repo
        )
        verdict_store = None
        if args.cache_dir:
            from repro.measurement import VerdictStore

            try:
                verdict_store = VerdictStore(args.cache_dir)
            except StoreError as exc:
                print(f"repro-chain differential: {exc}", file=sys.stderr)
                return 2
            loaded = verdict_store.stats()
            print(f"verdict store: {loaded['outcomes']:,} outcomes loaded "
                  f"from {args.cache_dir}")
        journal = None
        if args.journal:
            try:
                journal = obs.RunJournal.open(args.journal, {
                    "run": "differential",
                    "config": {
                        "n_domains": args.domains,
                        "now": ecosystem.config.now.isoformat(),
                    },
                    "seed": args.seed,
                    "root_store_digest": ecosystem.registry.union().digest(),
                }, flush_every=_JOURNAL_FLUSH_EVERY)
            except JournalError as exc:
                print(f"repro-chain differential: {exc}", file=sys.stderr)
                return 2
            resumed = len(journal.events("differential"))
            if resumed:
                print(f"journal: {resumed:,} differential outcomes already "
                      f"recorded in {args.journal}; re-evaluating without "
                      f"re-appending them")
        # Stored outcomes must not depend on evaluation order, which a
        # learning Firefox intermediate cache makes them do: with
        # --cache-dir the harness evaluates against the cold-cache model.
        learning = verdict_store is None
        if not learning:
            print("cache-dir: persistent outcomes require order-independent "
                  "evaluation; using a cold (non-learning) intermediate "
                  "cache")
        observations = ecosystem.observations()
        start_hot_loop()
        try:
            report = harness.run(
                observations, at_time=ecosystem.config.now,
                observe_into_cache=learning, journal=journal,
                verdict_store=verdict_store,
            )
        except StoreError as exc:
            print(f"repro-chain differential: {exc}", file=sys.stderr)
            return 2
        finally:
            if journal is not None:
                journal.close()
            if verdict_store is not None:
                store_stats = verdict_store.stats()
                verdict_store.close()
        if verdict_store is not None:
            print(f"verdict store: {store_stats['hits']:,} hits / "
                  f"{store_stats['misses']:,} misses / "
                  f"{store_stats['writes']:,} writes")
        print(f"chains evaluated : {report.total:,} x 8 clients")
        print(f"library failures : {report.failure_rate(LIBRARIES):.1f}%")
        print(f"browser failures : "
              f"{report.failure_rate(DIFFERENTIAL_BROWSERS):.1f}%")
        print("attribution:")
        for tag, count in sorted(report.attribution_counts().items()):
            print(f"  {tag:28} {count:,}")
        return 0


def _cmd_cache_stats(args: argparse.Namespace) -> int:
    """Summarise a verdict store without opening (or repairing) it."""
    from repro.measurement import check_store

    check = check_store(args.path)
    if not check.is_store:
        for problem in check.problems:
            print(f"repro-chain cache: {args.path}: {problem}",
                  file=sys.stderr)
        return 2
    print(f"store   : {check.path}")
    print(f"id      : {check.store_id}")
    print(f"segments: {check.segments} "
          f"({check.disk_bytes:,} bytes on disk)")
    print(f"reports : {check.reports:,}")
    print(f"outcomes: {check.outcomes:,}")
    if check.stale_records:
        print(f"stale   : {check.stale_records:,} "
              f"(schema-mismatched; 'cache compact' drops them)")
    if check.superseded_records:
        print(f"dupes   : {check.superseded_records:,} "
              f"(superseded; 'cache compact' drops them)")
    for problem in check.problems:
        print(f"problem : {problem}")
    return 0


def _cmd_cache_verify(args: argparse.Namespace) -> int:
    """Read-only damage check: exit 1 on problems, 2 if not a store."""
    from repro.measurement import check_store

    check = check_store(args.path)
    if not check.is_store:
        for problem in check.problems:
            print(f"repro-chain cache: {args.path}: {problem}",
                  file=sys.stderr)
        return 2
    if check.problems:
        for problem in check.problems:
            print(f"verify: {problem}")
        print(f"verify: {len(check.problems)} problem(s) found "
              f"(reopening the store repairs torn tails and "
              f"temp leftovers only)")
        return 1
    print(f"verify: ok ({check.reports:,} reports, "
          f"{check.outcomes:,} outcomes in {check.segments} "
          f"segment(s))")
    return 0


def _cmd_cache_compact(args: argparse.Namespace) -> int:
    """Rewrite the store keeping only live current-schema records."""
    from repro.errors import StoreError
    from repro.measurement import VerdictStore

    try:
        with _collector_policy(), VerdictStore(args.path) as store:
            summary = store.compact()
    except StoreError as exc:
        print(f"repro-chain cache: {exc}", file=sys.stderr)
        return 2
    print(f"compacted {summary['segments_before']} segment(s) -> "
          f"{summary['segments_after']}: kept {summary['kept']:,} "
          f"record(s), dropped {summary['dropped']:,}")
    return 0


def _cmd_watch(args: argparse.Namespace) -> int:
    """Live dashboard over a run journal or a ``--serve`` endpoint."""
    from repro.obs.watch import HttpSource, JournalSource, watch

    if args.target.startswith(("http://", "https://")):
        source = HttpSource(args.target)
    else:
        source = JournalSource(args.target)
    try:
        return watch(source, interval=args.interval, once=args.once)
    except KeyboardInterrupt:
        print()
        return 130


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-chain",
        description="Chaos-in-the-Chain reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    scan = sub.add_parser("scan", help="generate, scan and analyse a corpus")
    scan.add_argument("--domains", type=int, default=2000)
    scan.add_argument("--seed", type=int, default=833)
    scan.add_argument("--simulate-network", action="store_true",
                      help="scan over the simulated network instead of "
                           "reading deployments directly")
    scan.add_argument("--output",
                      help="write the observations to a JSONL file "
                           "(a network scan appends each shard's union "
                           "as the shard completes)")
    scan.add_argument("--metrics-out",
                      help="write the run's metrics registry as JSON")
    scan.add_argument("--trace-out",
                      help="write a Chrome trace-event JSON timing file")
    scan.add_argument("--journal",
                      help="append per-domain events to a JSONL run "
                           "journal; an existing journal for the same "
                           "campaign resumes its recorded verdicts")
    scan.add_argument("--openmetrics-out",
                      help="write an OpenMetrics text snapshot of the "
                           "metrics registry, refreshed periodically "
                           "during analysis")
    scan.add_argument("--snapshot-interval", type=float, default=5.0,
                      help="seconds between OpenMetrics snapshot "
                           "refreshes (default: 5)")
    scan.add_argument("--progress", action="store_true",
                      help="render a live single-line progress bar "
                           "per vantage and shard (requires "
                           "--simulate-network)")
    scan.add_argument("--retries", type=int, default=0,
                      help="retry transient scan failures up to this "
                           "many times with exponential backoff "
                           "(requires --simulate-network; default: 0)")
    scan.add_argument("--backoff", type=float, default=5.0,
                      help="base backoff delay in simulated seconds "
                           "before the first retry (default: 5)")
    scan.add_argument("--breaker-threshold", type=int, default=0,
                      help="trip a per-vantage circuit breaker after "
                           "this many consecutive unreachable scans "
                           "(0: disabled)")
    scan.add_argument("--shard-size", type=int, default=0,
                      help="stream collect → analyse in contiguous "
                           "domain shards of this size, bounding peak "
                           "memory by the shard instead of the corpus; "
                           "the report and tables are byte-identical "
                           "for any size; requires --simulate-network "
                           "(default 0: one shard of the whole corpus)")
    scan.add_argument("--report-out",
                      help="aggregate the finished run into a report "
                           "artifact (requires --journal; format from "
                           "the extension: .json/.html/.md/text)")
    scan.add_argument("--serve", metavar="[HOST:]PORT",
                      help="serve live telemetry over HTTP while the "
                           "run is in flight: /metrics (OpenMetrics), "
                           "/healthz, /progress, /report; port 0 binds "
                           "an ephemeral port (the chosen URL is "
                           "printed at startup)")
    scan.add_argument("--cache-dir",
                      help="persist per-chain verdicts in an on-disk "
                           "content-addressed store; a later scan of "
                           "the same campaign warm-starts from it and "
                           "produces byte-identical output")
    scan.add_argument("--health", action="append", default=[],
                      metavar="NAME<=V",
                      help="declarative health/SLO rule over the "
                           "metrics surface (e.g. "
                           "'scan.error_ratio<=0.05', 'breaker.*=0'; "
                           "also NAME>=V / NAME<V / NAME>V; NAME may "
                           "be an fnmatch pattern); drives /healthz "
                           "and exits 3 when still breached at "
                           "end-of-run; repeatable")
    scan.set_defaults(func=_cmd_scan)

    watch = sub.add_parser(
        "watch",
        help="live dashboard over a running (or finished) campaign",
    )
    watch.add_argument("target",
                       help="run journal path, or the telemetry URL "
                            "printed by 'scan --serve'")
    watch.add_argument("--interval", type=float, default=1.0,
                       help="seconds between polls (default: 1)")
    watch.add_argument("--once", action="store_true",
                       help="render a single frame and exit")
    watch.set_defaults(func=_cmd_watch)

    stats = sub.add_parser(
        "stats", help="render a metrics snapshot as a readable table"
    )
    stats.add_argument("metrics", nargs="?",
                       help="metrics JSON from 'scan --metrics-out'; "
                            "omitted: run a small instrumented campaign")
    stats.add_argument("--domains", type=int, default=500)
    stats.add_argument("--seed", type=int, default=833)
    stats.add_argument("--openmetrics", action="store_true",
                       help="emit OpenMetrics text instead of the table "
                            "(requires a metrics file)")
    stats.add_argument("--top", type=int, default=None,
                       help="show only the N largest series (counters/"
                            "gauges by value, histograms by count)")
    stats.set_defaults(func=_cmd_stats)

    report = sub.add_parser(
        "report",
        help="aggregate a run journal into a readable run report",
    )
    report.add_argument("journal", help="JSONL run journal to aggregate")
    report.add_argument("--metrics",
                        help="metrics JSON from 'scan --metrics-out'; "
                             "adds phase resources and rollups")
    report.add_argument("--format",
                        choices=("text", "markdown", "html", "json"),
                        default=None,
                        help="output format (default: inferred from "
                             "--out extension, else console text)")
    report.add_argument("--out", "-o",
                        help="write the rendered report here instead "
                             "of stdout")
    report.add_argument("--json-out",
                        help="also write the machine-readable report "
                             "JSON (diff-runs baseline input)")
    report.add_argument("--top", type=int, default=10,
                        help="slowest-scan rows to keep (default: 10)")
    report.set_defaults(func=_cmd_report)

    diff_runs = sub.add_parser(
        "diff-runs",
        help="compare two runs (reports or journals) as a CI gate",
    )
    diff_runs.add_argument("before",
                           help="baseline: report JSON or run journal")
    diff_runs.add_argument("after",
                           help="candidate: report JSON or run journal")
    diff_runs.add_argument("--threshold", action="append", default=[],
                           metavar="NAME=PCT",
                           help="max tolerated relative drift for a "
                                "metric total (NAME may be an fnmatch "
                                "pattern, e.g. 'scan.*=0'); repeatable")
    diff_runs.add_argument("--json-out",
                           help="write the machine-readable diff JSON")
    diff_runs.set_defaults(func=_cmd_diff_runs)

    explain = sub.add_parser(
        "explain",
        help="render the evidence records behind a domain's verdict",
    )
    explain.add_argument("domain")
    explain.add_argument("--journal",
                         help="read the verdict (and any differential "
                              "outcome) from a run journal instead of "
                              "re-analysing")
    explain.add_argument("--domains", type=int, default=2000,
                         help="ecosystem size when re-analysing "
                              "(must match the original run)")
    explain.add_argument("--seed", type=int, default=833)
    explain.set_defaults(func=_cmd_explain)

    analyze = sub.add_parser("analyze", help="lint one PEM chain")
    analyze.add_argument("chain", help="PEM bundle as served, leaf first")
    analyze.add_argument("--domain", required=True)
    analyze.add_argument("--roots", help="PEM bundle of trust anchors")
    analyze.set_defaults(func=_cmd_analyze)

    repair = sub.add_parser("repair", help="repair one PEM chain")
    repair.add_argument("chain")
    repair.add_argument("--domain", required=True)
    repair.add_argument("--roots")
    repair.add_argument("--include-root", action="store_true")
    repair.add_argument("--output", "-o")
    repair.set_defaults(func=_cmd_repair)

    capabilities = sub.add_parser(
        "capabilities", help="run the Table 9 capability harness"
    )
    capabilities.add_argument("--client", help="one client by name")
    capabilities.add_argument("--extended", action="store_true",
                              help="include the BetterTLS-parity probes")
    capabilities.add_argument("--recommended", action="store_true",
                              help="include the §6.2 recommended policy")
    capabilities.set_defaults(func=_cmd_capabilities)

    differential = sub.add_parser(
        "differential", help="run §5.2 differential testing"
    )
    differential.add_argument("--domains", type=int, default=2000)
    differential.add_argument("--seed", type=int, default=833)
    differential.add_argument("--journal",
                              help="append per-chain outcomes (with "
                                   "I-1..I-4 attribution evidence) to "
                                   "a JSONL run journal")
    differential.add_argument("--cache-dir",
                              help="persist per-(domain, chain, "
                                   "capability) client outcomes in an "
                                   "on-disk store; implies a cold "
                                   "(non-learning) intermediate cache")
    differential.set_defaults(func=_cmd_differential)

    cache = sub.add_parser(
        "cache",
        help="inspect and maintain a persistent verdict store",
    )
    cache_sub = cache.add_subparsers(dest="cache_command", required=True)
    cache_stats = cache_sub.add_parser(
        "stats", help="summarise a verdict store (read-only)"
    )
    cache_stats.add_argument("path", help="verdict store directory")
    cache_stats.set_defaults(func=_cmd_cache_stats)
    cache_verify = cache_sub.add_parser(
        "verify",
        help="check a verdict store for damage without repairing it",
    )
    cache_verify.add_argument("path", help="verdict store directory")
    cache_verify.set_defaults(func=_cmd_cache_verify)
    cache_compact = cache_sub.add_parser(
        "compact",
        help="rewrite the store keeping only live records",
    )
    cache_compact.add_argument("path", help="verdict store directory")
    cache_compact.set_defaults(func=_cmd_cache_compact)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader went away (``repro-chain scan | head``): Python's
        # documented SIGPIPE idiom — point stdout at devnull so the
        # exit-time flush cannot raise again, and exit 1 quietly
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":
    raise SystemExit(main())
