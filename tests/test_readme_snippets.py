"""The README's code snippets must actually run."""


def test_quickstart_snippet():
    from repro.webpki import Ecosystem, EcosystemConfig
    from repro.measurement import Campaign

    eco = Ecosystem.generate(EcosystemConfig(n_domains=300, seed=833))
    report, _ = Campaign(eco).analyze()
    assert 0.0 <= report.noncompliance_rate <= 100.0


def test_analyze_chain_snippet(hierarchy, leaf):
    from repro.ca import malform
    from repro.core import analyze_chain
    from repro.trust import RootStore

    chain = malform.reverse_intermediates(
        hierarchy.chain_for(leaf, include_root=True)
    )
    report = analyze_chain(
        "shop.example", chain, RootStore("mine", [hierarchy.root.certificate])
    )
    assert not report.compliant
    assert "order:reversed_sequences" in report.defect_summary


def test_client_model_snippet(hierarchy, leaf, store, now):
    from repro.chainbuilder import MBEDTLS, CHROME, ChainBuilder

    chain = hierarchy.chain_for(leaf)
    for policy in (MBEDTLS, CHROME):
        verdict = ChainBuilder(policy, store).build_and_validate(
            chain, domain="fixture.example", at_time=now
        )
        assert verdict.ok
        assert verdict.build.structure


def test_observability_snippet():
    from repro import obs
    from repro.measurement import Campaign
    from repro.webpki import Ecosystem, EcosystemConfig

    ecosystem = Ecosystem.generate(EcosystemConfig(n_domains=60, seed=833))
    with obs.instrumented() as (registry, tracer):
        campaign = Campaign(ecosystem)
        collection = campaign.collect()
        campaign.analyze(collection.observations)
    table = obs.render_metrics_table(registry.snapshot())
    assert "scan.attempts" in table and "compliance.verdict" in table
    assert [root.name for root in tracer.roots()] == ["collect", "analyze"]
    assert "campaign.scan" in tracer.tree()
    assert not obs.enabled()


def test_report_snippet(tmp_path):
    from repro.cli import main

    journal = tmp_path / "run.jsonl"
    metrics = tmp_path / "m.json"
    report = tmp_path / "report.json"
    html = tmp_path / "report.html"
    assert main([
        "scan", "--domains", "60", "--seed", "833", "--simulate-network",
        "--journal", str(journal), "--metrics-out", str(metrics),
        "--report-out", str(report),
    ]) == 0
    assert main([
        "report", str(journal), "--metrics", str(metrics),
        "--out", str(html),
    ]) == 0
    assert "<html" in html.read_text()
    # two identical seeded runs diff clean: exit 0
    rerun = tmp_path / "rerun.jsonl"
    assert main([
        "scan", "--domains", "60", "--seed", "833", "--simulate-network",
        "--journal", str(rerun),
    ]) == 0
    assert main([
        "diff-runs", str(journal), str(rerun),
        "--threshold", "compliance.*=0",
    ]) == 0


def test_journaled_scan_snippet(tmp_path, capsys):
    """The README's `--journal run.jsonl` line, plus the claims made
    right under it: a verdict cache line, and a re-run that resumes
    without appending to the journal."""
    from repro.cli import main

    argv = ["scan", "--domains", "60", "--seed", "833",
            "--simulate-network", "--journal", str(tmp_path / "run.jsonl")]
    assert main(argv) == 0
    first = (tmp_path / "run.jsonl").read_bytes()
    assert "verdict cache: " in capsys.readouterr().out
    assert main(argv) == 0
    assert "journal: resuming " in capsys.readouterr().out
    assert (tmp_path / "run.jsonl").read_bytes() == first


def test_sharded_scan_snippet(tmp_path):
    """The README's `--shard-size` line, plus the byte-identical-report
    claim made right under it.

    The journals are *not* compared raw: a sharded journal interleaves events per shard and adds
    `shard` boundary markers. The contract is same events (same
    content, order interleaved), same verdict order, byte-identical
    rendered report.
    """
    import json

    from repro.cli import main

    sharded = tmp_path / "sharded.jsonl"
    assert main([
        "scan", "--domains", "60", "--seed", "833", "--simulate-network",
        "--shard-size", "25", "--journal", str(sharded),
    ]) == 0
    sequential = tmp_path / "sequential.jsonl"
    assert main([
        "scan", "--domains", "60", "--seed", "833", "--simulate-network",
        "--journal", str(sequential),
    ]) == 0

    from repro.obs.journal import read_journal
    from repro.obs.report import build_report, render_report_text

    manifest_a, events_a = read_journal(sharded)
    manifest_b, events_b = read_journal(sequential)
    assert [e for e in events_a if e["type"] == "verdict"] == [
        e for e in events_b if e["type"] == "verdict"
    ]
    multiset = lambda events: sorted(  # noqa: E731
        json.dumps(e, sort_keys=True)
        for e in events if e.get("type") != "shard"
    )
    assert multiset(events_a) == multiset(events_b)
    assert (render_report_text(build_report(manifest_a, events_a))
            == render_report_text(build_report(manifest_b, events_b)))


def test_cache_dir_snippet(tmp_path):
    """The README's `--cache-dir` lines, plus the warm-start-stays-
    byte-identical claim made right under them."""
    from repro.cli import main

    cache = tmp_path / "verdicts"
    cold = tmp_path / "cold.jsonl"
    assert main([
        "scan", "--domains", "60", "--seed", "833", "--simulate-network",
        "--cache-dir", str(cache), "--journal", str(cold),
    ]) == 0
    warm = tmp_path / "warm.jsonl"
    assert main([
        "scan", "--domains", "60", "--seed", "833", "--simulate-network",
        "--cache-dir", str(cache), "--journal", str(warm),
    ]) == 0
    verdict = lambda raw: [  # noqa: E731
        line for line in raw.read_bytes().splitlines()
        if line.startswith(b'{"type":"verdict"')
    ]
    assert verdict(warm) == verdict(cold)
    assert main(["cache", "stats", str(cache)]) == 0
    assert main(["cache", "verify", str(cache)]) == 0


def test_package_docstring_snippet():
    import repro

    assert repro.__version__
    assert "Chaos in the Chain" in repro.__doc__


def test_live_monitoring_snippet(tmp_path):
    """The README's --serve / --health / watch tour, in-process.

    The README backgrounds the scan and curls mid-run; here the same
    surfaces are exercised against a finished run's registry and
    journal — same endpoints, same rules, same dashboard.
    """
    import json
    import urllib.request

    from repro import obs
    from repro.cli import main

    journal = tmp_path / "run.jsonl"
    code = main([
        "scan", "--domains", "120", "--seed", "833",
        "--simulate-network", "--journal", str(journal),
        "--serve", "127.0.0.1:0",
        "--health", "scan.error_ratio<=0.05",
        "--health", "breaker.tripped=0",
    ])
    assert code == 0  # both SLOs hold on the reference world

    # the same endpoints, served from the run's journal artefacts
    registry = obs.MetricsRegistry()
    monitor = obs.HealthMonitor([
        obs.parse_health_rule("scan.error_ratio<=0.05"),
    ])
    with obs.TelemetryServer(
        registry, health=monitor, journal_path=journal
    ) as server:
        with urllib.request.urlopen(server.url + "/healthz") as response:
            assert response.status == 200
            assert json.loads(response.read())["ok"] is True
        with urllib.request.urlopen(server.url + "/metrics") as response:
            assert response.read().endswith(b"# EOF\n")

    # `repro-chain watch run.jsonl` over the finished journal
    assert main(["watch", str(journal), "--once"]) == 0
