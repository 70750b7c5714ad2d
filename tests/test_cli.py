"""The command-line interface."""

import pytest

from repro.cli import main
from repro.x509 import load_pem_bundle, to_pem_bundle


@pytest.fixture()
def chain_file(tmp_path, hierarchy, leaf):
    path = tmp_path / "chain.pem"
    path.write_text(to_pem_bundle(
        hierarchy.chain_for(leaf, include_root=True)
    ))
    return path


@pytest.fixture()
def broken_chain_file(tmp_path, hierarchy, leaf):
    from repro.ca import malform

    broken = malform.duplicate_leaf(
        malform.reverse_intermediates(
            hierarchy.chain_for(leaf, include_root=True)
        )
    )
    path = tmp_path / "broken.pem"
    path.write_text(to_pem_bundle(broken))
    return path


class TestAnalyze:
    def test_compliant_chain_exits_zero(self, chain_file, capsys):
        code = main(["analyze", str(chain_file),
                     "--domain", "fixture.example"])
        assert code == 0
        out = capsys.readouterr().out
        assert "COMPLIANT" in out
        assert "correctly_placed_matched" in out

    def test_broken_chain_exits_nonzero(self, broken_chain_file, capsys):
        code = main(["analyze", str(broken_chain_file),
                     "--domain", "fixture.example"])
        assert code == 1
        out = capsys.readouterr().out
        assert "NON-COMPLIANT" in out
        assert "reversed_sequences" in out

    def test_roots_file(self, tmp_path, hierarchy, leaf, capsys):
        from repro.x509 import to_pem

        chain_path = tmp_path / "noroot.pem"
        chain_path.write_text(to_pem_bundle(hierarchy.chain_for(leaf)))
        roots_path = tmp_path / "roots.pem"
        roots_path.write_text(to_pem(hierarchy.root.certificate))
        code = main(["analyze", str(chain_path),
                     "--domain", "fixture.example",
                     "--roots", str(roots_path)])
        assert code == 0


class TestRepair:
    def test_repair_writes_compliant_bundle(self, broken_chain_file,
                                            tmp_path, capsys):
        out_path = tmp_path / "fixed.pem"
        code = main(["repair", str(broken_chain_file),
                     "--domain", "fixture.example",
                     "--include-root",
                     "-o", str(out_path)])
        assert code == 0
        fixed = load_pem_bundle(out_path.read_text())
        from repro.core import analyze_order

        assert analyze_order(fixed).compliant
        assert "removed_duplicate" in capsys.readouterr().out

    def test_repair_to_stdout(self, broken_chain_file, capsys):
        code = main(["repair", str(broken_chain_file),
                     "--domain", "fixture.example"])
        assert code == 0
        assert "BEGIN CERTIFICATE" in capsys.readouterr().out


class TestChainFileErrors:
    """``analyze`` and ``repair`` exit 2 with one line on an unreadable
    chain or ``--roots`` file, never 1 (a verdict) or a traceback."""

    CORRUPT_PEM = ("-----BEGIN CERTIFICATE-----\nnot base64!!\n"
                   "-----END CERTIFICATE-----\n")

    def _assert_one_line_exit_two(self, argv, bad_path, reason, capsys):
        for command in ("analyze", "repair"):
            code = main([command, *argv, "--domain", "fixture.example"])
            captured = capsys.readouterr()
            assert code == 2
            assert captured.out == ""
            assert captured.err.startswith(
                f"repro-chain {command}: {bad_path}: {reason}"
            )
            assert captured.err.count("\n") == 1

    def test_missing_file(self, tmp_path, chain_file, capsys):
        missing = tmp_path / "nope.pem"
        self._assert_one_line_exit_two(
            [str(missing)], missing, "No such file or directory", capsys
        )
        self._assert_one_line_exit_two(
            [str(chain_file), "--roots", str(missing)], missing,
            "No such file or directory", capsys,
        )

    def test_corrupt_pem(self, tmp_path, chain_file, capsys):
        corrupt = tmp_path / "corrupt.pem"
        corrupt.write_text(self.CORRUPT_PEM)
        self._assert_one_line_exit_two(
            [str(corrupt)], corrupt, "corrupt PEM body", capsys
        )
        self._assert_one_line_exit_two(
            [str(chain_file), "--roots", str(corrupt)], corrupt,
            "corrupt PEM body", capsys,
        )

    def test_empty_file(self, tmp_path, capsys):
        empty = tmp_path / "empty.pem"
        empty.write_text("")
        self._assert_one_line_exit_two(
            [str(empty)], empty, "no certificates found", capsys
        )

    def test_key_scheme_without_a_verifier(self, tmp_path, capsys):
        """A root of a generated world re-encoded with a key scheme no
        backend verifies does not decode: one line, not a signature
        error from the self-signed check."""
        import base64
        import json

        from repro.webpki import Ecosystem, EcosystemConfig
        from repro.x509.encoding import certificate_to_dict

        ecosystem = Ecosystem.generate(EcosystemConfig(n_domains=20,
                                                       seed=833))
        root = min(ecosystem.registry.union(), key=lambda c: c.fingerprint)
        payload = certificate_to_dict(root)
        payload["key_scheme"] = "bogus"
        body = base64.b64encode(json.dumps(payload).encode()).decode()
        bogus = tmp_path / "bogus.pem"
        bogus.write_text("-----BEGIN CERTIFICATE-----\n" + body
                         + "\n-----END CERTIFICATE-----\n")
        self._assert_one_line_exit_two(
            [str(bogus)], bogus, "malformed certificate payload: no "
            "verifier for key scheme 'bogus'", capsys,
        )


class TestCapabilities:
    def test_single_client(self, capsys):
        code = main(["capabilities", "--client", "gnutls"])
        assert code == 0
        out = capsys.readouterr().out
        assert "GnuTLS" in out
        assert "path_length_constraint" in out

    def test_extended_probes(self, capsys):
        code = main(["capabilities", "--client", "openssl", "--extended"])
        assert code == 0
        assert "deprecated_crypto" in capsys.readouterr().out


class TestScanAndDifferential:
    def test_scan_with_output(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.jsonl"
        code = main(["scan", "--domains", "150", "--seed", "5",
                     "--output", str(corpus)])
        assert code == 0
        out = capsys.readouterr().out
        assert "non-compliant" in out
        from repro.measurement import load_observations

        assert len(load_observations(corpus)) >= 140

    def test_differential_summary(self, capsys):
        code = main(["differential", "--domains", "150", "--seed", "5"])
        assert code == 0
        out = capsys.readouterr().out
        assert "library failures" in out
        assert "attribution" in out


class TestCollectorPolicy:
    """A command that builds a world does so with automatic collection
    paused, runs its per-chain loop with the collector on over the
    frozen set-up heap, and leaves the collector as it found it."""

    @pytest.mark.parametrize("loop, argv", [
        ("repro.measurement.campaign.Campaign.analyze",
         ["scan", "--domains", "60", "--seed", "6"]),
        ("repro.measurement.campaign.Campaign.run_sharded",
         ["scan", "--domains", "60", "--seed", "6", "--simulate-network"]),
        ("repro.chainbuilder.differential.DifferentialHarness.run",
         ["differential", "--domains", "60", "--seed", "6"]),
    ], ids=["scan", "scan-simulate-network", "differential"])
    def test_hot_loop_runs_collected_over_frozen_heap(
        self, monkeypatch, capsys, loop, argv
    ):
        import gc
        import importlib

        module_name, class_name, method = loop.rsplit(".", 2)
        owner = getattr(importlib.import_module(module_name), class_name)
        original = getattr(owner, method)
        seen = []

        def spy(*args, **kwargs):
            seen.append((gc.isenabled(), gc.get_freeze_count() > 0))
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, method, spy)
        assert main(argv) == 0
        assert seen == [(True, True)]

    @pytest.mark.parametrize("enabled", [True, False],
                             ids=["entered-enabled", "entered-disabled"])
    @pytest.mark.parametrize("corrupt_store", [False, True],
                             ids=["clean-exit", "set-up-exit-2"])
    def test_main_leaves_the_collector_as_found(
        self, tmp_path, capsys, enabled, corrupt_store
    ):
        import gc

        store = tmp_path / "store"
        store.mkdir()
        if corrupt_store:
            (store / "meta.json").write_text("{not json")
        was_enabled = gc.isenabled()
        if enabled:
            gc.enable()
        else:
            gc.disable()
        try:
            code = main(["scan", "--domains", "60", "--seed", "6",
                         "--simulate-network", "--cache-dir", str(store)])
            state = (gc.isenabled(), gc.get_freeze_count())
        finally:
            if was_enabled:
                gc.enable()
            else:
                gc.disable()
        assert code == (2 if corrupt_store else 0)
        assert state == (enabled, 0)

    def test_cache_compact_opens_the_store_with_collection_paused(
        self, tmp_path, capsys, monkeypatch
    ):
        """The open decodes every live record, set-up like a scan's:
        no automatic pass runs while it does, and ``main`` restores the
        collector it found."""
        import gc

        from repro.measurement.store import VerdictStore

        store = tmp_path / "store"
        assert main(["scan", "--domains", "60", "--seed", "6",
                     "--cache-dir", str(store)]) == 0
        seen = []
        original_init = VerdictStore.__init__

        def spy_init(self, *args, **kwargs):
            seen.append(gc.isenabled())
            original_init(self, *args, **kwargs)

        monkeypatch.setattr(VerdictStore, "__init__", spy_init)
        was_enabled = gc.isenabled()
        gc.enable()
        try:
            code = main(["cache", "compact", str(store)])
            state = (gc.isenabled(), gc.get_freeze_count())
        finally:
            if not was_enabled:
                gc.disable()
        assert code == 0
        assert "compacted" in capsys.readouterr().out
        assert seen == [False]
        assert state == (True, 0)


class TestScanNetworkMode:
    def test_simulated_network_scan(self, capsys):
        code = main(["scan", "--domains", "120", "--seed", "6",
                     "--simulate-network"])
        assert code == 0
        out = capsys.readouterr().out
        # per-vantage reachability is rendered, not a raw dict
        assert "vantage us" in out and "vantage au" in out
        assert "reachable" in out and "{" not in out.split("\n")[0]
        assert "Table 7" in out

    def test_scan_writes_metrics_and_trace(self, tmp_path, capsys):
        import json

        metrics_path = tmp_path / "metrics.json"
        trace_path = tmp_path / "trace.json"
        code = main(["scan", "--domains", "120", "--seed", "6",
                     "--simulate-network",
                     "--metrics-out", str(metrics_path),
                     "--trace-out", str(trace_path)])
        assert code == 0
        metrics = json.loads(metrics_path.read_text())
        for family in ("scan.attempts", "scan.success", "cache.hits",
                       "cache.misses", "chainbuilder.backtracks",
                       "aia.fetch.attempts", "compliance.verdict"):
            assert family in metrics, family
        vantages = {
            series["labels"].get("vantage")
            for series in metrics["scan.attempts"]["series"]
            if series["labels"]
        }
        assert {"us", "au"} <= vantages
        trace = json.loads(trace_path.read_text())
        assert trace, "expected at least one trace event"
        for event in trace:
            assert event["ph"] == "X"
            assert {"name", "ts", "dur", "pid", "tid"} <= set(event)
        names = {event["name"] for event in trace}
        assert {"generate", "run.sharded", "collect.shard.0",
                "analyze.shard.0", "analyze"} <= names

    def test_every_phase_is_a_span_of_the_same_name(self, tmp_path,
                                                     capsys):
        """One name per region: each ``phase`` label of the metrics is
        a span name of the trace, and a shard's collection span holds
        its two vantage scans, each with its per-domain handshakes."""
        import json

        metrics_path = tmp_path / "metrics.json"
        trace_path = tmp_path / "trace.json"
        code = main(["scan", "--domains", "120", "--seed", "6",
                     "--simulate-network", "--shard-size", "70",
                     "--metrics-out", str(metrics_path),
                     "--trace-out", str(trace_path)])
        assert code == 0
        assert "shards: 2 × 70 domains" in capsys.readouterr().out
        metrics = json.loads(metrics_path.read_text())
        phases = {
            series["labels"]["phase"]
            for series in metrics["phase.wall_seconds"]["series"]
            if series["labels"]
        }
        assert {"collect.shard.0", "collect.shard.1"} <= phases
        trace = json.loads(trace_path.read_text())
        assert phases <= {event["name"] for event in trace}

        def inside(outer, name):
            return [
                event for event in trace
                if event["name"] == name and event["tid"] == outer["tid"]
                and outer["ts"] <= event["ts"]
                and event["ts"] + event["dur"] <= outer["ts"] + outer["dur"]
            ]

        for shard in ("0", "1"):
            collect, = [event for event in trace
                        if event["name"] == f"collect.shard.{shard}"]
            assert collect["args"]["shard"] == shard
            scans = inside(collect, "campaign.scan")
            assert sorted(scan["args"]["vantage"] for scan in scans) \
                == ["au", "us"]
            for scan in scans:
                handshakes = inside(scan, "scan.handshake")
                assert handshakes
                assert {h["args"]["vantage"] for h in handshakes} \
                    == {scan["args"]["vantage"]}

    def test_scan_without_trace_out_opens_no_span(self, tmp_path,
                                                  monkeypatch, capsys):
        """Only ``--trace-out`` reads the tracer, so without it the
        scan runs against the null tracer and keeps no span."""
        from repro.obs.trace import Tracer

        pushed = []
        original_push = Tracer._push

        def counting_push(self, span):
            pushed.append(span.name)
            original_push(self, span)

        monkeypatch.setattr(Tracer, "_push", counting_push)
        argv = ["scan", "--domains", "60", "--seed", "6",
                "--simulate-network"]
        assert main(argv) == 0
        assert pushed == []
        # the spy does see the spans of a traced run
        assert main(argv + ["--trace-out", str(tmp_path / "t.json")]) == 0
        assert "run.sharded" in pushed


class TestScanNetworkOutput:
    """Every network scan runs shard by shard; ``--output`` appends each
    shard's union before the shard is released."""

    BASE = ["scan", "--domains", "60", "--seed", "6", "--simulate-network"]

    @pytest.mark.parametrize("shard_size", ["0", "7"])
    def test_output_matches_collected_observations(self, tmp_path,
                                                   shard_size, capsys):
        from repro.measurement import Campaign, save_observations
        from repro.webpki import Ecosystem, EcosystemConfig

        reference = tmp_path / "reference.jsonl"
        campaign = Campaign(Ecosystem.generate(
            EcosystemConfig(n_domains=60, seed=6)
        ))
        count = save_observations(reference,
                                  campaign.collect().observations)
        corpus = tmp_path / "corpus.jsonl"
        code = main(self.BASE + ["--shard-size", shard_size,
                                 "--output", str(corpus)])
        assert code == 0
        assert corpus.read_bytes() == reference.read_bytes()
        out = capsys.readouterr().out
        assert f"wrote {count:,} observations to {corpus}" in out

    def test_output_refused_when_shards_resume(self, tmp_path, capsys):
        """Completed shards fold from the journal without a re-scan, so
        they have no observations to export: refuse, do not write a
        partial corpus."""
        journal = tmp_path / "run.jsonl"
        args = self.BASE + ["--shard-size", "7", "--journal", str(journal)]
        assert main(args) == 0
        capsys.readouterr()
        recorded = journal.read_bytes()
        corpus = tmp_path / "corpus.jsonl"
        code = main(args + ["--output", str(corpus)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith(f"repro-chain scan: {journal}: ")
        assert "completed shard" in captured.err
        assert captured.err.count("\n") == 1
        assert not corpus.exists()
        assert journal.read_bytes() == recorded


class TestOutputFileErrors:
    """An output path in a missing directory gets one line and the
    command's input-error code before any work, never a traceback."""

    @pytest.mark.parametrize("flag", [
        "--metrics-out", "--trace-out", "--openmetrics-out",
        "--report-out", "--output",
    ])
    def test_scan_fails_before_generating(self, tmp_path, flag, capsys):
        bad = tmp_path / "missing" / "out.json"
        code = main(["scan", "--domains", "60", "--seed", "6",
                     "--simulate-network", "--journal",
                     str(tmp_path / "run.jsonl"), flag, str(bad)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == (
            f"repro-chain scan: {bad}: No such file or directory\n"
        )
        assert not (tmp_path / "run.jsonl").exists()

    def test_metrics_out_in_missing_directory(self, tmp_path, capsys):
        bad = tmp_path / "nonexistent" / "m.json"
        code = main(["scan", "--domains", "60", "--seed", "6",
                     "--simulate-network", "--metrics-out", str(bad)])
        captured = capsys.readouterr()
        assert code == 2
        assert "Traceback" not in captured.err
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("flag", ["--out", "--json-out"])
    def test_report_exits_two(self, journaled_scan, tmp_path, flag,
                              capsys):
        journal, _, _ = journaled_scan
        bad = tmp_path / "missing" / "report.html"
        assert main(["report", str(journal), flag, str(bad)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"repro-chain report: {bad}: No such file or directory\n"
        )

    def test_diff_runs_exits_three(self, journaled_scan, tmp_path, capsys):
        """2 means a threshold breach for diff-runs, so its input-error
        code is 3."""
        _, _, report = journaled_scan
        bad = tmp_path / "missing" / "diff.json"
        code = main(["diff-runs", str(report), str(report),
                     "--json-out", str(bad)])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err == (
            f"repro-chain diff-runs: {bad}: No such file or directory\n"
        )

    def test_repair_exits_two(self, broken_chain_file, tmp_path, capsys):
        bad = tmp_path / "missing" / "fixed.pem"
        code = main(["repair", str(broken_chain_file),
                     "--domain", "fixture.example", "-o", str(bad)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == (
            f"repro-chain repair: {bad}: No such file or directory\n"
        )

    def test_output_naming_a_directory(self, tmp_path, capsys):
        code = main(["scan", "--domains", "60", "--seed", "6",
                     "--output", str(tmp_path)])
        assert code == 2
        assert capsys.readouterr().err == (
            f"repro-chain scan: {tmp_path}: Is a directory\n"
        )


class TestStats:
    def test_stats_from_file(self, tmp_path, capsys):
        import json

        metrics_path = tmp_path / "metrics.json"
        main(["scan", "--domains", "120", "--seed", "6",
              "--simulate-network", "--metrics-out", str(metrics_path)])
        capsys.readouterr()
        code = main(["stats", str(metrics_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "scan.attempts (counter)" in out
        assert "vantage=us" in out
        assert "scan.wire_bytes (histogram)" in out

    def test_stats_fresh_run(self, capsys):
        code = main(["stats", "--domains", "120", "--seed", "6"])
        assert code == 0
        out = capsys.readouterr().out
        assert "== phase timing ==" in out
        assert "chains/s" in out
        assert "compliance.verdict (counter)" in out

    def test_missing_file_exits_two_with_message(self, tmp_path, capsys):
        code = main(["stats", str(tmp_path / "nope.json")])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "cannot read" in captured.err
        assert "Traceback" not in captured.err

    def test_malformed_json_exits_two(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code = main(["stats", str(path)])
        assert code == 2
        assert "not valid metrics JSON" in capsys.readouterr().err

    def test_wrong_shape_exits_two(self, tmp_path, capsys):
        path = tmp_path / "list.json"
        path.write_text("[1, 2, 3]")
        code = main(["stats", str(path)])
        assert code == 2
        assert "expected a JSON object" in capsys.readouterr().err

    def test_openmetrics_requires_file(self, capsys):
        code = main(["stats", "--openmetrics"])
        assert code == 2
        assert "requires a metrics file" in capsys.readouterr().err

    def test_openmetrics_conversion(self, tmp_path, capsys):
        import json

        path = tmp_path / "metrics.json"
        path.write_text(json.dumps({
            "scan.attempts": {"type": "counter", "series": [
                {"labels": {"vantage": "us"}, "value": 3.0},
            ]},
        }))
        code = main(["stats", str(path), "--openmetrics"])
        assert code == 0
        out = capsys.readouterr().out
        assert 'scan_attempts_total{vantage="us"} 3' in out
        assert out.endswith("# EOF\n")

    def test_openmetrics_histogram_from_sorted_json(self, tmp_path, capsys):
        """Histogram buckets stay in numeric order through the JSON file.

        'scan --metrics-out' writes with sort_keys=True, which orders
        bucket keys lexically (+Inf, 1, 10, 100, ..., 2); the exporter
        must still emit monotonic cumulative buckets ending at +Inf.
        """
        import json

        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        hist = registry.histogram("scan.wire_bytes",
                                  buckets=(1, 2, 10, 100, 1000))
        for value in (0.5, 1.5, 5, 50, 500, 5000):
            hist.observe(value)
        path = tmp_path / "metrics.json"
        path.write_text(registry.to_json())
        assert json.loads(path.read_text())  # sanity: valid snapshot JSON
        code = main(["stats", str(path), "--openmetrics"])
        assert code == 0
        out = capsys.readouterr().out
        buckets = [line for line in out.splitlines()
                   if line.startswith("scan_wire_bytes_bucket")]
        bounds = [line.split('le="')[1].split('"')[0] for line in buckets]
        assert bounds == ["1", "2", "10", "100", "1000", "+Inf"]
        counts = [int(line.rsplit(" ", 1)[1]) for line in buckets]
        assert counts == [1, 2, 3, 4, 5, 6]
        assert "scan_wire_bytes_count 6" in out


class TestScanJournal:
    def test_scan_writes_and_resumes_journal(self, tmp_path, capsys):
        from repro.obs import read_journal

        path = tmp_path / "run.jsonl"
        args = ["scan", "--domains", "120", "--seed", "6",
                "--journal", str(path)]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert "journal events" in first
        _, events = read_journal(path)
        verdicts = [e for e in events if e["type"] == "verdict"]
        assert verdicts

        # same campaign: resumes; output tables stay identical
        assert main(args) == 0
        second = capsys.readouterr().out
        assert f"resuming {len(verdicts):,} recorded verdicts" in second
        def tables(text: str) -> str:
            return text[text.index("chains:"):text.index("wrote")]

        assert tables(first) == tables(second)

    def test_mismatched_journal_exits_two(self, tmp_path, capsys):
        path = tmp_path / "run.jsonl"
        assert main(["scan", "--domains", "120", "--seed", "6",
                     "--journal", str(path)]) == 0
        capsys.readouterr()
        code = main(["scan", "--domains", "120", "--seed", "7",
                     "--journal", str(path)])
        assert code == 2
        assert "manifest mismatch" in capsys.readouterr().err

    def test_openmetrics_out(self, tmp_path, capsys):
        path = tmp_path / "metrics.om"
        assert main(["scan", "--domains", "120", "--seed", "6",
                     "--simulate-network",
                     "--openmetrics-out", str(path)]) == 0
        capsys.readouterr()
        text = path.read_text()
        assert "# TYPE scan_attempts counter" in text
        assert text.endswith("# EOF\n")


class TestDifferentialJournal:
    def test_rerun_does_not_duplicate_events(self, tmp_path, capsys):
        from repro.obs import read_journal

        path = tmp_path / "diff.jsonl"
        args = ["differential", "--domains", "120", "--seed", "6",
                "--journal", str(path)]
        assert main(args) == 0
        capsys.readouterr()
        _, events = read_journal(path)
        first = [e for e in events if e["type"] == "differential"]
        assert first and all(e.get("chain_key") for e in first)

        assert main(args) == 0
        out = capsys.readouterr().out
        assert "already recorded" in out
        _, events = read_journal(path)
        second = [e for e in events if e["type"] == "differential"]
        assert second == first

    def test_mismatched_journal_exits_two(self, tmp_path, capsys):
        path = tmp_path / "diff.jsonl"
        assert main(["differential", "--domains", "120", "--seed", "6",
                     "--journal", str(path)]) == 0
        capsys.readouterr()
        code = main(["differential", "--domains", "120", "--seed", "7",
                     "--journal", str(path)])
        assert code == 2
        err = capsys.readouterr().err
        assert "manifest mismatch" in err
        assert "Traceback" not in err


class TestExplain:
    def test_explain_from_fresh_ecosystem(self, capsys):
        # pick a domain deterministically from the same generation
        from repro.webpki import Ecosystem, EcosystemConfig

        ecosystem = Ecosystem.generate(
            EcosystemConfig(n_domains=120, seed=6)
        )
        domain = ecosystem.observations()[0][0]
        code = main(["explain", domain, "--domains", "120", "--seed", "6"])
        assert code == 0
        out = capsys.readouterr().out
        assert f"domain       : {domain}" in out
        assert "evidence:" in out

    def test_explain_from_journal(self, tmp_path, capsys):
        import json

        path = tmp_path / "run.jsonl"
        assert main(["scan", "--domains", "200", "--seed", "6",
                     "--journal", str(path)]) == 0
        capsys.readouterr()
        domain = None
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                event = json.loads(line)
                if (event.get("type") == "verdict"
                        and event["report"]["completeness"]["category"]
                        == "incomplete"):
                    domain = event["domain"]
                    break
        assert domain is not None, "corpus should contain incompleteness"
        code = main(["explain", domain, "--journal", str(path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "[R3.incomplete] violation" in out
        assert "chain (presented order):" in out

    def test_unknown_domain_exits_two(self, tmp_path, capsys):
        assert main(["explain", "no-such.example",
                     "--domains", "120", "--seed", "6"]) == 2
        assert "not in the generated ecosystem" in (
            capsys.readouterr().err
        )

    def test_missing_journal_exits_two(self, tmp_path, capsys):
        code = main(["explain", "x.example",
                     "--journal", str(tmp_path / "nope.jsonl")])
        assert code == 2
        assert "cannot read" in capsys.readouterr().err

    def test_explain_differential_attribution(self, tmp_path, capsys):
        import json

        path = tmp_path / "diff.jsonl"
        assert main(["differential", "--domains", "200", "--seed", "6",
                     "--journal", str(path)]) == 0
        capsys.readouterr()
        domain = None
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                event = json.loads(line)
                if (event.get("type") == "differential"
                        and event.get("attribution")):
                    domain = event["domain"]
                    break
        assert domain is not None, "corpus should contain discrepancies"
        code = main(["explain", domain, "--journal", str(path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "differential :" in out
        assert "attribution:" in out


class TestCapabilitiesMatrix:
    def test_full_matrix_with_recommended(self, capsys):
        code = main(["capabilities", "--recommended"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Recommended" in out
        assert "MbedTLS" in out


class TestScanVerdictCache:
    BASE = ["scan", "--domains", "120", "--seed", "6"]

    @staticmethod
    def count(pattern: str, text: str) -> int:
        import re

        return int(re.search(pattern, text, re.M).group(1).replace(",", ""))

    def test_verdict_cache_counts_every_chain(self, capsys):
        assert main(self.BASE) == 0
        out = capsys.readouterr().out
        hits = self.count(r"^verdict cache: ([\d,]+) hits", out)
        misses = self.count(r"^verdict cache: [\d,]+ hits / ([\d,]+) "
                            r"misses", out)
        assert hits + misses == self.count(r"^chains: ([\d,]+)", out)

    def test_one_analysis_per_observation(self, capsys, monkeypatch):
        """The tables come from the scan's own aggregate: no chain is
        analysed a second time to print them."""
        import sys

        from repro.core import compliance

        original = compliance.analyze_chain
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[0])
            return original(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if (name == "repro" or name.startswith("repro.")) and getattr(
                module, "analyze_chain", None
            ) is original:
                monkeypatch.setattr(module, "analyze_chain", counting)
        assert main(self.BASE) == 0
        out = capsys.readouterr().out
        assert "== Table 7 (completeness) ==" in out
        assert 0 < len(calls) <= self.count(r"^chains: ([\d,]+)", out)


@pytest.fixture(scope="module")
def journaled_scan(tmp_path_factory):
    """One journaled reference scan shared by the report/diff tests."""
    tmp = tmp_path_factory.mktemp("cli-report")
    journal = tmp / "run.jsonl"
    metrics = tmp / "metrics.json"
    report = tmp / "report.json"
    code = main(["scan", "--domains", "100", "--seed", "833",
                 "--simulate-network",
                 "--journal", str(journal),
                 "--metrics-out", str(metrics),
                 "--report-out", str(report)])
    assert code == 0
    return journal, metrics, report


class TestReportCommand:
    def test_report_to_stdout(self, journaled_scan, capsys):
        journal, _, _ = journaled_scan
        code = main(["report", str(journal)])
        assert code == 0
        out = capsys.readouterr().out
        assert "run report — campaign" in out
        assert "Vantage reachability" in out
        assert "Rule breakdown" in out
        # no metrics snapshot given: no timing-dependent sections
        assert "Phase resources" not in out

    def test_report_with_metrics_adds_phases(self, journaled_scan,
                                             capsys):
        journal, metrics, _ = journaled_scan
        code = main(["report", str(journal),
                     "--metrics", str(metrics)])
        assert code == 0
        out = capsys.readouterr().out
        assert "Phase resources" in out
        assert "collect" in out and "analyze" in out

    def test_scan_metrics_carry_the_generate_phase(self, journaled_scan,
                                                   capsys):
        import json

        _, metrics, _ = journaled_scan
        series = json.loads(metrics.read_text())["phase.wall_seconds"]
        generate = [s for s in series["series"]
                    if s["labels"] == {"phase": "generate"}]
        assert len(generate) == 1
        assert generate[0]["count"] == 1 and generate[0]["sum"] > 0
        code = main(["report", str(journaled_scan[0]),
                     "--metrics", str(metrics)])
        assert code == 0
        assert "generate" in capsys.readouterr().out

    def test_report_formats(self, journaled_scan, tmp_path, capsys):
        journal, _, _ = journaled_scan
        html = tmp_path / "report.html"
        code = main(["report", str(journal), "--out", str(html)])
        assert code == 0
        text = html.read_text()
        assert text.startswith("<!DOCTYPE html>")
        assert "<style>" in text
        code = main(["report", str(journal), "--format", "markdown"])
        assert code == 0
        assert "| rule |" in capsys.readouterr().out

    def test_report_json_out_roundtrips(self, journaled_scan,
                                        tmp_path, capsys):
        import json

        from repro.obs import RunReport

        journal, _, _ = journaled_scan
        json_out = tmp_path / "report.json"
        code = main(["report", str(journal),
                     "--json-out", str(json_out)])
        assert code == 0
        payload = json.loads(json_out.read_text())
        restored = RunReport.from_dict(payload)
        assert restored.to_dict() == payload

    def test_missing_journal_exits_two(self, tmp_path, capsys):
        code = main(["report", str(tmp_path / "absent.jsonl")])
        assert code == 2
        assert "report" in capsys.readouterr().err

    def test_missing_journal_is_named_once(self, tmp_path, capsys):
        absent = tmp_path / "absent.jsonl"
        assert main(["report", str(absent)]) == 2
        assert capsys.readouterr().err == (
            f"repro-chain report: {absent}: cannot read journal: "
            f"No such file or directory\n"
        )

    def test_corrupt_journal_exits_two(self, journaled_scan, tmp_path,
                                       capsys):
        journal, _, _ = journaled_scan
        corrupt = tmp_path / "corrupt.jsonl"
        corrupt.write_text(journal.read_text()
                           + '{"type":"collection","domains":1}\n')
        code = main(["report", str(corrupt)])
        assert code == 2
        assert "corrupt journal" in capsys.readouterr().err


class TestMalformedMetricsSnapshot:
    """A metrics file whose families are not snapshot-shaped is refused
    with one line and exit 2 by every command that reads one."""

    @pytest.mark.parametrize("payload", [
        {"x": 5},
        {"x": {"type": "counter", "series": 5}},
        {"x": {"type": "counter",
               "series": [{"labels": 3, "value": "a"}]}},
    ], ids=["family-not-object", "series-not-list", "bad-series"])
    @pytest.mark.parametrize("invocation", [
        "stats", "stats-openmetrics", "report",
    ])
    def test_exits_two_with_one_line(self, journaled_scan, tmp_path,
                                     capsys, payload, invocation):
        import json

        journal, _, _ = journaled_scan
        path = tmp_path / "metrics.json"
        path.write_text(json.dumps(payload))
        argv = {
            "stats": ["stats", str(path)],
            "stats-openmetrics": ["stats", str(path), "--openmetrics"],
            "report": ["report", str(journal), "--metrics", str(path)],
        }[invocation]
        capsys.readouterr()
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "Traceback" not in captured.err
        (line,) = captured.err.splitlines()
        assert line.startswith(
            f"repro-chain {argv[0]}: {path}: metric family 'x': "
        )


class TestScanReportOut:
    def test_scan_report_out_requires_journal(self, tmp_path, capsys):
        code = main(["scan", "--domains", "60", "--seed", "5",
                     "--report-out", str(tmp_path / "r.json")])
        assert code == 2
        assert "--journal" in capsys.readouterr().err

    def test_scan_report_out_includes_metrics(self, journaled_scan):
        import json

        _, _, report = journaled_scan
        payload = json.loads(report.read_text())
        assert payload["report_version"] == 1
        assert payload["verdicts"]["total"] > 0
        # built with the live registry snapshot: phases present
        assert payload["phases"]


class TestDiffRuns:
    def test_identical_journals_exit_zero(self, journaled_scan,
                                          tmp_path, capsys):
        journal, _, _ = journaled_scan
        twin = tmp_path / "twin.jsonl"
        code = main(["scan", "--domains", "100", "--seed", "833",
                     "--simulate-network", "--journal", str(twin)])
        assert code == 0
        capsys.readouterr()
        code = main(["diff-runs", str(journal), str(twin)])
        assert code == 0
        out = capsys.readouterr().out
        assert "per-domain verdicts identical" in out
        assert "exit 0" in out

    def test_report_inputs_and_json_out(self, journaled_scan,
                                        tmp_path, capsys):
        import json

        _, _, report = journaled_scan
        json_out = tmp_path / "diff.json"
        code = main(["diff-runs", str(report), str(report),
                     "--json-out", str(json_out)])
        assert code == 0
        payload = json.loads(json_out.read_text())
        assert payload["exit_code"] == 0
        assert payload["verdict_flips"] == []

    def test_flipped_verdict_exits_one_naming_rules(
        self, journaled_scan, tmp_path, capsys
    ):
        import json

        _, _, report = journaled_scan
        payload = json.loads(report.read_text())
        flipped_domain = None
        for domain, dv in payload["domain_verdicts"].items():
            if dv["compliant"]:
                dv["compliant"] = False
                dv["rules"] = ["R3.incomplete"]
                flipped_domain = domain
                break
        mutated = tmp_path / "mutated.json"
        mutated.write_text(json.dumps(payload))
        code = main(["diff-runs", str(report), str(mutated)])
        assert code == 1
        out = capsys.readouterr().out
        assert flipped_domain in out
        assert "R3.incomplete" in out
        assert "exit 1" in out

    def test_threshold_breach_exits_two(self, journaled_scan, capsys):
        import json

        _, metrics, report = journaled_scan
        # compare the metrics-bearing report against a journal-only
        # rebuild of itself: every metric total disappears -> breach
        payload = json.loads(report.read_text())
        assert payload["metric_totals"]
        code = main(["diff-runs", str(report), str(report),
                     "--threshold", "phase.*=0",
                     "--threshold", "scan.success=0"])
        assert code == 0  # identical report: nothing breaches
        capsys.readouterr()
        mutated = dict(payload)
        mutated["metric_totals"] = dict(payload["metric_totals"])
        mutated["metric_totals"]["scan.success"] = (
            payload["metric_totals"]["scan.success"] * 2
        )
        import pathlib

        other = pathlib.Path(str(report) + ".breach.json")
        other.write_text(json.dumps(mutated))
        code = main(["diff-runs", str(report), str(other),
                     "--threshold", "scan.success=10"])
        assert code == 2
        assert "BREACH" in capsys.readouterr().out

    def test_bad_threshold_exits_three(self, journaled_scan, capsys):
        journal, _, _ = journaled_scan
        code = main(["diff-runs", str(journal), str(journal),
                     "--threshold", "nonsense"])
        assert code == 3
        assert "NAME=PCT" in capsys.readouterr().err

    def test_unreadable_input_exits_three(self, tmp_path, capsys):
        code = main(["diff-runs", str(tmp_path / "a.jsonl"),
                     str(tmp_path / "b.jsonl")])
        assert code == 3


class TestStatsTop:
    def test_top_limits_rows(self, tmp_path, capsys):
        import json

        snapshot = {
            "a.big": {"type": "counter",
                      "series": [{"labels": {}, "value": 100.0}]},
            "b.mid": {"type": "counter",
                      "series": [{"labels": {}, "value": 50.0}]},
            "c.small": {"type": "counter",
                        "series": [{"labels": {}, "value": 1.0}]},
        }
        path = tmp_path / "metrics.json"
        path.write_text(json.dumps(snapshot))
        code = main(["stats", str(path), "--top", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "a.big" in out and "b.mid" in out
        assert "c.small" not in out
        # largest first
        assert out.index("a.big") < out.index("b.mid")

    def test_numeric_cells_right_aligned(self, tmp_path, capsys):
        import json

        snapshot = {
            "wide": {"type": "counter",
                     "series": [{"labels": {}, "value": 123456.0}]},
            "narrow": {"type": "counter",
                       "series": [{"labels": {}, "value": 7.0}]},
        }
        path = tmp_path / "metrics.json"
        path.write_text(json.dumps(snapshot))
        assert main(["stats", str(path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        wide = next(line for line in lines if line.startswith("wide"))
        narrow = next(line for line in lines
                      if line.startswith("narrow"))
        # right-aligned: both value cells end at the same column
        assert wide.rstrip().endswith("123,456")
        assert narrow.rstrip().endswith("7")
        assert len(wide.rstrip()) == len(narrow.rstrip())


class TestExplainValidatesJournal:
    def test_corrupt_journal_exits_two_cleanly(self, journaled_scan,
                                               tmp_path, capsys):
        journal, _, _ = journaled_scan
        corrupt = tmp_path / "corrupt.jsonl"
        corrupt.write_text(journal.read_text()
                           + '{"type":"collection","domains":2}\n')
        code = main(["explain", "any.example",
                     "--journal", str(corrupt)])
        assert code == 2
        err = capsys.readouterr().err
        assert "corrupt journal" in err
        assert "one-summary" in err


class TestScanServeAndHealth:
    BASE = ["scan", "--domains", "120", "--seed", "6",
            "--simulate-network"]

    def test_bad_serve_spec_exits_two(self, capsys):
        code = main(self.BASE + ["--serve", "not-a-port"])
        assert code == 2
        assert "not a port number" in capsys.readouterr().err

    def test_bad_health_spec_exits_two(self, capsys):
        code = main(self.BASE + ["--health", "scan.error_ratio"])
        assert code == 2
        assert "not of the form" in capsys.readouterr().err

    def test_health_pass_prints_ok(self, capsys):
        code = main(self.BASE + ["--health", "scan.failure_ratio<=1.0",
                                 "--health", "snapshot.write_errors=0"])
        assert code == 0
        out = capsys.readouterr().out
        assert "health: ok (2 checks)" in out

    def test_health_breach_exits_three(self, capsys):
        # a scan that succeeds at all breaches "no successful scans"
        code = main(self.BASE + ["--health", "scan.success=0"])
        assert code == 3
        captured = capsys.readouterr()
        assert "health: FAIL scan.success" in captured.err
        assert "rule scan.success=0" in captured.err
        # the run itself still rendered its tables before the verdict
        assert "Table 7" in captured.out

    def test_unmatched_pattern_rule_warns_but_passes(self, capsys):
        code = main(self.BASE + ["--health", "no.such.family.*<=1"])
        assert code == 0
        captured = capsys.readouterr()
        assert "matched no metric" in captured.err
        assert "health: ok" in captured.out

    def test_serve_prints_url_and_preserves_journal_bytes(
        self, tmp_path, capsys
    ):
        plain = tmp_path / "plain.jsonl"
        served = tmp_path / "served.jsonl"
        assert main(self.BASE + ["--journal", str(plain)]) == 0
        capsys.readouterr()
        assert main(self.BASE + ["--journal", str(served),
                                 "--serve", "127.0.0.1:0"]) == 0
        out = capsys.readouterr().out
        assert "serving telemetry on http://127.0.0.1:" in out
        # a scraped run's journal is byte-identical to an unscraped one
        assert served.read_bytes() == plain.read_bytes()

    def test_serve_bind_failure_exits_two(self, tmp_path, capsys):
        import socket

        with socket.socket() as sock:
            sock.bind(("127.0.0.1", 0))
            port = sock.getsockname()[1]
            code = main(self.BASE + ["--serve", f"127.0.0.1:{port}"])
        assert code == 2
        assert "cannot serve" in capsys.readouterr().err


class TestMetricsEndpointMatchesStats:
    def test_scrape_is_byte_identical_to_stats_openmetrics(
        self, tmp_path, capsys
    ):
        import urllib.request

        from repro import obs

        registry = obs.MetricsRegistry()
        registry.counter("scan.success", vantage="us").inc(3)
        registry.histogram("scan.wire_bytes", buckets=(10, 100)).observe(42)
        metrics_file = tmp_path / "metrics.json"
        metrics_file.write_text(registry.to_json())

        with obs.TelemetryServer(registry) as server:
            with urllib.request.urlopen(
                server.url + "/metrics", timeout=5
            ) as response:
                scraped = response.read().decode("utf-8")
        assert main(["stats", str(metrics_file), "--openmetrics"]) == 0
        assert capsys.readouterr().out == scraped


class TestWatchCommand:
    def test_watch_finished_journal_once(self, journaled_scan, capsys):
        journal, _, _ = journaled_scan
        code = main(["watch", str(journal), "--once"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("watch finished")
        assert "100.0%" in out

    def test_watch_missing_journal_exits_two(self, tmp_path, capsys):
        code = main(["watch", str(tmp_path / "nope.jsonl"), "--once"])
        assert code == 2
        assert "watch:" in capsys.readouterr().err

    def test_watch_http_endpoint_once(self, capsys):
        from repro import obs

        registry = obs.MetricsRegistry()
        status = obs.RunStatus()
        status.begin_phase("collect[us]", 10)
        status.advance(4)
        with obs.TelemetryServer(registry, status=status) as server:
            code = main(["watch", server.url, "--once"])
        assert code == 0
        out = capsys.readouterr().out
        assert "watch collect[us] 4/10" in out


class TestScanCacheDir:
    """Warm-start scans through ``--cache-dir`` are byte-identical.

    One cold run populates the store; every warm variant — plain and
    ``--shard-size`` — must reproduce the cold run's journal verdict
    lines, rendered report, and printed tables exactly.
    """

    @staticmethod
    def verdict_lines(journal) -> list[bytes]:
        return [
            line for line in journal.read_bytes().splitlines()
            if line.startswith(b'{"type":"verdict"')
        ]

    @staticmethod
    def tables(text: str) -> str:
        """The deterministic stdout slice: tables, not stat lines."""
        text = text[text.index("chains:"):]
        wrote = text.find("wrote ")
        return text if wrote < 0 else text[:wrote]

    @pytest.fixture(scope="class")
    def runs(self, tmp_path_factory):
        import io
        from contextlib import redirect_stdout

        tmp = tmp_path_factory.mktemp("cli-cache")
        store = tmp / "verdict-cache"
        variants = {
            "cold": [],
            "warm": [],
            "warm-shards": ["--shard-size", "80"],
        }
        outputs, journals, reports = {}, {}, {}
        for name, extra in variants.items():
            journal = tmp / f"{name}.jsonl"
            buffer = io.StringIO()
            with redirect_stdout(buffer):
                assert main(["scan", "--domains", "200", "--seed", "833",
                             "--simulate-network",
                             "--cache-dir", str(store),
                             "--journal", str(journal)] + extra) == 0
                report = tmp / f"{name}-report.json"
                assert main(["report", str(journal),
                             "--out", str(report)]) == 0
            outputs[name] = buffer.getvalue()
            journals[name] = journal
            reports[name] = report.read_bytes()
        return store, outputs, journals, reports

    def test_warm_runs_hit_for_every_chain(self, runs):
        _, outputs, _, _ = runs
        assert " / 0 misses / 0 writes" not in outputs["cold"]
        for name in ("warm", "warm-shards"):
            assert " / 0 misses / 0 writes" in outputs[name], name

    def test_journal_verdicts_byte_identical(self, runs):
        _, _, journals, _ = runs
        cold = self.verdict_lines(journals["cold"])
        assert cold
        for name in ("warm", "warm-shards"):
            assert self.verdict_lines(journals[name]) == cold, name

    def test_reports_byte_identical(self, runs):
        _, _, _, reports = runs
        for name in ("warm", "warm-shards"):
            assert reports[name] == reports["cold"], name

    def test_tables_byte_identical(self, runs):
        _, outputs, _, _ = runs
        cold = self.tables(outputs["cold"])
        for name in ("warm", "warm-shards"):
            assert self.tables(outputs[name]) == cold, name

    def test_manifest_records_cache_identity(self, runs):
        import json

        store, _, journals, reports = runs
        manifest = json.loads(
            journals["cold"].read_bytes().splitlines()[0]
        )
        meta = json.loads((store / "meta.json").read_text())
        assert manifest["cache"] == {
            "store_id": meta["store_id"],
            "schema_version": meta["schema_version"],
        }
        report = json.loads(reports["cold"])
        assert report["identity"]["cache"] == manifest["cache"]

    def test_cache_stats_and_verify(self, runs, capsys):
        store, _, _, _ = runs
        assert main(["cache", "stats", str(store)]) == 0
        out = capsys.readouterr().out
        assert "reports : " in out
        assert main(["cache", "verify", str(store)]) == 0
        assert capsys.readouterr().out.startswith("verify: ok")
        assert main(["cache", "compact", str(store)]) == 0
        assert "compacted" in capsys.readouterr().out

    def test_verify_reports_truncation(self, runs, capsys):
        store, _, _, _ = runs
        segment = sorted((store / "segments").glob("*.seg"))[-1]
        data = segment.read_bytes()
        segment.write_bytes(data + b'{"kind":"report","sch')
        try:
            assert main(["cache", "verify", str(store)]) == 1
            out = capsys.readouterr().out
            assert "torn final record" in out
        finally:
            segment.write_bytes(data)
        assert main(["cache", "verify", str(store)]) == 0

    def test_verify_missing_store_exits_two(self, tmp_path, capsys):
        assert main(["cache", "verify", str(tmp_path / "absent")]) == 2
        assert "cache:" in capsys.readouterr().err


class TestDifferentialCacheDir:
    def test_warm_run_matches_cold(self, tmp_path, capsys):
        base = ["differential", "--domains", "80", "--seed", "833",
                "--cache-dir", str(tmp_path / "vs")]
        assert main(base) == 0
        cold = capsys.readouterr().out
        assert "cold (non-learning) intermediate cache" in cold
        assert main(base) == 0
        warm = capsys.readouterr().out
        assert " / 0 misses / 0 writes" in warm

        def stats(text: str) -> str:
            return text[text.index("chains evaluated"):]

        assert stats(warm) == stats(cold)


def _rewrite_line(path, lines, at, payload) -> None:
    import json

    lines[at] = (json.dumps(payload, separators=(",", ":")) + "\n").encode()
    path.write_bytes(b"".join(lines))


class TestUndecodableStoredPayload:
    """A stored payload that does not decode: ``cache verify`` lists it
    and exits 1, and the run that hits it stops with one line naming
    the store and the chain (exit 2), not a traceback."""

    @pytest.mark.parametrize("command,kind,field", [
        ("scan", "report", "report"),
        ("differential", "outcome", "results"),
    ])
    def test_verify_lists_it_and_the_run_stops(self, command, kind, field,
                                               tmp_path, capsys):
        import json

        store = tmp_path / "vs"
        argv = [command, "--domains", "30", "--seed", "833",
                "--cache-dir", str(store)]
        assert main(argv) == 0
        segment = store / "segments" / "000001.seg"
        lines = segment.read_bytes().splitlines(keepends=True)
        at = next(i for i, line in enumerate(lines)
                  if json.loads(line)["kind"] == kind)
        record = json.loads(lines[at])
        record[field] = 5
        _rewrite_line(segment, lines, at, record)
        chain = json.dumps(record["chain_key"], separators=(",", ":"))
        capsys.readouterr()
        assert main(["cache", "verify", str(store)]) == 1
        assert (f"verify: stored {kind} for chain {chain}: "
                in capsys.readouterr().out)
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(
            f"repro-chain {command}: {store}: stored {kind} for chain "
            f"{chain}: "), err
        assert err.count("\n") == 1, err


class TestStoreRefusedAtOpen:
    """The opener decodes every live stored record, so a store that
    ``cache verify`` lists a payload problem for is refused when it
    opens, even when the run would never have asked for that chain."""

    def test_unserved_undecodable_report_stops_the_scan(self, tmp_path,
                                                        capsys):
        import json

        store = tmp_path / "vs"
        argv = ["scan", "--domains", "30", "--seed", "833",
                "--cache-dir", str(store)]
        assert main(argv) == 0
        segment = store / "segments" / "000001.seg"
        record = json.loads(segment.read_bytes().splitlines()[0])
        record["chain_key"] = ["ff" * 32]
        record["report"] = 5
        with open(segment, "ab") as handle:
            handle.write(json.dumps(record, separators=(",", ":")).encode()
                         + b"\n")
        chain = json.dumps(record["chain_key"], separators=(",", ":"))
        capsys.readouterr()
        assert main(["cache", "verify", str(store)]) == 1
        assert (f"verify: stored report for chain {chain}: "
                in capsys.readouterr().out)
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(
            f"repro-chain scan: {store}: stored report for chain "
            f"{chain}: "), captured.err
        assert captured.err.count("\n") == 1, captured.err
        assert "chains:" not in captured.out
        assert main(["cache", "compact", str(store)]) == 2
        assert capsys.readouterr().err.startswith(
            f"repro-chain cache: {store}: stored report for chain {chain}: ")

    @pytest.mark.parametrize("damage, reason", [
        ("deciding_index", "'deciding_index' must be an integer or null, "
                           "not a boolean"),
        ("chain_key", "segments/000001.seg: record at byte 0 has a "
                      "malformed key (chain_key is not a list of "
                      "fingerprint hex strings)"),
        ("digest", "segments/000001.seg: record at byte 0 has a "
                   "malformed key (digest is not a string)"),
        ("evidence", "'rule_id' must be a string, not an integer"),
    ], ids=["deciding_index", "chain_key", "digest", "evidence"])
    def test_mistyped_record_stops_the_scan(self, tmp_path, capsys, damage,
                                            reason):
        """A stored field of the wrong JSON type, or a key that is not
        fingerprints and a digest string, fails ``cache verify`` and
        stops the scan with one line, where each used to pass."""
        import json

        store = tmp_path / "vs"
        argv = ["scan", "--domains", "30", "--seed", "833",
                "--cache-dir", str(store)]
        assert main(argv) == 0
        segment = store / "segments" / "000001.seg"
        lines = segment.read_bytes().splitlines(keepends=True)
        record = json.loads(lines[0])
        if damage == "chain_key":
            record["chain_key"] = [1, 2]
        elif damage == "digest":
            record["digest"] = 5
        elif damage == "evidence":
            record["report"]["completeness"]["evidence"][0]["rule_id"] = 5
        else:
            record["report"]["leaf"]["deciding_index"] = True
        lines[0] = json.dumps(record, separators=(",", ":")).encode() + b"\n"
        segment.write_bytes(b"".join(lines))
        capsys.readouterr()
        assert main(["cache", "verify", str(store)]) == 1
        assert reason in capsys.readouterr().out
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"repro-chain scan: {store}: ")
        assert reason in captured.err
        assert captured.err.count("\n") == 1, captured.err
        assert "chains:" not in captured.out


class TestOneJournalRead:
    """Resume and every reader read a journal through one checked read,
    so what one refuses they all refuse: one stderr line naming the
    journal, the command's input-error code (3 for ``diff-runs``), and a
    resumed scan stops before it scans or analyses anything."""

    @pytest.fixture(scope="class")
    def journals(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("one-read")
        journals = {"ground-truth": root / "plain.jsonl",
                    "network": root / "network.jsonl"}
        for mode, path in journals.items():
            network = ["--simulate-network"] if mode == "network" else []
            assert main(["scan", "--domains", "30", "--seed", "833",
                         *network, "--journal", str(path)]) == 0
        return journals

    @staticmethod
    def scan_argv(mode, path):
        network = ["--simulate-network"] if mode == "network" else []
        return ["scan", "--domains", "30", "--seed", "833", *network,
                "--journal", str(path)]

    @pytest.mark.parametrize("report_out", [False, True],
                             ids=["plain", "report-out"])
    @pytest.mark.parametrize("mode", ["ground-truth", "network"])
    def test_resume_refuses_a_duplicated_verdict(self, journals, mode,
                                                 report_out, tmp_path,
                                                 capsys):
        lines = journals[mode].read_bytes().splitlines(keepends=True)
        first = next(line for line in lines
                     if line.startswith(b'{"type":"verdict"'))
        path = tmp_path / "run.jsonl"
        path.write_bytes(b"".join(lines) + first)
        damaged = path.read_bytes()
        report = tmp_path / "report.json"
        argv = self.scan_argv(mode, path)
        if report_out:
            argv += ["--report-out", str(report)]
        capsys.readouterr()
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(
            f"repro-chain scan: {path}: corrupt journal: line "
            f"{len(lines) + 1}: duplicate verdict for "), captured.err
        assert captured.err.count("\n") == 1, captured.err
        assert captured.out == ""  # nothing scanned, nothing analysed
        assert path.read_bytes() == damaged
        assert not report.exists()

    @pytest.mark.parametrize("attempts, kind", [("x", "a string"),
                                                ([1], "an array")],
                             ids=["string", "array"])
    @pytest.mark.parametrize("command", ["report", "watch", "diff-runs",
                                         "scan"])
    def test_a_mistyped_scan_field(self, journals, attempts, kind, command,
                                   tmp_path, capsys):
        import json

        source = journals["network"]
        lines = source.read_bytes().splitlines(keepends=True)
        at = next(i for i, line in enumerate(lines)
                  if line.startswith(b'{"type":"scan"'))
        event = json.loads(lines[at])
        event["attempts"] = attempts
        path = tmp_path / "run.jsonl"
        _rewrite_line(path, lines, at, event)
        argv = {
            "report": ["report", str(path)],
            "watch": ["watch", str(path), "--once"],
            "diff-runs": ["diff-runs", str(source), str(path)],
            "scan": self.scan_argv("network", path),
        }[command]
        capsys.readouterr()
        assert main(argv) == (3 if command == "diff-runs" else 2)
        assert capsys.readouterr().err == (
            f"repro-chain {command}: {path}: corrupt journal: line "
            f"{at + 1}: scan 'attempts' must be an integer, not {kind}\n")

    @pytest.mark.parametrize("mode", ["ground-truth", "network"])
    def test_an_undecodable_verdict_outside_the_run(self, journals, mode,
                                                    tmp_path, capsys):
        """Resume never asks for a verdict of a domain outside the run;
        the read-back ``--report-out`` decodes it and refuses it in the
        words of every other reader."""
        import json

        lines = journals[mode].read_bytes().splitlines(keepends=True)
        outsider = json.loads(next(line for line in lines
                                   if line.startswith(b'{"type":"verdict"')))
        outsider.update(domain="outside.example", chain_key=["00" * 32])
        outsider["report"]["leaf"]["deciding_index"] = True
        path = tmp_path / "run.jsonl"
        path.write_bytes(b"".join(lines) + json.dumps(
            outsider, separators=(",", ":")).encode() + b"\n")
        report = tmp_path / "report.json"
        capsys.readouterr()
        assert main(self.scan_argv(mode, path)
                    + ["--report-out", str(report)]) == 2
        assert capsys.readouterr().err == (
            f"repro-chain scan: {path}: verdict for 'outside.example': "
            f"report payload does not decode (TypeError: 'deciding_index' "
            f"must be an integer or null, not a boolean)\n")
        assert not report.exists()

    def test_diff_runs_refuses_a_report_it_cannot_read(self, tmp_path,
                                                       capsys):
        import json

        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"report_version": 1, "vantages": [{}]}))
        assert main(["diff-runs", str(bad), str(bad)]) == 3
        assert capsys.readouterr().err == (
            f"repro-chain diff-runs: {bad}: run report does not decode "
            f"(KeyError: 'vantage')\n")


class TestUndecodableJournalVerdict:
    """A journal verdict that does not decode, lacks its domain, has no
    usable chain key or repeats another: every command reading it
    prints one line, naming the journal once, and exits with its
    input-error code (3 for ``diff-runs``)."""

    @pytest.fixture(scope="class")
    def journal(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("verdicts") / "run.jsonl"
        assert main(["scan", "--domains", "30", "--seed", "833",
                     "--journal", str(path)]) == 0
        return path

    @staticmethod
    def _damage_first_verdict(journal, path, mutate):
        """Copy ``journal`` to ``path`` with ``mutate`` applied to its
        first verdict event; returns that line's index and domain."""
        import json

        lines = journal.read_bytes().splitlines(keepends=True)
        at = next(i for i, line in enumerate(lines)
                  if line.startswith(b'{"type":"verdict"'))
        event = json.loads(lines[at])
        domain = event["domain"]
        mutate(event)
        _rewrite_line(path, lines, at, event)
        return at, domain

    @pytest.mark.parametrize("damage", ["report-does-not-decode",
                                        "verdict-without-domain",
                                        "chain-key-not-a-list",
                                        "deciding-index-true"])
    @pytest.mark.parametrize("command", ["scan", "explain", "report",
                                         "diff-runs", "watch"])
    def test_one_line_and_input_error_code(self, journal, damage, command,
                                           tmp_path, capsys):
        mutate = {
            "report-does-not-decode":
                lambda event: event.update(report={"leaf": 3}),
            "verdict-without-domain": lambda event: event.pop("domain"),
            "chain-key-not-a-list":
                lambda event: event.update(chain_key=5),
            # every reader decodes through the codec resume uses, so a
            # field of the wrong JSON type is refused by all of them
            "deciding-index-true":
                lambda event: event["report"]["leaf"].update(
                    deciding_index=True),
        }[damage]
        path = tmp_path / "run.jsonl"
        _, domain = self._damage_first_verdict(journal, path, mutate)
        argv = {
            "scan": ["scan", "--domains", "30", "--seed", "833",
                     "--journal", str(path)],
            "explain": ["explain", domain, "--journal", str(path)],
            "report": ["report", str(path)],
            "diff-runs": ["diff-runs", str(path), str(path)],
            "watch": ["watch", str(path), "--once"],
        }[command]
        capsys.readouterr()
        assert main(argv) == (3 if command == "diff-runs" else 2)
        err = capsys.readouterr().err
        assert err.startswith(f"repro-chain {command}: "), err
        assert err.count("\n") == 1, err
        assert err.count(str(path)) == 1, err

    @pytest.mark.parametrize("command", ["report", "watch"])
    def test_duplicated_verdict_line(self, journal, command, tmp_path,
                                     capsys):
        """A verdict line appended again is structural damage: the live
        dashboard refuses it as ``report`` does, not counting the chain
        twice."""
        lines = journal.read_bytes().splitlines(keepends=True)
        first = next(line for line in lines
                     if line.startswith(b'{"type":"verdict"'))
        path = tmp_path / "run.jsonl"
        path.write_bytes(b"".join(lines) + first)
        argv = {"report": ["report", str(path)],
                "watch": ["watch", str(path), "--once"]}[command]
        capsys.readouterr()
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"repro-chain {command}: {path}: corrupt "
                              f"journal: line {len(lines) + 1}: duplicate "
                              f"verdict for "), err
        assert err.count("\n") == 1, err

    @pytest.mark.parametrize("damage, reason", [
        (lambda event: event.update(report={"leaf": 3}),
         "KeyError: 'order'"),
        (lambda event: event["report"]["leaf"].update(deciding_index=True),
         "TypeError: 'deciding_index' must be an integer or null, not a "
         "boolean"),
    ], ids=["report-does-not-decode", "deciding-index-true"])
    def test_every_reader_refuses_in_the_same_words(self, journal, damage,
                                                    reason, tmp_path,
                                                    capsys):
        path = tmp_path / "run.jsonl"
        _, domain = self._damage_first_verdict(journal, path, damage)
        refusals = set()
        for argv in (["scan", "--domains", "30", "--seed", "833",
                      "--journal", str(path)],
                     ["explain", domain, "--journal", str(path)],
                     ["report", str(path)],
                     ["diff-runs", str(path), str(path)],
                     ["watch", str(path), "--once"]):
            capsys.readouterr()
            main(argv)
            refusals.add(capsys.readouterr().err.removeprefix(
                f"repro-chain {argv[0]}: "))
        assert refusals == {
            f"{path}: verdict for {domain!r}: report payload does not "
            f"decode ({reason})\n"
        }

    @pytest.mark.parametrize("chain_key", [5, ["not hex"], [7], ["ab"]],
                             ids=["int", "not-hex", "not-str", "short-hex"])
    def test_scan_refuses_a_malformed_chain_key(self, journal, chain_key,
                                                tmp_path, capsys):
        """Resume and the shard fold both turn ``chain_key`` back into
        fingerprints; the journal reader refuses what they cannot."""
        path = tmp_path / "run.jsonl"
        at, _ = self._damage_first_verdict(
            journal, path, lambda event: event.update(chain_key=chain_key))
        capsys.readouterr()
        for network in ([], ["--simulate-network"]):
            assert main(["scan", "--domains", "30", "--seed", "833",
                         *network, "--journal", str(path)]) == 2
            assert capsys.readouterr().err == (
                f"repro-chain scan: {path}: corrupt journal: line "
                f"{at + 1}: verdict 'chain_key' is not a list of "
                f"fingerprint hex strings\n"
            )

    def test_diff_runs_names_a_missing_input_once(self, tmp_path, capsys):
        missing = tmp_path / "absent.jsonl"
        assert main(["diff-runs", str(missing), str(missing)]) == 3
        assert capsys.readouterr().err == (
            f"repro-chain diff-runs: {missing}: No such file or directory\n"
        )


class TestReadersAgreeOnCompliance:
    """A verdict's compliance is the decoded report's own: a chain
    whose completeness reads ``incomplete``, with no violation evidence
    behind it, is non-compliant to a resumed ``scan``, to ``report``
    and to ``diff-runs`` alike."""

    def test_an_incomplete_verdict_without_evidence(self, tmp_path,
                                                     capsys):
        import json

        journal = tmp_path / "run.jsonl"
        scan = ["scan", "--domains", "30", "--seed", "833"]
        assert main([*scan, "--journal", str(journal)]) == 0
        lines = journal.read_bytes().splitlines(keepends=True)
        at, event = next(
            (i, event) for i, event in enumerate(map(json.loads, lines))
            if event["type"] == "verdict"
            and event["report"]["completeness"]["category"] != "incomplete"
            and not any(e["verdict"] == "violation"
                        for section in ("leaf", "order", "completeness")
                        for e in event["report"][section]["evidence"]))
        event["report"]["completeness"]["category"] = "incomplete"
        damaged = tmp_path / "damaged.jsonl"
        _rewrite_line(damaged, lines, at, event)

        capsys.readouterr()
        assert main([*scan, "--journal", str(damaged)]) == 0
        resumed = capsys.readouterr().out
        chains = next(line for line in resumed.splitlines()
                      if line.startswith("chains:"))
        noncompliant = int(chains.split("non-compliant:")[1].split()[0])
        report_json = tmp_path / "report.json"
        assert main(["report", str(damaged),
                     "--json-out", str(report_json)]) == 0
        verdicts = json.loads(report_json.read_text())["verdicts"]
        assert verdicts["total"] - verdicts["compliant"] == noncompliant
        assert main(["report", str(journal),
                     "--json-out", str(report_json)]) == 0
        undamaged = json.loads(report_json.read_text())["verdicts"]
        assert (undamaged["total"] - undamaged["compliant"]
                == noncompliant - 1)
        capsys.readouterr()
        assert main(["diff-runs", str(journal), str(damaged)]) == 1
        assert event["domain"] in capsys.readouterr().out


class TestProcessLevel:
    """Behaviour only a separate interpreter shows."""

    @staticmethod
    def _env():
        import os
        from pathlib import Path

        import repro

        src = str(Path(repro.__file__).resolve().parents[1])
        return {**os.environ, "PYTHONPATH": src}

    def test_scan_imports_no_http_server(self):
        """The telemetry server (and ``http.server``) loads only when a
        command serves telemetry; ``repro.obs`` still resolves it."""
        import subprocess
        import sys

        probe = (
            "import sys\n"
            "import repro.cli, repro.obs, repro.errors, repro.measurement,"
            " repro.webpki\n"
            "assert 'http.server' not in sys.modules\n"
            "from repro import obs\n"
            "assert obs.TelemetryServer.__module__ == 'repro.obs.server'\n"
            "assert callable(obs.parse_serve_address) and obs.RunStatus\n"
            "assert 'http.server' in sys.modules\n"
        )
        done = subprocess.run([sys.executable, "-c", probe],
                              env=self._env(), capture_output=True,
                              text=True, timeout=60)
        assert done.returncode == 0, done.stderr

    def test_scan_imports_no_path_builder(self):
        """The client path builder loads only for the commands and
        tables that run it (Table 9, the figure cases, `differential`),
        not for every scan."""
        import subprocess
        import sys

        probe = (
            "import sys\n"
            "import repro.cli, repro.obs, repro.measurement, repro.webpki\n"
            "assert 'repro.chainbuilder' not in sys.modules\n"
            "from repro.measurement import render_table_9\n"
            "assert 'OpenSSL' in render_table_9({'openssl': {'x': 'y'}})\n"
            "assert 'repro.chainbuilder' in sys.modules\n"
        )
        done = subprocess.run([sys.executable, "-c", probe],
                              env=self._env(), capture_output=True,
                              text=True, timeout=60)
        assert done.returncode == 0, done.stderr

    def test_scan_imports_no_report_or_diff(self):
        """The run report and the run diff load only for the commands
        that build or compare reports (and ``--health``, whose rules
        read both); ``repro.obs`` still resolves their names."""
        import subprocess
        import sys

        probe = (
            "import sys\n"
            "import repro.cli, repro.obs, repro.measurement, repro.webpki\n"
            "lazy = ('repro.obs.report', 'repro.obs.diff', "
            "'repro.obs.health')\n"
            "assert not [m for m in lazy if m in sys.modules], "
            "[m for m in lazy if m in sys.modules]\n"
            "from repro import obs\n"
            "assert obs.report_from_journal.__module__ == 'repro.obs.report'\n"
            "assert obs.diff_reports.__module__ == 'repro.obs.diff'\n"
            "assert obs.parse_health_rule.__module__ == 'repro.obs.health'\n"
            "assert all(m in sys.modules for m in lazy)\n"
            "assert all(hasattr(obs, name) for name in obs.__all__)\n"
        )
        done = subprocess.run([sys.executable, "-c", probe],
                              env=self._env(), capture_output=True,
                              text=True, timeout=60)
        assert done.returncode == 0, done.stderr

    def test_closed_stdout_exits_quietly(self, tmp_path):
        """``repro-chain scan | head`` with the reader gone: exit 1 and
        nothing on stderr, not a ``BrokenPipeError`` traceback."""
        import subprocess
        import sys

        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "scan", "--domains", "30",
             "--seed", "833"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env=self._env(), cwd=tmp_path,
        )
        proc.stdout.close()  # the reader closes before the first line
        try:
            err = proc.stderr.read()
            assert proc.wait(timeout=120) == 1
        finally:
            proc.kill()
            proc.wait()
        assert err == b"", err.decode()
