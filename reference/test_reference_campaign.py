"""The reference campaign, end to end: ``python -m pytest -q reference/``.

The seed-833, 2,000-domain campaign of the paper's §3.1 pipeline (two
vantages, union merge, rules R1–R3) runs through ``python -m repro.cli``
as a user runs it: served and scraped mid-run, sharded, and cold then
warm through a verdict store; each run must diff clean against
``baselines/report-baseline.json``, and the differential harness must
print ``baselines/differential-summary.txt``.  Damaged copies of the
run's journal, report and store are then fed to every reader, which
must refuse each in one line.

The module sits outside tier-1's ``testpaths``, as ``bench/`` does: it
spends about 16 s (2 vCPUs) in CLI subprocesses.  It empties
``artifacts/`` first (a journal left there would be resumed) and leaves
there what the runs wrote.  Every command runs from the repo root with
``src/`` first on ``PYTHONPATH``, so nothing needs installing.  Session
fixtures run each campaign once; tests in this file run in its order,
so the damaged stores copy the cold store before the warm run reads it.
"""

from __future__ import annotations

import difflib
import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
import time
import urllib.request
from pathlib import Path
from types import SimpleNamespace

import pytest

ROOT = Path(__file__).resolve().parents[1]
ARTIFACTS = ROOT / "artifacts"
SRC = str(ROOT / "src")

sys.path[:0] = [SRC, str(ROOT)]
from repro import obs  # noqa: E402
from repro.measurement import Campaign  # noqa: E402
from repro.measurement.campaign import VANTAGE_AU  # noqa: E402
from repro.net import FaultPlan  # noqa: E402
from repro.webpki import Ecosystem, EcosystemConfig  # noqa: E402
from tests.damage import (  # noqa: E402
    STORE_DAMAGES,
    first_event,
    rewrite_first_record,
    rewrite_line,
)

ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    filter(None, [SRC, os.environ.get("PYTHONPATH")]))}

#: The reference campaign, before the outputs each run asks for.
SCAN = ("scan", "--domains", "2000", "--seed", "833", "--simulate-network")

#: The baseline gate: the metric families the seeded simulation fixes
#: (scan outcomes, compliance totals) may not drift at all; phase
#: timings stay ungated.
THRESHOLDS = ("--threshold", "scan.success*=0",
              "--threshold", "scan.failure*=0",
              "--threshold", "compliance.*=0",
              "--threshold", "campaign.chains_analyzed=0")


def cli(*argv: str) -> subprocess.CompletedProcess:
    """``python -m repro.cli ARGV`` from the repo root, output captured."""
    return subprocess.run([sys.executable, "-m", "repro.cli", *argv],
                          cwd=ROOT, env=ENV, capture_output=True,
                          timeout=600)


def cli_ok(*argv: str) -> bytes:
    """Run a command that must exit 0; returns its stdout."""
    result = cli(*argv)
    assert result.returncode == 0, (argv, result.stdout.decode(),
                                    result.stderr.decode())
    return result.stdout


@pytest.fixture(scope="session")
def artifacts() -> Path:
    if ARTIFACTS.exists():
        shutil.rmtree(ARTIFACTS)
    ARTIFACTS.mkdir()
    return ARTIFACTS


# ---------------------------------------------------------------------------
# The served reference campaign
# ---------------------------------------------------------------------------

def _telemetry_url(scan: subprocess.Popen, log: Path) -> str:
    """The endpoint the scan prints before it scans, polled from its log
    every 0.2 s for up to 20 s while the scan lives."""
    for _ in range(100):
        found = re.search(rb"^serving telemetry on (http:.*)$",
                          log.read_bytes(), re.MULTILINE)
        if found:
            return found.group(1).decode()
        assert scan.poll() is None, log.read_text()
        time.sleep(0.2)
    raise AssertionError("no telemetry URL")


def _fetch(url: str) -> bytes:
    """The body of ``url``; an HTTP error status raises."""
    with urllib.request.urlopen(url, timeout=30) as response:
        return response.read()


@pytest.fixture(scope="session")
def served(artifacts):
    """The reference campaign, serving telemetry, with ``/metrics``,
    ``/healthz`` and ``/progress`` scraped while it runs; its stdout and
    stderr go to ``scan.log``."""
    log = artifacts / "scan.log"
    argv = [*SCAN, "--journal", "artifacts/campaign.jsonl",
            "--metrics-out", "artifacts/metrics.json",
            "--openmetrics-out", "artifacts/metrics.om",
            "--trace-out", "artifacts/trace.json",
            "--report-out", "artifacts/report.json",
            "--serve", "127.0.0.1:0",
            "--health", "scan.error_ratio<=0.05",
            "--health", "breaker.tripped=0"]
    with open(log, "wb") as out, subprocess.Popen(
        [sys.executable, "-m", "repro.cli", *argv], cwd=ROOT, env=ENV,
        stdout=out, stderr=subprocess.STDOUT,
    ) as scan:
        try:
            url = _telemetry_url(scan, log)
            scrapes = {route: _fetch(url + route)
                       for route in ("/metrics", "/healthz", "/progress")}
        finally:
            try:
                scan.wait(timeout=600)
            except subprocess.TimeoutExpired:
                scan.kill()
    (artifacts / "metrics-midrun.om").write_bytes(scrapes["/metrics"])
    (artifacts / "healthz-midrun.json").write_bytes(scrapes["/healthz"])
    return SimpleNamespace(code=scan.returncode, log=log.read_text(),
                           scrapes=scrapes)


def test_the_served_scan_exits_0_on_a_fresh_journal(served):
    assert served.code == 0, served.log
    assert "journal: resuming" not in served.log


def test_midrun_metrics_are_openmetrics(served):
    lines = served.scrapes["/metrics"].split(b"\n")
    assert b"# EOF" in lines
    assert any(line.startswith(b"# TYPE ") for line in lines)


def test_midrun_healthz_is_ok(served):
    payload = json.loads(served.scrapes["/healthz"])
    assert payload["ok"], payload


def test_midrun_progress_is_json(served):
    json.loads(served.scrapes["/progress"])


def test_the_report_renders(served):
    cli_ok("report", "artifacts/campaign.jsonl",
           "--metrics", "artifacts/metrics.json",
           "--out", "artifacts/report.html")


def test_every_report_phase_is_a_trace_span(served):
    phases = {phase["phase"] for phase in json.loads(
        (ARTIFACTS / "report.json").read_text())["phases"]}
    spans = {event["name"] for event in json.loads(
        (ARTIFACTS / "trace.json").read_text())}
    assert phases and phases <= spans, sorted(phases - spans)


# ---------------------------------------------------------------------------
# Damaged copies of the run: every reader refuses them in one line
# ---------------------------------------------------------------------------

#: Damaged copy -> how it is made from the campaign journal's lines.
JOURNAL_DAMAGES = {
    # a flag where the first verdict's leaf index belongs
    "damaged-campaign.jsonl": lambda lines: rewrite_line(
        lines, first_event(lines, "verdict"),
        lambda event: event["report"]["leaf"].update(deciding_index=True)),
    # an array where the first scan's attempt count belongs
    "attempts-campaign.jsonl": lambda lines: rewrite_line(
        lines, first_event(lines, "scan"),
        lambda event: event.update(attempts=[1])),
    # the first verdict line appended again
    "duplicated-campaign.jsonl": lambda lines: b"".join(lines) + lines[
        first_event(lines, "verdict")],
}


def _damaged_copy(name: str) -> bytes:
    if name == "vantage-report.json":  # a run report whose first vantage is {}
        payload = json.loads((ARTIFACTS / "report.json").read_text())
        payload["vantages"][0] = {}
        return json.dumps(payload).encode()
    lines = (ARTIFACTS / "campaign.jsonl").read_bytes().splitlines(
        keepends=True)
    return JOURNAL_DAMAGES[name](lines)


#: (damaged copy, reader, exit code): the reader's input-error code, 3
#: for ``diff-runs``; a resumed scan refuses before it scans anything.
PROBES = [
    ("damaged-campaign.jsonl", "report", 2),
    ("damaged-campaign.jsonl", "diff-runs", 3),
    ("damaged-campaign.jsonl", "watch", 2),
    ("damaged-campaign.jsonl", "scan", 2),
    ("attempts-campaign.jsonl", "report", 2),
    ("attempts-campaign.jsonl", "diff-runs", 3),
    ("attempts-campaign.jsonl", "watch", 2),
    ("duplicated-campaign.jsonl", "report", 2),
    ("duplicated-campaign.jsonl", "watch", 2),
    ("duplicated-campaign.jsonl", "scan", 2),
    ("vantage-report.json", "baseline", 3),
]


@pytest.mark.parametrize(
    "name, reader, code", PROBES,
    ids=[f"{name}-{reader}" for name, reader, _ in PROBES])
def test_a_damaged_run_is_refused_in_one_line(served, name, reader, code):
    copy = f"artifacts/{name}"
    argv = {
        "report": ["report", copy],
        "diff-runs": ["diff-runs", "artifacts/campaign.jsonl", copy],
        "watch": ["watch", copy, "--once"],
        "scan": [*SCAN, "--report-out", "artifacts/resumed-report.json",
                 "--journal", copy],
        "baseline": ["diff-runs", "baselines/report-baseline.json", copy],
    }[reader]
    (ROOT / copy).write_bytes(_damaged_copy(name))
    try:
        result = cli(*argv)
    finally:
        (ROOT / copy).unlink()
    assert result.returncode == code, result.stderr.decode()
    assert result.stderr.count(b"\n") == 1, result.stderr.decode()
    assert result.stdout == b""
    assert not (ARTIFACTS / "resumed-report.json").exists()


@pytest.mark.parametrize("percent", [20, 60])
def test_a_journal_cut_mid_line_resumes_to_the_whole(served, percent):
    """A crash can stop the journal at any byte: resuming the campaign
    on a copy cut there finishes the uninterrupted journal."""
    journal = (ARTIFACTS / "campaign.jsonl").read_bytes()
    cut = f"artifacts/campaign-cut-{percent}.jsonl"
    (ROOT / cut).write_bytes(journal[:len(journal) * percent // 100])
    cli_ok(*SCAN, "--journal", cut)
    assert (ROOT / cut).read_bytes() == journal


# ---------------------------------------------------------------------------
# The sharded, cold-store and warm-store runs
# ---------------------------------------------------------------------------

@pytest.fixture(scope="session")
def sharded(artifacts):
    cli_ok(*SCAN, "--shard-size", "500",
           "--journal", "artifacts/sharded-campaign.jsonl",
           "--report-out", "artifacts/sharded-report.json")


@pytest.fixture(scope="session")
def cold_store(artifacts) -> str:
    cli_ok(*SCAN, "--cache-dir", "artifacts/verdict-cache",
           "--journal", "artifacts/cold-cache-campaign.jsonl")
    return "artifacts/verdict-cache"


def test_the_cold_store_checks_clean(cold_store):
    cli_ok("cache", "stats", cold_store)
    cli_ok("cache", "verify", cold_store)


@pytest.mark.parametrize("damage", list(STORE_DAMAGES))
def test_a_damaged_store_is_refused(cold_store, damage):
    """A copy of the cold store with one record damaged: ``cache
    verify`` exits 1, and the scan exits 2 with one line on stderr."""
    copy = ARTIFACTS / "damaged-cache"
    shutil.copytree(ROOT / cold_store, copy)
    try:
        rewrite_first_record(copy, STORE_DAMAGES[damage])
        verify = cli("cache", "verify", "artifacts/damaged-cache")
        scan = cli(*SCAN, "--cache-dir", "artifacts/damaged-cache")
    finally:
        shutil.rmtree(copy)
    (ARTIFACTS / "damaged-cache-scan.err").write_bytes(scan.stderr)
    assert verify.returncode == 1, verify.stdout.decode()
    assert scan.returncode == 2, scan.stderr.decode()
    assert scan.stderr.count(b"\n") == 1, scan.stderr.decode()


@pytest.fixture(scope="session")
def warm_log(cold_store) -> bytes:
    stdout = cli_ok(*SCAN, "--cache-dir", cold_store,
                    "--journal", "artifacts/warm-cache-campaign.jsonl",
                    "--report-out", "artifacts/warm-cache-report.json")
    (ARTIFACTS / "warm-cache-scan.log").write_bytes(stdout)
    return stdout


def test_the_warm_run_is_served_whole(warm_log):
    assert b" / 0 misses / 0 writes" in warm_log


def test_the_warm_run_journals_the_cold_verdicts(warm_log):
    """Every verdict the warm run journals is the cold run's line, byte
    for byte."""
    verdicts = {}
    for run in ("cold", "warm"):
        journal = ARTIFACTS / f"{run}-cache-campaign.jsonl"
        verdicts[run] = b"".join(
            line for line in journal.read_bytes().splitlines(keepends=True)
            if line.startswith(b'{"type":"verdict"'))
        (ARTIFACTS / f"{run}-cache-verdicts.jsonl").write_bytes(verdicts[run])
    assert verdicts["cold"]
    assert verdicts["warm"] == verdicts["cold"]


def test_compaction_writes_the_segments_joined(warm_log):
    """Every record round-trips through the shared decode byte for byte:
    compaction re-encodes the decoded index, and the one segment it
    writes is the segments it replaces, joined."""
    segments = ARTIFACTS / "verdict-cache" / "segments"
    joined = b"".join(path.read_bytes()
                      for path in sorted(segments.glob("*.seg")))
    (ARTIFACTS / "verdict-cache-joined.seg").write_bytes(joined)
    cli_ok("cache", "compact", "artifacts/verdict-cache")
    compacted = sorted(segments.glob("*.seg"))
    assert len(compacted) == 1, compacted
    assert compacted[0].read_bytes() == joined


#: (the fixture that runs it, its run report, where its diff goes)
RUNS = {
    "campaign": ("served", "report.json", "report-diff.json"),
    "sharded": ("sharded", "sharded-report.json", "sharded-diff.json"),
    "warm-cache": ("warm_log", "warm-cache-report.json",
                   "warm-cache-diff.json"),
}


@pytest.mark.parametrize("run", list(RUNS))
def test_the_run_diffs_clean_against_the_baseline(run, request):
    """No per-domain verdict flips and no gated metric drifts: the only
    expected drift is phase timings and the sharded journal's shard
    events."""
    fixture, report, diff = RUNS[run]
    request.getfixturevalue(fixture)
    cli_ok("diff-runs", "baselines/report-baseline.json",
           f"artifacts/{report}", *THRESHOLDS,
           "--json-out", f"artifacts/{diff}")


# ---------------------------------------------------------------------------
# The differential harness and a degraded campaign
# ---------------------------------------------------------------------------

@pytest.fixture(scope="session")
def differential(artifacts) -> bytes:
    """The paper's §5.2 run: eight client path builders over the
    reference corpus."""
    stdout = cli_ok("differential", "--domains", "2000", "--seed", "833",
                    "--journal", "artifacts/differential.jsonl")
    (artifacts / "differential.log").write_bytes(stdout)
    return stdout


def test_the_differential_summary_is_the_baseline(differential):
    """The printed pass rates and I-1..I-4 attribution counts, line for
    line."""
    expected = (ROOT / "baselines" / "differential-summary.txt").read_bytes()
    assert differential == expected, "".join(difflib.unified_diff(
        expected.decode().splitlines(keepends=True),
        differential.decode().splitlines(keepends=True),
        "baselines/differential-summary.txt", "artifacts/differential.log"))


def test_the_differential_journal_hashes_to_the_baseline(differential):
    """Every chain's per-client results and attribution evidence, as
    ``sha256sum -c baselines/differential-journal.sha256`` checks them
    from the repo root."""
    lines = (ROOT / "baselines" / "differential-journal.sha256").read_text(
        ).splitlines()
    assert lines
    for line in lines:
        entry = re.fullmatch(r"([0-9a-f]{64}) [ *](.+)", line)
        assert entry, f"improperly formatted line {line!r}"
        digest, name = entry.groups()
        assert hashlib.sha256((ROOT / name).read_bytes()).hexdigest() == \
            digest, name


def test_a_vantage_outage_degrades_the_campaign_once(artifacts):
    """One vantage down for the whole sweep: the campaign completes,
    labels itself degraded and journals the degradation exactly once,
    through ``run_sharded`` with one shard of the corpus, the call
    ``scan --simulate-network`` makes."""
    ecosystem = Ecosystem.generate(EcosystemConfig(n_domains=300, seed=833))
    network = ecosystem.install()
    network.set_fault_plan(FaultPlan().vantage_outage(VANTAGE_AU, start=0.0))
    campaign = Campaign(ecosystem, network=network)
    path = artifacts / "degraded-campaign.jsonl"
    journal = obs.RunJournal.open(path, campaign.manifest())
    result = campaign.run_sharded(len(ecosystem.deployments),
                                  journal=journal, breaker_threshold=10)
    journal.close()
    assert result.degraded, "outage must mark the campaign degraded"
    assert VANTAGE_AU in result.degraded_vantages
    _, events = obs.read_journal(path)
    degradations = [e for e in events if e["type"] == "degradation"]
    assert len(degradations) == 1, degradations
    (collection,) = [e for e in events if e["type"] == "collection"]
    assert collection["degraded"] is True, collection
