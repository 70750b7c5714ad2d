"""Sharded-campaign benchmark: bounded peak memory at equal throughput.

Writes ``BENCH_shard.json`` at the repo root.  The whole-corpus
pipeline's peak RSS is dominated by collection — every scan record
carries freshly-decoded certificate objects, so the record/observation
working set grows with the population.  A sharded run
(:func:`repro.measurement.shards.run_sharded`) releases each shard's
records and chains after folding its verdicts, so its peak is bounded
by the shard, not the corpus.  Three things are recorded and gated:

* **Peak-RSS reduction**: each mode runs in a *fresh subprocess* (the
  allocator never returns arenas mid-process, so in-process before /
  after readings would understate the flat peak) and reports its
  ``VmHWM``.  The sharded peak must come in >= 40% below the flat
  peak.
* **Throughput parity**: the sharded run re-does no work — same
  scans, same verdicts — so its best-of-N wall time must stay within
  10% of the flat pipeline's.
* **Parity**: both subprocesses hash their serialised
  ``DatasetReport``; a lower peak is only worth publishing if the
  report is byte-identical.

The snapshot records ``cpu_count``; both modes run in one process.
"""

import json
import os
import pathlib
import subprocess
import sys

BENCH_DOMAINS = int(os.environ.get("REPRO_BENCH_DOMAINS", "20000"))
BENCH_SEED = int(os.environ.get("REPRO_BENCH_SEED", "833"))
ROUNDS = 2

_RUNNER = r"""
import hashlib, json, sys, time

mode, n_domains, seed, shard_size = (
    sys.argv[1], int(sys.argv[2]), int(sys.argv[3]), int(sys.argv[4]),
)

from repro.measurement import Campaign
from repro.webpki import Ecosystem, EcosystemConfig

ecosystem = Ecosystem.generate(
    EcosystemConfig(n_domains=n_domains, seed=seed)
)
campaign = Campaign(ecosystem, network=ecosystem.install())
started = time.perf_counter()
if mode == "flat":
    collection = campaign.collect()
    report, _ = campaign.analyze(collection.observations)
    observations = collection.total_observations
else:
    result = campaign.run_sharded(shard_size)
    report = result.report
    observations = result.total_observations
seconds = time.perf_counter() - started

peak = None
with open("/proc/self/status", encoding="ascii") as handle:
    for line in handle:
        if line.startswith("VmHWM"):
            peak = int(line.split()[1]) * 1024
            break

payload = json.dumps(report.to_dict(), sort_keys=True)
print(json.dumps({
    "seconds": seconds,
    "peak_rss_bytes": peak,
    "observations": observations,
    "total": report.total,
    "noncompliant": report.noncompliant,
    "report_sha": hashlib.sha256(payload.encode()).hexdigest(),
}))
"""


def _run_mode(mode: str, shard_size: int) -> dict:
    env = dict(os.environ)
    src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", _RUNNER, mode, str(BENCH_DOMAINS),
         str(BENCH_SEED), str(shard_size)],
        capture_output=True, text=True, env=env, check=False,
    )
    assert proc.returncode == 0, (
        f"{mode} bench subprocess failed:\n{proc.stderr[-2000:]}"
    )
    return json.loads(proc.stdout.splitlines()[-1])


def test_perf_shard_snapshot():
    """Sharded vs whole-corpus campaign; writes BENCH_shard.json."""
    shard_size = max(1, BENCH_DOMAINS // 10)

    flat = sharded = None
    # Best-of-N with alternating order, as in the other perf benches:
    # each sample is a fresh subprocess, so only scheduler drift —
    # not allocator state — differs between rounds.
    for index in range(ROUNDS):
        order = (("flat", "sharded") if index % 2 == 0
                 else ("sharded", "flat"))
        for mode in order:
            sample = _run_mode(mode, shard_size)
            best = flat if mode == "flat" else sharded
            if best is None or sample["seconds"] < best["seconds"]:
                if mode == "flat":
                    flat = sample
                else:
                    sharded = sample

    # Parity first: a smaller peak is not a result if the report
    # differs.  VmHWM is identical-input deterministic enough to
    # compare only the report hash, which covers every verdict.
    assert sharded["report_sha"] == flat["report_sha"], (
        "sharded report diverged from the whole-corpus report"
    )
    assert sharded["observations"] == flat["observations"]
    assert sharded["total"] == flat["total"]

    reduction = 1.0 - sharded["peak_rss_bytes"] / flat["peak_rss_bytes"]
    slowdown = sharded["seconds"] / flat["seconds"]
    snapshot = {
        "bench": "shard",
        "domains": BENCH_DOMAINS,
        "shard_size": shard_size,
        "shards": -(-BENCH_DOMAINS // shard_size),
        "cpu_count": os.cpu_count(),
        "observations": sharded["observations"],
        "flat_seconds": round(flat["seconds"], 6),
        "sharded_seconds": round(sharded["seconds"], 6),
        "slowdown": round(slowdown, 3),
        "flat_peak_rss_bytes": flat["peak_rss_bytes"],
        "sharded_peak_rss_bytes": sharded["peak_rss_bytes"],
        "peak_rss_reduction_pct": round(100 * reduction, 1),
        "flat_scans_per_second": round(
            2 * BENCH_DOMAINS / flat["seconds"], 1
        ),
        "sharded_scans_per_second": round(
            2 * BENCH_DOMAINS / sharded["seconds"], 1
        ),
    }

    assert reduction >= 0.40, (
        f"sharded peak RSS {sharded['peak_rss_bytes'] / 1e6:.0f}MB is "
        f"only {100 * reduction:.0f}% below the flat peak "
        f"{flat['peak_rss_bytes'] / 1e6:.0f}MB (need >= 40%); shards "
        "are not releasing their records"
    )
    assert slowdown <= 1.10, (
        f"sharded run {slowdown:.2f}x the flat pipeline (limit 1.10); "
        "shard boundaries are costing real work"
    )

    out_path = pathlib.Path(__file__).resolve().parent.parent / (
        "BENCH_shard.json"
    )
    out_path.write_text(json.dumps(snapshot, indent=2) + "\n",
                        encoding="utf-8")
    print(f"\n{json.dumps(snapshot, indent=2)}")
