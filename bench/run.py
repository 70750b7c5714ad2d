"""CLI-level benchmark of the reference campaign and its neighbours.

Every measured run is a fresh ``python bench/launch.py`` subprocess that
calls ``repro.cli.main(argv)`` once; wall time, CPU time and peak RSS
come from ``os.wait4`` in this process.  Times are reported in
reference seconds: the launcher samples the speed of the CPU it runs
on, and each measured time is scaled by the reference speed over the
sampled one (:meth:`Bench.normalise`).  Outputs are checked before any
number is reported.

Full protocol (all four workloads)::

    python3 bench/run.py --seed 833 [--reps 15] [--quick] [--out R.json]

  1. one correctness warm-up round,
  2. ``--reps`` timed rounds, tracing off; each round runs every
     workload once and the first workload rotates round by round,
  3. one traced round,
  4. every metric printed by name with its unit,
  5. a results JSON written (default ``.bench_work/results.json``),
     which ``bench/compare.py`` compares.

Single workload, time-bounded (the form ``BENCHMARK.json`` names)::

    python3 bench/run.py --workload campaign --seed 7 --seconds 20 --trace 0

runs the warm-up check, then repeats the workload for ``--seconds``
seconds, at least twice (traced when ``--trace 1``), starting a run
only when it should end in time, and prints, as its last line, one
JSON object with the medians of the end-to-end (or per-layer) metrics
listed in ``BENCHMARK.json``.

Exit status: 0 when every run passed its checks, 1 when one failed,
2 when the repository sources are missing or the arguments are wrong.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from launch import SPIN_REFERENCE_NS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"
SPEC = ROOT / "BENCHMARK.json"
BASELINE = ROOT / "baselines" / "report-baseline.json"
BASELINE_SEED = 833
#: the thresholds CI gates the reference campaign's report with
BASELINE_THRESHOLDS = ("scan.success*=0", "scan.failure*=0",
                       "compliance.*=0", "campaign.chains_analyzed=0")

WORKLOADS = ("campaign", "analyze-cold", "analyze-warm", "differential")
DOMAINS = {"campaign": 2000, "analyze-cold": 10000,
           "analyze-warm": 10000, "differential": 5000}
QUICK_DOMAINS = {"campaign": 120, "analyze-cold": 300,
                 "analyze-warm": 300, "differential": 150}
#: runs measured per --workload invocation even when --seconds is short
MIN_REPS = 2
#: every run must finish within this; a slower one is killed and fails
RUN_LIMIT_S = 30.0

#: a fixed hash seed removes one source of run-to-run variation in
#: set and dict layouts; outputs do not depend on it
CHILD_ENV = {**os.environ, "PYTHONHASHSEED": "0"}

JOURNAL = "journal.jsonl"
REPORT = "report.json"
STORE = "store"
WARM_STORE = "warm-store"

_VERDICT_CACHE = re.compile(
    rb"^verdict cache: ([\d,]+) hits / ([\d,]+) misses", re.M)
_VERDICT_STORE = re.compile(
    rb"^verdict store: ([\d,]+) hits / ([\d,]+) misses / ([\d,]+) writes$",
    re.M)
_SCAN_SUMMARY = re.compile(rb"^chains: [1-9][\d,]*  non-compliant: ", re.M)
#: a line each workload's stdout must contain
_EXPECTED = {
    "campaign": _SCAN_SUMMARY,
    "analyze-cold": _SCAN_SUMMARY,
    "analyze-warm": _SCAN_SUMMARY,
    "differential": re.compile(rb"^chains evaluated : [1-9][\d,]* x 8 clients",
                               re.M),
}


def cli_argv(workload: str, domains: int, seed: int) -> list[str]:
    """The CLI arguments of one run; worker flags stay at their defaults."""
    common = ["--domains", str(domains), "--seed", str(seed)]
    if workload == "campaign":
        return ["scan", *common, "--simulate-network",
                "--journal", JOURNAL, "--report-out", REPORT]
    if workload in ("analyze-cold", "analyze-warm"):
        # identical argv: the warm run finds a filled store at STORE
        return ["scan", *common, "--cache-dir", STORE, "--journal", JOURNAL]
    return ["differential", *common]


@dataclass
class Run:
    """One subprocess run and what its checks found.

    ``wall_s``, ``cpu_s``, ``setup_s`` and ``domains_per_s`` are in
    reference seconds: the ``measured_*`` times, less the launcher's
    speed-sampling spins, times ``speed`` (the reference spin time over
    the mean spin time of this run).  A traced run is not sampled and
    has measured times only.
    """

    workload: str
    tag: str
    code: int = -1
    wall_s: float = math.nan
    cpu_s: float = math.nan
    peak_rss_mb: float = math.nan
    setup_s: float = math.nan
    domains_per_s: float = math.nan
    measured_wall_s: float = math.nan
    measured_cpu_s: float = math.nan
    measured_setup_s: float = math.nan
    speed: float = math.nan
    main_s: float = math.nan
    mode: str = "unknown"
    digest: str = ""
    problems: list[str] = field(default_factory=list)
    layers: dict[str, float] | None = None

    @property
    def ok(self) -> bool:
        return not self.problems


def _tree_digest(path: Path) -> str:
    digest = hashlib.sha256()
    for item in sorted(path.rglob("*")):
        if item.is_file():
            digest.update(str(item.relative_to(path)).encode() + b"\0")
            digest.update(item.read_bytes())
    return digest.hexdigest()


def _tree_bytes(path: Path) -> int:
    return sum(item.stat().st_size for item in path.rglob("*")
               if item.is_file())


def _verdict_lines(journal: Path) -> bytes:
    if not journal.exists():
        return b""
    with journal.open("rb") as handle:
        return b"".join(line for line in handle
                        if line.startswith(b'{"type":"verdict"'))


def _from_chains_line(stdout: bytes) -> bytes:
    at = stdout.find(b"chains: ")
    return stdout[at:] if at >= 0 else b""


def _ratio(match: re.Match | None) -> float:
    if match is None:
        return 0.0
    hits, misses = (int(group.replace(b",", b"")) for group in
                    match.groups()[:2])
    return hits / (hits + misses) if hits + misses else 0.0


def spawn(argv: list[str], cwd: Path, *, traced: bool) -> tuple:
    """Run the launcher once; returns (code, wall_ns, start_ns, rusage)."""
    command = [sys.executable, str(BENCH / "launch.py"), "probe.json"]
    if traced:
        command.append("--trace")
    command += ["--", *argv]
    with open(cwd / "stdout.txt", "wb") as out, \
            open(cwd / "stderr.txt", "wb") as err:
        start = time.monotonic_ns()
        proc = subprocess.Popen(command, cwd=cwd, env=CHILD_ENV,
                                stdin=subprocess.DEVNULL, stdout=out,
                                stderr=err)
        watchdog = threading.Timer(RUN_LIMIT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall_ns = time.monotonic_ns() - start
        # wait4 reaped the child; tell Popen so it never waits again
        proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall_ns, start, usage


def layer_metrics(layers: dict, stdout: bytes, journal: Path,
                  store: Path) -> dict[str, float]:
    """Flatten a traced probe into per-layer metric values.

    Every traced function gets every statistic; ``BENCHMARK.json``'s
    ``per_layer`` list picks the ones reported.
    """
    metrics: dict[str, float] = {}
    for name, stats in layers["functions"].items():
        for statistic in ("calls", "self_s", "total_s", "p50_us", "p99_us"):
            metrics[f"{name}.{statistic}"] = stats[statistic]
    metrics["x509.decode.distinct_ratio"] = layers["decode_distinct_ratio"]
    metrics["net.scan.success_ratio"] = layers["scan_success_ratio"]
    metrics["net.scan.attempts_per_scan"] = (
        layers["scan_attempts_per_scan"])
    metrics["parallel.cache_hit_ratio"] = _ratio(
        _VERDICT_CACHE.search(stdout))
    metrics["store.hit_ratio"] = _ratio(_VERDICT_STORE.search(stdout))
    metrics["store.disk_bytes"] = (_tree_bytes(store) if store.exists()
                                   else 0)
    metrics["journal.bytes"] = (journal.stat().st_size
                                if journal.exists() else 0)
    metrics["cli.main_s"] = layers["main_s"]
    metrics["cli.other_s"] = layers["other_s"]
    metrics["cli.other_ratio"] = layers["other_s"] / layers["main_s"]
    return metrics


class Bench:
    """Runs workloads in fresh subprocesses and checks their outputs."""

    def __init__(self, seed: int, quick: bool) -> None:
        self.seed = seed
        self.quick = quick
        self.sizes = QUICK_DOMAINS if quick else DOMAINS
        #: workload -> digest of its warm-up run's outputs
        self.digests: dict[str, str] = {}
        self.runs: list[Run] = []
        self.cold_reference: tuple[bytes, bytes] | None = None

    def workdir(self, workload: str) -> Path:
        return WORK / workload

    def argv(self, workload: str) -> list[str]:
        return cli_argv(workload, self.sizes[workload], self.seed)

    def run(self, workload: str, tag: str, *, traced: bool = False,
            keep_store: Path | None = None) -> Run:
        """Run ``workload`` once in a fresh directory and check it.

        ``keep_store`` moves the run's verdict store there afterwards
        (the cold warm-up fills the warm workload's store this way).
        """
        rundir = self.workdir(workload) / tag
        shutil.rmtree(rundir, ignore_errors=True)
        rundir.mkdir(parents=True)
        warm_store = self.workdir(workload) / WARM_STORE
        run = Run(workload, tag)
        if workload == "analyze-warm":
            if not warm_store.is_dir():
                run.problems.append("no filled store: the cold run failed")
                self.runs.append(run)
                return run
            warm_store.rename(rundir / STORE)
            store_before = _tree_digest(rundir / STORE)
        try:
            code, wall_ns, start_ns, usage = spawn(
                self.argv(workload), rundir, traced=traced)
        finally:
            if workload == "analyze-warm":
                (rundir / STORE).rename(warm_store)
        run.code = code
        run.measured_wall_s = wall_ns / 1e9
        run.measured_cpu_s = usage.ru_utime + usage.ru_stime
        run.peak_rss_mb = usage.ru_maxrss / 1024
        stdout = (rundir / "stdout.txt").read_bytes()
        if run.measured_wall_s > RUN_LIMIT_S:
            run.problems.append(f"took {run.measured_wall_s:.1f} s, over "
                                f"the {RUN_LIMIT_S:.0f} s limit")
        if code != 0:
            run.problems.append(f"exit code {code}; see {rundir}/stderr.txt")
        probe_path = rundir / "probe.json"
        if probe_path.exists():
            probe = json.loads(probe_path.read_text(encoding="utf-8"))
            run.main_s = probe["main_s"]
            run.mode = probe["mode"]
            if "generate_end_ns" in probe:
                run.measured_setup_s = ((probe["generate_end_ns"] - start_ns
                                         + probe["install_ns"]) / 1e9)
            else:
                run.problems.append("Ecosystem.generate never returned")
            if not traced:
                self.normalise(run, probe["spin"])
            if traced:
                store = (warm_store if workload == "analyze-warm"
                         else rundir / STORE)
                run.layers = layer_metrics(probe["layers"], stdout,
                                           rundir / JOURNAL, store)
        else:
            run.problems.append("launcher wrote no probe")
        if not _EXPECTED[workload].search(stdout):
            run.problems.append("expected output line missing")
        verdicts = _verdict_lines(rundir / JOURNAL)
        run.digest = hashlib.sha256(
            hashlib.sha256(stdout).digest() + hashlib.sha256(verdicts).digest()
        ).hexdigest()
        self.check(run, rundir, stdout, verdicts)
        if workload == "analyze-warm" and store_before != _tree_digest(
                warm_store):
            run.problems.append("warm run changed the verdict store")
        for leftover in (JOURNAL, REPORT):
            (rundir / leftover).unlink(missing_ok=True)
        if keep_store is not None and (rundir / STORE).is_dir():
            shutil.rmtree(keep_store, ignore_errors=True)
            keep_store.parent.mkdir(parents=True, exist_ok=True)
            (rundir / STORE).rename(keep_store)
        shutil.rmtree(rundir / STORE, ignore_errors=True)
        self.runs.append(run)
        return run

    def normalise(self, run: Run, spin: dict) -> None:
        """Convert the measured times to reference seconds.

        Set-up and the rest of the run each use the speed sampled
        during them; CPU time, which has no phases, uses the whole run's.
        """
        setup, rest = spin["setup"], spin["rest"]
        if not (setup["count"] and rest["count"]):
            run.problems.append("the launcher took too few speed samples")
            return
        spins_s = (setup["total_ns"] + rest["total_ns"]) / 1e9
        run.speed = (SPIN_REFERENCE_NS * (setup["count"] + rest["count"])
                     / (setup["total_ns"] + rest["total_ns"]))
        run.setup_s = ((run.measured_setup_s - setup["total_ns"] / 1e9)
                       * SPIN_REFERENCE_NS * setup["count"]
                       / setup["total_ns"])
        processing_s = ((run.measured_wall_s - run.measured_setup_s
                         - rest["total_ns"] / 1e9)
                        * SPIN_REFERENCE_NS * rest["count"] / rest["total_ns"])
        run.wall_s = run.setup_s + processing_s
        run.cpu_s = (run.measured_cpu_s - spins_s) * run.speed
        run.domains_per_s = self.sizes[run.workload] / processing_s

    def check(self, run: Run, rundir: Path, stdout: bytes,
              verdicts: bytes) -> None:
        """Workload-specific output checks; the warm-up sets references."""
        workload = run.workload
        if workload == "analyze-warm":
            match = _VERDICT_STORE.search(stdout)
            if match is None or match.group(2) != b"0" \
                    or match.group(3) != b"0":
                run.problems.append("warm run missed or wrote the store")
            if run.tag == "warmup" and self.cold_reference != (
                    _from_chains_line(stdout), verdicts):
                run.problems.append(
                    "warm stdout/journal verdicts differ from cold")
        if run.tag == "warmup":
            if workload == "analyze-cold" and run.ok:
                self.cold_reference = (_from_chains_line(stdout), verdicts)
            if (workload == "campaign" and self.seed == BASELINE_SEED
                    and not self.quick):
                self.check_baseline(run, rundir)
            self.digests[workload] = run.digest
        elif run.digest != self.digests.get(workload):
            run.problems.append("output digest differs from the warm-up run")

    def check_baseline(self, run: Run, rundir: Path) -> None:
        """``diff-runs`` the campaign report against the committed baseline."""
        argv = ["diff-runs", str(BASELINE), REPORT]
        for threshold in BASELINE_THRESHOLDS:
            argv += ["--threshold", threshold]
        code = subprocess.run(
            [sys.executable, str(BENCH / "launch.py"), "diff-probe.json",
             "--", *argv], cwd=rundir, stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            timeout=RUN_LIMIT_S).returncode
        if code != 0:
            run.problems.append(f"diff-runs vs baseline exit {code}")

    def reset(self, workloads: tuple[str, ...]) -> None:
        """Remove earlier runs' directories of these workloads."""
        for workload in workloads:
            shutil.rmtree(self.workdir(workload), ignore_errors=True)

    def warmup(self, workloads: tuple[str, ...]) -> None:
        """The correctness round.

        ``analyze-warm`` needs the store a cold run filled and that
        run's outputs as its reference, so a cold warm-up run precedes
        it even when ``analyze-cold`` is not benchmarked.
        """
        needs_store = "analyze-warm" in workloads
        if needs_store and "analyze-cold" not in workloads:
            workloads = ("analyze-cold", *workloads)
        for workload in workloads:
            keep = (self.workdir("analyze-warm") / WARM_STORE
                    if needs_store and workload == "analyze-cold" else None)
            self.run(workload, "warmup", keep_store=keep)


# ----------------------------------------------------------------------
# Summaries
# ----------------------------------------------------------------------

def summarise(values: list[float], unit: str) -> dict:
    """Median, quartiles and count; quartiles as ``statistics.quantiles``."""
    if len(values) >= 2:
        p25, _, p75 = statistics.quantiles(values, n=4)
    else:
        p25 = p75 = values[0]
    return {"unit": unit, "median": statistics.median(values), "p25": p25,
            "p75": p75, "n": len(values), "runs": values}


#: the raw times behind the reference-second metrics, kept in the results
MEASURED = (("measured_wall_s", "s"), ("measured_cpu_s", "s"),
            ("measured_setup_s", "s"), ("speed", "ratio"))


def load_spec() -> dict:
    return json.loads(SPEC.read_text(encoding="utf-8"))


def end_to_end(runs: list[Run], spec: dict) -> dict[str, dict]:
    return {metric["name"]: summarise(
                [getattr(run, metric["name"]) for run in runs],
                metric["unit"])
            for metric in spec["end_to_end"]}


def per_layer(runs: list[Run], spec: dict) -> dict[str, dict]:
    return {metric["name"]: summarise(
                [run.layers[metric["name"]] for run in runs],
                metric["unit"])
            for metric in spec["per_layer"]}


def _git_commit() -> str:
    try:
        result = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return result.stdout.strip() if result.returncode == 0 else "unknown"


def environment() -> dict:
    return {
        "git_commit": _git_commit(),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": os.getloadavg(),
        "traced_scope": "parent process, main thread only: forked "
                        "workers and other threads are not traced",
    }


def format_value(value: float) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def print_metrics(workload: str, metrics: dict[str, dict]) -> None:
    for name, stats in metrics.items():
        print(f"{workload:<13} {name:<44} {format_value(stats['median']):>12}"
              f" {stats['unit']:<9} p25 {format_value(stats['p25'])}"
              f"  p75 {format_value(stats['p75'])}  n={stats['n']}")


def report_failures(runs: list[Run]) -> None:
    for run in runs:
        for problem in run.problems:
            print(f"FAILED {run.workload} {run.tag}: {problem}",
                  file=sys.stderr)


def workload_results(bench: Bench, workload: str, timed: list[Run],
                     traced: list[Run], spec: dict) -> dict:
    mine = [run for run in bench.runs if run.workload == workload]
    failed = sum(not run.ok for run in mine)
    result = {
        "argv": bench.argv(workload),
        "domains": bench.sizes[workload],
        "mode": sorted({run.mode for run in mine}),
        "attempted": len(mine),
        "failed": failed,
        "failed_ratio": failed / len(mine) if mine else 1.0,
        "metrics": end_to_end(timed, spec) if timed else {},
    }
    if timed:
        result["measured"] = {
            name: summarise([getattr(run, name) for run in timed], unit)
            for name, unit in MEASURED}
    if traced:
        result["layers"] = per_layer(traced, spec)
        untraced = statistics.median(run.main_s for run in timed) \
            if timed else statistics.median(
                run.main_s for run in mine if run.tag == "warmup")
        traced_main = statistics.median(run.main_s for run in traced)
        result["trace_overhead_pct"] = 100 * (traced_main / untraced - 1)
    return result


def write_results(path: Path, results: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(results, indent=1) + "\n", encoding="utf-8")


# ----------------------------------------------------------------------
# Protocols
# ----------------------------------------------------------------------

def full_protocol(args, spec: dict) -> int:
    """Warm-up round, ``--reps`` rotated timed rounds, one traced round."""
    bench = Bench(args.seed, args.quick)
    env = environment()
    bench.reset(WORKLOADS)
    bench.warmup(WORKLOADS)
    order = []
    timed: dict[str, list[Run]] = {workload: [] for workload in WORKLOADS}
    for round_index in range(args.reps):
        shift = round_index % len(WORKLOADS)
        rotation = WORKLOADS[shift:] + WORKLOADS[:shift]
        order.append(list(rotation))
        for workload in rotation:
            timed[workload].append(
                bench.run(workload, f"rep{round_index + 1}"))
    traced = {workload: [bench.run(workload, "trace", traced=True)]
              for workload in WORKLOADS}
    env["loadavg_end"] = os.getloadavg()
    results = {
        "environment": env,
        "config": {"seed": args.seed, "reps": args.reps, "quick": args.quick,
                   "seconds": None, "workloads": list(WORKLOADS),
                   "order": order},
        "digests": bench.digests,
        "workloads": {
            workload: workload_results(bench, workload, timed[workload],
                                       traced[workload], spec)
            for workload in WORKLOADS
        },
    }
    for workload, result in results["workloads"].items():
        print_metrics(workload, result["metrics"])
        print_metrics(workload, result["measured"])
        print(f"{workload:<13} {'failed_ratio':<44} "
              f"{format_value(result['failed_ratio']):>12} ratio     "
              f"({result['failed']}/{result['attempted']} runs)")
    for workload, result in results["workloads"].items():
        print_metrics(workload, result["layers"])
        print(f"{workload:<13} trace_overhead_pct "
              f"{result['trace_overhead_pct']:.1f} (not gated)")
    out = Path(args.out) if args.out else WORK / "results.json"
    write_results(out, results)
    print(f"wrote {out}")
    report_failures(bench.runs)
    return 0 if all(run.ok for run in bench.runs) else 1


def workload_protocol(args, spec: dict) -> int:
    """One workload, repeated for ``--seconds``; prints the result line."""
    bench = Bench(args.seed, args.quick)
    env = environment()
    workload = args.workload
    traced = bool(args.trace)
    bench.reset((workload,))
    bench.warmup((workload,))
    started = time.monotonic()
    measured: list[Run] = []
    last_s = 0.0
    # a run starts only if it should end within --seconds, so runs
    # neither stop early nor overshoot by most of a run
    while (len(measured) < MIN_REPS
           or time.monotonic() - started + last_s <= args.seconds):
        begun = time.monotonic()
        measured.append(bench.run(workload, f"rep{len(measured) + 1}",
                                  traced=traced))
        last_s = time.monotonic() - begun
    env["loadavg_end"] = os.getloadavg()
    result = workload_results(bench, workload,
                              [] if traced else measured,
                              measured if traced else [], spec)
    results = {
        "environment": env,
        "config": {"seed": args.seed, "reps": None, "quick": args.quick,
                   "seconds": args.seconds, "workloads": [workload],
                   "order": [[workload]] * len(measured), "trace": traced},
        "digests": {workload: bench.digests.get(workload, "")},
        "workloads": {workload: result},
    }
    out = (Path(args.out) if args.out
           else WORK / workload / f"results-trace{int(traced)}.json")
    write_results(out, results)
    metrics = result["layers"] if traced else result["metrics"]
    print_metrics(workload, metrics)
    if not traced:
        print_metrics(workload, result["measured"])
    report_failures(bench.runs)
    failed = sum(not run.ok for run in bench.runs)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(bench.runs),
        "failed": failed,
        "metrics": {name: {"value": stats["median"], "unit": stats["unit"]}
                    for name, stats in metrics.items()},
    }))
    return 0 if failed == 0 else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="run one workload for --seconds seconds")
    parser.add_argument("--seed", type=int, default=BASELINE_SEED)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="measuring time of a --workload run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="with --workload: trace the measured runs")
    parser.add_argument("--reps", type=int, default=15,
                        help="timed rounds of the full protocol")
    parser.add_argument("--quick", action="store_true",
                        help="small corpus sizes, for tests")
    parser.add_argument("--out", help="results JSON path")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "cli.py").is_file():
        print(f"run.py: no repro sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    if args.reps < 1:
        parser.error("--reps must be at least 1")
    spec = load_spec()
    if args.workload:
        return workload_protocol(args, spec)
    return full_protocol(args, spec)


if __name__ == "__main__":
    raise SystemExit(main())
