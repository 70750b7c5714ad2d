"""Tests of the benchmark harness itself; run with ``pytest bench/``.

They sit outside the tier-1 ``testpaths`` because they spawn the CLI a
dozen times (about 20 s at ``--quick`` sizes).
"""

from __future__ import annotations

import copy
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

sys.path.insert(0, str(BENCH))
import compare  # noqa: E402
import run  # noqa: E402


def _bench(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(BENCH / "run.py"), *args],
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=600)


@pytest.fixture(scope="module")
def quick_results(tmp_path_factory) -> dict:
    out = tmp_path_factory.mktemp("bench") / "results.json"
    result = _bench("--quick", "--reps", "1", "--seed", "5", "--out",
                    str(out))
    assert result.returncode == 0, result.stderr
    return json.loads(out.read_text(encoding="utf-8"))


def test_quick_run_emits_every_metric_finite(quick_results):
    for workload, result in quick_results["workloads"].items():
        assert result["failed"] == 0, workload
        assert result["mode"] == ["in-process"], workload
        for metric in SPEC["end_to_end"]:
            stats = result["metrics"][metric["name"]]
            assert stats["unit"] == metric["unit"]
            assert math.isfinite(stats["median"]), (workload, metric)
            assert stats["median"] > 0, (workload, metric)
        for name, stats in result["measured"].items():
            assert stats["median"] > 0, (workload, name)
        for metric in SPEC["per_layer"]:
            stats = result["layers"][metric["name"]]
            assert math.isfinite(stats["median"]), (workload, metric)


def test_normalise_scales_each_phase_by_its_own_speed():
    reference_ms = run.SPIN_REFERENCE_NS / 1e6
    probe = run.Run("campaign", "rep1", measured_wall_s=3.0,
                    measured_cpu_s=2.9, measured_setup_s=1.0)
    # set-up at half the reference speed, the rest at the reference speed
    spin = {"setup": {"count": 10, "total_ns": 20 * run.SPIN_REFERENCE_NS},
            "rest": {"count": 20, "total_ns": 20 * run.SPIN_REFERENCE_NS}}
    run.Bench(833, False).normalise(probe, spin)
    spins_s = 40 * reference_ms / 1e3
    setup_s = (1.0 - 20 * reference_ms / 1e3) * 0.5
    processing_s = 3.0 - 1.0 - 20 * reference_ms / 1e3
    assert probe.ok
    assert probe.setup_s == pytest.approx(setup_s)
    assert probe.wall_s == pytest.approx(setup_s + processing_s)
    assert probe.speed == pytest.approx(30 / 40)
    assert probe.cpu_s == pytest.approx((2.9 - spins_s) * 30 / 40)
    assert probe.domains_per_s == pytest.approx(2000 / processing_s)

    unsampled = run.Run("campaign", "rep2")
    run.Bench(833, False).normalise(
        unsampled, {"setup": {"count": 0, "total_ns": 0}, "rest": spin["rest"]})
    assert not unsampled.ok


def test_traced_round_attributes_work_to_the_right_layers(quick_results):
    layers = {workload: result["layers"]
              for workload, result in quick_results["workloads"].items()}
    scans = ("campaign", "analyze-cold", "analyze-warm")
    for workload, values in layers.items():
        calls = {name: stats["median"] for name, stats in values.items()
                 if name.endswith(".calls")}
        x509 = sum(v for k, v in calls.items() if k.startswith("x509."))
        chainbuilder = sum(v for k, v in calls.items()
                           if k.startswith("chainbuilder."))
        assert (x509 > 0) == (workload == "campaign"), workload
        assert (chainbuilder > 0) == (workload not in scans), workload
    assert layers["analyze-warm"]["store.hit_ratio"]["median"] == 1.0


def test_workload_run_prints_the_result_line():
    result = _bench("--workload", "differential", "--quick", "--seed", "3",
                    "--seconds", "1", "--trace", "0")
    assert result.returncode == 0, result.stderr
    line = json.loads(result.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0
    assert line["attempted"] >= 2
    assert set(line["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}


def _synthetic(wall_runs: list[float]) -> dict:
    def stats(runs):
        p25, _, p75 = statistics.quantiles(runs, n=4)
        return {"unit": "s", "median": statistics.median(runs),
                "p25": p25, "p75": p75, "n": len(runs), "runs": runs}

    metrics = {metric["name"]: stats([1.0, 1.002, 0.998, 1.001, 0.999])
               for metric in SPEC["end_to_end"]}
    metrics["wall_s"] = stats(wall_runs)
    return {
        "config": {"seed": 833, "reps": 5, "seconds": None, "quick": False,
                   "workloads": ["campaign"]},
        "digests": {"campaign": "abc"},
        "workloads": {"campaign": {"metrics": metrics, "failed_ratio": 0.0}},
    }


def _verdicts(before: dict, after: dict) -> dict[str, str]:
    return {name: label for _, name, *_, label
            in compare.compare(before, after, SPEC)}


def test_compare_labels_regression_and_identity(tmp_path):
    runs = [4.0, 4.01, 3.99, 4.02, 3.98]
    before = _synthetic(runs)
    slower = _synthetic([x * 1.20 for x in runs])
    assert _verdicts(before, slower)["wall_s"] == "worse"
    assert set(_verdicts(before, copy.deepcopy(before)).values()) \
        == {"unchanged"}

    paths = []
    for name, data in (("a", before), ("b", slower), ("c", before)):
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps(data), encoding="utf-8")
    assert compare.main([str(paths[0]), str(paths[1])]) == 1
    assert compare.main([str(paths[0]), str(paths[2])]) == 0


def test_compare_refuses_other_seed_or_outputs():
    before = _synthetic([4.0, 4.01, 3.99])
    for field, value in (("seed", 7), ("quick", True)):
        other = copy.deepcopy(before)
        other["config"][field] = value
        assert compare.incomparable(before, other)
    other = copy.deepcopy(before)
    other["digests"]["campaign"] = "def"
    assert compare.incomparable(before, other)


def test_compare_wide_spread_is_unresolved_unless_disjoint():
    tight = _synthetic([4.0, 4.01, 3.99, 4.02, 3.98])
    noisy = _synthetic([3.0, 5.0, 4.0, 3.5, 4.6])
    assert _verdicts(tight, noisy)["wall_s"] == "unresolved"
    disjoint = _synthetic([5.0, 6.5, 5.6, 7.0, 5.2])
    assert _verdicts(tight, disjoint)["wall_s"] == "worse"
