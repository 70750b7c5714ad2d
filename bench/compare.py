"""Compare two results files written by ``bench/run.py``.

    python3 bench/compare.py BEFORE.json AFTER.json

For every (workload, end-to-end metric) pair it prints a verdict, using
the direction and bound ``BENCHMARK.json`` gives the metric:

  worse       the after-median is worse than the before-median by more
              than the bound;
  better      it is better by more than the bound;
  unchanged   the medians differ by no more than the bound;
  unresolved  the spread of either side (p25..p75 over the median) is
              wider than the bound, so the medians cannot be told
              apart; unless every run of one side beats every run of
              the other, which decides the verdict instead.

``failed_ratio`` is compared absolutely: any increase is ``worse``.

Exit status: 0 when nothing is worse, 1 when something is, 2 when the
files cannot be compared (different seed, reps, run length, --quick,
workloads or output digests).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
#: results fields that must match for two files to be comparable
IDENTITY = ("seed", "reps", "seconds", "quick", "workloads")


def spread(stats: dict) -> float:
    return (stats["p75"] - stats["p25"]) / stats["median"]


def verdict(before: dict, after: dict, better: str, bound: float) -> str:
    """The verdict for one metric; ``before``/``after`` are summaries."""
    sign = 1 if better == "lower" else -1
    worsening = sign * (after["median"] - before["median"]) / before["median"]
    if max(spread(before), spread(after)) > bound:
        if all(sign * (a - b) < 0 for a in after["runs"]
               for b in before["runs"]):
            return "better"
        if all(sign * (a - b) > 0 for a in after["runs"]
               for b in before["runs"]):
            return "worse"
        return "unresolved"
    if worsening > bound:
        return "worse"
    if worsening < -bound:
        return "better"
    return "unchanged"


def incomparable(before: dict, after: dict) -> list[str]:
    reasons = [f"{key}: {before['config'].get(key)!r} vs "
               f"{after['config'].get(key)!r}"
               for key in IDENTITY
               if before["config"].get(key) != after["config"].get(key)]
    if before["digests"] != after["digests"]:
        reasons.append("output digests differ: the runs computed "
                       "different results")
    return reasons


def compare(before: dict, after: dict, spec: dict) -> list[tuple]:
    """Rows of (workload, metric, before, after, change, verdict)."""
    rows = []
    for workload in before["config"]["workloads"]:
        old = before["workloads"][workload]
        new = after["workloads"][workload]
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a, b = old["metrics"][name], new["metrics"][name]
            change = (b["median"] - a["median"]) / a["median"]
            rows.append((workload, name, a["median"], b["median"], change,
                         verdict(a, b, metric["better"], metric["bound"])))
        a, b = old["failed_ratio"], new["failed_ratio"]
        rows.append((workload, "failed_ratio", a, b, b - a,
                     "worse" if b > a else "better" if b < a
                     else "unchanged"))
    return rows


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: compare.py BEFORE.json AFTER.json", file=sys.stderr)
        return 2
    before, after = (json.loads(Path(path).read_text(encoding="utf-8"))
                     for path in argv)
    reasons = incomparable(before, after)
    if reasons:
        for reason in reasons:
            print(f"compare.py: not comparable: {reason}", file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    rows = compare(before, after, spec)
    print(f"{'workload':<13} {'metric':<14} {'before':>12} {'after':>12} "
          f"{'change':>8}  verdict")
    for workload, name, a, b, change, label in rows:
        print(f"{workload:<13} {name:<14} {a:>12.6g} {b:>12.6g} "
              f"{100 * change:>+7.2f}%  {label}")
    return 1 if any(row[-1] == "worse" for row in rows) else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
