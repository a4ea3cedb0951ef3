"""Compare two sets of benchmark runs of the same benchmark code.

    python3 perfbench/run.py --compare BEFORE_DIR AFTER_DIR

Each directory holds result files written by untraced full-size runs
of run.py; other files there are skipped.
For every end-to-end metric, one row per workload: the median and
quartiles of each side, the share of pairs the after side wins, and a
verdict:

- regression: the after median is worse than the before median by more
  than the metric's bound in BENCHMARK.json;
- gain: the after side wins at least 9 in 10 pairs (ties count for
  neither) and the medians differ by more than the before side's
  interquartile range;
- unresolved: the before side's own spread is wider than the bound and
  not every after run beats every before run;
- same: none of these.

Pairs are matched by seed where both sides ran the same seeds, else in
the order the runs were made.  The exit code is 1 if any row is a
regression.
"""
from __future__ import annotations

import json
import statistics
from pathlib import Path


def load(directory: str) -> dict[str, list[dict]]:
    """Untraced result files of one side, by workload, in run order."""
    runs: dict[str, list[dict]] = {}
    for path in sorted(Path(directory).glob("*.json")):
        result = json.loads(path.read_text(encoding="utf-8"))
        if result.get("trace") == 0 and result.get("scale") == "full":
            runs.setdefault(result["workload"], []).append(result)
    for results in runs.values():
        results.sort(key=lambda r: r["time"])
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def pairs(before: list[dict], after: list[dict], metric: str):
    by_seed_b = {r["seed"]: r for r in before}
    by_seed_a = {r["seed"]: r for r in after}
    common = sorted(set(by_seed_b) & set(by_seed_a))
    if len(common) == min(len(before), len(after)):
        return [(by_seed_b[s]["metrics"][metric],
                 by_seed_a[s]["metrics"][metric]) for s in common]
    return [(b["metrics"][metric], a["metrics"][metric])
            for b, a in zip(before, after)]


def verdict(before: list[float], after: list[float], won: float,
            bound: float, lower_is_better: bool) -> str:
    sign = 1 if lower_is_better else -1
    b1, bmed, b3 = quartiles(before)
    amed = statistics.median(after)
    if sign * (amed - bmed) > bound * abs(bmed):
        return "regression"
    if won >= 0.9 and abs(amed - bmed) > b3 - b1:
        return "gain"
    all_better = all(sign * (a - b) < 0 for a in after for b in before)
    if bmed and (b3 - b1) / abs(bmed) > bound and not all_better:
        return "unresolved"
    return "same"


def main(before_dir: str, after_dir: str, spec: dict) -> int:
    before, after = load(before_dir), load(after_dir)
    regressions = 0
    for metric in spec["end_to_end"]:
        name, lower = metric["name"], metric["better"] == "lower"
        print(f"{name} ({metric['unit']}, {metric['better']} is better, "
              f"bound {metric['bound']:.0%})")
        print(f"  {'workload':14s} {'runs':>5s} {'before q1/med/q3':>32s} "
              f"{'after q1/med/q3':>32s} {'won':>5s}  verdict")
        for workload in sorted(set(before) & set(after)):
            matched = pairs(before[workload], after[workload], name)
            b = [x for x, _ in matched]
            a = [y for _, y in matched]
            wins = sum(1 for x, y in matched if (y < x if lower else y > x))
            won = wins / len(matched)
            v = verdict(b, a, won, metric["bound"], lower)
            regressions += v == "regression"
            fmt = lambda q: "/".join(f"{x:.4g}" for x in q)
            print(f"  {workload:14s} {len(matched):5d} "
                  f"{fmt(quartiles(b)):>32s} {fmt(quartiles(a)):>32s} "
                  f"{won:5.0%}  {v}")
    missing = set(before) ^ set(after)
    if missing:
        print(f"workloads on one side only: {', '.join(sorted(missing))}")
    return 1 if regressions else 0
