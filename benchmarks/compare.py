"""Compare the end-to-end metrics of two commits.

    python3 benchmarks/compare.py BASE_results.jsonl CHANGE_results.jsonl

Each file holds the records ``run.py`` appends to ``benchmarks/out/
results.jsonl``; untraced records are used, paired by workload and seed.
For every workload and end-to-end metric the report gives each side's
median and quartiles, the ratio change/base, and a verdict:

* ``gain`` -- the change wins at least 9 in 10 pairs (ties count for
  neither) and the medians differ by more than the base's quartile spread;
* ``regression`` -- the change's median is worse than the base's by more
  than the metric's bound;
* ``unresolved`` -- either side's quartile spread, as a share of its median,
  exceeds the bound, unless every change run beats (``better, every run``)
  or loses to (``worse, every run``) every base run;
* ``within bound`` otherwise.

The speed of a shared machine drifts over minutes by more than the bounds,
so only runs that alternate in time are compared: unless the records of a
workload, ordered by start time, come in adjacent base/change pairs of one
seed (as ``alternate.py`` makes them), every verdict of that workload is
``unresolved (not interleaved)``.  Bounds and directions come from
BENCHMARK.json at the root of the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from typing import Dict, List, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(path: str) -> Dict[Tuple[str, int], Dict]:
    """Untraced records keyed by (workload, seed); a later run of the same
    seed replaces an earlier one."""
    out = {}
    with open(path) as handle:
        for line in handle:
            record = json.loads(line)
            if not record["trace"]:
                out[(record["workload"], record["seed"])] = record
    return out


def interleaved(base: Dict, change: Dict, workload: str,
                seeds: List[int]) -> bool:
    """Whether the paired runs, in order of start time, form adjacent
    pairs of one seed, one run from each side."""
    runs = []
    for side, records in ((0, base), (1, change)):
        for seed in seeds:
            started = records[(workload, seed)].get("started")
            if started is None:
                return False
            runs.append((started, side, seed))
    runs.sort()
    return all(first[1] != second[1] and first[2] == second[2]
               for first, second in zip(runs[::2], runs[1::2]))


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(base: List[float], change: List[float], bound: float,
            lower_is_better: bool = True) -> str:
    """The verdict for paired runs: base[i] and change[i] share a seed."""
    sign = 1.0 if lower_is_better else -1.0
    b1, bm, b3 = quartiles(base)
    c1, cm, c3 = quartiles(change)
    wins = sum(sign * (c - b) < 0 for b, c in zip(base, change))
    spread_base = (b3 - b1) / bm if bm else 0.0
    spread_change = (c3 - c1) / cm if cm else 0.0
    if max(spread_base, spread_change) > bound:
        if all(sign * (c - b) < 0 for c in change for b in base):
            return "better, every run"
        if all(sign * (c - b) > 0 for c in change for b in base):
            return "worse, every run"
        return "unresolved"
    if wins >= 0.9 * len(base) and sign * (cm - bm) < 0 \
            and abs(cm - bm) > b3 - b1:
        return "gain"
    if sign * (cm - bm) > bound * abs(bm):
        return "regression"
    return "within bound"


def report(base_path: str, change_path: str, spec: Dict) -> List[str]:
    base, change = load(base_path), load(change_path)
    lines = [f"{'workload':<9} {'metric':<12} {'pairs':>5} "
             f"{'base median [q1, q3]':>30} {'change median [q1, q3]':>30} "
             f"{'change/base':>11}  verdict"]
    for workload in [w["name"] for w in spec["workloads"]]:
        seeds = sorted(seed for (w, seed) in base if w == workload
                       and (w, seed) in change)
        if not seeds:
            continue
        paired = interleaved(base, change, workload, seeds)
        for metric in spec["end_to_end"]:
            name = metric["name"]
            b = [base[(workload, s)]["metrics"][name] for s in seeds]
            c = [change[(workload, s)]["metrics"][name] for s in seeds]
            b1, bm, b3 = quartiles(b)
            c1, cm, c3 = quartiles(c)
            text = verdict(b, c, metric["bound"],
                           metric["better"] == "lower") \
                if paired else "unresolved (not interleaved)"
            lines.append(
                f"{workload:<9} {name:<12} {len(seeds):>5} "
                f"{bm:>12.4f} [{b1:.4f}, {b3:.4f}] "
                f"{cm:>12.4f} [{c1:.4f}, {c3:.4f}] "
                f"{cm / bm if bm else float('nan'):>11.4f}  {text}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("change")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    print("\n".join(report(args.base, args.change, spec)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
