"""Run the benchmark on two checkouts in alternating pairs.

    python3 benchmarks/alternate.py BASE_DIR CHANGE_DIR --seeds 10

For each workload of BENCHMARK.json and seed 1..N, runs
``benchmarks/run.py`` for BENCHMARK.json's ``run_seconds`` in both
checkouts one after the other, the base first on odd seeds and the change
first on even ones.  Each checkout appends to its own
``benchmarks/out/results.jsonl``; pass the two files to ``compare.py``.
The benchmark code must be identical in the two checkouts.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("change")
    parser.add_argument("--seeds", type=int, default=10)
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    for workload in [w["name"] for w in spec["workloads"]]:
        for seed in range(1, args.seeds + 1):
            order = [args.base, args.change] if seed % 2 else \
                [args.change, args.base]
            for root in order:
                subprocess.run(
                    [sys.executable, "benchmarks/run.py", "--workload",
                     workload, "--seed", str(seed), "--seconds",
                     str(spec["run_seconds"]), "--trace", "0"],
                    cwd=root, check=True, stdout=subprocess.DEVNULL)
    return 0


if __name__ == "__main__":
    sys.exit(main())
