"""amenlab benchmark: one workload, measured for a fixed time.

    python3 benchmarks/run.py --workload selfsim --seed 1 --seconds 25 --trace 0

Run from the root of a checkout.  Each round is a fresh single-threaded
interpreter (``worker.py``) running the workload's whole task list on the
checkout's ``src``; rounds repeat while the next one is expected to end
within ``--seconds`` (at least one round, or one pair when traced).  Every
output is checked against ``reference.py``.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: with ``--trace 0`` the end-to-end metrics (medians over the
rounds), with ``--trace 1`` the per-layer metrics, from traced rounds that
alternate with untraced ones.  Every run is also appended, with its start
time, to ``benchmarks/out/results.jsonl`` for ``compare.py``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
WORKLOADS = ("selfsim", "words", "search", "readme")
RUN_LIMIT_S = 170  # a round still running this long after the start ends the run

sys.path.insert(0, HERE)


def _environment() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "") \
        if env.get("PYTHONPATH") else src
    # one thread per process, a fixed hash seed so that counts repeat
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    env["PYTHONHASHSEED"] = "0"
    env.pop("BENCH_TRACE", None)
    return env


def _round(workload: str, seed: int, trace: bool, env: dict,
           timeout: float) -> dict:
    result_path = os.path.join(OUT_DIR, f"round-{workload}.json")
    if os.path.exists(result_path):
        os.remove(result_path)
    spawned = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "worker.py"), workload, str(seed),
         "1" if trace else "0", result_path], env=env, cwd=ROOT,
        start_new_session=True)
    try:
        code = proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the worker and its commands
        proc.wait()
        return {"crashed": "timeout"}
    if code != 0 or not os.path.exists(result_path):
        return {"crashed": f"exit {code}"}
    with open(result_path) as handle:
        out = json.load(handle)
    if "setup_s" not in out:
        out["setup_s"] = out["first_task"] - spawned
    out["wall_s"] = sum(out["times"].values())
    return out


class Verifier:
    """Checks each task output once per distinct output digest."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.verdicts = {}

    def __call__(self, task: str, summary) -> bool:
        digest = hashlib.sha256(
            json.dumps([task, summary], sort_keys=True).encode()).hexdigest()
        if digest not in self.verdicts:
            import checks
            try:
                self.verdicts[digest] = bool(checks.check(
                    self.workload, task, summary, self.seed, OUT_DIR))
            except (KeyError, TypeError, ValueError, IndexError) as error:
                print(f"check {task}: malformed output ({error})",
                      file=sys.stderr)
                self.verdicts[digest] = False
        return self.verdicts[digest]


def _median(values):
    return statistics.median(values) if values else 0.0


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import inputs
    tasks = inputs.task_names(workload)
    env = _environment()
    verify = Verifier(workload, seed)
    rounds = []
    attempted = failed = 0
    correct = True
    started_at = time.time()  # wall clock, for compare.py's pairing check
    started = time.monotonic()
    while True:
        traced = trace and len(rounds) % 2 == 1
        began = time.monotonic()
        out = _round(workload, seed, traced, env,
                     timeout=max(1.0, RUN_LIMIT_S - (began - started)))
        out["round_s"] = time.monotonic() - began
        out["traced"] = traced
        rounds.append(out)
        attempted += len(tasks)
        if "crashed" in out:
            print(f"round {len(rounds)}: worker {out['crashed']}",
                  file=sys.stderr)
            failed += len(tasks)
            break
        for task in tasks:
            if task in out["errors"] or task not in out["summaries"]:
                print(f"{task}: {out['errors'].get(task, 'no output')}",
                      file=sys.stderr)
                failed += 1
            elif not verify(task, out["summaries"][task]):
                print(f"{task}: output differs from the reference",
                      file=sys.stderr)
                failed += 1
                correct = False
        if trace and len(rounds) % 2:
            continue  # traced runs end on a whole untraced/traced pair
        # start another round only if it should end within the run time
        per_round = statistics.mean(r["round_s"] for r in rounds)
        if time.monotonic() - started + per_round * (2 if trace else 1) \
                > seconds:
            break
    return _report(workload, seed, trace, rounds, attempted, failed, correct,
                   started_at)


def _report(workload, seed, trace, rounds, attempted, failed, correct,
            started_at) -> dict:
    good = [r for r in rounds if "crashed" not in r]
    plain = [r for r in good if not r["traced"]]
    traced = [r for r in good if r["traced"]]
    wall = _median([r["wall_s"] for r in plain])
    if trace:
        import tracer
        metrics = {}
        for name in tracer.metric_names():
            values = [r["layers"].get(name, 0) for r in traced if "layers" in r]
            # counts repeat exactly from round to round: keep them whole
            metrics[name] = _median(values) if _unit(name) == "s" or \
                not values else statistics.median_low(values)
        metrics["trace.wall_s"] = _median([r["wall_s"] for r in traced])
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - wall
        units = {name: _unit(name) for name in metrics}
    else:
        metrics = {
            "wall_s": wall,
            "setup_s": _median([r["setup_s"] for r in plain]),
            "peak_rss_mb": _median([r["peak_rss_mb"] for r in plain]),
        }
        units = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
    record = {
        "workload": workload, "seed": seed, "trace": trace,
        "started": started_at,
        "rounds": len(rounds), "attempted": attempted, "failed": failed,
        "correct": correct, "metrics": metrics,
        "wall_s_rounds": [r["wall_s"] for r in plain],
        "task_s": _task_medians(plain),
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, "results.jsonl"), "a") as handle:
        handle.write(json.dumps(record, sort_keys=True) + "\n")
    return {
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }


def _task_medians(rounds) -> dict:
    names = rounds[0]["times"] if rounds else {}
    return {name: _median([r["times"][name] for r in rounds
                           if name in r["times"]]) for name in names}


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "bytes"
    if name == "orbits.ball_new_per_act":
        return "vertices/call"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "amenlab", "__init__.py")):
        print(f"error: no amenlab sources under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
