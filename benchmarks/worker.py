"""One round of a workload in a fresh interpreter.

    python3 benchmarks/worker.py WORKLOAD SEED TRACE RESULT_JSON

``run.py`` starts it with ``PYTHONPATH`` naming the checkout's ``src``.  The
round imports amenlab, builds the workload's inputs, runs its task list and
writes one JSON object: the clock reading at the first task (``run.py``
subtracts its own reading at spawn to get the set-up time), the time of
every task, the peak resident memory, a plain-JSON summary of every output
and, with TRACE 1, the per-layer metrics of ``tracer.py``.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import subprocess
import sys
import time

import inputs

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(HERE, "out")
ENTRY = os.path.join(HERE, "amenlab_main.py")
COMMAND_TIMEOUT_S = 60  # one README command


def _peak_mb(who) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


def _round_in_process(workload: str, seed: int, trace: bool) -> dict:
    started = time.perf_counter()
    import amenlab.cli  # noqa: F401  (the cold import of the whole package)
    import_s = time.perf_counter() - started
    tracer = None
    if trace:
        import tracer as tracing  # after amenlab, so import_s stays cold
        tracer = tracing.Tracer()
        tracing.install(tracer)
    import workloads
    context = workloads.SETUP[workload](seed)
    first_task = time.monotonic()
    summaries, times, errors = {}, {}, {}
    tasks = workloads.TASKS[workload]()
    for name in inputs.task_names(workload):
        run = tasks[name]
        begin = time.perf_counter()
        try:
            result = run(context)
        except Exception as error:  # a failed operation, counted by run.py
            times[name] = time.perf_counter() - begin
            errors[name] = f"{type(error).__name__}: {error}"
            continue
        times[name] = time.perf_counter() - begin
        try:
            summaries[name] = workloads.SUMMARY[workload](name, result, OUT_DIR)
        except Exception as error:  # a result of an unexpected shape
            errors[name] = f"malformed result: {type(error).__name__}: {error}"
        del result
    out = {"first_task": first_task, "times": times,
           "peak_rss_mb": _peak_mb(resource.RUSAGE_SELF),
           "summaries": summaries, "errors": errors}
    if tracer is not None:
        from amenlab import selfsim
        layers = tracer.layer_metrics()
        layers["cli.import_s"] = import_s
        layers["selfsim.memo_entries"] = len(selfsim._identity_memo.table)
        tracer.write(os.path.join(OUT_DIR, f"trace-{workload}.npz"))
        out["layers"] = tracing.finish(layers)
    return out


def _round_readme(trace: bool) -> dict:
    """The README commands, each in its own interpreter, after one cold
    import of amenlab.cli that gives the set-up time."""
    env = dict(os.environ)
    started = time.monotonic()
    subprocess.run([sys.executable, "-c", "import amenlab.cli"], env=env,
                   check=True, timeout=COMMAND_TIMEOUT_S)
    setup_s = time.monotonic() - started
    summaries, times, errors, layer_runs = {}, {}, {}, []
    for index, command in enumerate(inputs.README_COMMANDS):
        if trace:
            env["BENCH_TRACE"] = os.path.join(OUT_DIR, f"readme-{index}.json")
        begin = time.monotonic()
        proc = subprocess.run([sys.executable, ENTRY, *command.split()],
                              env=env, capture_output=True, text=True,
                              timeout=COMMAND_TIMEOUT_S)
        times[command] = time.monotonic() - begin
        summaries[command] = {"exit": proc.returncode, "stdout": proc.stdout}
        if proc.returncode != 0:
            errors[command] = proc.stderr.strip().splitlines()[-1:]
        if trace and os.path.exists(env["BENCH_TRACE"]):
            with open(env["BENCH_TRACE"]) as handle:
                layer_runs.append(json.load(handle))
            os.remove(env["BENCH_TRACE"])
    out = {"setup_s": setup_s, "times": times,
           "peak_rss_mb": _peak_mb(resource.RUSAGE_CHILDREN),
           "summaries": summaries, "errors": errors}
    if trace and layer_runs:
        out["layers"] = merge_layers(layer_runs)
        out["layers"]["cli.stdout_bytes"] = sum(
            len(s["stdout"].encode()) for s in summaries.values())
    return out


def merge_layers(runs) -> dict:
    """Sum per-command layer metrics; the import time is a median and the
    found-per-act ratio is recomputed from its summed parts."""
    merged = {}
    for run in runs:
        for key, value in run.items():
            merged[key] = merged.get(key, 0) + value
    merged["cli.import_s"] = statistics.median(r["cli.import_s"] for r in runs)
    import tracer as tracing
    return tracing.finish(merged)


def main(argv):
    workload, seed, trace, result_path = argv
    os.makedirs(OUT_DIR, exist_ok=True)
    if workload == "readme":
        out = _round_readme(trace == "1")
    else:
        out = _round_in_process(workload, int(seed), trace == "1")
    with open(result_path, "w") as handle:
        json.dump(out, handle)


if __name__ == "__main__":
    main(sys.argv[1:])
