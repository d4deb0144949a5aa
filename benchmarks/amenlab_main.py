"""amenlab's command-line entry point, as the installed ``amenlab`` script
runs it: ``sys.exit(amenlab.cli.main())``.

    PYTHONPATH=src python3 benchmarks/amenlab_main.py growth --group z:1 --radius 3

With ``BENCH_TRACE=FILE`` in the environment the call runs under
``tracer.py`` and its layer metrics are written to FILE as JSON.
"""

import json
import os
import sys
import time

if __name__ == "__main__":
    trace_path = os.environ.get("BENCH_TRACE")
    started = time.perf_counter()
    import amenlab.cli
    import_s = time.perf_counter() - started
    if not trace_path:
        sys.exit(amenlab.cli.main())
    import tracer as tracing
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        code = amenlab.cli.main()
    finally:
        from amenlab import selfsim
        layers = tracer.layer_metrics()
        layers["cli.import_s"] = import_s
        layers["selfsim.memo_entries"] = len(selfsim._identity_memo.table)
        with open(trace_path, "w") as handle:
            json.dump(layers, handle)
    sys.exit(code)
