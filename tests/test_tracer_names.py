"""benchmarks/tracer.py wraps amenlab functions by the names its callers look
up.  Deleting or renaming one of them must fail here, not in every traced
benchmark run."""

import os
import subprocess
import sys
from pathlib import Path

import amenlab

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


def test_tracer_installs_on_a_fresh_interpreter():
    src = str(Path(amenlab.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, str(BENCHMARKS),
                                         os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import tracer; tracer.install(tracer.Tracer())"],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path),
        timeout=60)
    assert proc.returncode == 0, proc.stderr
