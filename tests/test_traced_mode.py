"""The benchmark's traced mode runs against the package as it is.

``perfbench/tracer.py`` wraps every public layer function by name and reads
fixed function names (``matfun.sqrtm_db``, ``matfun.logm_contour``,
``linalg.solve``, ``evolution.propagate`` and its ``steps``/``stepper``
parameters, ...) when it sums a pass.  A rename in the package breaks the traced benchmark without
failing any other test, so one traced ``verify`` pass runs here.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Run in a child process: installing the tracer rebinds the package's names.
TRACED_PASS = r"""
import json, sys, time
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import shiftlog.cli
import tracer

trace = tracer.Tracer()
trace.install()
t0 = time.perf_counter()
rc = shiftlog.cli.main(["verify", "--suite", "matfun", "--suite", "logrep",
                        "--suite", "von_neumann", "--config", sys.argv[4],
                        "--seed", "42", "--out", sys.argv[3]])
metrics = trace.layer_metrics(0, trace.span_count(), time.perf_counter() - t0)
print(json.dumps({"rc": rc, "metrics": metrics}))
"""


def test_traced_verify_pass_reports_layer_metrics(tmp_path):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"dims": [2, 4]}))  # keeps the matfun suite short
    proc = subprocess.run(
        [sys.executable, "-c", TRACED_PASS, str(ROOT / "src"), str(ROOT / "perfbench"),
         str(tmp_path / "report.json"), str(config)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["rc"] == 0
    metrics = result["metrics"]
    assert metrics["evolution.propagate.rk4.steps"] > 0
    assert metrics["evolution.march.calls"] > 0
    assert metrics["matfun.logm_iss.sqrt_per_call"] > 0
    assert metrics["matfun.logm_contour.calls"] > 0
    assert metrics["sampling.rand_log_admissible.calls"] > 0
    assert metrics["campaigns.suite_von_neumann.s"] > 0
