"""The benchmark's three workloads run and grade clean against the package.

``perfbench/worker.py`` runs a workload's config and command line from
``perfbench/workloads.py`` and grades each pass from the report or the CSV
it writes: the checks and tolerances of a ``verify`` report, and the
columns, grid sizes and exit code of a ``sweep`` table.  A renamed check, a
change to the tolerance table, to ``SweepRow``, ``SWEEP_COLUMNS`` or to the
grid rule of ``DiscretizedFamily`` fails the benchmark's passes, so one
pass of each workload (seed 0 for the campaign) runs here, through the
worker itself, and so does the benchmark's self-test.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["campaign", "sweep_const", "sweep_tdep"])
def test_sweep_workload_passes_the_benchmark_grading(workload, tmp_path):
    # The worker imports the package from ``src`` under its working directory.
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "worker.py"), "--workload", workload,
         "--seed", "0", "--mode", "run", "--seconds", "0", "--min-passes", "1",
         "--workdir", str(tmp_path)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads((tmp_path / "result.json").read_text())
    (one,) = result["passes"]
    assert one["rc"] == 0 and one["error"] is None, one
    assert one["attempted"] > 0 and one["failed"] == 0, one


def test_benchmark_selftest_passes():
    # Its "tightened tolerance fails" gate runs through ``main``'s exit code and
    # a config's tolerance override.  It writes only under ``.perfbench_out``.
    proc = subprocess.run([sys.executable, "perfbench/selftest.py"],
                          cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr[-2000:]
    lines = proc.stdout.splitlines()
    assert len(lines) == 4 and all(line.startswith("ok ") for line in lines), lines
