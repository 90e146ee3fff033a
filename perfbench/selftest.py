"""Self-test of the benchmark's own checks; exits 0 when every check trips as it should.

Run from the root of a shiftlog checkout:

    python3 perfbench/selftest.py

* Correctness gate: the matfun suite passes with the shipped tolerances, and
  fails once the campaign config tightens ``matfun.log_exp_roundtrip`` to
  1e-30.  The gate trips on shiftlog's own verdict; no code is patched.
* Determinism guard: two passes of one input with different report hashes
  are reported as a problem.
* Tracing off means zero wrappers: ``check_unpatched`` accepts the package as
  imported and rejects it once the tracer is installed.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys

import worker  # pins BLAS threads before numpy is imported
import run
import tracer

OUT = os.path.join(run.OUT_ROOT, "selftest")


def fail_frac(tolerances: dict) -> tuple[int, float]:
    """Exit code and failed/attempted of one ``verify --suite matfun`` pass."""
    import shiftlog.cli

    report = os.path.join(OUT, "report.json")
    config = os.path.join(OUT, "config.json")
    with open(config, "w", encoding="utf-8") as fh:
        json.dump({"tolerances": tolerances, "output": {"path": report}}, fh)
    with contextlib.redirect_stdout(io.StringIO()):
        rc = shiftlog.cli.main(["verify", "--config", config, "--suite", "matfun"])
    with open(report, "rb") as fh:
        graded = worker.grade_verify(fh.read(), rc, ["matfun"], tolerances)
    return rc, graded["failed"] / graded["attempted"]


def main() -> int:
    sys.path.insert(0, os.path.abspath("src"))
    os.makedirs(OUT, exist_ok=True)
    import shiftlog.cli  # noqa: F401

    results = {}
    tracer.check_unpatched()
    results["shipped tolerances pass"] = fail_frac({}) == (0, 0.0)
    rc, frac = fail_frac({"matfun.log_exp_roundtrip": 1e-30})
    results["tightened tolerance fails"] = rc == 1 and frac > 0.0

    def pass_record(digest):
        return {"seed": 42, "rc": 0, "error": None, "failed": 0, "attempted": 1,
                "sha256": digest}
    same = {"passes": [pass_record("a"), pass_record("a")]}
    differ = {"passes": [pass_record("a"), pass_record("b")]}
    results["determinism guard"] = not run._problems(same) and bool(run._problems(differ))

    tracer.Tracer().install()
    try:
        tracer.check_unpatched()
        results["wrappers detected"] = False
    except RuntimeError:
        results["wrappers detected"] = True

    for name, ok in results.items():
        print(f"{'ok  ' if ok else 'FAIL'} {name}")
    return 0 if all(results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
