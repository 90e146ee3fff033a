"""shiftlog benchmark: one workload, end-to-end or traced, one JSON result line.

Run from the root of a shiftlog checkout:

    python3 perfbench/run.py --workload campaign --seed 42 --seconds 20 --trace 0

Workloads (see ``workloads.py``): ``campaign`` is ``shiftlog verify`` with
the default campaign; ``sweep_const`` is ``verify --suite sweep`` on
diffusion stencils up to n = 96; ``sweep_tdep`` is the ``sweep`` verb on the
time-dependent advection family up to n = 128.  Every pass is one in-process
call of ``shiftlog.cli.main`` in a workload process of its own, with BLAS
pinned to one thread.

``--trace 0`` starts a few processes that only set up (import shiftlog,
write the config), then one workload process that runs passes in a closed
loop for ``--seconds``, and prints the end-to-end metrics of
``BENCHMARK.json``.  ``--trace 1`` runs an untraced and a traced workload
process for half the time each and prints the per-layer metrics; the report
hashes of both must agree.  Every pass is graded by shiftlog's own verdicts.

The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``, where attempted and failed
count checks.  Lines before it give fail_frac, the pass-time percentiles and
the environment.  Everything a run records, every pass included, is written
to ``.perfbench_out/<workload>/summary.json``; traced runs also write their
spans there.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_ROOT = ".perfbench_out"
SETUP_PROBES = 4
MIN_PASSES = 4
# Wall-clock limit for one run, so that a hung workload process ends it.
RUN_LIMIT_S = 170.0
# Largest gap allowed between a pass's wall time and the self times of its
# spans plus the time outside any span.
SELF_TIME_SLACK_S = 1e-6
SIZE_BUCKET = re.compile(r"\.n\d+\.self_s$")


class BenchmarkError(Exception):
    """The benchmark could not run; no result is printed."""


def _worker(workload: str, seed: int, mode: str, workdir: str, deadline: float,
            seconds: float = 0.0, min_passes: int = 1) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", repr(seconds), "--min-passes", str(min_passes),
           "--mode", mode, "--workdir", workdir]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.DEVNULL,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"{mode} worker exceeded the time limit") from exc
    if proc.returncode != 0:
        raise BenchmarkError(f"{mode} worker exited with {proc.returncode}")
    with open(os.path.join(workdir, "result.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _problems(*results) -> list[str]:
    """Failed checks, errors and report hashes that differ for one input."""
    problems = []
    hashes = {}
    for res in results:
        for i, p in enumerate(res["passes"]):
            if p["failed"] or p["rc"] != 0 or p["error"]:
                problems.append(f"pass {i} (seed {p['seed']}): rc={p['rc']} "
                                f"failed={p['failed']}/{p['attempted']} error={p['error']}")
            hashes.setdefault(p["seed"], set()).add(p["sha256"])
            gap = p.get("self_time_gap_s")
            if gap is not None and abs(gap) > SELF_TIME_SLACK_S:
                problems.append(f"pass {i}: span self times miss the pass time by {gap:.3e} s")
    for seed, digests in hashes.items():
        if len(digests) != 1 or None in digests:
            problems.append(f"seed {seed}: output hashes differ between passes: "
                            f"{sorted(map(str, digests))}")
    return problems


def _highest_percentile(samples: list[float]) -> str:
    """The highest of the usual percentiles with at least ten samples beyond it."""
    n = len(samples)
    for pct in (99.9, 99, 95, 90, 75, 50):
        if n * (1.0 - pct / 100.0) >= 10.0:
            value = statistics.quantiles(samples, n=1000, method="inclusive")[int(pct * 10) - 1]
            return f"p{pct:g} = {value:.4f} s"
    return f"no percentile has ten samples beyond it at n = {n}"


def _counts(*results) -> tuple[int, int]:
    passes = [p for res in results for p in res["passes"]]
    return sum(p["attempted"] for p in passes), sum(p["failed"] for p in passes)


def end_to_end(workload: str, seed: int, seconds: float, deadline: float, out: str):
    probes = [_worker(workload, seed, "setup", os.path.join(out, f"setup{i}"), deadline)
              for i in range(SETUP_PROBES)]
    # every input once, one repeat for the determinism guard, and a few
    # samples for the median
    min_passes = max(len(workloads.pass_seeds(workload, seed)) + 1, MIN_PASSES)
    res = _worker(workload, seed, "run", os.path.join(out, "run"), deadline,
                  seconds, min_passes)
    setup = [p["setup_s"] for p in probes] + [res["setup_s"]]
    walls = [p["wall_s"] for p in res["passes"]]
    attempted, failed = _counts(res)
    metrics = {
        "setup_s": statistics.median(setup),
        "pass_s": statistics.median(walls),
        "pass_frac": 1.0 - failed / attempted,
        "worst_tol_ratio": statistics.median(
            {p["seed"]: p["worst_tol_ratio"] for p in res["passes"]}.values()),
        "peak_rss_mb": res["peak_rss_mb"],
    }
    notes = [
        f"passes: {len(walls)}, inputs (campaign seeds): "
        f"{sorted({str(p['seed']) for p in res['passes']})}",
        f"setup_s samples: {len(setup)} processes",
        f"pass_s: median of {len(walls)} passes; {_highest_percentile(walls)}",
        f"fail_frac: {failed}/{attempted} = {failed / attempted:.4g}",
        f"worst_tol_ratio: median over inputs; "
        f"max {max(p['worst_tol_ratio'] for p in res['passes']):.6g}",
    ]
    if workload == "sweep_tdep":
        notes.append(f"residual_recovery by n (not gated): {res['passes'][0]['residual_recovery']}")
    return metrics, (attempted, failed), _problems(res), notes, res["env"], {
        "setup_s": setup, "untraced_process": res}


def _median_layers(passes) -> dict:
    keys = sorted({k for p in passes for k in p["layers"]})
    return {k: statistics.median(p["layers"].get(k, 0.0) for p in passes) for k in keys}


def traced(workload: str, seed: int, seconds: float, deadline: float, out: str):
    plain = _worker(workload, seed, "run", os.path.join(out, "run"), deadline, seconds / 2)
    trace = _worker(workload, seed, "trace", os.path.join(out, "trace"), deadline, seconds / 2)
    problems = _problems(plain, trace)
    if not trace.get("wrapped_bindings"):
        problems.append("the traced process wrapped no function")
    common = {p["seed"] for p in plain["passes"]} & {p["seed"] for p in trace["passes"]}
    if not common:
        problems.append("the untraced and traced processes share no input")
    layers = _median_layers(trace["passes"])
    wall = lambda res: statistics.median(p["wall_s"] for p in res["passes"] if p["seed"] in common)
    layers["trace.overhead_s"] = wall(trace) - wall(plain) if common else 0.0
    for suite, ratio in _suite_ratios(trace["passes"]).items():
        layers[f"campaigns.suite_{suite}.worst_tol_ratio"] = ratio
    notes = [f"untraced passes: {len(plain['passes'])}, traced passes: {len(trace['passes'])}, "
             f"spans per traced pass: {layers['spans']:.0f}, "
             f"wrapped bindings: {trace['wrapped_bindings']}"]
    return layers, _counts(plain, trace), problems, notes, trace["env"], {
        "untraced_process": plain, "traced_process": trace, "layers": layers}


def _suite_ratios(passes) -> dict:
    suites = sorted({s for p in passes for s in p.get("suite_worst_tol_ratio", {})})
    return {s: statistics.median(p["suite_worst_tol_ratio"].get(s, 0.0) for p in passes)
            for s in suites}


def _select(spec: list[dict], values: dict) -> dict:
    """The metrics ``BENCHMARK.json`` names, with their units.  A size bucket
    or suite the workload never reaches reads 0; any other gap is an error."""
    out = {}
    for m in spec:
        name = m["name"]
        if name in values:
            value = values[name]
        elif SIZE_BUCKET.search(name) or name.startswith("campaigns.suite_"):
            value = 0.0
        else:
            raise BenchmarkError(f"metric {name!r} was not measured")
        out[name] = {"value": value, "unit": m["unit"]}
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description="shiftlog benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time; run_seconds of BENCHMARK.json by default")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + RUN_LIMIT_S
    try:
        if not os.path.isfile(os.path.join("src", "shiftlog", "cli.py")):
            raise BenchmarkError("src/shiftlog is missing: run from the root of a checkout")
        with open("BENCHMARK.json", encoding="utf-8") as fh:
            bench = json.load(fh)
        if args.seconds is None:
            args.seconds = float(bench["run_seconds"])
        out = os.path.join(OUT_ROOT, args.workload)
        shutil.rmtree(out, ignore_errors=True)
        os.makedirs(out)
        measure = traced if args.trace else end_to_end
        values, (attempted, failed), problems, notes, env, record = measure(
            args.workload, args.seed, args.seconds, deadline, out)
        metrics = _select(bench["per_layer" if args.trace else "end_to_end"], values)
    except (BenchmarkError, OSError, ValueError, KeyError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    record.update({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                   "trace": args.trace, "env": env, "problems": problems, "metrics": metrics})
    with open(os.path.join(out, "summary.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for line in notes + [f"problem: {p}" for p in problems]:
        print(line)
    print("env: " + json.dumps(env, sort_keys=True))
    for name, m in metrics.items():
        print(f"{name:48s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
