"""One workload process: set up, run passes in a closed loop, grade each pass.

Run from the root of a shiftlog checkout:

    python3 perfbench/worker.py --workload campaign --seed 42 --seconds 30 \
        --min-passes 6 --mode run --workdir .perfbench_out/campaign/run

``--mode setup`` only imports shiftlog and writes the workload config, to
sample set-up time in a fresh process.  ``--mode run`` runs the package as
shipped and checks that nothing wraps its functions.  ``--mode trace``
wraps every public layer function first (see ``tracer.py``).  The result is
written to ``result.json`` in the work directory.

BLAS is pinned to one thread here, before numpy is first imported.
"""

from __future__ import annotations

import os

os.environ["OMP_NUM_THREADS"] = "1"
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import tracer  # noqa: E402
import workloads  # noqa: E402


def grade_verify(data: bytes, rc, suites, overrides: dict) -> dict:
    """Grade a ``verify`` pass from the report's ``pass`` fields and the exit code.

    The expected checks and their tolerances come from
    ``shiftlog.campaigns.DEFAULT_TOLERANCES`` (with the config's overrides);
    a check whose tolerance differs from that table fails, a non-zero
    exit fails every check of the pass, and so does a report that is
    unreadable or holds another set of checks.
    """
    from shiftlog.campaigns import DEFAULT_TOLERANCES

    expected = {key: float(overrides.get(key, tol)) for key, tol in DEFAULT_TOLERANCES.items()
                if key.split(".")[0] in suites}
    out = {"attempted": len(expected), "failed": len(expected), "worst_tol_ratio": 0.0,
           "suite_worst_tol_ratio": {}}
    try:
        records = {f"{r['suite']}.{r['case']}": r for r in json.loads(data)["reports"]}
    except (ValueError, KeyError, TypeError):
        return out
    if set(records) != set(expected):
        return out
    failed = 0
    for key, tol in expected.items():
        rec = records[key]
        if rec["pass"] is not True or float(rec["tolerance"]) != tol:
            failed += 1
            continue
        if tol > 0.0:
            ratio = float(rec["residual"]) / tol
            suite = rec["suite"]
            out["worst_tol_ratio"] = max(out["worst_tol_ratio"], ratio)
            out["suite_worst_tol_ratio"][suite] = max(
                out["suite_worst_tol_ratio"].get(suite, 0.0), ratio)
    out["failed"] = failed if rc == 0 else len(expected)
    return out


def grade_sweep(data: bytes, rc, cfg: dict) -> dict:
    """Grade a ``sweep`` pass from the exit code and its CSV.

    The worst ratio covers the two identities the sweep verb gates, with the
    tolerances of the campaign's sweep suite.
    """
    from shiftlog.campaigns import DEFAULT_TOLERANCES
    from shiftlog.unbounded import SWEEP_COLUMNS, SweepReport, SweepRow

    out = {"attempted": 1, "failed": 1, "worst_tol_ratio": 0.0, "residual_recovery": {}}
    lines = data.decode("utf-8", "replace").splitlines()
    try:
        header = tuple(lines[0].split(","))
        rows = tuple(SweepRow(**{c: int(v) if c == "n" else float(v)
                                 for c, v in zip(header, line.split(","))})
                     for line in lines[1:])
    except (IndexError, TypeError, ValueError):
        return out
    if header != SWEEP_COLUMNS or [r.n for r in rows] != cfg["family"]["dims"]:
        return out
    band = SweepReport(None, cfg["t"], cfg["s"], rows).band_ratio()
    shifted = max(r.residual_shifted_bch for r in rows)
    out["worst_tol_ratio"] = max(band / DEFAULT_TOLERANCES["sweep.surrogate_band_ratio"],
                                 shifted / DEFAULT_TOLERANCES["sweep.shifted_identity_band"])
    out["residual_recovery"] = {str(r.n): r.residual_recovery for r in rows}
    out["failed"] = 0 if rc == 0 else 1
    return out


def _openblas() -> list[dict]:
    """Version string and thread count of every OpenBLAS this process loaded."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        paths = sorted({line.split()[-1] for line in fh
                        if "openblas" in line.lower() and ".so" in line})
    out = []
    for path in paths:
        lib = ctypes.CDLL(path)
        info = {"library": os.path.basename(path)}
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                if hasattr(lib, f"{prefix}_get_num_threads{suffix}"):
                    info["threads"] = getattr(lib, f"{prefix}_get_num_threads{suffix}")()
                    get_config = getattr(lib, f"{prefix}_get_config{suffix}")
                    get_config.restype = ctypes.c_char_p
                    info["config"] = get_config().decode()
        out.append(info)
    return out


def _git_commit() -> str | None:
    """HEAD of the checkout, read from ``.git`` when there is one."""
    try:
        with open(".git/HEAD", encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(f".git/{ref}"):
            with open(f".git/{ref}", encoding="utf-8") as fh:
                return fh.read().strip()
        with open(".git/packed-refs", encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int) -> dict:
    import numpy
    import scipy

    model = None
    with open("/proc/cpuinfo", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": _openblas(),
        "OMP_NUM_THREADS": os.environ["OMP_NUM_THREADS"],
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
        "seed": seed,
        "git_commit": _git_commit(),
    }


def _sha256(path: str) -> tuple[str | None, bytes]:
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError:
        return None, b""
    return hashlib.sha256(data).hexdigest(), data


def run(args) -> dict:
    t0 = time.perf_counter()
    src = os.path.abspath("src")
    sys.path.insert(0, src)
    import shiftlog.cli
    from shiftlog.campaigns import SUITES

    os.makedirs(args.workdir, exist_ok=True)
    spec = workloads.WORKLOADS[args.workload]
    out_path = os.path.join(args.workdir, spec["output"])
    cfg_path = os.path.join(args.workdir, "config.json")
    cfg = workloads.config(args.workload, out_path)
    with open(cfg_path, "w", encoding="utf-8") as fh:
        json.dump(cfg, fh)
    result = {"setup_s": time.perf_counter() - t0}
    if not shiftlog.cli.__file__.startswith(src + os.sep):
        raise RuntimeError(f"shiftlog imported from {shiftlog.cli.__file__}, not {src}")
    if args.mode == "setup":
        return result

    result["unpatched_functions"] = tracer.check_unpatched()
    trace = None
    if args.mode == "trace":
        trace = tracer.Tracer()
        result["wrapped_bindings"] = trace.install()
    cli_main = shiftlog.cli.main
    if args.workload == "sweep_tdep":
        grade = lambda data, rc: grade_sweep(data, rc, cfg)
    else:
        base = spec["argv"]
        suites = [base[i + 1] for i, a in enumerate(base) if a == "--suite"] or SUITES
        grade = lambda data, rc: grade_verify(data, rc, suites, cfg.get("tolerances", {}))

    seeds = workloads.pass_seeds(args.workload, args.seed)
    passes = []
    started = time.perf_counter()
    while len(passes) < args.min_passes or time.perf_counter() - started < args.seconds:
        seed = seeds[len(passes) % len(seeds)]
        argv = workloads.argv(args.workload, cfg_path, seed)
        if os.path.exists(out_path):
            os.remove(out_path)
        lo = trace.span_count() if trace else 0
        sink = io.StringIO()
        error = None
        t = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                rc = cli_main(argv)
        except (Exception, SystemExit) as exc:  # the pass fails; the loop goes on
            rc, error = None, f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - t
        digest, data = _sha256(out_path)
        record = {"seed": seed, "wall_s": wall, "rc": rc, "error": error, "sha256": digest}
        record.update(grade(data, rc))
        if rc != 0:
            record["output_tail"] = sink.getvalue()[-2000:]
        if trace:
            layers = trace.layer_metrics(lo, trace.span_count(), wall)
            accounted = layers["untraced.self_s"] + sum(layers[f"{m}.self_s"]
                                                        for m in tracer.LAYERS)
            record["self_time_gap_s"] = accounted - wall
            record["layers"] = layers
        passes.append(record)
    result["passes"] = passes
    if trace:
        trace.write_spans(os.path.join(args.workdir, "spans.tsv.gz"))
    else:
        result["unpatched_functions_after"] = tracer.check_unpatched()
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["env"] = environment(args.seed)
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--min-passes", type=int, default=1)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args()
    result = run(args)
    with open(os.path.join(args.workdir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
