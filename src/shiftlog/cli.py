"""Configuration-driven command line for verification campaigns.

Verbs:

* ``verify``  -- run verification suites from a JSON config, write a report.
* ``vn-demo`` -- evolve a density matrix and check the von Neumann identity
  at every grid point, writing a trajectory CSV.
* ``sweep``   -- run a mesh-refinement sweep and write its CSV table.
* ``bch``     -- one-shot: read two matrices, print the exact product
  logarithm and its truncations.

Exit status is 0 exactly when every emitted check passes.  Identical config
and seed give byte-identical report files (see :mod:`shiftlog.report`).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field

import numpy as np

from .bch import VonNeumannConfig, bch_terms, bch_truncated, log_product, von_neumann_rhs
from .campaigns import DEFAULT_DIMS, DEFAULT_TOLERANCES, SUITES, run_suites
from .errors import BudgetExceededError, ConfigError
from .linalg import matrix_from_json, norm_1
from .report import VerificationReport, all_passed, render_csv, render_json, summary_lines
from .unbounded import DEFAULT_SWEEP_BUDGET, DiscretizedFamily, refinement_sweep


@dataclass
class CampaignConfig:
    """Parsed and validated campaign configuration."""

    seed: int = 42
    suites: tuple[str, ...] = SUITES
    dims: tuple[int, ...] = DEFAULT_DIMS
    sweep_dims: tuple[int, ...] = (8, 16, 32, 64)
    tolerances: dict = field(default_factory=dict)
    out_path: str | None = None
    out_format: str = "json"


def _fail(field_name: str, message: str) -> ConfigError:
    return ConfigError(f"config field {field_name!r}: {message}")


def load_config(path: str | None) -> CampaignConfig:
    raw = {}
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                raw = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config {path!r} line {exc.lineno}: {exc.msg}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    cfg = CampaignConfig()
    if "seed" in raw:
        if not isinstance(raw["seed"], int):
            raise _fail("seed", "must be an integer")
        cfg.seed = raw["seed"]
    if "suites" in raw:
        suites = raw["suites"]
        if not isinstance(suites, list) or not suites:
            raise _fail("suites", "must be a non-empty list")
        unknown = [s for s in suites if s not in SUITES]
        if unknown:
            raise _fail("suites", f"unknown suite(s) {unknown}; valid: {list(SUITES)}")
        cfg.suites = tuple(suites)
    if "dims" in raw:
        dims = raw["dims"]
        if (not isinstance(dims, list) or not dims
                or any(not isinstance(n, int) or n < 1 or n > 256 for n in dims)):
            raise _fail("dims", "must be a list of integers in 1..256")
        cfg.dims = tuple(dims)
    if "sweep_dims" in raw:
        dims = raw["sweep_dims"]
        if (not isinstance(dims, list) or not dims
                or any(not isinstance(n, int) or n < 4 or n > 256 for n in dims)
                or any(a >= b for a, b in zip(dims, dims[1:]))):
            raise _fail("sweep_dims",
                        "must be a strictly increasing list of integers in 4..256")
        cfg.sweep_dims = tuple(dims)
    if "tolerances" in raw:
        tols = raw["tolerances"]
        if not isinstance(tols, dict):
            raise _fail("tolerances", "must be an object of case -> tolerance")
        for key, val in tols.items():
            if key not in DEFAULT_TOLERANCES:
                raise _fail(f"tolerances.{key}", "unknown case")
            if not isinstance(val, (int, float)):
                raise _fail(f"tolerances.{key}", "must be numeric")
        cfg.tolerances = dict(tols)
    if "output" in raw:
        out = raw["output"]
        if not isinstance(out, dict) or "path" not in out:
            raise _fail("output", "must be an object with a 'path'")
        cfg.out_path = str(out["path"])
        fmt = out.get("format", "json")
        if fmt not in ("json", "csv"):
            raise _fail("output.format", "must be 'json' or 'csv'")
        cfg.out_format = fmt
    return cfg


def _write_text(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise OSError(f"cannot write {path!r}: {exc}") from exc


def _emit_reports(reports, cfg: CampaignConfig, meta: dict) -> None:
    if cfg.out_path:
        if cfg.out_format == "json":
            _write_text(cfg.out_path, render_json(reports, meta))
        else:
            _write_text(cfg.out_path, render_csv(reports))


def cmd_verify(args) -> int:
    cfg = load_config(args.config)
    if args.suite:
        unknown = [s for s in args.suite if s not in SUITES]
        if unknown:
            raise ConfigError(f"unknown suite(s) {unknown}; valid: {list(SUITES)}")
        cfg.suites = tuple(args.suite)
    if args.seed is not None:
        cfg.seed = args.seed
    if args.out:
        cfg.out_path = args.out
    if args.format:
        cfg.out_format = args.format
    reports = run_suites(cfg.suites, cfg.seed, cfg.dims, cfg.sweep_dims, cfg.tolerances)
    meta = {"seed": cfg.seed, "suites": list(cfg.suites)}
    _emit_reports(reports, cfg, meta)
    for line in summary_lines(reports):
        print(line)
    ok = all_passed(reports)
    print(f"{sum(r.passed for r in reports)}/{len(reports)} checks passed")
    return 0 if ok else 1


def cmd_vn_demo(args) -> int:
    cfg = load_config(args.config)
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    if "hamiltonian" not in raw or "rho0" not in raw:
        raise ConfigError("vn-demo config needs 'hamiltonian' and 'rho0' matrices")
    try:
        h_op = matrix_from_json(raw["hamiltonian"])
        rho0 = matrix_from_json(raw["rho0"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if norm_1(h_op - h_op.conj().T) > 1e-12 * max(norm_1(h_op), 1.0):
        raise ConfigError("hamiltonian must be Hermitian")
    if abs(complex(np.trace(rho0)) - 1.0) > 1e-9:
        raise ConfigError("trace(rho0) must equal 1 within 1e-9")
    hbar = float(raw.get("hbar", 1.0))
    grid_spec = raw.get("grid", {"start": 0.05, "stop": 1.0, "points": 20})
    try:
        start, stop = float(grid_spec["start"]), float(grid_spec["stop"])
        points = int(grid_spec["points"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"grid needs numeric 'start', 'stop' and 'points': {exc}") from exc
    if points < 1:
        raise ConfigError(f"grid.points must be at least 1, got {points}")
    try:
        demo = von_neumann_rhs(rho0, h_op, VonNeumannConfig(hbar=hbar),
                               np.linspace(start, stop, points))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    tol = float(raw.get("tolerance", 1e-5))
    reports = [
        VerificationReport("von_neumann", "demo_residual", "von-neumann-equation",
                           max(demo.residuals), tol),
        VerificationReport("von_neumann", "demo_trace_drift", "trace-conservation",
                           demo.trace_drift, 1e-9),
    ]
    traj_path = raw.get("trajectory", "vn_trajectory.csv")
    n = rho0.shape[0]
    header = ["t"] + [f"rho_{i}{j}_{part}" for i in range(n) for j in range(n)
                      for part in ("re", "im")] + ["residual"]
    lines = [",".join(header)]
    for t, state, res in zip(demo.times, demo.states, demo.residuals):
        cells = [format(t, ".17g")]
        for i in range(n):
            for j in range(n):
                cells.append(format(state[i, j].real, ".17g"))
                cells.append(format(state[i, j].imag, ".17g"))
        cells.append(format(res, ".17g"))
        lines.append(",".join(cells))
    _write_text(traj_path, "\n".join(lines) + "\n")
    _emit_reports(reports, cfg, {"hbar": hbar})
    for line in summary_lines(reports):
        print(line)
    print(f"trajectory written to {traj_path}")
    return 0 if all_passed(reports) else 1


def cmd_sweep(args) -> int:
    cfg = load_config(args.config)
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    fam_spec = raw.get("family")
    if not isinstance(fam_spec, dict) or "kind" not in fam_spec:
        raise ConfigError("sweep config needs a 'family' object with a 'kind'")
    try:
        family = DiscretizedFamily(
            fam_spec["kind"],
            tuple(int(n) for n in fam_spec.get("dims", (8, 16, 32))),
            speed=float(fam_spec.get("speed", 1.0)),
            viscosity=float(fam_spec.get("viscosity", 1.0)),
        )
        report = refinement_sweep(family, float(raw.get("t", 0.1)),
                                  float(raw.get("s", 0.0)),
                                  budget=float(raw.get("budget", DEFAULT_SWEEP_BUDGET)))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    csv_path = raw.get("output", {}).get("path", "sweep.csv") if isinstance(
        raw.get("output"), dict) else "sweep.csv"
    _write_text(csv_path, report.to_csv())
    slope = report.norm_slope()
    band = report.band_ratio()
    worst_shift = max(r.residual_shifted_bch for r in report.rows)
    print(f"norm growth slope: {slope:.3f}   surrogate band ratio: {band:.3f}   "
          f"worst shifted-identity residual: {worst_shift:.3e}")
    print(f"sweep table written to {csv_path}")
    norms = [r.norm_A for r in report.rows]
    ok = all(a < b for a, b in zip(norms, norms[1:]))  # monotone norm growth
    if family.kind == "diffusion" and len(report.rows) >= 2:
        ok = ok and 1.8 <= slope <= 2.2
    ok = ok and band <= 4.0 and worst_shift <= 1e-2
    return 0 if ok else 1


def cmd_bch(args) -> int:
    try:
        with open(args.x, "r", encoding="utf-8") as fh:
            x = matrix_from_json(json.load(fh))
        with open(args.y, "r", encoding="utf-8") as fh:
            y = matrix_from_json(json.load(fh))
    except OSError as exc:
        raise ConfigError(f"cannot read matrix file: {exc}") from exc
    except (ValueError, json.JSONDecodeError) as exc:
        raise ConfigError(f"malformed matrix file: {exc}") from exc
    exact = log_product(x, y)
    np.set_printoptions(precision=12, suppress=False, linewidth=120)
    print("log(expm(X) expm(Y)) =")
    print(exact)
    for order in range(1, args.order + 1):
        trunc = bch_truncated(x, y, order)
        terms = ", ".join(f"{c} {w}" for c, w in bch_terms(order).terms)
        print(f"order {order}: residual {norm_1(exact - trunc):.6e}   [{terms}]")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shiftlog",
        description="Verification campaigns for shifted-logarithm operator calculus.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run verification suites from a config")
    p_verify.add_argument("--config", default=None, help="JSON campaign config")
    p_verify.add_argument("--suite", action="append",
                          help="restrict to a suite (repeatable)")
    p_verify.add_argument("--out", default=None, help="report output path")
    p_verify.add_argument("--format", choices=("json", "csv"), default=None)
    p_verify.add_argument("--seed", type=int, default=None)
    p_verify.set_defaults(func=cmd_verify)

    p_vn = sub.add_parser("vn-demo", help="density-matrix evolution demo")
    p_vn.add_argument("--config", required=True)
    p_vn.set_defaults(func=cmd_vn_demo)

    p_sweep = sub.add_parser("sweep", help="mesh-refinement sweep")
    p_sweep.add_argument("--config", required=True)
    p_sweep.set_defaults(func=cmd_sweep)

    p_bch = sub.add_parser("bch", help="print the product logarithm of two matrices")
    p_bch.add_argument("x", help="JSON matrix file (rows of [re, im] pairs)")
    p_bch.add_argument("y", help="JSON matrix file (rows of [re, im] pairs)")
    p_bch.add_argument("--order", type=int, default=3, choices=(1, 2, 3, 4))
    p_bch.set_defaults(func=cmd_bch)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
