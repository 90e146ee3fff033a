"""Configuration-driven command line for verification campaigns.

Verbs:

* ``verify``  -- run verification suites from a JSON config, write a report.
* ``vn-demo`` -- evolve a density matrix and check the von Neumann identity
  at every grid point, writing a trajectory CSV.
* ``sweep``   -- run a mesh-refinement sweep and write its CSV table.
* ``bch``     -- one-shot: read two matrices, print the exact product
  logarithm and its truncations.

``verify``, ``vn-demo`` and ``sweep`` grade through :mod:`shiftlog.campaigns`
and exit 0 exactly when every emitted check passes, else 1; bad input exits 2
and I/O failure 3, with one line on stderr.  Identical config and seed give
byte-identical report files (see :mod:`shiftlog.report`).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .bch import VonNeumannConfig, bch_terms, bch_truncated, log_product, von_neumann_rhs
from .campaigns import (DEFAULT_DIMS, DEFAULT_TOLERANCES, SUITES, Recorder, grade_sweep,
                        grade_von_neumann_demo, run_suites)
from .errors import BudgetExceededError, ConfigError, PropagationError, ShiftlogError
from .linalg import matrix_from_json, norm_1
from .report import all_passed, render_csv, render_json, summary_lines
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


def _read_json(path: str):
    """Parse one JSON file; an unreadable or malformed file is a config error."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path!r} line {exc.lineno}: {exc.msg}") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {path!r}: {exc}") from exc


def _object(raw, where: str, keys: tuple[str, ...]) -> dict:
    """``raw`` as a JSON object whose keys all come from ``keys``."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{where} must be a JSON object")
    unknown = sorted(set(raw) - set(keys))
    if unknown:
        raise ConfigError(f"{where}: unknown key(s) {unknown}; valid: {list(keys)}")
    return raw


def _number(obj: dict, key: str, prefix: str = "", default: float | None = None) -> float:
    """The finite number at ``obj[key]``, or ``default`` when the key is absent."""
    val = obj.get(key, default)
    if isinstance(val, bool) or not isinstance(val, (int, float)) or not math.isfinite(val):
        raise _fail(prefix + key, "must be a finite number")
    return float(val)


def _output(raw: dict, keys: tuple[str, ...]) -> tuple[str | None, str]:
    """The config's ``output`` as (path, format); no ``output`` gives a None path.
    ``keys`` are the keys the verb's ``output`` object accepts."""
    if "output" not in raw:
        return None, "json"
    out = _object(raw["output"], "config field 'output'", keys)
    if not isinstance(out.get("path"), str):
        raise _fail("output.path", "must be a string")
    fmt = out.get("format", "json")
    if fmt not in ("json", "csv"):
        raise _fail("output.format", "must be 'json' or 'csv'")
    return out["path"], fmt


def load_config(path: str | None) -> CampaignConfig:
    raw = {} if path is None else _read_json(path)
    _object(raw, "config", ("seed", "suites", "dims", "sweep_dims", "tolerances", "output"))
    cfg = CampaignConfig()
    if "seed" in raw:
        if type(raw["seed"]) is not int:
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
        if (not isinstance(dims, list) or len(dims) < 2
                or any(not isinstance(n, int) or n < 4 or n > 256 for n in dims)
                or any(a >= b for a, b in zip(dims, dims[1:]))):
            raise _fail("sweep_dims", "must be a strictly increasing list of at least "
                                      "two integers in 4..256")
        cfg.sweep_dims = tuple(dims)
    if "tolerances" in raw:
        tols = raw["tolerances"]
        if not isinstance(tols, dict):
            raise _fail("tolerances", "must be an object of case -> tolerance")
        for key, val in tols.items():
            if key not in DEFAULT_TOLERANCES:
                raise _fail(f"tolerances.{key}", "unknown case")
            if isinstance(val, bool) or not isinstance(val, (int, float)):
                raise _fail(f"tolerances.{key}", "must be numeric")
        cfg.tolerances = dict(tols)
    cfg.out_path, cfg.out_format = _output(raw, ("path", "format"))
    return cfg


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:  # an OSError names the path
        fh.write(text)


def _finish(reports, path: str | None = None, fmt: str = "json", meta: dict | None = None) -> int:
    """Write the report file if there is a path, print one line per check and
    the tally, and return the exit status: 0 exactly when every check passes."""
    if path:
        _write_text(path, render_json(reports, meta) if fmt == "json" else render_csv(reports))
    for line in summary_lines(reports):
        print(line)
    print(f"{sum(r.passed for r in reports)}/{len(reports)} checks passed")
    return 0 if all_passed(reports) else 1


def cmd_verify(args) -> int:
    cfg = load_config(args.config)
    if args.suite:
        unknown = [s for s in args.suite if s not in SUITES]
        if unknown:
            raise ConfigError(f"unknown suite(s) {unknown}; valid: {list(SUITES)}")
        cfg.suites = tuple(args.suite)
    if args.seed is not None:
        cfg.seed = args.seed
    reports = run_suites(cfg.suites, cfg.seed, cfg.dims, cfg.sweep_dims, cfg.tolerances)
    return _finish(reports, args.out or cfg.out_path, args.format or cfg.out_format,
                   {"seed": cfg.seed, "suites": list(cfg.suites)})


def cmd_vn_demo(args) -> int:
    raw = _object(_read_json(args.config), "config",
                  ("hamiltonian", "rho0", "hbar", "grid", "trajectory", "output"))
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
    hbar = _number(raw, "hbar", default=1.0)
    grid = raw.get("grid", {"start": 0.05, "stop": 1.0, "points": 20})
    _object(grid, "config field 'grid'", ("start", "stop", "points"))
    start, stop = _number(grid, "start", "grid."), _number(grid, "stop", "grid.")
    points = grid.get("points")
    if type(points) is not int or points < 1:
        raise _fail("grid.points", f"must be an integer of at least 1, got {points!r}")
    traj_path = raw.get("trajectory", "vn_trajectory.csv")
    if not isinstance(traj_path, str):
        raise _fail("trajectory", "must be a string")
    out_path, out_format = _output(raw, ("path", "format"))

    rec = Recorder("von_neumann")
    try:
        demo = von_neumann_rhs(rho0, h_op, VonNeumannConfig(hbar=hbar),
                               np.linspace(start, stop, points))
    except (ValueError, PropagationError) as exc:
        raise ConfigError(str(exc)) from exc
    grade_von_neumann_demo(rec, demo)

    n = rho0.shape[0]
    header = ["t"] + [f"rho_{i}{j}_{part}" for i in range(n) for j in range(n)
                      for part in ("re", "im")] + ["residual"]
    lines = [",".join(header)]
    for t, state, res in zip(demo.times, demo.states, demo.residuals):
        cells = [t, *np.stack((state.real, state.imag), axis=-1).ravel(), res]
        lines.append(",".join(format(x, ".17g") for x in cells))
    _write_text(traj_path, "\n".join(lines) + "\n")
    print(f"trajectory written to {traj_path}")
    return _finish(rec.reports, out_path, out_format, {"hbar": hbar})


def cmd_sweep(args) -> int:
    raw = _object(_read_json(args.config), "config", ("family", "t", "s", "budget", "output"))
    fam = raw.get("family")
    if not isinstance(fam, dict) or "kind" not in fam:
        raise ConfigError("sweep config needs a 'family' object with a 'kind'")
    _object(fam, "config field 'family'", ("kind", "dims", "speed", "viscosity"))
    dims = fam.get("dims", [8, 16, 32])
    if not isinstance(dims, list) or any(type(n) is not int for n in dims):
        raise _fail("family.dims", "must be a list of integers")
    speed = _number(fam, "speed", "family.", 1.0)
    viscosity = _number(fam, "viscosity", "family.", 1.0)
    t, s = _number(raw, "t", default=0.1), _number(raw, "s", default=0.0)
    budget = _number(raw, "budget", default=DEFAULT_SWEEP_BUDGET)
    path, _ = _output(raw, ("path",))  # the sweep table is always CSV
    csv_path = "sweep.csv" if path is None else path

    rec = Recorder("sweep")
    try:
        family = DiscretizedFamily(fam["kind"], tuple(dims), speed=speed, viscosity=viscosity)
        report = refinement_sweep(family, t, s, budget=budget)
    except (ValueError, OverflowError) as exc:
        raise ConfigError(str(exc)) from exc
    grade_sweep(rec, report)
    _write_text(csv_path, report.to_csv())
    print(f"sweep table written to {csv_path}")
    return _finish(rec.reports)


def cmd_bch(args) -> int:
    try:
        x = matrix_from_json(_read_json(args.x))
        y = matrix_from_json(_read_json(args.y))
    except ValueError as exc:
        raise ConfigError(f"malformed matrix file: {exc}") from exc
    if x.shape != y.shape:
        raise ConfigError(f"X and Y must have equal shapes, got {x.shape} and {y.shape}")
    try:
        exact = log_product(x, y)
    except (OverflowError, ShiftlogError) as exc:
        raise ConfigError(f"X, Y outside the domain of Log(expm(X) expm(Y)): {exc}") from exc
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
