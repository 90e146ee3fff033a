"""Configuration-driven command line for verification campaigns.

Verbs:

* ``verify``  -- run verification suites from a JSON config, write a report.
* ``vn-demo`` -- evolve a density matrix and check the von Neumann identity
  at every grid point, writing a trajectory CSV.
* ``sweep``   -- run a mesh-refinement sweep and write its CSV table.
* ``bch``     -- one-shot: read two matrices, print the exact product
  logarithm and the residual of its truncation at each order.

``verify``, ``vn-demo`` and ``sweep`` grade through :mod:`shiftlog.campaigns`
and exit 0 exactly when every emitted check passes, else 1; a ``verify``
config's ``tolerances`` regrade the records the suites return.  :func:`main`
alone turns a refusal into an exit: bad input, refused by the CLI or by the
library (``ValueError``, ``OverflowError``, ``ShiftlogError``), exits 2 with
one ``config error:`` line on stderr, and an I/O failure exits 3 with one
``io error:`` line.  Identical config and seed give byte-identical report
files (see :mod:`shiftlog.report`).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, field, replace

import numpy as np

from .bch import bch_truncated, log_product, von_neumann_rhs
from .campaigns import (DEFAULT_DIMS, DEFAULT_SWEEP_DIMS, DEFAULT_TOLERANCES, SUITES,
                        SWEEP_HORIZON, VON_NEUMANN_GRID, Recorder, grade_sweep,
                        grade_von_neumann_demo, run_suites)
from .errors import ConfigError, ShiftlogError
from .linalg import matrix_from_json, norm_1
from .report import all_passed, render_csv, render_json, render_table, summary_lines
from .unbounded import DiscretizedFamily, refinement_sweep


@dataclass
class CampaignConfig:
    """Parsed and validated campaign configuration."""

    seed: int = 42
    suites: tuple[str, ...] = SUITES
    dims: tuple[int, ...] = DEFAULT_DIMS
    sweep_dims: tuple[int, ...] = DEFAULT_SWEEP_DIMS
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
    if not isinstance(out.get("path"), str) or not out["path"]:
        raise _fail("output.path", "must be a non-empty string")
    fmt = out.get("format", "json")
    if fmt not in ("json", "csv"):
        raise _fail("output.format", "must be 'json' or 'csv'")
    return out["path"], fmt


def load_config(path: str | None) -> CampaignConfig:
    raw = {} if path is None else _read_json(path)
    _object(raw, "config", ("seed", "suites", "dims", "sweep_dims", "tolerances", "output"))
    cfg = CampaignConfig()
    if "seed" in raw:
        if type(raw["seed"]) is not int or raw["seed"] < 0:
            raise _fail("seed", f"must be a non-negative integer, got {raw['seed']!r}")
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
                or any(type(n) is not int or n < 1 or n > 256 for n in dims)):
            raise _fail("dims", "must be a list of integers in 1..256")
        cfg.dims = tuple(dims)
    if "sweep_dims" in raw:
        dims = raw["sweep_dims"]
        if not isinstance(dims, list) or len(dims) < 2:
            raise _fail("sweep_dims", "must be a list of at least two grid sizes")
        try:
            DiscretizedFamily("diffusion", tuple(dims))
        except ValueError as exc:
            raise _fail("sweep_dims", str(exc)) from exc
        cfg.sweep_dims = tuple(dims)
    if "tolerances" in raw:
        tols = raw["tolerances"]
        if not isinstance(tols, dict):
            raise _fail("tolerances", "must be an object of case -> tolerance")
        for key in tols:
            if key not in DEFAULT_TOLERANCES:
                raise _fail(f"tolerances.{key}", "unknown case")
            if _number(tols, key, "tolerances.") < 0.0:
                raise _fail(f"tolerances.{key}", "must not be negative")
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
        cfg.suites = tuple(args.suite)
    if args.seed is not None:
        if args.seed < 0:
            raise ConfigError(f"--seed must be a non-negative integer, got {args.seed}")
        cfg.seed = args.seed
    tols = cfg.tolerances  # validated by load_config; each regrades its own record
    reports = [replace(r, tolerance=float(tols.get(f"{r.suite}.{r.case}", r.tolerance)))
               for r in run_suites(cfg.suites, cfg.seed, cfg.dims, cfg.sweep_dims)]
    return _finish(reports, args.out or cfg.out_path, args.format or cfg.out_format,
                   {"seed": cfg.seed, "suites": list(cfg.suites)})


def cmd_vn_demo(args) -> int:
    raw = _object(_read_json(args.config), "config",
                  ("hamiltonian", "rho0", "hbar", "grid", "trajectory", "output"))
    if "hamiltonian" not in raw or "rho0" not in raw:
        raise ConfigError("vn-demo config needs 'hamiltonian' and 'rho0' matrices")
    h_op = matrix_from_json(raw["hamiltonian"])
    rho0 = matrix_from_json(raw["rho0"])
    if norm_1(h_op - h_op.conj().T) > 1e-12 * max(norm_1(h_op), 1.0):
        raise ConfigError("hamiltonian must be Hermitian")
    if abs(complex(np.trace(rho0)) - 1.0) > 1e-9:
        raise ConfigError("trace(rho0) must equal 1 within 1e-9")
    hbar = _number(raw, "hbar", default=1.0)
    grid_keys = ("start", "stop", "points")
    grid = raw.get("grid", dict(zip(grid_keys, VON_NEUMANN_GRID)))
    _object(grid, "config field 'grid'", grid_keys)
    start, stop = _number(grid, "start", "grid."), _number(grid, "stop", "grid.")
    points = grid.get("points")
    if type(points) is not int or not 1 <= points <= 10_000:
        raise _fail("grid.points", f"must be an integer in 1..10000, got {points!r}")
    traj_path = raw.get("trajectory", "vn_trajectory.csv")
    if not isinstance(traj_path, str):
        raise _fail("trajectory", "must be a string")
    out_path, out_format = _output(raw, ("path", "format"))

    demo = von_neumann_rhs(rho0, h_op, hbar, np.linspace(start, stop, points))
    rec = Recorder("von_neumann")
    grade_von_neumann_demo(rec, demo)

    n = rho0.shape[0]
    header = ["t"] + [f"rho_{i}{j}_{part}" for i in range(n) for j in range(n)
                      for part in ("re", "im")] + ["residual"]
    rows = ([t, *np.stack((state.real, state.imag), axis=-1).ravel(), res]
            for t, state, res in zip(demo.times, demo.states, demo.residuals))
    _write_text(traj_path, render_table(header, rows))
    print(f"trajectory written to {traj_path}")
    return _finish(rec.reports, out_path, out_format, {"hbar": hbar})


def cmd_sweep(args) -> int:
    raw = _object(_read_json(args.config), "config", ("family", "t", "s", "output"))
    fam = raw.get("family")
    if not isinstance(fam, dict) or "kind" not in fam:
        raise ConfigError("sweep config needs a 'family' object with a 'kind'")
    _object(fam, "config field 'family'", ("kind", "dims", "speed", "viscosity"))
    dims = fam.get("dims", list(DEFAULT_SWEEP_DIMS))
    if not isinstance(dims, list):
        raise _fail("family.dims", "must be a list")
    stencil = {key: _number(fam, key, "family.") for key in ("speed", "viscosity")
               if key in fam}
    family = DiscretizedFamily(fam["kind"], tuple(dims), **stencil)
    # diffusion reads only the viscosity, the advection kinds only the speed
    unread = "speed" if family.kind == "diffusion" else "viscosity"
    if unread in fam:
        raise _fail(f"family.{unread}", f"is not read by kind {family.kind!r}")
    t = _number(raw, "t", default=SWEEP_HORIZON[0])
    s = _number(raw, "s", default=SWEEP_HORIZON[1])
    path, _ = _output(raw, ("path",))  # the sweep table is always CSV
    csv_path = "sweep.csv" if path is None else path

    report = refinement_sweep(family, t, s)
    rec = Recorder("sweep")
    grade_sweep(rec, report)
    _write_text(csv_path, report.to_csv())
    print(f"sweep table written to {csv_path}")
    return _finish(rec.reports)


def cmd_bch(args) -> int:
    x = matrix_from_json(_read_json(args.x))
    y = matrix_from_json(_read_json(args.y))
    if x.shape != y.shape:
        raise ConfigError(f"X and Y must have equal shapes, got {x.shape} and {y.shape}")
    exact = log_product(x, y)
    np.set_printoptions(precision=12, suppress=False, linewidth=120)
    print("log(expm(X) expm(Y)) =")
    print(exact)
    for order in range(1, args.order + 1):
        print(f"order {order}: residual {norm_1(exact - bch_truncated(x, y, order)):.6e}")
    return 0


class _Parser(argparse.ArgumentParser):
    """A command line argparse rejects takes the one ``config error:`` exit."""

    def error(self, message):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="shiftlog",
        description="Verification campaigns for shifted-logarithm operator calculus.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run verification suites from a config")
    p_verify.add_argument("--config", default=None, help="JSON campaign config")
    p_verify.add_argument("--suite", action="append", choices=SUITES,
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
    p_bch.add_argument("--order", type=int, default=3, choices=range(1, 9))
    p_bch.set_defaults(func=cmd_bch)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except OSError as exc:  # first: io.UnsupportedOperation is also a ValueError
        print(f"io error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OverflowError, ShiftlogError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
