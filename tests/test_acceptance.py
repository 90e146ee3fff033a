"""Acceptance suite: one test per exit criterion, one console line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
pass/fail lines.  Every tolerance is pinned here; the heavy lifting happens
in :mod:`shiftlog.campaigns` so the CLI ``verify`` verb exercises the same
code paths.
"""

import json
import time

import numpy as np

from shiftlog.bch import von_neumann_rhs
from shiftlog.campaigns import (
    suite_bch,
    suite_logrep,
    suite_matfun,
    suite_sweep,
    suite_von_neumann,
)
from shiftlog.cli import main
from shiftlog.evolution import GeneratorSpec, propagate
from shiftlog.linalg import norm_1
from shiftlog.logrep import check_asymmetry

SEED = 42


def _report_line(num, name, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:2d} {name}: {status}  ({detail})")
    assert ok, f"criterion {num} ({name}): {detail}"


def _by_case(reports):
    return {r.case: r for r in reports}


def test_criterion_01_matfun_round_trips():
    t0 = time.perf_counter()
    cases = _by_case(suite_matfun(SEED, dims=(2, 4, 8, 16), count=200))
    elapsed = time.perf_counter() - t0
    rt = cases["log_exp_roundtrip"]
    agree = cases["contour_vs_iss"]
    ok = rt.passed and agree.passed and elapsed <= 30.0
    _report_line(1, "matrix-function round trips", ok,
                 f"roundtrip {rt.residual:.2e} <= {rt.tolerance:.0e}, "
                 f"contour agreement {agree.residual:.2e} <= {agree.tolerance:.0e}, "
                 f"{elapsed:.1f}s <= 30s")


def test_criterion_02_generator_recovery():
    t0 = time.perf_counter()
    cases = _by_case(suite_logrep(SEED))
    elapsed = time.perf_counter() - t0
    const = cases["recover_constant"]
    mod = cases["recover_modulated"]
    ok = const.passed and mod.passed and elapsed <= 30.0
    _report_line(2, "generator recovery on commuting families", ok,
                 f"constant {const.residual:.2e}, modulated {mod.residual:.2e} "
                 f"<= 1e-5, {elapsed:.1f}s <= 30s")


def test_criterion_03_bch_order_law():
    t0 = time.perf_counter()
    cases = _by_case(suite_bch(SEED))
    elapsed = time.perf_counter() - t0
    excesses = [cases[f"order_law_k{k}"] for k in (1, 2, 3)]
    ok = all(c.passed for c in excesses) and elapsed <= 20.0
    _report_line(3, "product-series order law", ok,
                 "slope window excesses " +
                 ", ".join(f"k={k}: {c.residual:.2e}" for k, c in zip((1, 2, 3), excesses))
                 + f", {elapsed:.1f}s <= 20s")


def test_criterion_04_conjugation_series():
    t0 = time.perf_counter()
    cases = _by_case(suite_bch(SEED))
    elapsed = time.perf_counter() - t0
    tail = cases["adjoint_series_n12"]
    mono = cases["adjoint_series_monotone"]
    ok = tail.passed and mono.passed and elapsed <= 10.0
    _report_line(4, "conjugation series tail", ok,
                 f"N=12 residual {tail.residual:.2e} <= 1e-8, monotone, "
                 f"{elapsed:.1f}s <= 10s")


def test_criterion_05_shifted_identity_cubic_scaling():
    t0 = time.perf_counter()
    cases = _by_case(suite_bch(SEED))
    elapsed = time.perf_counter() - t0
    scaling = cases["shifted_bch_eps_scaling"]
    ok = scaling.passed and elapsed <= 20.0
    _report_line(5, "shifted-identity cubic scaling", ok,
                 f"slope window excess {scaling.residual:.2e}, kappa=2, "
                 f"{elapsed:.1f}s <= 20s")


def test_criterion_06_frozen_second_derivative():
    t0 = time.perf_counter()
    cases = _by_case(suite_von_neumann(SEED))
    elapsed = time.perf_counter() - t0
    frozen = cases["frozen_commutator"]
    zero = cases["frozen_commuting_zero"]
    ok = frozen.passed and zero.passed and elapsed <= 20.0
    _report_line(6, "commutator as log second derivative", ok,
                 f"20 pairs worst {frozen.residual:.2e} <= 1e-5, "
                 f"commuting {zero.residual:.2e} <= 1e-8, {elapsed:.1f}s <= 20s")


def test_criterion_07_von_neumann_demo():
    t0 = time.perf_counter()
    h_op = np.diag([1.0, -1.0]).astype(complex)
    rho0 = 0.5 * np.ones((2, 2), dtype=complex)
    rep = von_neumann_rhs(rho0, h_op, 1.0, np.linspace(0.05, 1.0, 20))
    elapsed = time.perf_counter() - t0
    worst = max(rep.residuals)
    ok = (len(rep.residuals) == 20 and worst <= 1e-5
          and rep.trace_drift <= 1e-9 and elapsed <= 5.0)
    _report_line(7, "rotating-coherence demo", ok,
                 f"worst residual {worst:.2e} <= 1e-5 at 20 points, "
                 f"trace drift {rep.trace_drift:.2e} <= 1e-9, {elapsed:.1f}s <= 5s")


def test_criterion_08_refinement_sweep():
    t0 = time.perf_counter()
    cases = _by_case(suite_sweep(SEED, dims=(8, 16, 32, 64)))
    elapsed = time.perf_counter() - t0
    slope = cases["norm_growth_slope"]
    band = cases["surrogate_band_ratio"]
    shifted = cases["shifted_identity_band"]
    ok = slope.passed and band.passed and shifted.passed and elapsed <= 180.0
    _report_line(8, "unbounded-emulation sweep", ok,
                 f"slope excess {slope.residual:.2e}, band ratio "
                 f"{band.residual:.2f} <= 4, shifted residual "
                 f"{shifted.residual:.2e} <= 1e-2, {elapsed:.1f}s <= 180s")


def test_criterion_09_asymmetry_exhibit():
    t0 = time.perf_counter()
    rng = np.random.default_rng([SEED, 9])
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    a = a / norm_1(a)
    u = propagate(GeneratorSpec.constant(a), 1.0, 0.0, 256)
    gap0 = check_asymmetry(u, 0.0)
    gap = check_asymmetry(u, 2.0 * norm_1(u))
    elapsed = time.perf_counter() - t0
    ok = gap0 <= 1e-10 and gap >= 0.1 and elapsed <= 2.0
    _report_line(9, "inverse-vs-shift asymmetry", ok,
                 f"gap(kappa=0) {gap0:.2e} <= 1e-10, generic gap {gap:.3f} "
                 f">= 0.1, {elapsed:.1f}s <= 2s")


def test_criterion_10_deterministic_reports(tmp_path):
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / f"report_{tag}.json"
        cfg = tmp_path / f"config_{tag}.json"
        cfg.write_text(json.dumps({
            "seed": SEED,
            "suites": ["logrep", "bch", "von_neumann"],
            "output": {"path": str(out), "format": "json"},
        }))
        assert main(["verify", "--config", str(cfg)]) == 0
        outs.append(out.read_bytes())
    ok = outs[0] == outs[1]
    _report_line(10, "byte-identical reports", ok,
                 f"{len(outs[0])} bytes, identical={ok}")
