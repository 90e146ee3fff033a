"""Verification campaign suites.

Each suite runs a deterministic, seeded batch of identity checks and returns
:class:`VerificationReport` records.  The CLI ``verify`` verb and the
acceptance tests drive the same functions, and the ``sweep`` and ``vn-demo``
verbs grade their measurements with the same ``grade_*`` helpers the suites
use, so every verdict is taken against ``DEFAULT_TOLERANCES`` in this module.

Two residual encodings are used (see :class:`VerificationReport`): plain
residual-vs-tolerance checks, and window checks where the residual is the
distance of a measured quantity (an order slope, a ratio) from its admissible
interval and the tolerance is zero.
"""

from __future__ import annotations

import math
import time

import numpy as np

from . import bch as bch_mod
from . import logrep as logrep_mod
from .errors import SingularMatrixError
from .evolution import GeneratorSpec, check_growth_bound, check_semigroup, propagate
from .linalg import eye, norm_1, solve
from .matfun import FdConfig, contour_for, expm, fd_derivative, logm_contour, logm_iss
from .report import VerificationReport
from .sampling import (
    nilpotent_sum_pair,
    noncommuting_pair,
    rand_complex,
    rand_log_admissible,
)
from .unbounded import (NORM_GROWTH_ORDER, DiscretizedFamily, SweepReport, refinement_sweep,
                        semigroup_residual)

SUITES = ("matfun", "evolution", "logrep", "bch", "von_neumann", "sweep")

DEFAULT_DIMS = (2, 4, 8, 16)

# Stated tolerances for every case, overridable per campaign.  Window cases
# carry tolerance 0 and encode the window distance in the residual.
DEFAULT_TOLERANCES = {
    "matfun.log_exp_roundtrip": 1e-8,
    "matfun.contour_vs_iss": 1e-8,
    "matfun.exp_log_roundtrip": 1e-9,
    "matfun.fd_order_ratio": 0.0,
    "evolution.rk4_vs_expm": 1e-8,
    "evolution.commuting_quadrature": 1e-6,
    "evolution.semigroup_constant": 1e-9,
    "evolution.semigroup_tdep": 1e-6,
    "evolution.rk4_order_window": 0.0,
    "evolution.magnus2_order_window": 0.0,
    "evolution.growth_bound": 0.0,
    "evolution.unitary_norm_proxy": 0.0,
    "logrep.reexponentiation": 1e-9,
    "logrep.kappa_resolvent": 0.0,
    "logrep.recover_constant": 1e-5,
    "logrep.recover_modulated": 1e-5,
    "logrep.asymmetry_zero_kappa": 1e-10,
    "logrep.asymmetry_generic": 0.0,
    "bch.order_law_k1": 0.0,
    "bch.order_law_k2": 0.0,
    "bch.order_law_k3": 0.0,
    "bch.adjoint_series_n12": 1e-8,
    "bch.adjoint_series_monotone": 0.0,
    "bch.shifted_bch_trivial": 1e-12,
    "bch.shifted_bch_eps_scaling": 0.0,
    "von_neumann.frozen_commutator": 1e-5,
    "von_neumann.frozen_commuting_zero": 1e-8,
    "von_neumann.antisymmetry": 2e-6,
    "von_neumann.reversed_pair_chain": 2e-6,
    "von_neumann.demo_residual": 1e-5,
    "von_neumann.demo_trace_drift": 1e-9,
    "von_neumann.hbar_scaling": 1e-12,
    "von_neumann.expansion_frozen_first": 1e-7,
    "von_neumann.expansion_frozen_second": 1e-5,
    "von_neumann.expansion_integral_second": 1e-4,
    "sweep.norm_growth_slope": 0.0,
    "sweep.surrogate_band_ratio": 4.0,
    "sweep.shifted_identity_band": 1e-2,
    "sweep.semigroup_calibrated": 1e-6,
}


def _window_excess(value: float, lo: float, hi: float) -> float:
    # max() would drop a NaN, which must fail the window rather than pass it.
    if math.isnan(value):
        return math.inf
    return max(0.0, lo - value, value - hi)


def _loglog_slope(xs, ys) -> float:
    return float(np.polyfit(np.log(np.asarray(xs, dtype=float)),
                             np.log(np.asarray(ys, dtype=float)), 1)[0])


class Recorder:
    """Collects one suite's records, each graded against ``DEFAULT_TOLERANCES``
    unless ``tolerances`` overrides its key, and timed since the previous one."""

    def __init__(self, suite: str, tolerances: dict | None = None):
        self.suite = suite
        self.overrides = tolerances or {}
        self.reports: list[VerificationReport] = []
        self._t0 = time.perf_counter()

    def add(self, case: str, anchor: str, residual: float) -> None:
        now = time.perf_counter()
        key = f"{self.suite}.{case}"
        tol = self.overrides.get(key, DEFAULT_TOLERANCES[key])
        self.reports.append(VerificationReport(
            self.suite, case, anchor, float(residual), float(tol),
            runtime_ms=(now - self._t0) * 1000.0))
        self._t0 = now


def grade_von_neumann_demo(rec: Recorder, demo: bch_mod.VonNeumannReport) -> None:
    """Grade a density-matrix trajectory: the von Neumann equation written through
    the logarithm at every grid point, and trace conservation."""
    rec.add("demo_residual", "von-neumann-equation", max(demo.residuals))
    rec.add("demo_trace_drift", "trace-conservation", demo.trace_drift)


def grade_sweep(rec: Recorder, report: SweepReport) -> None:
    """Grade the refinement table: the raw norms grow at the family's order
    (and strictly increase), the surrogate norms stay in a band, and the
    shifted product identity holds.  A one-row sweep has no slope to grade."""
    rows = report.rows
    if len(rows) >= 2:
        order = NORM_GROWTH_ORDER[report.family.kind]
        increasing = all(a.norm_A < b.norm_A for a, b in zip(rows, rows[1:]))
        excess = (_window_excess(report.norm_slope(), order - 0.2, order + 0.2)
                  if increasing else math.inf)
        rec.add("norm_growth_slope", "refinement-norm-growth", excess)
    rec.add("surrogate_band_ratio", "surrogate-norm-band", report.band_ratio())
    rec.add("shifted_identity_band", "shifted-product-identity",
            max(r.residual_shifted_bch for r in rows))


def suite_matfun(seed: int, dims=DEFAULT_DIMS, count: int = 200,
                 tolerances: dict | None = None) -> list[VerificationReport]:
    """Logarithm round trips and cross-algorithm agreement on seeded matrices."""
    rec = Recorder("matfun", tolerances)
    rng = np.random.default_rng([seed, 1])
    per_dim = max(1, count // len(dims))
    worst_rt = worst_agree = 0.0
    for n in dims:
        for _ in range(per_dim):
            a = rand_log_admissible(rng, n)
            m = expm(a)
            log_m = logm_iss(m)
            worst_rt = max(worst_rt, norm_1(log_m - a))
            contour_value = logm_contour(m, contour_for(m))
            worst_agree = max(worst_agree, norm_1(contour_value - log_m) / norm_1(log_m))
    rec.add("log_exp_roundtrip", "principal-log-roundtrip", worst_rt)
    rec.add("contour_vs_iss", "independent-log-algorithms", worst_agree)

    # exp(log(M)) for shifted operators, the direction the surrogate needs.
    worst = 0.0
    for n in dims:
        u = expm(rand_complex(rng, n, 0.8))
        m = u + 2.0 * norm_1(u) * eye(n)
        worst = max(worst, norm_1(expm(logm_iss(m)) - m) / norm_1(m))
    rec.add("exp_log_roundtrip", "shifted-log-reexponentiation", worst)

    # FD order: halving h must cut the error by at least 3.5x per level set.
    a = rand_complex(rng, 3, 0.8)
    cfg_h = FdConfig(h=2e-2, richardson_levels=0)
    cfg_h2 = FdConfig(h=1e-2, richardson_levels=0)
    err = lambda cfg: norm_1(fd_derivative(lambda t: expm(t * a), 0.0, cfg, 1) - a)
    ratio = err(cfg_h) / err(cfg_h2)
    rec.add("fd_order_ratio", "central-difference-order", _window_excess(ratio, 3.5, 6.0))
    return rec.reports


def suite_evolution(seed: int, tolerances: dict | None = None) -> list[VerificationReport]:
    """Propagator accuracy, order, semigroup property, growth bounds."""
    rec = Recorder("evolution", tolerances)
    rng = np.random.default_rng([seed, 2])

    a_const = rand_complex(rng, 4, 1.5)
    g_const = GeneratorSpec.constant(a_const, "const4")
    u = propagate(g_const, 0.9, 0.1, 256, "rk4")
    rec.add("rk4_vs_expm", "constant-generator-exponential",
            norm_1(u.U - expm(0.8 * a_const)))

    a0 = rand_complex(rng, 3, 1.0)
    g_mod = GeneratorSpec.modulated(a0, "one_plus_half_sin", gen_id="mod3")
    u = propagate(g_mod, 0.8, 0.0, 512, "rk4")
    # Commuting family: closed form via scalar quadrature of the modulation.
    import scipy.integrate as _si
    weight, _ = _si.quad(lambda t: 1.0 + 0.5 * np.sin(2.0 * np.pi * t), 0.0, 0.8,
                         epsabs=1e-13, epsrel=1e-13)
    rec.add("commuting_quadrature", "commuting-family-closed-form",
            norm_1(u.U - expm(weight * a0)))

    rec.add("semigroup_constant", "two-parameter-composition",
            check_semigroup(g_const, 0.0, 0.5, 1.0, 512, "rk4"))

    entries = [rand_complex(rng, 4, 1.0) for _ in range(3)]
    g_table = GeneratorSpec.from_table(
        [0.0, 0.5, 1.0], entries, gen_id="tab4")
    rec.add("semigroup_tdep", "two-parameter-composition",
            check_semigroup(g_table, 0.0, 0.4, 0.9, 512, "rk4"))

    # Order of accuracy under step doubling needs a smooth non-commuting
    # family (table interpolants have curvature kinks that spoil the ratio).
    base = rand_complex(rng, 4, 1.0)
    drift = rand_complex(rng, 4, 1.0)
    g_smooth = GeneratorSpec(
        "smooth4", 4, 1.0, lambda t: base + np.sin(2.0 * np.pi * t) * drift)

    def order_ratio(stepper: str, base_steps: int) -> float:
        u1 = propagate(g_smooth, 0.9, 0.0, base_steps, stepper).U
        u2 = propagate(g_smooth, 0.9, 0.0, 2 * base_steps, stepper).U
        u4 = propagate(g_smooth, 0.9, 0.0, 4 * base_steps, stepper).U
        return norm_1(u1 - u2) / norm_1(u2 - u4)

    rec.add("rk4_order_window", "stepper-order",
            _window_excess(order_ratio("rk4", 64), 11.0, 22.0))
    rec.add("magnus2_order_window", "stepper-order",
            _window_excess(order_ratio("magnus2", 64), 3.0, 5.5))

    # Contraction obeys (M, omega) = (1, 0); expansion violates it.
    g_contract = GeneratorSpec.constant(-1.0 * eye(3), "contract")
    u_c = propagate(g_contract, 1.0, 0.0, 64, "rk4")
    ok = check_growth_bound(u_c, 1.0, 0.0)
    g_expand = GeneratorSpec.constant(eye(3), "expand")
    u_e = propagate(g_expand, 1.0, 0.0, 64, "rk4")
    bad = check_growth_bound(u_e, 1.0, 0.5)
    rec.add("growth_bound", "norm-growth-envelope",
            0.0 if (ok and not bad) else 1.0)

    from .unbounded import build
    g_adv = build("advection_tdep", 16)
    u_a = propagate(g_adv, 0.5, 0.0, 256, "magnus2")
    excess = max(0.0, norm_1(u_a.U) - np.sqrt(16) * (1.0 + 1e-6))
    rec.add("unitary_norm_proxy", "skew-hermitian-isometry", excess)
    return rec.reports


def _recovery_case(g: GeneratorSpec, probes, steps: int = 256) -> float:
    ops = [propagate(g, t, 0.0, steps, "rk4") for t in probes]
    kappa = logrep_mod.select_kappa(ops).kappa
    worst = 0.0
    for t in probes:
        recovered = logrep_mod.recover_generator(
            g, 0.0, t, kappa, FdConfig(h=1e-2, richardson_levels=1),
            steps_per_unit=steps)
        worst = max(worst, norm_1(recovered - g.eval(t)))
    return worst


def suite_logrep(seed: int, tolerances: dict | None = None) -> list[VerificationReport]:
    """Defining relation, generator recovery, kappa admissibility, asymmetry."""
    rec = Recorder("logrep", tolerances)
    rng = np.random.default_rng([seed, 3])

    g8 = GeneratorSpec.constant(rand_complex(rng, 8, 1.2), "rand8")
    grid = [(0.3, 0.0), (0.6, 0.0), (0.9, 0.0), (0.9, 0.3)]
    ops = [propagate(g8, t, s, 256, "rk4") for t, s in grid]
    kappa = logrep_mod.select_kappa(ops).kappa
    worst = 0.0
    resolvent_ok = True
    for op in ops:
        shifted = op.U + kappa * eye(8)
        a = logrep_mod.alt_generator(op, kappa)
        worst = max(worst, norm_1(expm(a) - shifted) / norm_1(shifted))
        try:
            solve(shifted, eye(8))
        except SingularMatrixError:
            resolvent_ok = False
    rec.add("reexponentiation", "shifted-log-defining-relation", worst)
    rec.add("kappa_resolvent", "shift-in-resolvent-set", 0.0 if resolvent_ok else 1.0)

    rotation = np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=np.complex128)
    rec.add("recover_constant", "generator-recovery",
            _recovery_case(GeneratorSpec.constant(rotation, "rot2"),
                           (0.3, 0.5, 0.7)))
    g_mod = GeneratorSpec.modulated(np.diag([1.0, -1.0]).astype(np.complex128),
                                    "affine", {"a": 1.0, "b": 1.0}, gen_id="affine2")
    rec.add("recover_modulated", "generator-recovery",
            _recovery_case(g_mod, (0.2, 0.3, 0.4)))

    g4 = GeneratorSpec.constant(rand_complex(rng, 4, 1.0), "rand4")
    chk0 = logrep_mod.check_asymmetry(g4, 0.0, 1.0, 0.0)
    rec.add("asymmetry_zero_kappa", "inverse-vs-shift-asymmetry", chk0.gap)
    u = propagate(g4, 1.0, 0.0, 256, "rk4")
    chk = logrep_mod.check_asymmetry(g4, 0.0, 1.0, 2.0 * norm_1(u.U))
    rec.add("asymmetry_generic", "inverse-vs-shift-asymmetry",
            max(0.0, 0.1 - chk.gap))
    return rec.reports


def suite_bch(seed: int, tolerances: dict | None = None) -> list[VerificationReport]:
    """Product-series order law, conjugation series, shifted identity scaling."""
    rec = Recorder("bch", tolerances)
    rng = np.random.default_rng([seed, 4])

    ts = [2.0 ** (-j) for j in range(3, 8)]
    pairs = [noncommuting_pair(rng, 3) for _ in range(10)]
    for order in (1, 2, 3):
        worst = 0.0
        for x, y in pairs:
            res = [norm_1(bch_mod.log_product(t * x, t * y)
                          - bch_mod.bch_truncated(t * x, t * y, order)) for t in ts]
            slope = _loglog_slope(ts, res)
            worst = max(worst, _window_excess(slope, order + 0.7, order + 1.3))
        rec.add(f"order_law_k{order}", "product-series-order-law", worst)

    worst_tail = 0.0
    worst_bump = 0.0
    for _ in range(10):
        a1 = rand_complex(rng, 3, rng.uniform(0.2, 0.5))
        a2 = rand_complex(rng, 3, 1.0)
        exact = expm(a1) @ a2 @ expm(-a1)
        res = [norm_1(exact - bch_mod.adjoint_series(a1, a2, n)) for n in range(2, 13)]
        worst_tail = max(worst_tail, res[-1])
        for lo, hi in zip(res, res[1:]):
            if lo > 1e-12:  # ignore wiggle at the rounding floor
                worst_bump = max(worst_bump, hi - lo)
    rec.add("adjoint_series_n12", "conjugation-series-tail", worst_tail)
    rec.add("adjoint_series_monotone", "conjugation-series-tail", worst_bump)

    zero = np.zeros((2, 2), dtype=np.complex128)
    rec.add("shifted_bch_trivial", "shifted-product-identity",
            bch_mod.kappa_shifted_bch(zero, zero, 2.0).residual)

    eps = (0.2, 0.1, 0.05)
    worst = 0.0
    for _ in range(10):
        a1, a2 = nilpotent_sum_pair(rng, 2)
        res = [bch_mod.kappa_shifted_bch(e * a1, e * a2, 2.0).residual for e in eps]
        slope = _loglog_slope(eps, res)
        worst = max(worst, _window_excess(slope, 2.7, 3.3))
    rec.add("shifted_bch_eps_scaling", "shifted-product-identity", worst)
    return rec.reports


def suite_von_neumann(seed: int, tolerances: dict | None = None) -> list[VerificationReport]:
    """Second-derivative-of-logarithm identities and the density-matrix demo."""
    rec = Recorder("von_neumann", tolerances)
    rng = np.random.default_rng([seed, 5])
    cfg = bch_mod.VonNeumannConfig()

    worst = 0.0
    for _ in range(20):
        x = rand_complex(rng, 3, rng.uniform(0.3, 1.0))
        y = rand_complex(rng, 3, rng.uniform(0.3, 1.0))
        second = bch_mod.von_neumann_second_derivative(x, y, cfg)
        worst = max(worst, norm_1(second - bch_mod.commutator(x, y)))
    rec.add("frozen_commutator", "commutator-as-log-second-derivative", worst)

    dx = np.diag(rng.uniform(-1.0, 1.0, 3)).astype(np.complex128)
    dy = np.diag(rng.uniform(-1.0, 1.0, 3)).astype(np.complex128)
    rec.add("frozen_commuting_zero", "commutator-as-log-second-derivative",
            norm_1(bch_mod.von_neumann_second_derivative(dx, dy, cfg)))

    x = rand_complex(rng, 2, 0.8)
    y = rand_complex(rng, 2, 0.8)
    fwd = bch_mod.von_neumann_second_derivative(x, y, cfg)
    rec.add("antisymmetry", "commutator-antisymmetry",
            norm_1(bch_mod.von_neumann_second_derivative(y, x, cfg) + fwd))
    rec.add("reversed_pair_chain", "commutator-antisymmetry",
            norm_1(bch_mod.von_neumann_second_derivative(y, -x, cfg) - fwd))

    # Rotating-coherence demo: H = diag(1, -1), rho0 = |+><+|.
    h_op = np.diag([1.0, -1.0]).astype(np.complex128)
    rho0 = 0.5 * np.ones((2, 2), dtype=np.complex128)
    tgrid = np.linspace(0.05, 1.0, 20)
    grade_von_neumann_demo(rec, bch_mod.von_neumann_rhs(rho0, h_op, cfg, tgrid))

    # prefactor linearity: at a matched state, doubling hbar halves the rhs
    r1 = bch_mod.von_neumann_rhs(rho0, h_op, cfg, [0.2])
    lhs1 = (1j / 1.0) * bch_mod.commutator(r1.states[0], h_op)
    lhs2 = (1j / 2.0) * bch_mod.commutator(r1.states[0], h_op)
    rec.add("hbar_scaling", "planck-prefactor-linearity",
            norm_1(2.0 * lhs2 - lhs1))

    b1 = rand_complex(rng, 2, 0.6)
    b2 = rand_complex(rng, 2, 0.6)
    frozen = bch_mod.log_product_expansion(lambda s: b1, lambda s: b2, cfg)
    rec.add("expansion_frozen_first", "integrated-product-expansion",
            frozen.first_residual)
    rec.add("expansion_frozen_second", "integrated-product-expansion",
            frozen.second_residual)

    c1 = rand_complex(rng, 2, 0.4)
    c2 = rand_complex(rng, 2, 0.4)
    cfg_int = bch_mod.VonNeumannConfig(mode="integral")
    drifting = bch_mod.log_product_expansion(
        lambda s: b1 + s * c1, lambda s: b2 + s * c2, cfg_int)
    rec.add("expansion_integral_second", "integrated-product-expansion",
            drifting.second_residual)
    return rec.reports


def suite_sweep(seed: int, dims=(8, 16, 32, 64),
                tolerances: dict | None = None) -> list[VerificationReport]:
    """Refinement sweep: raw norms blow up, surrogate norms stay in a band."""
    rec = Recorder("sweep", tolerances)
    family = DiscretizedFamily("diffusion", tuple(dims), viscosity=0.01)
    grade_sweep(rec, refinement_sweep(family, t=0.1, s=0.0))
    rec.add("semigroup_calibrated", "two-parameter-composition",
            max(semigroup_residual(family, n, 0.1, 0.0) for n in dims))
    return rec.reports


def run_suites(suites, seed: int, dims=DEFAULT_DIMS, sweep_dims=(8, 16, 32, 64),
               tolerances: dict | None = None) -> list[VerificationReport]:
    """Run the selected suites in canonical order with a shared seed."""
    seed, tolerances = int(seed), tolerances or {}
    runners = {
        "matfun": lambda: suite_matfun(seed, tuple(dims), 200, tolerances),
        "evolution": lambda: suite_evolution(seed, tolerances),
        "logrep": lambda: suite_logrep(seed, tolerances),
        "bch": lambda: suite_bch(seed, tolerances),
        "von_neumann": lambda: suite_von_neumann(seed, tolerances),
        "sweep": lambda: suite_sweep(seed, tuple(sweep_dims), tolerances),
    }
    return [r for name in SUITES if name in suites for r in runners[name]()]
