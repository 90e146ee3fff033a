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
from .evolution import GeneratorSpec, check_growth_bound, check_semigroup, march, propagate
from .linalg import eye, norm_1, solve
from .matfun import expm, fd_derivative, fd_step, logm_contour, logm_iss
from .report import VerificationReport
from .sampling import noncommuting_pair, rand_complex, rand_log_admissible
from .unbounded import (NORM_GROWTH_ORDER, DiscretizedFamily, SweepReport,
                        refinement_sweep, semigroup_residual, tdep_integral, tdep_modulation)

SUITES = ("matfun", "evolution", "logrep", "bch", "von_neumann", "sweep")

DEFAULT_DIMS = (2, 4, 8, 16)

# Defaults shared with the CLI verbs: the sweep suite's grid sizes, the
# refinement sweep's horizon (t, s) and the von Neumann demo's time grid
# (start, stop, points).
DEFAULT_SWEEP_DIMS = (8, 16, 32, 64)
SWEEP_HORIZON = (0.1, 0.0)
VON_NEUMANN_GRID = (0.05, 1.0, 20)

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
    "evolution.magnus4_order_window": 0.0,
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
    and timed since the previous one."""

    def __init__(self, suite: str):
        self.suite = suite
        self.reports: list[VerificationReport] = []
        self._t0 = time.perf_counter()

    def add(self, case: str, anchor: str, residual: float) -> None:
        now = time.perf_counter()
        tol = DEFAULT_TOLERANCES[f"{self.suite}.{case}"]
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
        slope = _loglog_slope([r.n for r in rows], [r.norm_A for r in rows])
        excess = _window_excess(slope, order - 0.2, order + 0.2) if increasing else math.inf
        rec.add("norm_growth_slope", "refinement-norm-growth", excess)
    rec.add("surrogate_band_ratio", "surrogate-norm-band", report.band_ratio())
    rec.add("shifted_identity_band", "shifted-product-identity",
            max(r.residual_shifted_bch for r in rows))


def suite_matfun(seed: int, dims=DEFAULT_DIMS, count: int = 200) -> list[VerificationReport]:
    """Logarithm round trips and cross-algorithm agreement on seeded matrices."""
    rec = Recorder("matfun")
    rng = np.random.default_rng([seed, 1])
    per_dim = max(1, count // len(dims))
    worst_rt = worst_agree = 0.0
    pairs = []
    for n in dims:
        for _ in range(per_dim):
            a, m = rand_log_admissible(rng, n)
            log_m = logm_iss(m)
            worst_rt = max(worst_rt, norm_1(log_m - a))
            pairs.append((m, log_m))
    rec.add("log_exp_roundtrip", "principal-log-roundtrip", worst_rt)
    # A loop of its own, so the oracle's time is charged to this record.
    for m, log_m in pairs:
        contour_value = logm_contour(m)
        worst_agree = max(worst_agree, norm_1(contour_value - log_m) / norm_1(log_m))
    rec.add("contour_vs_iss", "independent-log-algorithms", worst_agree)

    # exp(log(M)) for shifted operators, the direction the surrogate needs.
    worst = 0.0
    for n in dims:
        u = expm(rand_complex(rng, n, 0.8))
        m = u + logrep_mod.select_kappa([u]) * eye(n)
        worst = max(worst, norm_1(expm(logm_iss(m)) - m) / norm_1(m))
    rec.add("exp_log_roundtrip", "shifted-log-reexponentiation", worst)

    # FD order: one Richardson level is fourth order, so halving h cuts the
    # error ~16-fold.  At 2e-2 vs 1e-2 the rounding floor spreads it 6.3-19.1.
    a = rand_complex(rng, 3, 0.8)
    err = lambda h: norm_1(fd_derivative(lambda t: expm(t * a), 0.0, h) - a)
    rec.add("fd_order_ratio", "central-difference-order",
            _window_excess(err(4e-2) / err(2e-2), 11.0, 22.0))
    return rec.reports


def suite_evolution(seed: int) -> list[VerificationReport]:
    """Propagator accuracy, order, semigroup property, growth bounds."""
    rec = Recorder("evolution")
    rng = np.random.default_rng([seed, 2])

    a_const = rand_complex(rng, 4, 1.5)
    g_const = GeneratorSpec.constant(a_const)
    u = propagate(g_const, 0.9, 0.1, 256, "rk4")
    rec.add("rk4_vs_expm", "constant-generator-exponential",
            norm_1(u - expm(0.8 * a_const)))

    a0 = rand_complex(rng, 3, 1.0)
    g_mod = GeneratorSpec.modulated(a0, tdep_modulation, tdep_integral)
    u = propagate(g_mod, 0.8, 0.0, 512, "rk4")
    # Commuting family: U = expm(w a0) with w the integral of the modulation
    # 1 + sin(2 pi t) / 2 over [0, 0.8], in closed form.  The rk4 march
    # samples the modulation, so this grades tdep_integral too.
    rec.add("commuting_quadrature", "commuting-family-closed-form",
            norm_1(u - expm(tdep_integral(0.0, 0.8) * a0)))

    # A split whose two legs step at different h: at r = 0.5 both would take
    # 256 steps of the same S, and S^256 S^256 is S^512's own squaring chain.
    rec.add("semigroup_constant", "two-parameter-composition",
            check_semigroup(g_const, 0.0, 0.4, 1.0, 512, "rk4"))

    entries = [rand_complex(rng, 4, 1.0) for _ in range(3)]
    g_table = GeneratorSpec.from_table([0.0, 0.5, 1.0], entries)
    rec.add("semigroup_tdep", "two-parameter-composition",
            check_semigroup(g_table, 0.0, 0.4, 0.9, 512, "rk4"))

    # Order of accuracy under step doubling needs a smooth non-commuting
    # family (table interpolants have curvature kinks that spoil the ratio).
    base = rand_complex(rng, 4, 1.0)
    drift = rand_complex(rng, 4, 1.0)
    g_smooth = GeneratorSpec(4, 1.0, lambda t: base + np.sin(2.0 * np.pi * t) * drift)

    def order_ratio(stepper: str, base_steps: int) -> float:
        u1 = propagate(g_smooth, 0.9, 0.0, base_steps, stepper)
        u2 = propagate(g_smooth, 0.9, 0.0, 2 * base_steps, stepper)
        u4 = propagate(g_smooth, 0.9, 0.0, 4 * base_steps, stepper)
        return norm_1(u1 - u2) / norm_1(u2 - u4)

    # Both steppers are fourth order, so doubling the steps cuts the error
    # about 16-fold.  The family does not commute with itself, so magnus4
    # keeps its order only through its commutator term and that term's sign.
    for stepper, base_steps in (("rk4", 64), ("magnus4", 32)):
        rec.add(f"{stepper}_order_window", "stepper-order",
                _window_excess(order_ratio(stepper, base_steps), 11.0, 22.0))

    # Contraction obeys (M, omega) = (1, 0); expansion violates it.
    g_contract = GeneratorSpec.constant(-1.0 * eye(3))
    u_c = propagate(g_contract, 1.0, 0.0, 64, "rk4")
    ok = check_growth_bound(u_c, 1.0, 1.0, 0.0)
    g_expand = GeneratorSpec.constant(eye(3))
    u_e = propagate(g_expand, 1.0, 0.0, 64, "rk4")
    bad = check_growth_bound(u_e, 1.0, 1.0, 0.5)
    rec.add("growth_bound", "norm-growth-envelope",
            0.0 if (ok and not bad) else 1.0)

    g_adv = DiscretizedFamily("advection_tdep", (16,)).member(16)
    u_a = propagate(g_adv, 0.5, 0.0, 256, "magnus4")
    excess = max(0.0, norm_1(u_a) - np.sqrt(16) * (1.0 + 1e-6))
    rec.add("unitary_norm_proxy", "skew-hermitian-isometry", excess)
    return rec.reports


def _ramp(t: float) -> float:
    """Scalar factor 1 + t of the logrep suite's modulated generator."""
    return 1.0 + t


def _ramp_integral(s: float, t: float) -> float:
    """int_s^t of :func:`_ramp`, as the product (t - s) (1 + (t + s) / 2)."""
    return (t - s) * (1.0 + 0.5 * (t + s))


def _recovery_case(g: GeneratorSpec, probes) -> float:
    # One march from 0 through every FD probe, at the largest ||A(t)||_1's step.
    exact = {t: g.eval(t) for t in probes}
    h = fd_step(max(norm_1(a) for a in exact.values()))
    u_at = march(g, 0.0, logrep_mod.recovery_chain(probes, h), 256, "rk4")
    kappa = logrep_mod.select_kappa([u_at[t] for t in probes])
    return max(norm_1(logrep_mod.recover_generator(u_at, t, kappa, h) - exact[t])
               for t in probes)


def suite_logrep(seed: int) -> list[VerificationReport]:
    """Defining relation, generator recovery, kappa admissibility, asymmetry."""
    rec = Recorder("logrep")
    rng = np.random.default_rng([seed, 3])

    # U(t, 0) at t = 0.3, 0.6, 0.9 off one march, and U(0.9, 0.3).
    g8 = GeneratorSpec.constant(rand_complex(rng, 8, 1.2))
    ops = [*march(g8, 0.0, (0.3, 0.6, 0.9), 256, "rk4").values(),
           propagate(g8, 0.9, 0.3, 256, "rk4")]
    kappa = logrep_mod.select_kappa(ops)
    worst = 0.0
    resolvent_ok = True
    for op in ops:
        shifted = op + kappa * eye(8)
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
            _recovery_case(GeneratorSpec.constant(rotation), (0.3, 0.5, 0.7)))
    g_mod = GeneratorSpec.modulated(np.diag([1.0, -1.0]).astype(np.complex128),
                                    _ramp, _ramp_integral)
    rec.add("recover_modulated", "generator-recovery",
            _recovery_case(g_mod, (0.2, 0.3, 0.4)))

    u4 = propagate(GeneratorSpec.constant(rand_complex(rng, 4, 1.0)), 1.0, 0.0, 256, "rk4")
    rec.add("asymmetry_zero_kappa", "inverse-vs-shift-asymmetry",
            logrep_mod.check_asymmetry(u4, 0.0))
    gap = logrep_mod.check_asymmetry(u4, logrep_mod.select_kappa([u4]))
    rec.add("asymmetry_generic", "inverse-vs-shift-asymmetry", max(0.0, 0.1 - gap))
    return rec.reports


def suite_bch(seed: int) -> list[VerificationReport]:
    """Product-series order law, conjugation series, shifted identity scaling."""
    rec = Recorder("bch")
    rng = np.random.default_rng([seed, 4])

    # Z_j is homogeneous of degree j, so one series per pair gives the
    # truncation at every t and order: sum_{j <= order} t^j Z_j.
    ts = [2.0 ** (-j) for j in range(3, 8)]
    pairs = [noncommuting_pair(rng, 3) for _ in range(10)]
    exact = [[bch_mod.log_product(t * x, t * y) for t in ts] for x, y in pairs]
    series = [bch_mod.log_product_series(x, y, 3) for x, y in pairs]
    for order in (1, 2, 3):
        worst = 0.0
        for z, logs in zip(series, exact):
            res = [norm_1(log - sum(t ** j * z[j] for j in range(1, order + 1)))
                   for t, log in zip(ts, logs)]
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
            bch_mod.kappa_shifted_bch(zero, zero, 2.0))

    eps = (0.2, 0.1, 0.05)
    worst = 0.0
    for _ in range(10):
        a1, a2 = rand_complex(rng, 2, 0.5), rand_complex(rng, 2, 0.5)
        res = [bch_mod.kappa_shifted_bch(e * a1, e * a2, 2.0) for e in eps]
        slope = _loglog_slope(eps, res)
        worst = max(worst, _window_excess(slope, 2.7, 3.3))
    rec.add("shifted_bch_eps_scaling", "shifted-product-identity", worst)
    return rec.reports


def suite_von_neumann(seed: int) -> list[VerificationReport]:
    """Second-derivative-of-logarithm identities and the density-matrix demo."""
    rec = Recorder("von_neumann")
    rng = np.random.default_rng([seed, 5])

    worst = 0.0
    for _ in range(20):
        x = rand_complex(rng, 3, rng.uniform(0.3, 1.0))
        y = rand_complex(rng, 3, rng.uniform(0.3, 1.0))
        second = bch_mod.von_neumann_second_derivative(x, y)
        worst = max(worst, norm_1(second - bch_mod.commutator(x, y)))
    rec.add("frozen_commutator", "commutator-as-log-second-derivative", worst)

    dx = np.diag(rng.uniform(-1.0, 1.0, 3)).astype(np.complex128)
    dy = np.diag(rng.uniform(-1.0, 1.0, 3)).astype(np.complex128)
    rec.add("frozen_commuting_zero", "commutator-as-log-second-derivative",
            norm_1(bch_mod.von_neumann_second_derivative(dx, dy)))

    x = rand_complex(rng, 2, 0.8)
    y = rand_complex(rng, 2, 0.8)
    fwd = bch_mod.von_neumann_second_derivative(x, y)
    rec.add("antisymmetry", "commutator-antisymmetry",
            norm_1(bch_mod.von_neumann_second_derivative(y, x) + fwd))
    rec.add("reversed_pair_chain", "commutator-antisymmetry",
            norm_1(bch_mod.von_neumann_second_derivative(y, -x) - fwd))

    # Rotating-coherence demo: H = diag(1, -1), rho0 = |+><+|.
    h_op = np.diag([1.0, -1.0]).astype(np.complex128)
    rho0 = 0.5 * np.ones((2, 2), dtype=np.complex128)
    tgrid = np.linspace(*VON_NEUMANN_GRID)
    grade_von_neumann_demo(rec, bch_mod.von_neumann_rhs(rho0, h_op, 1.0, tgrid))

    # The prefactor i/hbar rescales time: rho(t; hbar) = rho(t / hbar; 1).
    slow = bch_mod.von_neumann_rhs(rho0, h_op, 2.0, [0.4])
    unit = bch_mod.von_neumann_rhs(rho0, h_op, 1.0, [0.2])
    rec.add("hbar_scaling", "planck-prefactor-linearity",
            norm_1(slow.states[0] - unit.states[0]))

    b1 = rand_complex(rng, 2, 0.6)
    b2 = rand_complex(rng, 2, 0.6)
    frozen = bch_mod.log_product_expansion(lambda s: b1, lambda s: b2)
    rec.add("expansion_frozen_first", "integrated-product-expansion",
            frozen.first_residual)
    rec.add("expansion_frozen_second", "integrated-product-expansion",
            frozen.second_residual)

    c1 = rand_complex(rng, 2, 0.4)
    c2 = rand_complex(rng, 2, 0.4)
    drifting = bch_mod.log_product_expansion(lambda s: b1 + s * c1, lambda s: b2 + s * c2)
    rec.add("expansion_integral_second", "integrated-product-expansion",
            drifting.second_residual)
    return rec.reports


def suite_sweep(seed: int, dims=DEFAULT_SWEEP_DIMS) -> list[VerificationReport]:
    """Refinement sweep: raw norms blow up, surrogate norms stay in a band."""
    rec = Recorder("sweep")
    family = DiscretizedFamily("diffusion", tuple(dims), viscosity=0.01)
    grade_sweep(rec, refinement_sweep(family, *SWEEP_HORIZON))
    rec.add("semigroup_calibrated", "two-parameter-composition",
            max(semigroup_residual(family, n, *SWEEP_HORIZON) for n in dims))
    return rec.reports


def run_suites(suites, seed: int, dims=DEFAULT_DIMS,
               sweep_dims=DEFAULT_SWEEP_DIMS) -> list[VerificationReport]:
    """Run the selected suites in canonical order with a shared seed."""
    seed = int(seed)
    runners = {
        "matfun": lambda: suite_matfun(seed, tuple(dims)),
        "evolution": lambda: suite_evolution(seed),
        "logrep": lambda: suite_logrep(seed),
        "bch": lambda: suite_bch(seed),
        "von_neumann": lambda: suite_von_neumann(seed),
        "sweep": lambda: suite_sweep(seed, tuple(sweep_dims)),
    }
    return [r for name in SUITES if name in suites for r in runners[name]()]
