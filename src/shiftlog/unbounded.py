"""Mesh-refinement families emulating unbounded generators.

Periodic central-difference discretizations of first- and second-derivative
operators on [0, 1): their 1-norms grow like n (advection) and n^2
(diffusion) under refinement, which is the desk-scale stand-in for an
unbounded generator.  :func:`refinement_sweep` measures, per grid size, how
the plain BCH combination on the raw generators degrades while the shifted
logarithm surrogates stay inside a fixed band.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BranchCutError,
    BudgetExceededError,
    ConvergenceRadiusError,
    NoConvergenceError,
    SingularMatrixError,
)
from .linalg import eye, norm_1
from .matfun import FdConfig, expm
from .evolution import GeneratorSpec, check_semigroup, propagate
from .logrep import alt_generator, recover_generator, select_kappa
from .bch import bch_truncated, kappa_shifted_bch

# Order p of the norm growth ||A_n||_1 ~ n^p under refinement, per family kind.
NORM_GROWTH_ORDER = {"advection": 1, "diffusion": 2, "advection_tdep": 1}


def advection_matrix(n: int, speed: float = 1.0) -> np.ndarray:
    """Periodic central-difference first derivative times speed; real
    skew-symmetric, norm_1 = speed * n for grid spacing 1/n."""
    if n < 4:
        raise ValueError(f"grid size must be at least 4, got {n}")
    h = 1.0 / n
    a = np.zeros((n, n), dtype=np.complex128)
    coeff = speed / (2.0 * h)
    for j in range(n):
        a[j, (j + 1) % n] = coeff
        a[j, (j - 1) % n] = -coeff
    return a


def diffusion_matrix(n: int, viscosity: float = 1.0) -> np.ndarray:
    """Periodic second-difference Laplacian times viscosity; symmetric
    negative semi-definite, norm_1 = 4 * viscosity * n^2."""
    if n < 4:
        raise ValueError(f"grid size must be at least 4, got {n}")
    h = 1.0 / n
    a = np.zeros((n, n), dtype=np.complex128)
    coeff = viscosity / (h * h)
    for j in range(n):
        a[j, j] = -2.0 * coeff
        a[j, (j + 1) % n] = coeff
        a[j, (j - 1) % n] = coeff
    return a


def build(kind: str, n: int, speed: float = 1.0, viscosity: float = 1.0,
          horizon: float = 1.0) -> GeneratorSpec:
    """GeneratorSpec for one member of a discretized family."""
    if kind == "advection":
        a0 = advection_matrix(n, speed)
        return GeneratorSpec(f"advection[n={n}]", n, horizon, lambda t: a0)
    if kind == "diffusion":
        a0 = diffusion_matrix(n, viscosity)
        return GeneratorSpec(f"diffusion[n={n}]", n, horizon, lambda t: a0)
    if kind == "advection_tdep":
        a0 = advection_matrix(n, speed)

        def tdep(t: float) -> np.ndarray:
            return (1.0 + 0.5 * math.sin(2.0 * math.pi * t)) * a0

        return GeneratorSpec(f"advection_tdep[n={n}]", n, horizon, tdep)
    raise ValueError(f"unknown family kind {kind!r}")


def grid_potential(n: int) -> np.ndarray:
    """Bounded diagonal multiplication operator cos(2 pi x) on the same grid;
    the second leg of the BCH experiments."""
    x = np.arange(n) / n
    return np.diag(np.cos(2.0 * np.pi * x)).astype(np.complex128)


@dataclass(frozen=True)
class DiscretizedFamily:
    """A refinement family: kind, grid sizes, and stencil parameters."""

    kind: str
    dims: tuple[int, ...]
    speed: float = 1.0
    viscosity: float = 1.0

    def __post_init__(self):
        if not isinstance(self.kind, str) or self.kind not in NORM_GROWTH_ORDER:
            raise ValueError(f"unknown family kind {self.kind!r}")
        if not (0.0 < self.speed < math.inf and 0.0 < self.viscosity < math.inf):
            raise ValueError("speed and viscosity must be positive and finite")
        if not self.dims or any(a >= b for a, b in zip(self.dims, self.dims[1:])):
            raise ValueError(f"dims must be non-empty and strictly increasing, "
                             f"got {list(self.dims)}")

    def member(self, n: int, horizon: float = 1.0) -> GeneratorSpec:
        return build(self.kind, n, self.speed, self.viscosity, horizon)


SWEEP_COLUMNS = ("n", "norm_A", "norm_A_ratio", "norm_a", "kappa",
                 "residual_naive", "residual_shifted_bch", "residual_recovery")

# Amplitude at which sweep operand pairs are evaluated in the shifted-BCH
# identity; raw surrogate generators sit far outside its convergence radius
# (their dominant part is ln(1+kappa) I), so the centered operands are
# rescaled to a fixed small norm before comparing.
SHIFTED_OPERAND_NORM = 0.05


@dataclass(frozen=True)
class SweepRow:
    n: int
    norm_A: float
    norm_A_ratio: float
    norm_a: float
    kappa: float
    residual_naive: float
    residual_shifted_bch: float
    residual_recovery: float


@dataclass(frozen=True)
class SweepReport:
    family: DiscretizedFamily
    t: float
    s: float
    rows: tuple[SweepRow, ...]

    def norm_slope(self) -> float:
        """Log-log slope of ||A_n||_1 versus n."""
        ns = np.log([r.n for r in self.rows])
        vals = np.log([r.norm_A for r in self.rows])
        if len(self.rows) < 2:
            return float("nan")
        return float(np.polyfit(ns, vals, 1)[0])

    def band_ratio(self) -> float:
        """max/min of ||a_n(t, s)||_1 across the sweep."""
        vals = [r.norm_a for r in self.rows]
        return max(vals) / min(vals)

    def to_csv(self) -> str:
        lines = [",".join(SWEEP_COLUMNS)]
        for r in self.rows:
            lines.append(",".join([
                str(r.n),
                format(r.norm_A, ".17g"),
                format(r.norm_A_ratio, ".17g"),
                format(r.norm_a, ".17g"),
                format(r.kappa, ".17g"),
                format(r.residual_naive, ".17g"),
                format(r.residual_shifted_bch, ".17g"),
                format(r.residual_recovery, ".17g"),
            ]))
        return "\n".join(lines) + "\n"


def _calibrated_steps(norm_a: float, interval: float) -> int:
    # Step count grows with ||A|| (t - s) so stiff members stay accurate.
    return max(32, int(math.ceil(8.0 * norm_a * interval)))


DEFAULT_SWEEP_BUDGET = 5e9

# Work model of one sweep member, in units of n^3 times one n x n product per
# magnus2 step.  A member runs six propagations of about ``steps`` steps (the
# main one, four FD probes and a(t) in the recovery); a step costs one product
# when magnus2 reuses its step exponential, and an expm plus the product when
# A(t) changes between steps.  The logarithms, exponentials and solves outside
# the propagations add a fixed amount per member.  Fitted on single-member
# sweep timings at n = 64..128, where one unit took about 1.3 ns on a 2-vCPU
# Xeon VM with one BLAS thread.
_STEP_COST_REUSED = 1.0
_STEP_COST_FRESH = 13.0
_MEMBER_FIXED_COST = 245.0


def sweep_cost(family: DiscretizedFamily, t: float, s: float) -> float:
    """Estimated work of :func:`refinement_sweep` in the units of its budget.

    Per member, whether magnus2 can reuse its step exponential is read off
    the generator the same way :func:`propagate` decides it: by comparing the
    first two midpoint samples.
    """
    interval = t - s
    horizon = max(1.0, t + 0.1)
    cost = 0.0
    for n in family.dims:
        g = family.member(n, horizon=horizon)
        steps = _calibrated_steps(norm_1(g.eval(s)), interval)
        h = interval / steps
        reused = np.array_equal(g.eval(s + 0.5 * h), g.eval(s + 1.5 * h))
        per_step = _STEP_COST_REUSED if reused else _STEP_COST_FRESH
        cost += float(n) ** 3 * (steps * per_step + _MEMBER_FIXED_COST)
    return cost


def refinement_sweep(family: DiscretizedFamily, t: float, s: float,
                     budget: float = DEFAULT_SWEEP_BUDGET) -> SweepReport:
    """Measure norm growth and identity residuals across the refinement family.

    Per grid size n the sweep records the generator norm, the shift kappa
    (common to the family member and the bounded grid potential), the
    surrogate-generator norm, and three residuals: the plain order-2 BCH
    combination on the raw generators (inf when the exponential rejects the
    combination outright), the shifted-BCH identity on centered, amplitude-
    normalized surrogate pairs, and the generator recovery error.

    ``budget`` caps the estimated total work (:func:`sweep_cost`); the sweep
    raises :class:`BudgetExceededError` before starting if it would be
    exceeded.
    """
    if not -math.inf < s < t < math.inf:
        raise ValueError("need finite s < t")
    interval = t - s
    cost = sweep_cost(family, t, s)
    if cost > budget:
        raise BudgetExceededError(f"estimated work {cost:.3e} exceeds budget {budget:.3e}")

    rows = []
    first_norm = None
    for n in family.dims:
        g = family.member(n, horizon=max(1.0, t + 0.1))
        a_raw = g.eval(s)
        norm_an = norm_1(a_raw)
        steps = _calibrated_steps(norm_an, interval)
        u1 = propagate(g, t, s, steps, "magnus2")
        b_raw = grid_potential(n)
        u2_matrix = expm(interval * b_raw)
        kappa = select_kappa([u1.U, u2_matrix]).kappa
        a1 = alt_generator(u1, kappa)
        a2 = alt_generator(u2_matrix, kappa)

        # Naive order-2 BCH on the raw (unbounded-scale) generators.
        try:
            z = bch_truncated(interval * a_raw, interval * b_raw, 2)
            residual_naive = norm_1(expm(interval * a_raw) @ expm(interval * b_raw) - expm(z))
        except OverflowError:
            residual_naive = float("inf")

        # Shifted identity on centered operands at a fixed small amplitude.
        shift = np.log(1.0 + kappa) * eye(n)
        c1 = a1 - shift
        c2 = a2 - shift
        s1 = c1 * (SHIFTED_OPERAND_NORM / norm_1(c1))
        s2 = c2 * (SHIFTED_OPERAND_NORM / norm_1(c2))
        try:
            residual_shifted = kappa_shifted_bch(s1, s2, kappa).residual
        except ConvergenceRadiusError:
            residual_shifted = float("inf")

        # Generator recovery through the surrogate derivative (families here
        # are constant or scalar-modulated, so the commutation hypothesis
        # holds exactly); conditioning degrades as the smallest eigenvalue
        # of U approaches zero, which is reported rather than hidden.
        try:
            recovered = recover_generator(
                g, s, t, kappa,
                FdConfig(h=5e-3, richardson_levels=1),
                steps_per_unit=steps / interval, stepper="magnus2")
            residual_recovery = norm_1(recovered - g.eval(t))
        except (SingularMatrixError, NoConvergenceError, BranchCutError):
            residual_recovery = float("inf")

        if first_norm is None:
            first_norm = norm_an
        rows.append(SweepRow(
            n=n, norm_A=norm_an, norm_A_ratio=norm_an / first_norm,
            norm_a=norm_1(a1), kappa=float(np.real(kappa)),
            residual_naive=float(residual_naive),
            residual_shifted_bch=float(residual_shifted),
            residual_recovery=float(residual_recovery),
        ))
    return SweepReport(family, float(t), float(s), tuple(rows))


def semigroup_residual(family: DiscretizedFamily, n: int, t: float, s: float) -> float:
    """Semigroup residual of the propagated member at the calibrated step count."""
    g = family.member(n, horizon=max(1.0, t + 0.1))
    steps = _calibrated_steps(norm_1(g.eval(s)), t - s)
    return check_semigroup(g, s, 0.5 * (s + t), t, steps, "magnus2")
