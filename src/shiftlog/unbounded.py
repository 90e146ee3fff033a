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
from dataclasses import astuple, dataclass, fields

import numpy as np

from .errors import BranchCutError, NoConvergenceError, SingularMatrixError
from .linalg import eye, norm_1
from .matfun import expm, fd_probes, fd_step
from .evolution import GeneratorSpec, check_semigroup, march
from .logrep import alt_generator, recover_generator, recovery_chain, select_kappa
from .bch import bch_truncated, kappa_shifted_bch
from .report import render_table

# Order p of the norm growth ||A_n||_1 ~ n^p under refinement, per family kind.
NORM_GROWTH_ORDER = {"advection": 1, "diffusion": 2, "advection_tdep": 1}


def advection_matrix(n: int, speed: float = 1.0) -> np.ndarray:
    """Periodic central-difference first derivative times speed; real
    skew-symmetric, norm_1 = speed * n for grid spacing 1/n."""
    if n < 4:
        raise ValueError(f"grid size must be at least 4, got {n}")
    h = 1.0 / n
    a = np.zeros((n, n))
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
    a = np.zeros((n, n))
    coeff = viscosity / (h * h)
    for j in range(n):
        a[j, j] = -2.0 * coeff
        a[j, (j + 1) % n] = coeff
        a[j, (j - 1) % n] = coeff
    return a


def tdep_modulation(t: float) -> float:
    """Scalar factor 1 + 0.5 sin(2 pi t) of the ``advection_tdep`` family."""
    return 1.0 + 0.5 * math.sin(2.0 * math.pi * t)


def tdep_integral(s: float, t: float) -> float:
    """int_s^t of :func:`tdep_modulation` as (t - s) + sin(pi (t + s)) sin(pi (t - s)) / (2 pi),
    without the cancellation of F(t) - F(s) when t - s is small against s;
    t and s enter sin(pi (t + s)) reduced mod 2, exactly, so a large s does
    not round the phase."""
    phase = math.fmod(t, 2.0) + math.fmod(s, 2.0)
    return (t - s) + math.sin(math.pi * phase) * math.sin(math.pi * (t - s)) / (2.0 * math.pi)


def grid_potential(n: int) -> np.ndarray:
    """Bounded diagonal multiplication operator cos(2 pi x) on the same grid;
    the second leg of the BCH experiments."""
    x = np.arange(n) / n
    return np.diag(np.cos(2.0 * np.pi * x))


# The largest sum of n^3 over a refinement family's grid sizes: about seven
# members at n = 256.
GRID_WORK_LIMIT = 1.25e8


@dataclass(frozen=True)
class DiscretizedFamily:
    """A refinement family: kind, grid sizes, and stencil parameters.

    ``dims`` are strictly increasing integers in 4..256 whose cubes sum to
    at most :data:`GRID_WORK_LIMIT`, else ``ValueError``.  A member's part of
    :func:`refinement_sweep` is a few powered n x n step exponentials, so
    the grid sizes alone bound a sweep's work, refused before any member is
    built."""

    kind: str
    dims: tuple[int, ...]
    speed: float = 1.0
    viscosity: float = 1.0

    def __post_init__(self):
        if not isinstance(self.kind, str) or self.kind not in NORM_GROWTH_ORDER:
            raise ValueError(f"unknown family kind {self.kind!r}")
        if not (0.0 < self.speed < math.inf and 0.0 < self.viscosity < math.inf):
            raise ValueError("speed and viscosity must be positive and finite")
        if (not self.dims or any(type(n) is not int or not 4 <= n <= 256 for n in self.dims)
                or any(a >= b for a, b in zip(self.dims, self.dims[1:]))):
            raise ValueError(f"dims must be non-empty, strictly increasing integers "
                             f"in 4..256, got {list(self.dims)}")
        work = sum(n ** 3 for n in self.dims)
        if work > GRID_WORK_LIMIT:
            raise ValueError(f"dims' cubes sum to {work:.3e}, above {GRID_WORK_LIMIT:.3e}, "
                             f"got {list(self.dims)}")

    def norm(self, n: int, s: float) -> float:
        """||A_n(s)||_1 in closed form, without building the member."""
        if self.kind == "diffusion":
            return 4.0 * self.viscosity * n * n
        return self.speed * n * (tdep_modulation(s) if self.kind == "advection_tdep" else 1.0)

    def member(self, n: int) -> GeneratorSpec:
        if self.kind == "diffusion":
            return GeneratorSpec.constant(diffusion_matrix(n, self.viscosity))
        a = advection_matrix(n, self.speed)
        if self.kind == "advection":
            return GeneratorSpec.constant(a)
        return GeneratorSpec.modulated(a, tdep_modulation, tdep_integral)


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


SWEEP_COLUMNS = tuple(f.name for f in fields(SweepRow))


@dataclass(frozen=True)
class SweepReport:
    family: DiscretizedFamily
    t: float
    s: float
    rows: tuple[SweepRow, ...]

    def band_ratio(self) -> float:
        """max/min of ||a_n(t, s)||_1 across the sweep."""
        vals = [r.norm_a for r in self.rows]
        return max(vals) / min(vals)

    def to_csv(self) -> str:
        return render_table(SWEEP_COLUMNS, map(astuple, self.rows))


# The stepper of every sweep march.
SWEEP_STEPPER = "magnus4"


def _calibrated_steps(norm_a: float, interval: float) -> int:
    # At least 32 steps, and h ||A(s)||_1 <= 1/2.  Every member's magnus4
    # march is one step exponential powered, expm(h A) or, for A(tau) =
    # f(tau) A0, expm((w / steps) A0) with w = int_s^t f: exact up to expm
    # accuracy at any step count.  So the rule only keeps each step's exponent
    # inside EXPM_NORM_LIMIT: 1/2 if constant, <= 3/2 if f is in [1/2, 3/2].
    return max(32, int(math.ceil(2.0 * norm_a * interval)))


# A powered march of k steps rounds like k u, u = 2^-53; the sweep refuses a
# member whose k u exceeds the tightest tolerance the campaign puts on U(t, s),
# sweep.semigroup_calibrated's 1e-6 (so k <= 9.0e9 steps).
MARCH_ROUNDING_LIMIT = 1e-6


def refinement_sweep(family: DiscretizedFamily, t: float, s: float) -> SweepReport:
    """Measure norm growth and identity residuals across the refinement family.

    Per grid size n the sweep records the generator norm, the shift kappa
    (common to the family member and the bounded grid potential), the
    surrogate-generator norm, and three residuals: the plain order-2 BCH
    combination on the raw generators (inf when the exponential rejects the
    combination outright), the shifted-BCH identity on centered, amplitude-
    normalized surrogate pairs, and the absolute recovery error
    ||recovered - A_n(t)||_1.  Each member is marched once from s through its
    own :func:`logrep.recovery_chain`, at ``matfun.fd_step`` of the closed-form
    ||A_n(t)||_1 (``evolution.march``, :data:`SWEEP_STEPPER` at the calibrated
    step density); its U(t, s) gives kappa, a(t, s) and the recovery alike.
    Every family kind is constant or scalar-modulated, so each segment of
    that march is one step matrix, powered.

    Before any member is built, the sweep raises ``ValueError`` unless
    0 <= s < t < inf, then when a member's march length k = 2 ||A_n(s)||_1
    (t - s), taken in floating point (it may be inf), has k u above
    :data:`MARCH_ROUNDING_LIMIT` (u = 2^-53; it could not hold U(t, s) to the
    campaign's 1e-6), then when a member's first probe time precedes s (the
    widest window is the smallest n's) or :func:`matfun.fd_probes` rejects
    its step; the family's grid sizes already bound its work
    (:class:`DiscretizedFamily`).  A built member raises ``ValueError`` when
    a centred surrogate rounds to 0 (kappa about 1e16 and up), and its march
    :class:`errors.PropagationError` when U(t, s) is not finite.
    """
    if not 0.0 <= s < t < math.inf:
        raise ValueError(f"need finite 0 <= s < t, got s={s}, t={t}")
    interval = t - s
    # In floating point, before any step count is formed: 2 ||A_n(s)||_1 (t - s)
    # may overflow to inf, which no integer holds.
    most = max(family.dims, key=lambda n: family.norm(n, s))
    length = 2.0 * family.norm(most, s) * interval
    rounding = length * 2.0 ** -53
    if rounding > MARCH_ROUNDING_LIMIT:
        raise ValueError(f"n = {most}: a march of {length:.3e} steps rounds like "
                         f"{rounding:.1e}, above {MARCH_ROUNDING_LIMIT:.0e}; "
                         f"the stencil or t - s is too large")
    fd_h = {n: fd_step(family.norm(n, t)) for n in family.dims}
    first_probe = min(fd_probes(t, h)[0] for h in fd_h.values())
    if first_probe < s:
        raise ValueError(f"the generator recovery probes U(tau, s) at tau = "
                         f"{first_probe}, before s = {s}")
    steps = {n: _calibrated_steps(family.norm(n, s), interval) for n in family.dims}

    rows = []
    first_norm = None
    for n in family.dims:
        g = family.member(n)
        a_raw = g.eval(s)
        norm_an = norm_1(a_raw)
        u_at = march(g, s, recovery_chain([t], fd_h[n]), steps[n] / interval, SWEEP_STEPPER)
        b_raw = grid_potential(n)
        u2_matrix = expm(interval * b_raw)
        kappa = select_kappa([u_at[t], u2_matrix])
        a1 = alt_generator(u_at[t], kappa)
        a2 = alt_generator(u2_matrix, kappa)

        # Naive order-2 BCH on the raw (unbounded-scale) generators.
        try:
            z = bch_truncated(interval * a_raw, interval * b_raw, 2)
            residual_naive = norm_1(expm(interval * a_raw) @ u2_matrix - expm(z))
        except OverflowError:
            residual_naive = float("inf")

        # Shifted identity on centered operands at a fixed small amplitude.
        # kappa > 0 and ||s_i||_1 = 0.05 keep kappa_shifted_bch's series argument
        # at 1-norm <= 0.1075 < |kappa + 1|, inside its radius.
        shift = np.log(1.0 + kappa) * eye(n)
        c1 = a1 - shift
        c2 = a2 - shift
        norm_c1, norm_c2 = norm_1(c1), norm_1(c2)
        if norm_c1 == 0.0 or norm_c2 == 0.0:
            raise ValueError(f"n = {n}: a centred surrogate a_i - ln(1 + kappa) I rounds to 0 at "
                             f"kappa = {kappa:.3e}; the stencil is too large")
        s1 = c1 * (SHIFTED_OPERAND_NORM / norm_c1)
        s2 = c2 * (SHIFTED_OPERAND_NORM / norm_c2)
        residual_shifted = kappa_shifted_bch(s1, s2, kappa)

        # Generator recovery from the march's U at t and its probe times (the
        # families are constant or scalar-modulated, so the commutation
        # hypothesis holds exactly); conditioning degrades as the smallest
        # eigenvalue of U approaches zero, which is reported, not hidden.
        try:
            recovered = recover_generator(u_at, t, kappa, fd_h[n])
            residual_recovery = norm_1(recovered - g.eval(t))
        except (SingularMatrixError, NoConvergenceError, BranchCutError):
            residual_recovery = float("inf")

        if first_norm is None:
            first_norm = norm_an
        rows.append(SweepRow(
            n=n, norm_A=norm_an, norm_A_ratio=norm_an / first_norm,
            norm_a=norm_1(a1), kappa=kappa,
            residual_naive=float(residual_naive),
            residual_shifted_bch=float(residual_shifted),
            residual_recovery=float(residual_recovery),
        ))
    return SweepReport(family, float(t), float(s), tuple(rows))


def semigroup_residual(family: DiscretizedFamily, n: int, t: float, s: float) -> float:
    """:func:`evolution.check_semigroup` of the member under :data:`SWEEP_STEPPER`
    at the calibrated step count, split at r = s + 0.4 (t - s): its legs
    step at another h than U(t, s), where at the midpoint a constant
    member's S^k S^k would be S^2k's own chain of squarings."""
    steps = _calibrated_steps(family.norm(n, s), t - s)
    return check_semigroup(family.member(n), s, s + 0.4 * (t - s), t, steps, SWEEP_STEPPER)
