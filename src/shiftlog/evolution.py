"""Two-parameter evolution operators U(t, s) for time-dependent generators.

A :class:`GeneratorSpec` wraps a matrix family t -> A(t) on a finite horizon,
either closed-form (constant or scalar-modulated) or sampled (linear
interpolation between tabulated matrices).  :func:`propagate`
integrates dU/dt = A(t) U, U(s, s) = I with fixed-step RK4 or a midpoint
Magnus stepper.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import PropagationError
from .linalg import as_matrix, eye, norm_1
from .matfun import expm

STEPPERS = ("rk4", "magnus2")

# Scalar modulation functions available to GeneratorSpec.modulated.
_MODULATIONS = {
    "affine": lambda params: (lambda t: params["a"] + params["b"] * t),
    "one_plus_half_sin": lambda params: (lambda t: 1.0 + 0.5 * math.sin(2.0 * math.pi * t)),
}


@dataclass(frozen=True)
class GeneratorSpec:
    """A time-dependent generator family t -> A(t) on [0, T]."""

    id: str
    dim: int
    T: float
    func: Callable[[float], np.ndarray]

    def eval(self, t: float) -> np.ndarray:
        if not -1e-12 <= t <= self.T + 1e-12:
            raise ValueError(f"time {t} outside horizon [0, {self.T}]")
        a = np.asarray(self.func(t), dtype=np.complex128)
        if a.shape != (self.dim, self.dim):
            raise ValueError(f"generator returned shape {a.shape}, expected {(self.dim,)*2}")
        return a

    # --- constructors ---

    @staticmethod
    def constant(matrix, gen_id: str = "constant", horizon: float = 1.0) -> "GeneratorSpec":
        A = as_matrix(matrix)
        return GeneratorSpec(gen_id, A.shape[0], horizon, lambda t: A)

    @staticmethod
    def modulated(matrix, modulation: str, params: dict | None = None,
                  gen_id: str = "modulated", horizon: float = 1.0) -> "GeneratorSpec":
        """A(t) = f(t) * A0 for a registered scalar modulation f."""
        A = as_matrix(matrix)
        params = dict(params or {})
        if modulation not in _MODULATIONS:
            raise ValueError(f"unknown modulation {modulation!r}")
        f = _MODULATIONS[modulation](params)
        return GeneratorSpec(gen_id, A.shape[0], horizon, lambda t: f(t) * A)

    @staticmethod
    def from_table(times, matrices, gen_id: str = "table") -> "GeneratorSpec":
        """Piecewise-linear interpolation through sampled (t, A(t)) pairs."""
        ts = [float(t) for t in times]
        if len(ts) < 2 or sorted(ts) != ts or ts[0] != 0.0:
            raise ValueError("table times must be increasing and start at 0")
        mats = [as_matrix(m) for m in matrices]
        if len(mats) != len(ts):
            raise ValueError("times and matrices length mismatch")
        dim = mats[0].shape[0]
        if any(m.shape[0] != dim for m in mats):
            raise ValueError("inconsistent matrix dimensions in table")

        def interp(t: float) -> np.ndarray:
            j = int(np.searchsorted(ts, t, side="right")) - 1
            j = min(max(j, 0), len(ts) - 2)
            w = (t - ts[j]) / (ts[j + 1] - ts[j])
            return (1.0 - w) * mats[j] + w * mats[j + 1]

        return GeneratorSpec(gen_id, dim, ts[-1], interp)


def lipschitz_estimate(g: GeneratorSpec) -> float:
    """Sampled Lipschitz constant of t -> A(t) in the 1-norm, from 33 forward
    differences of step 1e-4: probes the paper's hypothesis that A(t) is continuous."""
    delta = 1e-4
    ts = np.linspace(0.0, g.T - delta, 33)
    return max(norm_1(g.eval(t + delta) - g.eval(t)) / delta for t in ts)


@dataclass(frozen=True)
class EvolutionOperator:
    """U(t, s) with provenance: generator id, stepper and step count."""

    U: np.ndarray
    t: float
    s: float
    generator_id: str
    stepper: str
    steps: int


def _check_finite(u: np.ndarray, where: str) -> np.ndarray:
    if not np.all(np.isfinite(u)):
        raise PropagationError(f"non-finite entries during {where}")
    return u


def propagate(g: GeneratorSpec, t: float, s: float, steps: int,
              stepper: str = "rk4") -> EvolutionOperator:
    """Integrate dU/dtau = A(tau) U from U(s, s) = I up to tau = t.

    ``rk4`` takes classical fourth-order steps on the matrix ODE (global
    error O(h^4) for smooth A); ``magnus2`` applies expm(h A(midpoint)) per
    step (O(h^2) generally, exact for constant A up to expm accuracy).  When
    consecutive midpoint samples h A(midpoint) are bitwise identical, as for
    a time-invariant generator, magnus2 reuses the previous step exponential
    instead of recomputing it; the result is the same to the last bit.
    """
    if not 0.0 <= s <= t <= g.T + 1e-12:
        raise ValueError(f"need 0 <= s <= t <= T, got s={s}, t={t}, T={g.T}")
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if stepper not in STEPPERS:
        raise ValueError(f"unknown stepper {stepper!r}")
    u = eye(g.dim)
    if t > s:
        h = (t - s) / steps
        m_prev = step = None
        # overflow surfaces as PropagationError, not as numpy warnings
        with np.errstate(over="ignore", invalid="ignore"):
            for k in range(steps):
                tau = s + k * h
                if stepper == "rk4":
                    k1 = g.eval(tau) @ u
                    k2 = g.eval(tau + 0.5 * h) @ (u + 0.5 * h * k1)
                    k3 = g.eval(tau + 0.5 * h) @ (u + 0.5 * h * k2)
                    k4 = g.eval(tau + h) @ (u + h * k3)
                    u = u + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
                else:
                    m = h * g.eval(tau + 0.5 * h)
                    if m_prev is None or not np.array_equal(m, m_prev):
                        step = expm(m)
                        m_prev = m
                    u = step @ u
                _check_finite(u, f"{stepper} step {k}")
    return EvolutionOperator(u, float(t), float(s), g.id, stepper, steps)


def check_semigroup(g: GeneratorSpec, s: float, r: float, t: float,
                    steps: int, stepper: str = "rk4") -> float:
    """1-norm residual of U(t, r) U(r, s) - U(t, s) at shared step density."""
    if not 0.0 <= s <= r <= t <= g.T + 1e-12:
        raise ValueError("need 0 <= s <= r <= t <= T")
    if t == s:
        return 0.0
    density = steps / (t - s)

    def count(a: float, b: float) -> int:
        return max(1, int(round(density * (b - a)))) if b > a else 1

    u_ts = propagate(g, t, s, steps, stepper).U
    u_rs = propagate(g, r, s, count(s, r), stepper).U
    u_tr = propagate(g, t, r, count(r, t), stepper).U
    return norm_1(u_tr @ u_rs - u_ts)


def check_growth_bound(u: EvolutionOperator, bound: float, omega: float) -> bool:
    """True iff norm_1(U) <= bound * exp(omega (t - s)) up to relative slack 1e-9."""
    if bound <= 0.0:
        raise ValueError("growth constant must be positive")
    return norm_1(u.U) <= bound * math.exp(omega * (u.t - u.s)) * (1.0 + 1e-9)
