"""Two-parameter evolution operators U(t, s) for time-dependent generators.

A :class:`GeneratorSpec` wraps a matrix family t -> A(t), either closed-form
(constant, or a fixed matrix times a scalar function of t; every t >= 0) or
sampled (linear interpolation between tabulated matrices, up to the last).
:func:`propagate` integrates dU/dt = A(t) U, U(s, s) = I with fixed-step RK4
or the fourth-order Gauss-Legendre Magnus step, and returns the matrix
U(t, s): a constant generator's one step matrix is powered, and so is a
scalar-modulated generator's under the Magnus stepper, whose values
commute; any other generator is stepped one product at a time.
:func:`march` composes such propagations into U(tau, s) at a sorted set of
times.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import PropagationError
from .linalg import as_matrix, norm_1
from .matfun import expm

# Where each stepper samples the generator within a step [tau, tau + h], as
# fractions of h, in evaluation order: rk4 at both ends and the midpoint,
# magnus4 at the two Gauss-Legendre nodes.
NODES = {"rk4": (0.0, 0.5, 1.0),
         "magnus4": (0.5 - math.sqrt(3.0) / 6.0, 0.5 + math.sqrt(3.0) / 6.0)}


@dataclass(frozen=True)
class GeneratorSpec:
    """A time-dependent generator family t -> A(t) on [0, T], T possibly inf.

    ``matrix`` is the one A of a family built by :meth:`constant`, the A0 of
    one built by :meth:`modulated`, and None for every other family, whatever
    its values.  ``integral`` is the (s, t) -> int_s^t f of a
    :meth:`modulated` family, and None for every other family.
    """

    dim: int
    T: float
    func: Callable[[float], np.ndarray]
    matrix: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)
    integral: Callable[[float, float], float] | None = field(default=None, init=False,
                                                             repr=False, compare=False)

    def eval(self, t: float) -> np.ndarray:
        if not -1e-12 <= t <= self.T + 1e-12:
            raise ValueError(f"time {t} outside horizon [0, {self.T}]")
        a = np.asarray(self.func(t))
        if a.shape != (self.dim, self.dim):
            raise ValueError(f"generator returned shape {a.shape}, expected {(self.dim,)*2}")
        return a

    # --- constructors ---

    @staticmethod
    def constant(matrix) -> "GeneratorSpec":
        A = as_matrix(matrix)
        g = GeneratorSpec(A.shape[0], math.inf, lambda t: A)
        object.__setattr__(g, "matrix", A)
        return g

    @staticmethod
    def modulated(matrix, f: Callable[[float], float],
                  integral: Callable[[float, float], float]) -> "GeneratorSpec":
        """A(t) = f(t) * A0 for a real scalar function f; the values A(t)
        commute.  ``integral(s, t)`` is int_s^t f, written without
        cancellation (not as F(t) - F(s)), so that it keeps its relative
        accuracy when t - s is small against s.  Records A0 as ``matrix``."""
        A = as_matrix(matrix)
        g = GeneratorSpec(A.shape[0], math.inf, lambda t: f(t) * A)
        object.__setattr__(g, "matrix", A)
        object.__setattr__(g, "integral", integral)
        return g

    @staticmethod
    def from_table(times, matrices) -> "GeneratorSpec":
        """Piecewise-linear interpolation through sampled (t, A(t)) pairs."""
        ts = tuple(float(t) for t in times)
        if len(ts) < 2 or sorted(ts) != list(ts) or ts[0] != 0.0:
            raise ValueError("table times must be increasing and start at 0")
        mats = [as_matrix(m) for m in matrices]
        if len(mats) != len(ts):
            raise ValueError("times and matrices length mismatch")
        dim = mats[0].shape[0]
        if any(m.shape[0] != dim for m in mats):
            raise ValueError("inconsistent matrix dimensions in table")

        def interp(t: float) -> np.ndarray:
            j = bisect.bisect_right(ts, t) - 1
            j = min(max(j, 0), len(ts) - 2)
            w = (t - ts[j]) / (ts[j + 1] - ts[j])
            return (1.0 - w) * mats[j] + w * mats[j + 1]

        return GeneratorSpec(dim, ts[-1], interp)


def _identity(g: GeneratorSpec) -> np.ndarray:
    """U(s, s) = I, in ``g.matrix``'s dtype if set (float64 otherwise)."""
    return np.eye(g.dim, dtype=np.float64 if g.matrix is None else g.matrix.dtype)


def _check_finite(u: np.ndarray, where: str) -> np.ndarray:
    if not np.all(np.isfinite(u)):
        raise PropagationError(f"non-finite entries during {where}")
    return u


def _step_matrix(samples: tuple, h: float, stepper: str, i: np.ndarray) -> np.ndarray:
    """The matrix S of one step, U(tau + h) = S U(tau), from the generator
    samples at the stepper's :data:`NODES`; ``i`` is the identity.

    The magnus4 step (Iserles and Norsett, Phil. Trans. R. Soc. A 357, 1999)
    is S = expm(Omega), Omega = h/2 (A1 + A2) + (sqrt(3)/12) h^2 [A2, A1]
    from its two samples.  Samples that are one array, a constant
    generator's, give Omega = h A: the Magnus series of a constant generator
    ends there at every order.
    """
    if stepper == "rk4":
        # classical RK4 on the linear ODE, applied to the identity
        a0, am, a1 = samples
        k2 = am @ (i + 0.5 * h * a0)
        k3 = am @ (i + 0.5 * h * k2)
        k4 = a1 @ (i + h * k3)
        return i + (h / 6.0) * (a0 + 2.0 * k2 + 2.0 * k3 + k4)
    a1, a2 = samples
    if a1 is a2:
        return expm(h * a1)
    return expm(0.5 * h * (a1 + a2) + (math.sqrt(3.0) / 12.0) * h * h * (a2 @ a1 - a1 @ a2))


def propagate(g: GeneratorSpec, t: float, s: float, steps: int,
              stepper: str = "rk4") -> np.ndarray:
    """Integrate dU/dtau = A(tau) U from U(s, s) = I up to tau = t.

    ``rk4`` takes classical fourth-order steps on the matrix ODE (global
    error O(h^4) for smooth A); ``magnus4`` steps by the exponential of the
    two-node Gauss-Legendre Magnus expansion with its commutator term
    (O(h^4)), which is expm(h A) for a constant A, exact up to expm
    accuracy.  Every stepper's step is a matrix S built from the generator
    at its :data:`NODES`.  A :meth:`GeneratorSpec.constant` generator has
    one S, built from its ``matrix`` without sampling ``func``, and U(t, s)
    is S^steps by binary powering (about log2 steps squarings).  So has a
    :meth:`GeneratorSpec.modulated` generator f(tau) A0 under magnus4: its
    values commute, so U(t, s) = expm(w A0) exactly, w = int_s^t f, the
    first Magnus term, and the march is S = expm((w / steps) A0) powered,
    w from the generator's ``integral``; f is not sampled.  Any other
    generator, and a modulated one under rk4, whose step is a polynomial in
    h A0, is sampled at every step and applied as U <- S_k U.
    """
    if not 0.0 <= s <= t <= g.T + 1e-12:
        raise ValueError(f"need 0 <= s <= t <= T, got s={s}, t={t}, T={g.T}")
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if stepper not in NODES:
        raise ValueError(f"unknown stepper {stepper!r}")
    u = identity = _identity(g)
    if t > s:
        h = (t - s) / steps
        # overflow surfaces as PropagationError, not as numpy warnings
        with np.errstate(over="ignore", invalid="ignore"):
            nodes = NODES[stepper]
            if g.matrix is not None and (g.integral is None or stepper != "rk4"):
                w = t - s if g.integral is None else g.integral(s, t)
                step = _step_matrix((g.matrix,) * len(nodes), w / steps, stepper, identity)
                u = np.linalg.matrix_power(step, steps)
            else:
                # a non-finite entry of U stays non-finite under every later
                # step (inf * 0 and inf - inf are nan), so one check at the
                # end sees what a check after each step would
                for k in range(steps):
                    tau = s + k * h
                    samples = tuple(g.eval(tau + c * h) for c in nodes)
                    u = _step_matrix(samples, h, stepper, identity) @ u
        _check_finite(u, f"{stepper} propagation of {steps} steps")
    return u


def march_segments(s: float, knots, steps_per_unit: float) -> list[tuple[float, float, int]]:
    """Segments (start, end, steps) of the :func:`march` from s through ``knots``.

    The segment ends are the distinct knots after s in increasing order; each
    segment takes ``max(1, ceil(steps_per_unit * (end - start) - 1e-9))``
    steps.  The slack is absolute, in steps: a knot on the step grid, say
    s + k / steps_per_unit, computed in floating point lands a few ulps off
    k steps, and a plain ceil would give its segment an extra step.
    """
    ends = sorted(set(knots))
    if ends and ends[0] < s:
        raise ValueError(f"knot {ends[0]} precedes the march start s = {s}")
    return [(a, b, max(1, math.ceil(steps_per_unit * (b - a) - 1e-9)))
            for a, b in zip([s, *ends], ends) if b > a]


def march(g: GeneratorSpec, s: float, knots, steps_per_unit: float,
          stepper: str) -> dict[float, np.ndarray]:
    """U(tau, s) at every knot tau >= s, off one march from s.

    Each segment of :func:`march_segments` is propagated by ``stepper``; the
    first one starts at s and is U(b, s) itself, and each later one is
    composed onto U so far, so the generator is evaluated once along [s, max
    knot] however many knots there are.
    """
    u_at = {s: _identity(g)} if s in knots else {}
    u = None
    for a, b, steps in march_segments(s, knots, steps_per_unit):
        segment = propagate(g, b, a, steps, stepper)
        if u is not None:
            with np.errstate(over="ignore", invalid="ignore"):
                segment = _check_finite(segment @ u, f"march to {b}")
        u = u_at[b] = segment
    return u_at


def check_semigroup(g: GeneratorSpec, s: float, r: float, t: float,
                    steps: int, stepper: str = "rk4") -> float:
    """1-norm residual of U(t, r) U(r, s) - U(t, s): the product is the
    :func:`march` from s through r and t, U(t, s) one propagation of ``steps``
    steps, at the same step density; an r on the step grid splits them exactly."""
    if not 0.0 <= s <= r <= t <= g.T + 1e-12:
        raise ValueError("need 0 <= s <= r <= t <= T")
    if t == s:
        return 0.0
    return norm_1(march(g, s, (r, t), steps / (t - s), stepper)[t]
                  - propagate(g, t, s, steps, stepper))


def check_growth_bound(u, elapsed: float, bound: float, omega: float) -> bool:
    """True iff norm_1(U(t, s)) <= bound * exp(omega * elapsed), elapsed = t - s,
    up to relative slack 1e-9."""
    if bound <= 0.0:
        raise ValueError("growth constant must be positive")
    return norm_1(u) <= bound * math.exp(omega * elapsed) * (1.0 + 1e-9)
