"""Commutator calculus and Baker-Campbell-Hausdorff type identities.

Three families of checks live here:

* the classical BCH product series (:func:`bch_truncated`) against the
  numerically exact value :func:`log_product`, plus the adjoint
  (conjugation) series :func:`adjoint_series`;
* the kappa-shifted product identity (:func:`kappa_shifted_bch`) where the
  shifted logarithm replaces the plain one.  Both product identities are
  truncations of one series, the Taylor coefficients in eps of
  Log(e^{eps X} e^{eps Y} + kappa I) (:func:`log_product_series`);
* second-derivative-of-logarithm identities, all read off one curve, the
  product logarithm s -> Log(e^{G1(s)} e^{G2(s)}) near s = 0: the commutator
  [X, Y] as its second derivative for G1 = Xs and G2 = Ys, the expansion of
  its integrated form, and the von Neumann equation written through it.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConvergenceRadiusError
from .linalg import as_matrix, eye, norm_1, solve
from .matfun import expm, fd_derivative, fd_probes, fd_step, logm_iss


def commutator(a, b) -> np.ndarray:
    """[A, B] = AB - BA."""
    A = as_matrix(a)
    B = as_matrix(b)
    if A.shape != B.shape:
        raise ValueError("commutator arguments must have equal dimensions")
    return A @ B - B @ A


def adjoint_series(a1, a2, n_terms: int) -> np.ndarray:
    """Truncated conjugation series sum_{n<=N} ad_{a1}^n(a2) / n!.

    Converges to expm(a1) a2 expm(-a1) for every bounded pair; the tail is
    dominated by (2 ||a1||)^N / N!.
    """
    if n_terms < 0:
        raise ValueError("series order must be non-negative")
    A1 = as_matrix(a1)
    term = as_matrix(a2)
    total = term.copy()
    for n in range(1, n_terms + 1):
        term = (A1 @ term - term @ A1) / n
        total = total + term
    return total


def log_product(x, y) -> np.ndarray:
    """Numerically exact BCH value Log(expm(X) expm(Y)) (principal branch).

    Serves as the oracle for every truncation; raises the usual branch-cut
    and overflow errors for inputs outside the admissible range, in which
    case the caller should scale down.
    """
    return logm_iss(expm(x) @ expm(y))


def log_product_series(x, y, order: int, kappa=0) -> list[np.ndarray]:
    """Taylor coefficients Z_0..Z_order at eps = 0 of eps -> Log(e^{eps X} e^{eps Y} + kappa I).

    With P = e^{eps X} e^{eps Y} - I, a series that starts at degree 1,

        Log((1 + kappa) I + P) = ln(1 + kappa) I + sum_m (-1)^{m+1} (P / (1 + kappa))^m / m,

    and P^m starts at degree m, so the sum ends at m = ``order``: every Z_j is
    a finite sum of products of X and Y, and no Lie word is written out.  At
    kappa = 0 these are the BCH product series' terms, Z_1 = X + Y,
    Z_2 = [X, Y] / 2, Z_3 = ([X, [X, Y]] - [Y, [X, Y]]) / 12, ...  Z_j is
    homogeneous of degree j in (X, Y), so the series of (tX, tY) is t^j Z_j.

    The arithmetic is the operands': numpy object arrays of
    ``fractions.Fraction`` with a rational kappa give Z_1..Z_order exactly;
    anything else is read by :func:`linalg.as_matrix`.
    """
    if order < 0:
        raise ValueError("series order must be non-negative")
    if kappa == -1:
        raise ValueError("kappa = -1 is excluded")
    X, Y = (m if m.dtype == object else as_matrix(m) for m in map(np.asarray, (x, y)))
    if X.shape != Y.shape or X.ndim != 2 or len(X) != X.shape[1]:
        raise ValueError("X and Y must be square matrices of equal dimensions")
    zero = X * 0

    def product(a, b, low):
        # Coefficients of the product of a (from degree 1) and b (from degree
        # ``low``), which starts at degree low + 1.
        return [zero] * (low + 1) + [sum((a[i] @ b[d - i] for i in range(1, d - low + 1)), zero)
                                     for d in range(low + 1, order + 1)]

    ex, ey = [zero, X], [zero, Y]
    for k in range(2, order + 1):
        ex.append(ex[-1] @ X / k)
        ey.append(ey[-1] @ Y / k)
    p = [ex[d] + ey[d] + sum((ex[i] @ ey[d - i] for i in range(1, d)), zero)
         for d in range(order + 1)]
    q = [c / (1 + kappa) for c in p]
    z, power = [zero] * (order + 1), q
    for m in range(1, order + 1):
        z = [zj + cj * ((-1) ** (m + 1)) / m for zj, cj in zip(z, power)]
        power = product(q, power, m)
    if kappa:
        z[0] = cmath.log(1 + kappa) * np.eye(len(X), dtype=X.dtype)
    return z


def bch_truncated(x, y, order: int) -> np.ndarray:
    """Partial sum Z_1 + ... + Z_order of the BCH product series
    (:func:`log_product_series` at kappa = 0); ``order`` >= 1."""
    if order < 1:
        raise ValueError("truncation order must be at least 1")
    return sum(log_product_series(x, y, order)[1:])


def kappa_shifted_bch(a1, a2, kappa) -> float:
    """Residual in 1-norm of expm(a1) expm(a2) + kappa*I against the
    shifted-BCH closed form through second order, expm(Z_0 + Z_1 + Z_2) with
    the :func:`log_product_series` terms

        Z_0 = ln(kappa+1) I,  Z_1 = (kappa+1)^-1 (a1 + a2),
        Z_2 = 1/2 (kappa+1)^-1 [a1, a2] + kappa (a1 + a2)^2 / (2 (kappa+1)^2).

    The residual shrinks cubically under a -> eps*a.  Precondition (series
    convergence radius): the order-2 product expansion divided by kappa+1
    must have 1-norm below one.
    """
    A1 = as_matrix(a1)
    A2 = as_matrix(a2)
    kap = complex(kappa)
    if kap == -1.0:
        raise ValueError("kappa = -1 is excluded")
    sigma = A1 + A2
    comm = A1 @ A2 - A2 @ A1
    series_arg = sigma + 0.5 * (sigma @ sigma + comm)
    if norm_1(series_arg) / abs(kap + 1.0) >= 1.0:
        raise ConvergenceRadiusError(
            "||(kappa+1)^-1 (a1 + a2 + quadratic terms)|| >= 1; "
            "increase |kappa| or shrink the operands"
        )
    lhs = expm(A1) @ expm(A2) + kap * eye(A1.shape[0])
    return norm_1(lhs - expm(sum(log_product_series(A1, A2, 2, kap))))


# Panels of the composite Simpson rule of :func:`log_product_expansion`.
SIMPSON_PANELS = 16


def von_neumann_second_derivative(x, y) -> np.ndarray:
    """d^2/ds^2 Log(expm(X s) expm(Y s)) at s = 0 by central differences.

    The product series gives Log(e^{Xs} e^{Ys}) = (X+Y)s + 1/2 [X,Y] s^2
    + O(s^3), so the value equals [X, Y] up to the error of the FD step
    ``matfun.fd_step`` of ||X||_1 + ||Y||_1.
    """
    x, y = as_matrix(x), as_matrix(y)
    h = fd_step(norm_1(x) + norm_1(y))
    return _log_product_derivatives(lambda s: expm(s * x), lambda s: expm(s * y), h, len(x))[1]


def _log_product_derivatives(exp1: Callable[[float], np.ndarray],
                             exp2: Callable[[float], np.ndarray], h: float,
                             n: int) -> tuple[np.ndarray, np.ndarray]:
    """:func:`matfun.fd_derivative`'s (first, second) at 0, step ``h``, of the product
    logarithm Log(exp1(s) exp2(s)) of two n x n exponential curves: the zero matrix
    at s = 0, where both are I, so the curves are called at the four other probes."""
    zero = np.zeros((n, n), dtype=np.complex128)
    return fd_derivative(lambda s: zero if s == 0.0 else logm_iss(exp1(s) @ exp2(s)), 0.0, h)


def _simpson_integral(f: Callable[[float], np.ndarray], upper: float) -> np.ndarray:
    """Composite Simpson rule on ``SIMPSON_PANELS`` panels for a matrix-valued
    integrand on [0, upper]."""
    h = upper / (2 * SIMPSON_PANELS)
    total = f(0.0) + f(upper)
    for k in range(1, 2 * SIMPSON_PANELS):
        total = total + (4.0 if k % 2 else 2.0) * f(k * h)
    return (h / 3.0) * total


@dataclass(frozen=True)
class ExpansionReport:
    """Measured leading Taylor coefficients of sigma -> Log(e^{G1} e^{G2})."""

    first_residual: float
    second_residual: float


def log_product_expansion(a1_family: Callable[[float], np.ndarray],
                          a2_family: Callable[[float], np.ndarray]) -> ExpansionReport:
    """Expand Log(e^{G1(sigma)} e^{G2(sigma)}) around sigma = 0, where
    G_i(sigma) is the integral of a_i over [0, sigma] (Simpson).

    The first derivative is a1(0) + a2(0).  The second is [a1(0), a2(0)] plus
    the drift d/dsigma (a1 + a2)|_0, which is measured and reported rather
    than adjudicated away.  For constant families the drift vanishes and
    G_i(sigma) = sigma a_i up to rounding, so the second derivative is the
    commutator up to the error of the FD step, fd_step(||a1(0)|| + ||a2(0)||).
    """
    a1_0 = as_matrix(a1_family(0.0))
    a2_0 = as_matrix(a2_family(0.0))
    h = fd_step(norm_1(a1_0) + norm_1(a2_0))
    drift = fd_derivative(lambda s: a1_family(s) + a2_family(s), 0.0, h)[0]
    first, second = _log_product_derivatives(
        lambda sigma: expm(_simpson_integral(a1_family, sigma)),
        lambda sigma: expm(_simpson_integral(a2_family, sigma)), h, len(a1_0))
    return ExpansionReport(norm_1(first - (a1_0 + a2_0)),
                           norm_1(second - (commutator(a1_0, a2_0) + drift)))


@dataclass(frozen=True)
class VonNeumannReport:
    """Trajectory of the density matrix with per-point identity residuals."""

    times: tuple[float, ...]
    states: tuple[np.ndarray, ...]
    residuals: tuple[float, ...]
    trace_drift: float


def von_neumann_rhs(rho0, h_op, hbar: float, tgrid) -> VonNeumannReport:
    """Evolve d rho/dt = (i/hbar) [rho, H] from t = 0 and check the commutator
    against the second derivative of the logarithm at every grid point.

    The state is rho(t) = U rho0 U^-1 with U = expm(-(i/hbar) t H), taken at
    each grid time on its own; U^-1 is applied by a linear solve.  A state
    that commutes with H is stationary and is returned as is, so a tiny hbar
    does not matter there.  Otherwise ||t H / hbar||_1 above 1e4 raises
    ``OverflowError`` (:func:`matfun.expm`'s limit).  The grid times must be
    non-negative.  The reported residual at time t is the hbar-free identity
    residual || [rho(t), H] - d^2_s Log(e^{rho s} e^{H s})|_0 ||_1, so a tiny
    hbar does not inflate it (the prefactor i/hbar is linear and graded on
    its own).  Every state takes the step ``matfun.fd_step`` of
    ||H||_1 + max_t ||rho(t)||_1, so the probe exponentials e^{Hs} are taken
    once for all states.  Since rho(t) is a similarity transform of rho0, its
    trace is conserved up to rounding, and the drift is reported.
    """
    if not 0.0 < hbar or math.isinf(1.0 / hbar):
        raise ValueError("hbar must be positive with 1/hbar finite")
    rho = as_matrix(rho0)
    H = as_matrix(h_op)
    if rho.shape != H.shape:
        raise ValueError("rho0 and H must have equal dimensions")
    ts = [float(t) for t in tgrid]
    if ts and min(ts) < 0.0:
        raise ValueError(f"time grid must not start before t = 0, got {min(ts)}")
    if np.any(commutator(rho, H)):
        states = []
        for t in ts:
            u = expm((-1j / hbar * t) * H)
            # (U rho0 U^-1)^T = U^-T (U rho0)^T
            states.append(solve(u.T, (u @ rho).T).T)
    else:
        states = [rho for _ in ts]
    trace0 = complex(np.trace(rho))
    h = fd_step(norm_1(H) + max((norm_1(r) for r in states), default=0.0))
    exp_h = {s: expm(s * H) for s in fd_probes(0.0, h) if s != 0.0}
    residuals = [float(norm_1(commutator(r, H) - _log_product_derivatives(
                     lambda s: expm(s * r), exp_h.__getitem__, h, len(H))[1]))
                 for r in states]
    drift = max((abs(complex(np.trace(r)) - trace0) for r in states), default=0.0)
    return VonNeumannReport(tuple(ts), tuple(states), tuple(residuals), float(drift))
