"""Commutator calculus and Baker-Campbell-Hausdorff type identities.

Three families of checks live here:

* the classical BCH product series (:func:`bch_truncated`) against the
  numerically exact value :func:`log_product`, plus the adjoint
  (conjugation) series :func:`adjoint_series`;
* the kappa-shifted product identity (:func:`kappa_shifted_bch`) where the
  shifted logarithm replaces the plain one.  Both product identities are
  truncations of one series, the Taylor coefficients in eps of
  Log(e^{eps X} e^{eps Y} + kappa I) (:func:`log_product_series`);
* second-derivative-of-logarithm identities, all read off one 3n x 3n jet of
  the product logarithm s -> Log(e^{G1(s)} e^{G2(s)}) at s = 0: the
  commutator [X, Y] as its second derivative for G1 = Xs and G2 = Ys, the
  expansion of its integrated form, and the von Neumann equation through it.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConvergenceRadiusError
from .linalg import as_matrix, eye, norm_1, solve
from .matfun import block_toeplitz, expm, fd_derivative, fd_step, logm_iss


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


def _jet_exps(scale: float, *curves) -> tuple[float, list[np.ndarray]]:
    """sigma = 0.25 / max(scale, 1), and expm of the 3n x 3n :func:`matfun.block_toeplitz`
    jet of s -> sigma s C1 + (sigma s)^2 C2 for each curve (C1, C2).  Where ``scale``
    bounds the summed 1-norms of two curves' coefficients, the product of their
    exponentials is within e^0.25 - 1 < 1/2 of I, in logm_iss's series disc, so
    it takes no square root.  ``ValueError`` where 1 / sigma^2 is not finite."""
    reach = 4.0 * max(scale, 1.0)
    if math.isinf(reach * reach):
        raise ValueError(f"operator 1-norm {scale:.3e} too large: 1/sigma^2 of its jet overflows")
    sigma = 1.0 / reach
    return sigma, [expm(block_toeplitz([0 * c1, sigma * c1, sigma**2 * c2])) for c1, c2 in curves]


def _log_product_jet(sigma: float, exp1, exp2) -> tuple[np.ndarray, np.ndarray]:
    """(first, second) s-derivative at 0 of Log(e^{G1(s)} e^{G2(s)}) from the jet
    exponentials exp_i of G_i (:func:`_jet_exps`): the (1,2) and (1,3) blocks of
    their product's logarithm over sigma and sigma^2 / 2."""
    n = len(exp1) // 3
    log = logm_iss(exp1 @ exp2)
    return log[:n, n:2 * n] / sigma, 2.0 * log[:n, 2 * n:] / sigma**2


def von_neumann_second_derivative(x, y) -> np.ndarray:
    """d^2/ds^2 Log(expm(X s) expm(Y s)) at s = 0, read off one 3n x 3n jet.

    Log(e^{Xs} e^{Ys}) = (X+Y)s + 1/2 [X,Y] s^2 + O(s^3), so this is [X, Y] up
    to the rounding of one exponential per jet and one logarithm."""
    x, y = as_matrix(x), as_matrix(y)
    sigma, exps = _jet_exps(norm_1(x) + norm_1(y), (x, 0 * x), (y, 0 * y))
    return _log_product_jet(sigma, *exps)[1]


@dataclass(frozen=True)
class ExpansionReport:
    """Measured leading Taylor coefficients of sigma -> Log(e^{G1} e^{G2})."""

    first_residual: float
    second_residual: float


def log_product_expansion(a1_family: Callable[[float], np.ndarray],
                          a2_family: Callable[[float], np.ndarray]) -> ExpansionReport:
    """Expand Log(e^{G1(sigma)} e^{G2(sigma)}) around sigma = 0, where
    G_i(sigma) is the integral of a_i over [0, sigma].

    The first derivative is a1(0) + a2(0), the second [a1(0), a2(0)] plus the
    drift (a1 + a2)'(0).  Both are read off one jet of each exponent,
    G_i = sigma a_i(0) + sigma^2 a_i'(0) / 2 + O(sigma^3), with a_i'(0) from one
    :func:`matfun.fd_derivative` of both families at ``matfun.fd_step`` of
    ||a1(0)||_1 + ||a2(0)||_1, which also gives the drift."""
    a1_0, a2_0 = (as_matrix(family(0.0)) for family in (a1_family, a2_family))
    size = norm_1(a1_0) + norm_1(a2_0)
    d1, d2 = fd_derivative(lambda s: np.stack((a1_family(s), a2_family(s))), 0.0,
                           fd_step(size))[0]
    sigma, exps = _jet_exps(size + (norm_1(d1) + norm_1(d2)) / 2.0,
                            (a1_0, d1 / 2.0), (a2_0, d2 / 2.0))
    first, second = _log_product_jet(sigma, *exps)
    return ExpansionReport(norm_1(first - (a1_0 + a2_0)),
                           norm_1(second - (commutator(a1_0, a2_0) + d1 + d2)))


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
    non-negative.  The residual at time t is the hbar-free
    || [rho(t), H] - d^2_s Log(e^{rho s} e^{H s})|_0 ||_1 (the prefactor
    i/hbar is graded on its own).  All jets take the scale of
    ||H||_1 + max_t ||rho(t)||_1, so H's is exponentiated once.  Since rho(t)
    is a similarity transform of rho0, its trace drift is rounding; it is reported.
    """
    if not 0.0 < hbar or math.isinf(1.0 / hbar):
        raise ValueError("hbar must be positive with 1/hbar finite")
    rho, H = as_matrix(rho0), as_matrix(h_op)
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
    sigma, (h_jet, *exps) = _jet_exps(norm_1(H) + max((norm_1(r) for r in states), default=0.0),
                                      (H, 0 * H), *((r, 0 * r) for r in states))
    residuals = [float(norm_1(commutator(r, H) - _log_product_jet(sigma, e, h_jet)[1]))
                 for r, e in zip(states, exps)]
    drift = max((abs(complex(np.trace(r)) - trace0) for r in states), default=0.0)
    return VonNeumannReport(tuple(ts), tuple(states), tuple(residuals), float(drift))
