"""Commutator calculus and Baker-Campbell-Hausdorff type identities.

Three families of checks live here:

* the classical BCH product series (:func:`bch_truncated`) against the
  numerically exact value :func:`log_product`, plus the adjoint
  (conjugation) series :func:`adjoint_series`;
* the kappa-shifted product identity (:func:`kappa_shifted_bch`) where the
  shifted logarithm replaces the plain one.  Both product identities are
  truncations of one series, the Taylor coefficients in eps of
  Log(e^{eps X} e^{eps Y} + kappa I) (:func:`log_product_series`);
* second-derivative-of-logarithm identities, read off the same series of
  s -> Log(e^{G1(s)} e^{G2(s)}) as Z_1 and 2 Z_2: the commutator [X, Y] for
  G1 = Xs and G2 = Ys, the expansion of its integrated form (each G_i a stack
  of Taylor coefficients), and the von Neumann equation through it.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConvergenceRadiusError
from .linalg import as_matrix, eye, norm_1, solve
from .matfun import expm, fd_derivative, fd_step, logm_iss


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
    """Taylor coefficients Z_0..Z_order at eps = 0 of eps -> Log(e^{G_x} e^{G_y} + kappa I).

    Each of ``x`` and ``y`` is one n x n matrix X, for the exponent G = eps X,
    or a stack [X_1, .., X_k], for G = eps X_1 + .. + eps^k X_k.  Each e^G is
    the truncated series of the terms G^m / m!, each formed from the last as
    G^{m-1} / (m-1)! times G / m.  With P = e^{G_x} e^{G_y} - I, a series that
    starts at degree 1,

        Log((1 + kappa) I + P) = ln(1 + kappa) I + sum_m (-1)^{m+1} (P / (1 + kappa))^m / m,

    and P^m starts at degree m, so the sum ends at m = ``order``: every Z_j is
    a finite sum of products of the X_i, and no Lie word is written out.  For
    two matrices at kappa = 0 these are the BCH product series' terms,
    Z_1 = X + Y, Z_2 = [X, Y] / 2, Z_3 = ([X, [X, Y]] - [Y, [X, Y]]) / 12, ...
    Z_j is then homogeneous of degree j in (X, Y), so the series of (tX, tY)
    is t^j Z_j.

    The arithmetic is the operands': numpy object arrays of
    ``fractions.Fraction`` with a rational kappa give Z_1..Z_order exactly;
    anything else is read by :func:`linalg.as_matrix`, so real operands with
    a real kappa > -1 give real coefficients, ln(1 + kappa) included, and a
    coefficient that overflows raises ``OverflowError``.
    """
    if order < 0:
        raise ValueError("series order must be non-negative")
    if kappa == -1:
        raise ValueError("kappa = -1 is excluded")
    stacks = [[c if c.dtype == object and c.ndim == 2 else as_matrix(c)
               for c in (m if m.ndim == 3 else [m])] for m in map(np.asarray, (x, y))]
    if not all(stacks) or {c.shape for s in stacks for c in s} != {stacks[0][0].shape[:1] * 2}:
        raise ValueError("X and Y must be square matrices (or stacks of them) of equal dimensions")
    zero = stacks[0][0] * 0

    def product(a, b):
        # Coefficients of a b for two series without a degree-0 term.  A pair
        # with a structural zero (the shared ``zero``) is skipped, and a degree
        # with no pair stays ``zero``.
        pairs = ((a[i] @ b[d - i] for i in range(1, d) if a[i] is not zero and b[d - i] is not zero)
                 for d in range(order + 1))
        return [sum(c, next(c, zero)) for c in pairs]

    def exponential(stack):
        g = [zero, *stack[:order]] + [zero] * (order - len(stack))
        total, term = g, g
        for k in range(2, order + 1):
            term = [c if c is zero else c / k for c in product(term, g)]
            total = [c if t is zero else t if c is zero else t + c for t, c in zip(total, term)]
        return total

    with np.errstate(over="ignore", invalid="ignore"):
        ex, ey = map(exponential, stacks)
        p = [a + b + c for a, b, c in zip(ex, ey, product(ex, ey))]
        q = [c / (1 + kappa) for c in p]
        z, power = [zero] * (order + 1), q
        for m in range(1, order + 1):
            z = [zj + cj * ((-1) ** (m + 1)) / m for zj, cj in zip(z, power)]
            power = product(q, power)
    if zero.dtype != object and not all(np.isfinite(zj).all() for zj in z):
        raise OverflowError("a coefficient of the product logarithm's series overflows")
    if kappa:
        ln = cmath.log(1 + kappa)
        if not (ln.imag or np.iscomplexobj(kappa)):  # a real kappa > -1
            ln = ln.real
        z[0] = ln * np.eye(len(zero), dtype=zero.dtype)
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
    if kappa == -1:
        raise ValueError("kappa = -1 is excluded")
    sigma = A1 + A2
    comm = A1 @ A2 - A2 @ A1
    series_arg = sigma + 0.5 * (sigma @ sigma + comm)
    if norm_1(series_arg) / abs(kappa + 1.0) >= 1.0:
        raise ConvergenceRadiusError(
            "||(kappa+1)^-1 (a1 + a2 + quadratic terms)|| >= 1; "
            "increase |kappa| or shrink the operands"
        )
    lhs = expm(A1) @ expm(A2) + kappa * eye(A1.shape[0])
    return norm_1(lhs - expm(sum(log_product_series(A1, A2, 2, kappa))))


def von_neumann_second_derivative(x, y) -> np.ndarray:
    """d^2/ds^2 Log(expm(X s) expm(Y s)) at s = 0: 2 Z_2 of :func:`log_product_series`.

    Log(e^{Xs} e^{Ys}) = (X+Y)s + 1/2 [X,Y] s^2 + O(s^3), and 2 Z_2 is formed
    as 2 P_2 - P_1^2 with P_1 = X + Y and P_2 = X^2/2 + XY + Y^2/2, so this is
    [X, Y] up to the rounding of four products; no exponential or logarithm
    is taken."""
    return 2.0 * log_product_series(x, y, 2)[2]


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
    drift (a1 + a2)'(0).  Both are Z_1 and 2 Z_2 of the
    :func:`log_product_series` of the stacks [a_i(0), a_i'(0) / 2], the
    exponents G_i = sigma a_i(0) + sigma^2 a_i'(0) / 2 + O(sigma^3), with
    a_i'(0) from one :func:`matfun.fd_derivative` of both families at
    ``matfun.fd_step`` of ||a1(0)||_1 + ||a2(0)||_1, which also gives the drift."""
    a1_0, a2_0 = (as_matrix(family(0.0)) for family in (a1_family, a2_family))
    d1, d2 = fd_derivative(lambda s: np.stack((a1_family(s), a2_family(s))), 0.0,
                           fd_step(norm_1(a1_0) + norm_1(a2_0)))
    z = log_product_series([a1_0, d1 / 2.0], [a2_0, d2 / 2.0], 2)
    return ExpansionReport(norm_1(z[1] - (a1_0 + a2_0)),
                           norm_1(2.0 * z[2] - (commutator(a1_0, a2_0) + d1 + d2)))


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
    i/hbar is graded on its own) by :func:`von_neumann_second_derivative`,
    whose overflow raises ``OverflowError``.  Since rho(t) is a similarity
    transform of rho0, its trace drift is rounding; it is reported.
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
    residuals = [float(norm_1(commutator(r, H) - von_neumann_second_derivative(r, H)))
                 for r in states]
    drift = max((abs(complex(np.trace(r)) - trace0) for r in states), default=0.0)
    return VonNeumannReport(tuple(ts), tuple(states), tuple(residuals), float(drift))
