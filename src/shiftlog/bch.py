"""Commutator calculus and Baker-Campbell-Hausdorff type identities.

Three families of checks live here:

* the classical BCH product series (:func:`bch_truncated`) against the
  numerically exact value :func:`log_product`, plus the adjoint
  (conjugation) series :func:`adjoint_series`;
* the kappa-shifted product identity (:func:`kappa_shifted_bch`) where the
  shifted logarithm replaces the plain one;
* second-derivative-of-logarithm identities: the commutator of two matrices
  recovered as d^2/ds^2 Log(e^{Xs} e^{Ys}) at s = 0, and the von Neumann
  equation written through that second derivative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

import numpy as np

from .errors import ConvergenceRadiusError, PropagationError
from .linalg import as_matrix, eye, norm_1
from .matfun import FdConfig, expm, fd_derivative, logm_iss


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


# Product-series terms through order 4.  Each entry: (order, coefficient,
# printable word, evaluator on (X, Y, C=[X,Y])).
_BCH_TABLE: tuple = (
    (1, Fraction(1), "X", lambda x, y, c: x),
    (1, Fraction(1), "Y", lambda x, y, c: y),
    (2, Fraction(1, 2), "[X,Y]", lambda x, y, c: c),
    (3, Fraction(1, 12), "[X,[X,Y]]", lambda x, y, c: x @ c - c @ x),
    (3, Fraction(-1, 12), "[Y,[X,Y]]", lambda x, y, c: y @ c - c @ y),
    (4, Fraction(-1, 24), "[Y,[X,[X,Y]]]",
     lambda x, y, c: (lambda w: y @ w - w @ y)(x @ c - c @ x)),
)


@dataclass(frozen=True)
class BchTruncation:
    """Coefficient table of the product series through a given order."""

    order: int
    terms: tuple[tuple[Fraction, str], ...]


def bch_terms(order: int) -> BchTruncation:
    if order not in (1, 2, 3, 4):
        raise ValueError("truncation order must be in 1..4")
    terms = tuple((coeff, word) for o, coeff, word, _ in _BCH_TABLE if o <= order)
    return BchTruncation(order, terms)


def bch_truncated(x, y, order: int) -> np.ndarray:
    """Partial sum of the BCH product series through the given order (1..4)."""
    if order not in (1, 2, 3, 4):
        raise ValueError("truncation order must be in 1..4")
    X = as_matrix(x)
    Y = as_matrix(y)
    C = X @ Y - Y @ X
    total = np.zeros_like(X)
    for o, coeff, _, ev in _BCH_TABLE:
        if o <= order:
            total = total + float(coeff) * ev(X, Y, C)
    return total


@dataclass(frozen=True)
class SmallnessCheck:
    """Result of the exponential-norm smallness condition for the product series."""

    satisfied: bool
    product_bound_ok: bool
    max_norm_a: float
    max_norm_b: float
    max_product_norm: float

    def __bool__(self) -> bool:
        return self.satisfied


def bch_smallness_condition(a, b, delta: float, tgrid) -> SmallnessCheck:
    """Check ||expm(tA)|| < delta and ||expm(tB)|| < delta over a grid in [0, 1].

    The smallness hypothesis of the paper's generalized product (CBH) formula.
    ``delta`` must satisfy 0 < delta <= sqrt(2); under the condition the
    derived bound ||expm(tA) expm(tB)|| < 2 holds, which keeps the logarithm
    of the product inside its convergence radius.  The derived bound is
    reported alongside the verdict.
    """
    if not 0.0 < delta <= math.sqrt(2.0):
        raise ValueError("delta must satisfy 0 < delta <= sqrt(2)")
    ts = [float(t) for t in tgrid]
    if any(t < 0.0 or t > 1.0 for t in ts):
        raise ValueError("tgrid must lie within [0, 1]")
    max_a = max_b = max_prod = 0.0
    for t in ts:
        ea = expm(t * as_matrix(a))
        eb = expm(t * as_matrix(b))
        max_a = max(max_a, norm_1(ea))
        max_b = max(max_b, norm_1(eb))
        max_prod = max(max_prod, norm_1(ea @ eb))
    satisfied = max_a < delta and max_b < delta
    return SmallnessCheck(satisfied, max_prod < 2.0, max_a, max_b, max_prod)


@dataclass(frozen=True)
class ShiftedBchCheck:
    """lhs = expm(a1) expm(a2) + kappa*I against its shifted-series exponential."""

    lhs: np.ndarray
    rhs: np.ndarray
    residual: float


def kappa_shifted_bch(a1, a2, kappa, order: int = 2) -> ShiftedBchCheck:
    """Compare expm(a1) expm(a2) + kappa*I with the shifted-BCH closed form

        exp( ln(kappa+1) I + (kappa+1)^-1 (a1 + a2)
             + 1/2 (kappa+1)^-1 [a1, a2] )      (order 2; order 1 drops the
                                                 commutator term).

    The residual shrinks cubically under a -> eps*a whenever (a1 + a2)^2
    vanishes; for generic pairs the omitted square terms enter at second
    order.  Precondition (series convergence radius): the order-2 product
    expansion divided by kappa+1 must have 1-norm below one.
    """
    if order not in (1, 2):
        raise ValueError("order must be 1 or 2")
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
    n = A1.shape[0]
    ident = eye(n)
    lhs = expm(A1) @ expm(A2) + kap * ident
    exponent = np.log(kap + 1.0) * ident + sigma / (kap + 1.0)
    if order >= 2:
        exponent = exponent + 0.5 / (kap + 1.0) * comm
    rhs = expm(exponent)
    return ShiftedBchCheck(lhs, rhs, norm_1(lhs - rhs))


@dataclass(frozen=True)
class VonNeumannConfig:
    """Knobs for the second-derivative-of-logarithm checks."""

    hbar: float = 1.0
    fd: FdConfig = field(default_factory=lambda: FdConfig(h=1e-2, richardson_levels=1))
    mode: str = "frozen"

    def __post_init__(self):
        if self.hbar <= 0.0:
            raise ValueError("hbar must be positive")
        if self.mode not in ("frozen", "integral"):
            raise ValueError("mode must be 'frozen' or 'integral'")


def von_neumann_second_derivative(x, y, cfg: VonNeumannConfig | None = None) -> np.ndarray:
    """d^2/ds^2 Log(expm(X s) expm(Y s)) at s = 0 by central differences.

    The product series gives Log(e^{Xs} e^{Ys}) = (X+Y)s + 1/2 [X,Y] s^2
    + O(s^3), so the value equals [X, Y] up to finite-difference error.
    """
    cfg = cfg or VonNeumannConfig()
    X = as_matrix(x)
    Y = as_matrix(y)
    zero = np.zeros_like(X)

    def curve(s: float) -> np.ndarray:
        if s == 0.0:
            return zero
        return logm_iss(expm(s * X) @ expm(s * Y))

    return fd_derivative(curve, 0.0, cfg.fd, order=2)


def _simpson_integral(f: Callable[[float], np.ndarray], upper: float,
                      panels: int = 16) -> np.ndarray:
    """Composite Simpson rule for a matrix-valued integrand on [0, upper]."""
    if upper == 0.0:
        return np.zeros_like(f(0.0))
    h = upper / (2 * panels)
    total = f(0.0) + f(upper)
    for k in range(1, 2 * panels):
        total = total + (4.0 if k % 2 else 2.0) * f(k * h)
    return (h / 3.0) * total


@dataclass(frozen=True)
class ExpansionReport:
    """Measured leading Taylor coefficients of sigma -> Log(e^{G1} e^{G2})."""

    mode: str
    first: np.ndarray
    second: np.ndarray
    first_reference: np.ndarray
    second_reference: np.ndarray
    first_residual: float
    second_residual: float
    drift_term: np.ndarray


def log_product_expansion(a1_family: Callable[[float], np.ndarray],
                          a2_family: Callable[[float], np.ndarray],
                          cfg: VonNeumannConfig | None = None) -> ExpansionReport:
    """Expand Log(e^{G1(sigma)} e^{G2(sigma)}) around sigma = 0.

    In ``frozen`` mode G_i(sigma) = a_i(0) * sigma; the first derivative is
    a1 + a2 and the second is [a1, a2] exactly up to FD error.  In
    ``integral`` mode G_i(sigma) = integral of a_i over [0, sigma] (Simpson),
    and the second derivative picks up the drift d/dsigma (a1 + a2)|_0 in
    addition to the commutator; the drift term is measured and reported
    rather than adjudicated away.
    """
    cfg = cfg or VonNeumannConfig()
    a1_0 = as_matrix(a1_family(0.0))
    a2_0 = as_matrix(a2_family(0.0))
    zero = np.zeros_like(a1_0)

    if cfg.mode == "frozen":
        def g1(sigma):
            return sigma * a1_0

        def g2(sigma):
            return sigma * a2_0

        drift = zero
    else:
        def g1(sigma):
            return _simpson_integral(a1_family, sigma)

        def g2(sigma):
            return _simpson_integral(a2_family, sigma)

        sum_family = lambda s: a1_family(s) + a2_family(s)
        drift = fd_derivative(sum_family, 0.0, cfg.fd, order=1)

    def curve(sigma: float) -> np.ndarray:
        if sigma == 0.0:
            return zero
        return logm_iss(expm(g1(sigma)) @ expm(g2(sigma)))

    first = fd_derivative(curve, 0.0, cfg.fd, order=1)
    second = fd_derivative(curve, 0.0, cfg.fd, order=2)
    first_ref = a1_0 + a2_0
    second_ref = commutator(a1_0, a2_0) + drift
    return ExpansionReport(
        cfg.mode, first, second, first_ref, second_ref,
        norm_1(first - first_ref), norm_1(second - second_ref), drift,
    )


@dataclass(frozen=True)
class VonNeumannReport:
    """Trajectory of the density matrix with per-point identity residuals."""

    times: tuple[float, ...]
    states: tuple[np.ndarray, ...]
    residuals: tuple[float, ...]
    trace_drift: float


def von_neumann_rhs(rho0, h_op, cfg: VonNeumannConfig | None = None,
                    tgrid=None) -> VonNeumannReport:
    """Evolve d rho/dt = (i/hbar) [rho, H] and check the commutator against
    the second derivative of the logarithm at every grid point.

    The evolution uses RK4 at 512 steps per unit time between grid points;
    the reported residual at time t is
    (1/hbar) || [rho(t), H] - d^2_s Log(e^{rho s} e^{H s})|_0 ||_1.
    Since every RK4 increment is a polynomial in commutators, the trace of
    rho is conserved up to rounding, and the drift is reported.  A state that
    overflows raises :class:`PropagationError`.
    """
    cfg = cfg or VonNeumannConfig()
    rho = as_matrix(rho0)
    H = as_matrix(h_op)
    if rho.shape != H.shape:
        raise ValueError("rho0 and H must have equal dimensions")
    if tgrid is None:
        tgrid = np.linspace(0.0, 1.0, 11)
    ts = [float(t) for t in tgrid]
    if sorted(ts) != ts:
        raise ValueError("tgrid must be non-decreasing")
    coeff = 1j / cfg.hbar

    def rhs(r):
        return coeff * (r @ H - H @ r)

    times, states, residuals = [], [], []
    t_prev = ts[0] if ts and ts[0] == 0.0 else 0.0
    # Integrate from t = 0 through the grid points.
    grid = ts if ts and ts[0] == 0.0 else [0.0] + ts
    current = rho
    trace0 = complex(np.trace(rho))
    max_drift = 0.0
    for t in grid:
        if t > t_prev:
            n_steps = max(1, int(np.ceil(512 * (t - t_prev))))
            h = (t - t_prev) / n_steps
            # overflow surfaces as PropagationError, not as numpy warnings
            with np.errstate(over="ignore", invalid="ignore"):
                for _ in range(n_steps):
                    k1 = rhs(current)
                    k2 = rhs(current + 0.5 * h * k1)
                    k3 = rhs(current + 0.5 * h * k2)
                    k4 = rhs(current + h * k3)
                    current = current + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if not np.all(np.isfinite(current)):
                raise PropagationError(f"non-finite density matrix before t = {t}")
        t_prev = t
        if t in ts:
            second = von_neumann_second_derivative(current, H, cfg)
            residual = norm_1(coeff * commutator(current, H) - coeff * second)
            times.append(t)
            states.append(current)
            residuals.append(float(residual))
            max_drift = max(max_drift, abs(complex(np.trace(current)) - trace0))
    return VonNeumannReport(tuple(times), tuple(states), tuple(residuals), float(max_drift))
