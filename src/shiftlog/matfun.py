"""Matrix functions: exponential, principal logarithm, square root, derivatives.

The exponential is scipy's Pade scaling and squaring behind a norm guard.  Two
independent logarithm algorithms are provided on purpose.  The production
path is inverse scaling-and-squaring (:func:`logm_iss`); resolvent contour
quadrature (:func:`logm_contour`) is kept as a structurally unrelated oracle,
so the two can cross-validate each other.  Both use the principal branch with
the cut on (-inf, 0]; admissibility is decided by Gershgorin enclosure, which
is sufficient but conservative.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.linalg

from .errors import BranchCutError, ContourError, NoConvergenceError
from .linalg import (
    as_matrix,
    eye,
    gershgorin_discs,
    norm_1,
    off_branch_cut,
    ray_gap,
    solve,
    spectral_enclosure,
)

# expm rejects inputs with 1-norm above this rather than lose accuracy silently.
EXPM_NORM_LIMIT = 1e4

# Relative term-size cutoff for the logarithm power series.
SERIES_RTOL = 1e-16


def expm(a) -> np.ndarray:
    """Matrix exponential: ``scipy.linalg.expm``, the Pade scaling-and-squaring
    algorithm of Al-Mohy and Higham (SIAM J. Matrix Anal. Appl., 2009).

    Raises
    ------
    OverflowError
        If ``norm_1(a) > 1e4``; such inputs cannot be evaluated accurately.
    """
    A = as_matrix(a)
    scale = norm_1(A)
    if scale > EXPM_NORM_LIMIT:
        raise OverflowError(
            f"norm_1 = {scale:.3e} exceeds expm limit {EXPM_NORM_LIMIT:.0e}"
        )
    return scipy.linalg.expm(A)


def sqrtm_db(m, check: bool = True) -> np.ndarray:
    """Principal matrix square root by Denman-Beavers iteration.

    Parameters
    ----------
    m : array_like
        Square matrix whose spectral enclosure avoids (-inf, 0].
    check : bool
        Verify the branch-cut precondition before iterating.  Internal
        callers that have already validated the chain may disable it.

    Raises
    ------
    BranchCutError
        If the Gershgorin enclosure touches the branch cut.
    NoConvergenceError
        If the iteration does not settle within 60 steps; the pair
        iteration converges quadratically.
    """
    M = as_matrix(m)
    if check and not off_branch_cut(M):
        raise BranchCutError("spectral enclosure of input touches (-inf, 0]")
    y = M
    z = eye(M.shape[0])
    for _ in range(60):
        y_next = 0.5 * (y + solve(z, eye(z.shape[0])))
        z_next = 0.5 * (z + solve(y, eye(y.shape[0])))
        delta = norm_1(y_next - y)
        ref = norm_1(y)
        y, z = y_next, z_next
        if delta <= 1e-13 * ref:
            return y
    raise NoConvergenceError("Denman-Beavers did not converge in 60 iterations")


def logm_iss(m) -> np.ndarray:
    """Principal matrix logarithm by inverse scaling and squaring.

    Successive Denman-Beavers square roots bring the argument within 0.25 of
    the identity (in 1-norm); the log power series is then summed to relative
    tolerance ``SERIES_RTOL`` and the result scaled back by 2**k.

    Raises
    ------
    BranchCutError
        If the Gershgorin enclosure of ``m`` touches (-inf, 0] (which also
        covers the excluded origin).
    NoConvergenceError
        Propagated from :func:`sqrtm_db`, or if square roots fail to approach
        the identity.
    """
    M = as_matrix(m)
    if not off_branch_cut(M):
        raise BranchCutError("spectral enclosure of input touches (-inf, 0]")
    n = M.shape[0]
    ident = eye(n)
    k = 0
    # Each square root roughly halves the distance of the spectrum from 1.
    while norm_1(M - ident) > 0.25:
        if k >= 40:
            raise NoConvergenceError("square-root chain failed to approach identity")
        M = sqrtm_db(M, check=False)
        k += 1
    x = M - ident
    term = ident.copy()
    total = np.zeros_like(M)
    for j in range(1, 80):
        term = term @ x
        total = total + ((-1) ** (j + 1) / j) * term
        if norm_1(term) / j < SERIES_RTOL * max(norm_1(total), 1e-300):
            break
    return (2.0**k) * total


@dataclass(frozen=True)
class ContourSpec:
    """Circular contour for resolvent quadrature of the logarithm.

    The closed disc (center, radius) must exclude the origin and must not
    intersect the ray (-inf, 0], so the principal branch is analytic on and
    inside the circle wherever the resolvent is.
    """

    center: complex
    radius: float
    nodes: int = 64

    def __post_init__(self):
        if self.radius <= 0.0:
            raise ValueError("contour radius must be positive")
        if self.nodes < 4:
            raise ValueError("need at least 4 quadrature nodes")
        if ray_gap(self.center, self.radius) <= 0.0:
            raise ContourError("contour disc touches the branch cut (-inf, 0]")


def contour_for(m) -> ContourSpec:
    """Build an admissible contour around the spectral enclosure of ``m``.

    The circle must keep the resolvent poles well inside (covering radius
    times 1.15) and the branch-cut singularity of the logarithm well outside
    (a gap of 0.12 times the radius); both clearances set the geometric
    convergence rate of the trapezoid rule.

    Raises :class:`ContourError` if no such circle exists, e.g. when the
    enclosure reaches too close to the cut.
    """
    enc = spectral_enclosure(m)
    radius = enc.radius * 1.15 if enc.radius > 0.0 else max(abs(enc.center) * 0.1, 0.1)
    if ray_gap(enc.center, radius) <= 0.12 * radius:
        raise ContourError("no circular contour with enough branch-cut clearance")
    return ContourSpec(enc.center, radius)


def logm_contour(m, spec: ContourSpec) -> np.ndarray:
    """Principal logarithm by trapezoidal resolvent quadrature on a circle.

    Evaluates (1/2*pi*i) * contour integral of log(lam) (lam I - M)^-1 dlam
    with the node count doubled until two successive levels agree to 1e-9 in
    1-norm.  Geometric convergence holds because the integrand is analytic in
    an annulus around the circle.

    Raises
    ------
    ContourError
        If a Gershgorin disc family of ``m`` does not fit inside the circle.
    NoConvergenceError
        If agreement is not reached by 4096 nodes.
    """
    M = as_matrix(m)
    for axis in ("col", "row"):
        discs = gershgorin_discs(M, axis)
        if all(abs(c - spec.center) + r < spec.radius for c, r in discs):
            break
    else:
        raise ContourError("spectrum enclosure is not strictly inside the contour")

    def quadrature(nodes: int) -> np.ndarray:
        theta = 2.0 * np.pi * np.arange(nodes) / nodes
        lam = spec.center + spec.radius * np.exp(1j * theta)
        total = np.zeros_like(M)
        ident = eye(M.shape[0])
        for lam_k, theta_k in zip(lam, theta):
            resolvent = solve(lam_k * ident - M, ident)
            total = total + np.log(lam_k) * resolvent * np.exp(1j * theta_k)
        return spec.radius / nodes * total

    nodes = spec.nodes
    prev = quadrature(nodes)
    while nodes < 4096:
        nodes *= 2
        cur = quadrature(nodes)
        if norm_1(cur - prev) < 1e-9:
            return cur
        prev = cur
    raise NoConvergenceError("contour quadrature not converged at 4096 nodes")


@dataclass(frozen=True)
class FdConfig:
    """Central finite-difference configuration with Richardson extrapolation."""

    h: float = 1e-3
    richardson_levels: int = 1

    def __post_init__(self):
        if self.h <= 0.0:
            raise ValueError("step h must be positive")
        if not 0 <= self.richardson_levels <= 3:
            raise ValueError("richardson_levels must be in 0..3")


def fd_derivative(f: Callable[[float], np.ndarray], t0: float, cfg: FdConfig,
                  order: int = 1) -> np.ndarray:
    """Central-difference derivative of a matrix-valued curve.

    ``order`` selects the first or second derivative.  Richardson
    extrapolation is applied ``cfg.richardson_levels`` times, giving error
    O(h^(2 + 2*levels)) on smooth curves.  The curve must be evaluable on
    [t0 - 4h, t0 + 4h].
    """
    if order not in (1, 2):
        raise ValueError("order must be 1 or 2")

    if order == 1:
        def stencil(h):
            return (f(t0 + h) - f(t0 - h)) / (2.0 * h)
    else:
        f0 = None

        def stencil(h):
            nonlocal f0
            if f0 is None:
                f0 = f(t0)
            return (f(t0 + h) - 2.0 * f0 + f(t0 - h)) / (h * h)

    levels = cfg.richardson_levels
    table = [np.asarray(stencil(cfg.h / 2**j), dtype=np.complex128)
             for j in range(levels + 1)]
    # Standard Richardson triangle; the error expansion has only even powers.
    for m in range(1, levels + 1):
        factor = 4.0**m
        table = [(factor * table[j + 1] - table[j]) / (factor - 1.0)
                 for j in range(len(table) - 1)]
    return table[0]
