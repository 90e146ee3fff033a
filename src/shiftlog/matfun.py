"""Matrix functions: exponential, principal logarithm, square root, derivatives.

The exponential is a truncated Taylor series on a ladder of degrees 4 to 20,
scaled and squared, in numpy, behind a norm guard; it takes products only,
no solve.  Two independent logarithm algorithms are provided on purpose.  The
production path is inverse scaling-and-squaring after scalar centring
(:func:`logm_iss`: Log(M) = ln(c) I + Log(M / c) before the square-root
chain, then the series of log(I + X) on ||X||_1 <= 1/2); resolvent contour
quadrature (:func:`logm_contour`) is kept as a structurally unrelated oracle,
so the two can cross-validate each other.  Both series, exp's and
log(I + X)'s, are evaluated by one Paterson-Stockmeyer routine.  Both
logarithms use the principal branch with the cut on (-inf, 0]; admissibility
is decided by Gershgorin enclosure, which is sufficient but conservative.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .errors import BranchCutError, ContourError, NoConvergenceError, SingularMatrixError
from .linalg import (
    as_matrix,
    eye,
    gershgorin_discs,
    norm_1,
    off_branch_cut,
    ray_gap,
    solve,
)

# expm rejects inputs with 1-norm above this rather than lose accuracy silently.
EXPM_NORM_LIMIT = 1e4

# expm's Taylor degrees m and the 1-norm bounds theta_m up to which the
# truncated series T_m has backward error at most 2^-53: the root of
# sum_{k > m} |c_k| theta^(k-1) = 2^-53, c_k the Taylor coefficients of
# log(e^-x T_m(x)) (Al-Mohy and Higham, SIAM J. Sci. Comput. 33(2), 2011,
# sec. 3); tests/test_matfun.py derives them again with mpmath.  Each degree
# m = r s costs s + r - 2 products by Paterson-Stockmeyer: 2, 3, 4, 5, 6, 7.
EXPM_THETA = {
    4: 3.397168839976962e-4,
    6: 9.065656407595102e-3,
    9: 8.957760203223343e-2,
    12: 2.996158913811581e-1,
    16: 7.802874256626574e-1,
    20: 1.438252596804337e0,
}

# Taylor coefficients 1/k! of e^x to the top degree, each correctly rounded.
_TAYLOR = np.array([1 / math.factorial(k) for k in range(max(EXPM_THETA) + 1)])

# logm_iss sums the series of log(I + X) on d = ||X||_1 <= SERIES_DISC, to
# degree m = ceil(log(SERIES_RTOL) / log(max(d, SERIES_RTOL))) <= 54: relative
# truncation error of Log(M / c) <= 3.3 d^m / (m+1) <= SERIES_RTOL.
SERIES_DISC = 0.5
SERIES_RTOL = 1e-16

# Rounding slack on the Varah bound that each contour resolvent must satisfy.
VARAH_RTOL = 1e-8

# Trapezoid nodes of the first contour quadrature level (keep it >= 4); each
# later level doubles them.  On 20 seeds x 200 suite matrices logm_contour
# stopped at 32 nodes for 14% of them, 64 for 45%, 128 for 28%, 256 for 13% and
# 512 for 1%, and first levels of 4, 8 and 16 stopped at the same level: no
# coarse pair of levels agreed early.  16 keeps a margin over 4 at no cost; 64
# made every call pay for at least 128 nodes.
CONTOUR_NODES = 16


def _polynomial(x: np.ndarray, coef: np.ndarray) -> np.ndarray:
    """sum_j coef[j] X^j for j = 0..m, m = len(coef) - 1 >= 1, by Paterson and
    Stockmeyer (SIAM J. Comput. 2(1), 1973), in ``x``'s dtype.

    With s = ceil(sqrt(m)) it forms X^2 .. X^s, contracts I .. X^(s-1) with
    the coefficients into blocks B_b of degree below s (B_b holds j = b s ..
    b s + s - 1), and runs Horner in X^s over the blocks.  When s divides m
    the top block is coef[m] I, and X^s (coef[m] I) = coef[m] X^s exactly, so
    that step takes no product: s + ceil(m / s) - 2 products in all.
    """
    degree = len(coef) - 1
    s = math.isqrt(degree - 1) + 1
    # powers[j] = X^j for j = 0..s
    powers = np.empty((s + 1, *x.shape), dtype=x.dtype)
    powers[0] = eye(x.shape[0])
    powers[1] = x
    for j in range(2, s + 1):
        np.matmul(powers[j - 1], powers[1], out=powers[j])
    # ceil(degree / s) blocks: the top coefficient is left out when s divides
    # the degree, and a shorter top block is padded with zeros otherwise.
    padded = np.zeros(-(-degree // s) * s)
    padded[:degree + 1] = coef[:len(padded)]
    blocks = np.dot(padded.reshape(-1, s), powers[:s].reshape(s, -1)).reshape(-1, *x.shape)
    # I .. X^(s-1) are spent, so powers[0] takes each term added to a block.
    # Each Horner step adds into a new array: the result then holds no view
    # of ``blocks``, which would keep every block alive with it.
    term = powers[0]
    result = blocks[-1]
    if degree % s == 0:
        result += np.multiply(coef[-1], powers[s], out=term)
    for block in blocks[-2::-1]:
        result = block + np.matmul(powers[s], result, out=term)
    return result


def expm(a) -> np.ndarray:
    """Matrix exponential by truncated Taylor series, scaling and squaring
    (Al-Mohy and Higham, SIAM J. Sci. Comput. 33(2), 2011, for the backward
    error; Bader, Blanes and Casas, Mathematics 7(12), 2019, for the
    Paterson-Stockmeyer cost).

    With d = ||A||_1, the Taylor polynomial T_m of e^x is taken at the lowest
    degree m in 4, 6, 9, 12, 16, 20 with d <= theta_m (``EXPM_THETA``:
    3.4e-4, 9.1e-3, 9.0e-2, 0.30, 0.78 and 1.44), where T_m(A) = e^(A + E)
    with ||E||_1 <= 2^-53 d in exact arithmetic.  Above theta_20 it is
    T_20(A / 2^s), squared s times, with s = ceil(log2(d / theta_20)), and
    the same bound holds for the result.  T_m costs 2, 3, 4, 5, 6 or 7
    products (:func:`_polynomial`) and no solve, so no LAPACK call is made.
    ``d``, the guard's norm, is the only norm taken.

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
    squarings = 0
    for m, theta in EXPM_THETA.items():
        if scale <= theta:
            break
    else:
        squarings = math.ceil(math.log2(scale / theta))
        A = A * 2.0**-squarings
    x = _polynomial(A, _TAYLOR[:m + 1])
    for _ in range(squarings):
        x = x @ x
    return x


def sqrtm_db(m, check: bool = True) -> np.ndarray:
    """Principal matrix square root by the product form of the Denman-Beavers
    iteration (Higham, *Functions of Matrices*, 2008, eq. 6.17; Cheng, Higham,
    Kenney and Laub, SIAM J. Matrix Anal. Appl. 22, 2001):

        Y_0 = P_0 = M,  Y_{k+1} = 1/2 Y_k (I + P_k^-1),
        P_{k+1} = 1/2 (I + 1/2 (P_k + P_k^-1)),

    so Y_k -> M^(1/2) and P_k -> I.  Each iteration takes one inverse, by the
    condition-guarded :func:`linalg.solve`, where the pair form takes two.

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
        If the iteration does not settle (||Y_{k+1} - Y_k||_1 <= 1e-13
        ||Y_k||_1) within 60 steps; it converges quadratically.
    """
    M = as_matrix(m)
    if check and not off_branch_cut(M):
        raise BranchCutError("spectral enclosure of input touches (-inf, 0]")
    ident = eye(M.shape[0])
    y = p = M
    for _ in range(60):
        p_inv = solve(p, ident)
        y_next = 0.5 * y @ (ident + p_inv)
        p = 0.5 * (ident + 0.5 * (p + p_inv))
        delta = norm_1(y_next - y)
        ref = norm_1(y)
        y = y_next
        if delta <= 1e-13 * ref:
            return y
    raise NoConvergenceError("Denman-Beavers did not converge in 60 iterations")


def logm_iss(m) -> np.ndarray:
    """Principal matrix logarithm by inverse scaling and squaring after scalar
    centring (Higham, *Functions of Matrices*, 2008, sec. 11.5).

    Centring: if ||M - I||_1 > 1/2 (``SERIES_DISC``), M is divided by
    c = mean |m_jj|, and Log(M) = ln(c) I + Log(M / c) holds exactly for real
    c > 0.  A spectrum clustered near c, such as the shifted U + kappa I, then
    needs few square roots or none instead of the three or four that walk c
    down to 1.  c > 0: an admissible M never has an all-zero diagonal, since
    Gershgorin discs centred at 0 touch the cut, the Gelfand bound about 1
    needs rho(M - I) < 1 while tr M = 0 puts an eigenvalue at Re lam <= 0, and
    a mean-diagonal centre of 0 is skipped.  Inputs within 1/2 of I keep
    c = 1: dividing would round entries near 1 by a relative 1e-16, while
    their logarithm may be as small as ||M - I||_1.

    k Denman-Beavers square roots then bring M / c to d = ||M / c - I||_1
    <= 1/2.  The series of log(I + X), X = M / c - I, runs to degree
    m = ceil(log(SERIES_RTOL) / log(max(d, SERIES_RTOL))) (m <= 54, and 1 for
    X = 0) and is scaled back by 2**k.  As ||X^j||_1 <= d^j, the tail is at
    most d^(m+1) / ((m+1)(1-d)) against ||log(I + X)||_1 >= 2d + ln(1-d) >=
    (2 - 2 ln 2) d: a truncation error of at most 3.3 d^m / (m+1) <=
    ``SERIES_RTOL`` relative to ||Log(M / c)||_1 (for m <= 2, d <= 1e-8 and
    the constant is 1 + O(d)).  ln(c) I is added after the series, and
    ||Log(M / c)||_1 <= ||Log(M)||_1 + |ln c|, so relative to ||Log(M)||_1
    the truncation error is at most
    ``SERIES_RTOL`` (||Log(M)||_1 + |ln c|) / ||Log(M)||_1.  The series is
    evaluated by Paterson and Stockmeyer, as :func:`expm`'s is
    (:func:`_polynomial`): s + ceil(m / s) - 2 products with s =
    ceil(sqrt(m)), 13 at m = 54.

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
    ident = eye(M.shape[0])
    c = 1.0
    dist = norm_1(M - ident)
    if dist > SERIES_DISC:
        c = float(np.abs(np.diagonal(M)).mean())
        M = M / c
        dist = norm_1(M - ident)
    k = 0
    # Each square root roughly halves the distance of the spectrum from 1.
    while dist > SERIES_DISC:
        if k >= 40:
            raise NoConvergenceError("square-root chain failed to approach identity")
        M = sqrtm_db(M, check=False)
        k += 1
        dist = norm_1(M - ident)
    degree = math.ceil(math.log(SERIES_RTOL) / math.log(max(dist, SERIES_RTOL)))
    # log(I + X) = sum_j (-1)^(j+1) X^j / j
    j = np.arange(1, degree + 1)
    coef = np.zeros(degree + 1)
    coef[j] = (-1.0) ** (j + 1) / j
    log = _polynomial(M - ident, coef)
    log = (2.0**k) * log
    return log if c == 1.0 else log + math.log(c) * ident


def contour_for(m) -> tuple[complex, float, str, tuple[np.ndarray, np.ndarray]]:
    """Circle (center, radius) around a Gershgorin family (axis, family) of ``m``.

    The circle is centered at the mean diagonal entry and drawn around the
    family (``axis``, "col" or "row"; ``family`` its discs (centers, radii))
    whose covering disc about that center is smaller, columns on ties.  It
    must keep the resolvent poles well inside (covering radius times 1.15)
    and the branch-cut singularity of the logarithm well outside (a gap of
    0.12 times the radius, which also keeps the origin out); both clearances
    set the geometric convergence rate of the trapezoid rule.

    It validates ``m`` (:func:`linalg.as_matrix`), once for both families.

    Raises :class:`ContourError` if no such circle exists, e.g. when the
    family reaches too close to the cut.
    """
    M = as_matrix(m)
    center = complex(np.diag(M).mean())
    covers = []
    for axis in ("col", "row"):
        centers, radii = gershgorin_discs(M, axis)
        offset = centers - center
        covers.append((float((np.hypot(offset.real, offset.imag) + radii).max()),
                       axis, (centers, radii)))
    cover, axis, family = min(covers, key=lambda c: c[:2])  # "col" sorts first on ties
    radius = cover * 1.15 if cover > 0.0 else max(abs(center) * 0.1, 0.1)
    if ray_gap(center, radius) <= 0.12 * radius:
        raise ContourError("no circular contour with enough branch-cut clearance")
    return center, radius, axis, family


def logm_contour(m) -> np.ndarray:
    """Principal logarithm by trapezoidal resolvent quadrature on a circle.

    The circle and the Gershgorin family of ``m`` it is drawn around are
    :func:`contour_for`'s, which also validates ``m``.  Evaluates
    (1/2*pi*i) * contour integral of log(lam) (lam I - M)^-1 dlam with the
    node count doubled from CONTOUR_NODES = 16 until two successive levels
    agree to 1e-9 in 1-norm.  Geometric convergence holds because the
    integrand is analytic in an annulus around the circle, so most matrices
    converge long before a fixed large first level: over 4,000 suite
    matrices (n <= 16) the stop came at 32 nodes for 14%, 64 for 45%, 128
    for 28%, 256 for 13% and 512 for 1%, and first levels of 4, 8 and 16 all
    stopped at the same level.  16 is kept for its margin over 4.

    Each level costs one stacked inverse over its new nodes and one weighted
    contraction, a matrix-vector product of the node weights with the
    flattened resolvents.  The stack lam_k I - M is built in place: -M in
    every slot, then lam_k added along each slot's diagonal through a strided
    view.  The nodes of level 2N at even indices are exactly the nodes of
    level N, so the weighted resolvent sum S is kept across levels: the
    first level evaluates all its nodes, every later level only its N odd
    ones, and level N is radius / N * S.  A call converging at N nodes thus
    computes N resolvents, not the 2N - CONTOUR_NODES of recomputing each level.

    The stacked inverse has no pivot threshold; a bound takes its place.  The
    containment check below confirms that the family the circle was drawn
    around (column or row discs (c_j, r_j)) lies strictly inside it, so every
    node lam_k has a margin d_k = min_j (|lam_k - c_j| - r_j) > 0.  Then
    lam_k I - M is strictly diagonally dominant in that family, and Varah's
    bound gives ||(lam_k I - M)^-1|| <= 1 / d_k in the 1-norm for column discs
    and the inf-norm for row discs.  A resolvent that is not finite, or
    exceeds its bound by more than rounding, cannot be trusted and raises.

    Raises
    ------
    ContourError
        If no contour exists (:func:`contour_for`) or the family is not
        strictly inside it.
    SingularMatrixError
        If a resolvent is non-finite or violates its Varah bound.
    NoConvergenceError
        If agreement is not reached by 4096 nodes.
    """
    center, radius, axis, (centers, radii) = contour_for(m)
    if not (np.abs(centers - center) + radii < radius).all():
        raise ContourError("Gershgorin family is not strictly inside the contour")
    neg_m = -np.asarray(m, dtype=np.complex128)  # validated by contour_for
    n = neg_m.shape[0]
    # Column discs bound the 1-norm (column sums), row discs the inf-norm.
    sum_axis = -2 if axis == "col" else -1

    def node_sum(theta: np.ndarray) -> np.ndarray:
        unit = np.exp(1j * theta)
        lam = center + radius * unit
        stack = np.empty((lam.size, n, n), dtype=np.complex128)
        stack[...] = neg_m
        stack.reshape(lam.size, n * n)[:, ::n + 1] += lam[:, None]
        try:
            resolvents = np.linalg.inv(stack)
        except np.linalg.LinAlgError as exc:
            raise SingularMatrixError(f"resolvent inverse failed: {exc}") from exc
        margin = (np.abs(lam[:, None] - centers) - radii).min(axis=1)
        size = np.abs(resolvents).sum(axis=sum_axis).max(axis=-1)
        # A NaN or inf entry fails this comparison too.
        if not np.all(size * margin <= 1.0 + VARAH_RTOL):
            raise SingularMatrixError(
                "resolvent is non-finite or exceeds its Gershgorin bound")
        weights = np.log(lam) * unit
        return (weights @ resolvents.reshape(lam.size, n * n)).reshape(n, n)

    nodes = CONTOUR_NODES
    total = node_sum(2.0 * np.pi * np.arange(nodes) / nodes)
    prev = radius / nodes * total
    while nodes < 4096:
        # The odd nodes of level 2 * nodes, halfway between the current ones.
        total = total + node_sum(np.pi * (2 * np.arange(nodes) + 1) / nodes)
        nodes *= 2
        cur = radius / nodes * total
        if norm_1(cur - prev) < 1e-9:
            return cur
        prev = cur
    raise NoConvergenceError("contour quadrature not converged at 4096 nodes")


# The FD step times the 1-norm of the operator differentiated; see fd_step.
FD_STEP = 0.065
# The most a rounded probe offset may stray from its nominal, relative: it
# moves the derivative by (5/3) delta ||f'|| to first order, 1.7e-6 at most.
_FD_OFFSET_RTOL = 1e-6


def fd_step(scale: float) -> float:
    """The step h = FD_STEP / max(scale, 1) of :func:`fd_derivative` on a curve
    driven by an operator of 1-norm ``scale``.

    With ||f^(k)|| <= scale^k m and samples accurate to u m (u = 2^-53), the
    derivative errs by at most scale m (T + R) at x = h max(scale, 1):
    truncation T = x^4 / 480 and rounding R = 3 u / x, the weights
    [1, -8, 8, -1] / (6 h) summed in magnitude.  Both stay within sqrt(u) for
    x in [3.2e-8, 0.047].  FD_STEP lies above, at T = 3.7e-8 and R = 5.1e-15,
    as R understates a recovery sample Log(U + kappa I), accurate to u times
    the logarithm's condition, not u m.  A smaller step changes the march step
    counts, as ``evolution.march_segments`` rounds up each probe segment.
    """
    return FD_STEP / max(scale, 1.0)


def fd_probes(t0: float, h: float) -> list[float]:
    """The sample times t0 - h, t0 - h / 2, t0 + h / 2, t0 + h of
    :func:`fd_derivative`.  Raises ``ValueError`` unless h > 0 is finite and
    each rounded offset from t0 is within 1e-6 h of its nominal value, which
    fails once h nears the spacing of the floats at t0."""
    probes = [t0 - h, t0 - h / 2, t0 + h / 2, t0 + h]
    # Dividing by -1, -1/2, 1/2 and 1 is exact.
    if not (0.0 < h < math.inf and all(abs((tau - t0) / c - h) <= _FD_OFFSET_RTOL * h
                                       for tau, c in zip(probes, (-1.0, -0.5, 0.5, 1.0)))):
        raise ValueError(f"step h must be positive, finite and resolved at t0 = {t0} "
                         f"(offsets within {_FD_OFFSET_RTOL:.0e} h), got {h}")
    return probes


def fd_derivative(f: Callable[[float], np.ndarray], t0: float, h: float) -> np.ndarray:
    """First derivative (4 D(h/2) - D(h)) / 3 of a matrix-valued curve at
    ``t0``, D(w) = (f(t0 + w) - f(t0 - w)) / 2w: the error of D(w) has even
    powers of w only, so one Richardson level cancels w^2, O(h^4).  ``f`` is
    called once at each time of :func:`fd_probes`, never at t0."""
    down, half_down, half_up, up = (f(t) for t in fd_probes(t0, h))
    return np.asarray((4.0 * ((half_up - half_down) / h) - (up - down) / (2.0 * h)) / 3.0)
