"""Shifted-logarithm representation of evolution operators.

Core machinery: pick a shift kappa placing U + kappa*I inside the domain of
the principal logarithm, form the bounded surrogate generator
a(t, s) = Log(U(t, s) + kappa*I), recover the original generator A(t) from
the time derivative of a, and exhibit the asymmetry that distinguishes
exp(-a(t, s)) from the value a(s, t) would give on a group.
"""

from __future__ import annotations

import numpy as np

from .linalg import as_matrix, eye, norm_1, solve
from .matfun import expm, fd_derivative, fd_probes, logm_iss


def select_kappa(family) -> float:
    """Real positive shift kappa = 2 sup ||U||_1 over the family of operators.

    With a margin of 2 every column Gershgorin disc of U + kappa*I lies in the
    open right half-plane (each disc sits within ||U||_1 of kappa), so the
    principal logarithm exists and kappa is in the resolvent set of -U.
    """
    mats = [as_matrix(u) for u in family]
    if not mats:
        raise ValueError("empty evolution-operator family")
    return 2.0 * max(norm_1(m) for m in mats)


def alt_generator(u, kappa) -> np.ndarray:
    """Bounded surrogate generator a(t, s) = Log(U(t, s) + kappa*I): real
    for a real U and a real kappa, complex128 when either is complex.

    Raises :class:`BranchCutError` when the shifted matrix is not enclosure
    admissible, which signals that ``|kappa|`` is too small.
    """
    m = as_matrix(u)
    return logm_iss(m + kappa * eye(m.shape[0]))


def recovery_chain(times, h: float) -> list[float]:
    """The knots of recovering A(t) at every t of ``times`` at step ``h``, in
    increasing order: the times themselves and their :func:`fd_probes`, where
    the ``evolution.march`` from s gives the U(tau, s) the recovery reads."""
    return sorted({x for t in times for x in (t, *fd_probes(t, h))})


def recover_generator(u_at: dict[float, np.ndarray], t: float, kappa,
                      h: float) -> np.ndarray:
    """Recover A(t) = (I - kappa exp(-a(t, s)))^-1 d/dt a(t, s) from the
    U(tau, s) ``u_at`` of the march through :func:`recovery_chain`.

    d/dt a is :func:`fd_derivative`'s, at step ``h`` (``matfun.fd_step`` of
    ||A(t)||_1 at every caller), of a(tau, s) = :func:`alt_generator` at the
    four probes; a probe missing from ``u_at`` raises ``KeyError`` naming it.
    As exp(a) = U + kappa I, (I - kappa exp(-a))^-1 = I + kappa U^-1: one
    guarded solve with U(t, s), no exponential.  Exact when d/dt U commutes
    with U (commuting families); otherwise the output is a diagnostic.
    """
    da = fd_derivative(lambda tau: alt_generator(u_at[tau], kappa), t, h)
    return da + kappa * solve(u_at[t], da)


def check_asymmetry(u, kappa) -> float:
    """The gap ||exp(-a(t, s)) - (U(t, s)^-1 + kappa*I)||_1 of the operator U(t, s).

    The two coincide exactly at kappa = 0 (both are the inverse of U) and
    generically differ once kappa is nonzero: inverting the shifted operator
    is not the same as shifting the inverted one.
    """
    m = as_matrix(u)
    ident = eye(m.shape[0])
    lhs = expm(-alt_generator(m, kappa))
    return norm_1(lhs - (solve(m, ident) + kappa * ident))
