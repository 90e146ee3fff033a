"""Shifted-logarithm representation of evolution operators.

Core machinery: pick a shift kappa placing U + kappa*I inside the domain of
the principal logarithm, form the bounded surrogate generator
a(t, s) = Log(U(t, s) + kappa*I), recover the original generator A(t) from
the time derivative of a, and exhibit the asymmetry that distinguishes
exp(-a(t, s)) from the value a(s, t) would give on a group.
"""

from __future__ import annotations

import numpy as np

from .errors import SingularMatrixError
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
    """The probe times of recovering A(t) at every t of ``times`` at step ``h``:
    the union of :func:`fd_probes` over ``times``, in increasing order: the
    knots of the ``evolution.march`` from s whose U(tau, s) the recovery reads."""
    return sorted({x for t in times for x in fd_probes(t, h)})


def recover_generator(a_at: dict[float, np.ndarray], t: float, kappa,
                      h: float) -> np.ndarray:
    """Recover A(t) from the surrogate family via
    A(t) = (I - kappa exp(-a(t, s)))^-1 d/dt a(t, s).

    ``a_at`` maps each probe time tau of :func:`recovery_chain` to
    a(tau, s) = Log(U(tau, s) + kappa*I), U off the march through them; the
    time derivative is :func:`fd_derivative`'s first at step ``h``, which
    callers take from ``matfun.fd_step`` of ||A(t)||_1, and a probe time that
    is not a key raises ``KeyError`` naming it.  Exact when d/dt U commutes
    with U (commuting families); otherwise the output is a diagnostic.
    """
    da = fd_derivative(a_at.__getitem__, t, h)[0]
    a_ts = a_at[t]
    lhs = eye(a_ts.shape[0]) - kappa * expm(-a_ts)
    try:
        return solve(lhs, da)
    except SingularMatrixError as exc:
        raise SingularMatrixError(
            f"I - kappa exp(-a) numerically singular at kappa={kappa}: {exc}"
        ) from exc


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
