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
from .matfun import FdConfig, expm, fd_derivative, fd_half_widths, logm_iss
from .evolution import EvolutionOperator, GeneratorSpec, propagate


def _operator_matrix(u) -> np.ndarray:
    return as_matrix(u.U if isinstance(u, EvolutionOperator) else u)


def select_kappa(family, margin: float = 2.0) -> complex:
    """Real positive shift kappa = margin * sup ||U||_1 over the family.

    With margin >= 2 every column Gershgorin disc of U + kappa*I lies in the
    open right half-plane (each disc sits within ||U||_1 of kappa), so the
    principal logarithm exists and kappa is in the resolvent set of -U.
    """
    mats = [_operator_matrix(u) for u in family]
    if not mats:
        raise ValueError("empty evolution-operator family")
    if margin < 2.0:
        raise ValueError("margin below 2 does not guarantee admissibility")
    return complex(margin * max(norm_1(m) for m in mats))


def alt_generator(u, kappa) -> np.ndarray:
    """Bounded surrogate generator a(t, s) = Log(U(t, s) + kappa*I).

    Raises :class:`BranchCutError` when the shifted matrix is not enclosure
    admissible, which signals that ``|kappa|`` is too small.
    """
    m = _operator_matrix(u)
    return logm_iss(m + complex(kappa) * eye(m.shape[0]))


def recovery_chain(s: float, t: float, cfg: FdConfig,
                   steps_per_unit: float) -> list[tuple[float, float, int]]:
    """Segments (start, end, steps) of the one march from s that
    :func:`recovery_march` takes.

    The segment ends are the probe times t and t +- w for every half-width w
    of :func:`fd_half_widths`, in increasing order; each segment takes
    ``max(1, ceil(steps_per_unit * (end - start)))`` steps.
    """
    widths = fd_half_widths(cfg)
    knots = sorted({t, *(t + w for w in widths), *(t - w for w in widths)})
    return [(a, b, max(1, int(np.ceil(steps_per_unit * (b - a)))))
            for a, b in zip([s, *knots[:-1]], knots)]


def recovery_march(g: GeneratorSpec, s: float, t: float, cfg: FdConfig,
                   steps_per_unit: float, stepper: str) -> dict[float, np.ndarray]:
    """U(tau, s) at every probe time tau of recovering A(t) under ``cfg``,
    off one march from s through the segments of :func:`recovery_chain`.

    Each segment is propagated by ``stepper`` and composed onto U so far.
    Callers pick kappa from its U(t, s), so kappa, a(t, s) and the recovery
    share one propagation.
    """
    if not s < t <= g.T:
        raise ValueError("need s < t <= T")
    if t + 1.01 * cfg.h > g.T:
        raise ValueError("FD probes exceed the generator horizon")
    if t - cfg.h < s:
        raise ValueError(f"FD window [t - h, t + h] = [{t - cfg.h:g}, {t + cfg.h:g}] "
                         f"starts before s = {s:g}")
    u, u_at = eye(g.dim), {}
    for start, end, steps in recovery_chain(s, t, cfg, steps_per_unit):
        u = propagate(g, end, start, steps, stepper).U @ u
        u_at[end] = u
    return u_at


def recover_generator(a_at: dict[float, np.ndarray], t: float, kappa,
                      cfg: FdConfig) -> np.ndarray:
    """Recover A(t) from the surrogate family via
    A(t) = (I - kappa exp(-a(t, s)))^-1 d/dt a(t, s).

    ``a_at`` maps each probe time tau of :func:`recovery_march` to
    a(tau, s) = Log(U(tau, s) + kappa*I); the time derivative is the central
    difference of ``cfg`` over those values, and a time that is not a key
    raises ``KeyError``.  Exact when d/dt U commutes with U (commuting
    families); otherwise the output is a diagnostic, not the generator.
    """
    def a_of(tau: float) -> np.ndarray:
        if tau not in a_at:
            raise KeyError(f"probe time {tau!r} is not a knot of the propagation chain")
        return a_at[tau]

    da = fd_derivative(a_of, t, cfg, order=1)
    a_ts = a_of(t)
    lhs = eye(a_ts.shape[0]) - complex(kappa) * expm(-a_ts)
    try:
        return solve(lhs, da)
    except SingularMatrixError as exc:
        raise SingularMatrixError(
            f"I - kappa exp(-a) numerically singular at kappa={kappa}: {exc}"
        ) from exc


def check_asymmetry(g: GeneratorSpec, s: float, t: float, kappa) -> float:
    """The gap ||exp(-a(t, s)) - (U(t, s)^-1 + kappa*I)||_1.

    The two coincide exactly at kappa = 0 (both are the inverse of U) and
    generically differ once kappa is nonzero: inverting the shifted operator
    is not the same as shifting the inverted one.  U is propagated by RK4 at
    256 steps.
    """
    u = propagate(g, t, s, 256, "rk4")
    a = alt_generator(u, kappa)
    lhs = expm(-a)
    rhs = solve(u.U, eye(g.dim)) + complex(kappa) * eye(g.dim)
    return norm_1(lhs - rhs)
