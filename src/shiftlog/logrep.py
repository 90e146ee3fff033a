"""Shifted-logarithm representation of evolution operators.

Core machinery: pick a shift kappa placing U + kappa*I inside the domain of
the principal logarithm, form the bounded surrogate generator
a(t, s) = Log(U(t, s) + kappa*I), recover the original generator A(t) from
the time derivative of a, and exhibit the asymmetry that distinguishes
exp(-a(t, s)) from the value a(s, t) would give on a group.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import SingularMatrixError
from .linalg import (
    as_matrix,
    eye,
    norm_1,
    solve,
)
from .matfun import FdConfig, expm, fd_derivative, logm_iss
from .evolution import EvolutionOperator, GeneratorSpec, propagate


@dataclass(frozen=True)
class KappaChoice:
    """A shift with its provenance: sup of ||U||_1 over the family and margin."""

    kappa: complex
    sup_norm: float
    margin: float


def _operator_matrix(u) -> np.ndarray:
    return as_matrix(u.U if isinstance(u, EvolutionOperator) else u)


def select_kappa(family, margin: float = 2.0) -> KappaChoice:
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
    sup = max(norm_1(m) for m in mats)
    return KappaChoice(complex(margin * sup), sup, margin)


def alt_generator(u, kappa) -> np.ndarray:
    """Bounded surrogate generator a(t, s) = Log(U(t, s) + kappa*I).

    Raises :class:`BranchCutError` when the shifted matrix is not enclosure
    admissible, which signals that ``|kappa|`` is too small.
    """
    m = _operator_matrix(u)
    return logm_iss(m + complex(kappa) * eye(m.shape[0]))


@dataclass(frozen=True)
class LogRepresentation:
    """Grid of surrogate generators with the defining relation
    exp(a(t, s)) = U(t, s) + kappa*I."""

    kappa: complex
    generator_id: str
    grid: tuple[tuple[float, float], ...]
    a: dict = field(compare=False)


def build_log_representation(g: GeneratorSpec, grid) -> LogRepresentation:
    """Propagate U over the (t, s) grid and take shifted logs at a common kappa.

    The paper's logarithmic representation of the family, on a finite grid.
    U is propagated by RK4 at 256 steps, kappa is chosen by
    :func:`select_kappa` over the propagated family, and every stored matrix
    satisfies the re-exponentiation relation to within the logm accuracy.
    """
    pts = tuple((float(t), float(s)) for t, s in grid)
    ops = [propagate(g, t, s, 256, "rk4") for t, s in pts]
    kappa = select_kappa(ops).kappa
    amap = {ts: alt_generator(op, kappa) for ts, op in zip(pts, ops)}
    return LogRepresentation(complex(kappa), g.id, pts, amap)


def recover_generator(g: GeneratorSpec, s: float, t: float, kappa,
                      cfg: FdConfig | None = None, steps_per_unit: float = 256,
                      stepper: str = "rk4") -> np.ndarray:
    """Recover A(t) from the surrogate family via
    A(t) = (I - kappa exp(-a(t, s)))^-1 d/dt a(t, s).

    The time derivative is a central difference of tau -> a(tau, s) with the
    propagation step density shared across probe points so that stepper bias
    largely cancels.  Exact when d/dt U commutes with U (commuting families);
    otherwise the output is a diagnostic, not the generator.
    """
    cfg = cfg or FdConfig(h=1e-2, richardson_levels=1)
    if not s < t <= g.T:
        raise ValueError("need s < t <= T")
    reach = t + 1.01 * cfg.h
    if reach > g.T:
        raise ValueError("FD probes exceed the generator horizon")

    def a_of(tau: float) -> np.ndarray:
        n_steps = max(1, int(np.ceil(steps_per_unit * (tau - s))))
        return alt_generator(propagate(g, tau, s, n_steps, stepper), kappa)

    da = fd_derivative(a_of, t, cfg, order=1)
    a_ts = a_of(t)
    lhs = eye(g.dim) - complex(kappa) * expm(-a_ts)
    try:
        return solve(lhs, da)
    except SingularMatrixError as exc:
        raise SingularMatrixError(
            f"I - kappa exp(-a) numerically singular at kappa={kappa}: {exc}"
        ) from exc


@dataclass(frozen=True)
class AsymmetryCheck:
    """exp(-a(t, s)) compared against U(t, s)^-1 + kappa*I."""

    lhs: np.ndarray
    rhs: np.ndarray
    gap: float


def check_asymmetry(g: GeneratorSpec, s: float, t: float, kappa) -> AsymmetryCheck:
    """Measure how far exp(-a(t, s)) is from U(t, s)^-1 + kappa*I.

    The two coincide exactly at kappa = 0 (both are the inverse of U) and
    generically differ once kappa is nonzero: inverting the shifted operator
    is not the same as shifting the inverted one.  U is propagated by RK4 at
    256 steps.
    """
    u = propagate(g, t, s, 256, "rk4")
    a = alt_generator(u, kappa)
    lhs = expm(-a)
    rhs = solve(u.U, eye(g.dim)) + complex(kappa) * eye(g.dim)
    return AsymmetryCheck(lhs, rhs, norm_1(lhs - rhs))
