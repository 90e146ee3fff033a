"""Seeded random matrix constructors shared by the test suites and the CLI."""

from __future__ import annotations

import numpy as np

from .linalg import norm_1, off_branch_cut
from .matfun import ContourError, contour_for, expm


def rand_complex(rng: np.random.Generator, n: int, norm: float = 1.0) -> np.ndarray:
    """Dense complex Gaussian matrix rescaled to the requested 1-norm."""
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return a * (norm / norm_1(a))


def rand_log_admissible(rng: np.random.Generator, n: int) -> np.ndarray:
    """Random A with ||A||_1 in [0.05, 0.95] whose exponential is admissible for
    both logarithm algorithms (enclosure off the cut, contour constructible).

    The principal-log round trip is only defined on that domain; rejection
    rates stay below ~10%, and sampling gives up after 200 draws.
    """
    for _ in range(200):
        a = rand_complex(rng, n, rng.uniform(0.05, 0.95))
        m = expm(a)
        if not off_branch_cut(m):
            continue
        try:
            contour_for(m)
        except ContourError:
            continue
        return a
    raise RuntimeError("failed to sample an admissible matrix")


def rand_nilpotent(rng: np.random.Generator, n: int) -> np.ndarray:
    """Rank-one nilpotent x y* with y orthogonal to x, unit 1-norm (N^2 = 0)."""
    while True:
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        y = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        y = y - (np.vdot(x, y) / np.vdot(x, x)) * x
        nil = np.outer(x, y.conj())
        scale = norm_1(nil)
        if scale > 1e-8:
            return nil / scale


def nilpotent_sum_pair(rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Non-commuting pair (a1, a2) whose sum squares to zero exactly.

    a1 is random of 1-norm 0.5, a2 = N - a1 with N rank-one nilpotent, so
    (a1 + a2)^2 = 0.
    On this family the shifted-BCH truncation error is genuinely third order
    in the operand amplitude; for generic pairs the omitted (a1 + a2)^2
    terms dominate at second order.
    """
    nil = rand_nilpotent(rng, n)
    a1 = rand_complex(rng, n, 0.5)
    return a1, nil - a1


def noncommuting_pair(rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Generic pair at unit scale with a commutator bounded away from zero."""
    while True:
        x = rand_complex(rng, n, 1.0)
        y = rand_complex(rng, n, 1.0)
        if norm_1(x @ y - y @ x) > 0.05:
            return x, y
