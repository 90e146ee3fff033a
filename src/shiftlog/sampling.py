"""Seeded random matrix constructors shared by the test suites and the CLI."""

from __future__ import annotations

import numpy as np

from .errors import ContourError, NoConvergenceError
from .linalg import norm_1
from .matfun import contour_for, expm


def rand_complex(rng: np.random.Generator, n: int, norm: float = 1.0) -> np.ndarray:
    """Dense complex Gaussian matrix rescaled to the requested 1-norm."""
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return a * (norm / norm_1(a))


def rand_log_admissible(rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Random A with ||A||_1 in [0.05, 0.95] whose exponential is admissible for
    both logarithm algorithms (enclosure off the cut, contour constructible),
    returned with that exponential as (A, expm(A)).

    The principal-log round trip is only defined on that domain; rejection
    rates stay below ~10%, and sampling gives up after 200 draws.
    """
    for _ in range(200):
        a = rand_complex(rng, n, rng.uniform(0.05, 0.95))
        m = expm(a)
        try:
            # A constructible contour keeps every disc of its family more than
            # 0.25 r off the cut, so the enclosure test holds as well.
            contour_for(m)
        except ContourError:
            continue
        return a, m
    raise NoConvergenceError("failed to sample an admissible matrix in 200 draws")


def noncommuting_pair(rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Generic pair at unit scale with a commutator bounded away from zero."""
    while True:
        x = rand_complex(rng, n, 1.0)
        y = rand_complex(rng, n, 1.0)
        if norm_1(x @ y - y @ x) > 0.05:
            return x, y
