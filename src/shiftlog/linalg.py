"""Dense complex linear algebra kernel.

Everything downstream (matrix functions, propagation, the shifted-log
machinery) goes through the handful of primitives here: validated square
complex matrices, an LU solve with an explicit singularity threshold, the
induced 1-norm, and Gershgorin spectral enclosures.  All functions are pure
and operate on plain ``numpy`` arrays of dtype complex128.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgWarning, lu_factor, lu_solve

from .errors import SingularMatrixError

# Pivot magnitudes below PIVOT_RTOL * ||A||_1 are treated as singular.
PIVOT_RTOL = 1e-14


def as_matrix(a) -> np.ndarray:
    """Coerce input to a square complex128 matrix with finite entries."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix contains non-finite entries")
    return m


def eye(n: int) -> np.ndarray:
    return np.eye(n, dtype=np.complex128)


def norm_1(a) -> float:
    """Induced 1-norm: maximum absolute column sum."""
    m = np.asarray(a, dtype=np.complex128)
    if m.size == 0:
        return 0.0
    return float(np.abs(m).sum(axis=0).max())


def solve(a, b) -> np.ndarray:
    """Solve A X = B by LU with partial pivoting.

    Raises
    ------
    SingularMatrixError
        If any pivot magnitude falls below ``PIVOT_RTOL * norm_1(A)``.
    """
    A = as_matrix(a)
    B = np.asarray(b, dtype=np.complex128)
    if B.shape[0] != A.shape[0]:
        raise ValueError("dimension mismatch between A and B")
    scale = norm_1(A)
    if scale == 0.0:
        raise SingularMatrixError("zero matrix has no inverse")
    with warnings.catch_warnings():
        # singularity is detected below via the pivot threshold
        warnings.simplefilter("ignore", LinAlgWarning)
        lu, piv = lu_factor(A, check_finite=False)
    pivots = np.abs(np.diag(lu))
    if pivots.min() < PIVOT_RTOL * scale:
        raise SingularMatrixError(
            f"pivot {pivots.min():.3e} below threshold {PIVOT_RTOL * scale:.3e}"
        )
    x = lu_solve((lu, piv), B, check_finite=False)
    if not np.all(np.isfinite(x)):
        raise SingularMatrixError("solve produced non-finite entries")
    return x


@dataclass(frozen=True)
class SpectralEnclosure:
    """A covering disc plus the Gershgorin discs it was built from.

    Every eigenvalue lies in the union of ``discs``; every disc is contained
    in the disc ``(center, radius)``.
    """

    center: complex
    radius: float
    discs: tuple[tuple[complex, float], ...]


def gershgorin_discs(a, axis: str = "col") -> tuple[tuple[complex, float], ...]:
    """Gershgorin discs (center, radius) from row or column off-diagonal sums."""
    A = as_matrix(a)
    d = np.diag(A)
    sums = np.abs(A).sum(axis=0 if axis == "col" else 1) - np.abs(d)
    return tuple((complex(c), float(r)) for c, r in zip(d, sums))


def _covering_disc(discs) -> tuple[complex, float]:
    centers = np.array([c for c, _ in discs])
    center = complex(centers.mean())
    radius = max(abs(c - center) + r for c, r in discs)
    return center, float(radius)


def spectral_enclosure(a) -> SpectralEnclosure:
    """Enclose the spectrum with Gershgorin discs and one covering disc.

    Row and column disc families are both valid enclosures; the one whose
    covering disc is smaller is returned (column discs on ties, matching the
    column-based induced 1-norm used elsewhere).
    """
    col = gershgorin_discs(a, "col")
    row = gershgorin_discs(a, "row")
    ccol, rcol = _covering_disc(col)
    crow, rrow = _covering_disc(row)
    if rrow < rcol:
        return SpectralEnclosure(crow, rrow, row)
    return SpectralEnclosure(ccol, rcol, col)


def ray_gap(center: complex, radius: float) -> float:
    """Signed distance from a disc to the ray (-inf, 0]; positive means clear."""
    z = complex(center)
    dist = abs(z.imag) if z.real <= 0.0 else abs(z)
    return dist - radius


def off_branch_cut(a) -> bool:
    """True if a spectral enclosure of ``a`` stays clear of (-inf, 0].

    Conservative admissibility test for the principal logarithm and square
    root; a passing matrix also has the origin outside its spectrum.  Two
    enclosures are tried: Gershgorin disc unions (rows or columns), then a
    Gelfand-style bound rho(M - cI) <= ||(M - cI)^m||^(1/m) around a few
    shift centers, which handles matrices such as I + N with N nilpotent
    whose Gershgorin discs are wide but whose spectrum is a point.  Both
    bounds are computed and compared in floating point without rounding
    slack, so a matrix whose enclosure ends within rounding of the cut can be
    misjudged.
    """
    M = as_matrix(a)
    for axis in ("col", "row"):
        discs = gershgorin_discs(M, axis)
        if all(ray_gap(c, r) > 0.0 for c, r in discs):
            return True
    diag_mean = complex(np.diag(M).mean())
    centers = [1.0 + 0.0j, diag_mean, _covering_disc(gershgorin_discs(M, "col"))[0]]
    n = M.shape[0]
    for c in centers:
        gap = ray_gap(c, 0.0)
        if gap <= 0.0:
            continue
        power = M - c * np.eye(n, dtype=np.complex128)
        bound = norm_1(power)
        exponent = 1
        while exponent <= 16:
            if bound < gap:
                return True
            if bound == 0.0 or bound > 1e60:
                break
            power = power @ power
            exponent *= 2
            bound = norm_1(power) ** (1.0 / exponent)
    return False


# --- JSON matrix encoding: array of rows, entries as [re, im] pairs ---

def matrix_to_json(a) -> list:
    A = as_matrix(a)
    return [[[float(z.real), float(z.imag)] for z in row] for row in A]


def matrix_from_json(obj) -> np.ndarray:
    try:
        rows = [[complex(e[0], e[1]) for e in row] for row in obj]
    except (TypeError, IndexError) as exc:
        raise ValueError(f"malformed matrix JSON: {exc}") from exc
    return as_matrix(np.array(rows, dtype=np.complex128))
