"""Dense complex linear algebra kernel.

Everything downstream (matrix functions, propagation, the shifted-log
machinery) goes through the handful of primitives here: validated square
complex matrices, an LU solve with an explicit singularity threshold (LAPACK
``zgetrf``/``zgetrs`` called directly), the induced 1-norm, and Gershgorin
disc families.  All functions are pure and operate on plain ``numpy`` arrays
of dtype complex128.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import get_lapack_funcs

from .errors import SingularMatrixError

# Pivot magnitudes below PIVOT_RTOL * ||A||_1 are treated as singular.
PIVOT_RTOL = 1e-14

# The complex128 LU factor and solve, fetched once: scipy's lu_factor/lu_solve
# wrap the same two routines with per-call dispatch and checks.
_GETRF, _GETRS = get_lapack_funcs(("getrf", "getrs"), (np.empty((1, 1), np.complex128),))


def as_matrix(a) -> np.ndarray:
    """Coerce input to a square complex128 matrix with finite entries."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
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
    """Solve A X = B by LU with partial pivoting (LAPACK ``zgetrf``, then
    ``zgetrs``); the result equals scipy's ``lu_solve(lu_factor(A), B)``.

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
    # getrf's info > 0 (an exactly zero pivot) is caught by the threshold below.
    lu, piv, _ = _GETRF(A)
    pivots = np.abs(np.diag(lu))
    if pivots.min() < PIVOT_RTOL * scale:
        raise SingularMatrixError(
            f"pivot {pivots.min():.3e} below threshold {PIVOT_RTOL * scale:.3e}"
        )
    x, _ = _GETRS(lu, piv, B)
    if not np.all(np.isfinite(x)):
        raise SingularMatrixError("solve produced non-finite entries")
    return x


def gershgorin_discs(a, axis: str = "col") -> tuple[np.ndarray, np.ndarray]:
    """Gershgorin discs of the column or row family as arrays (centers, radii):
    the diagonal, and the off-diagonal absolute column or row sums."""
    A = as_matrix(a)
    d = np.diag(A)
    return d, np.abs(A).sum(axis=0 if axis == "col" else 1) - np.abs(d)


def ray_gap(center, radius):
    """Signed distance from each disc to the ray (-inf, 0]; positive means clear."""
    # |z| for Re z > 0, else |Im z|; hypot is Python's complex abs to the bit.
    return np.hypot(np.maximum(np.real(center), 0.0), np.imag(center)) - radius


def off_branch_cut(a) -> bool:
    """True if a spectral enclosure of ``a`` stays clear of (-inf, 0].

    Conservative admissibility test for the principal logarithm and square
    root; a passing matrix also has the origin outside its spectrum.  Two
    enclosures are tried: Gershgorin disc unions (columns, then rows), then a
    Gelfand-style bound rho(M - cI) <= ||(M - cI)^m||^(1/m) around the shift
    centers 1 and the mean diagonal entry, which handles matrices such as
    I + N with N nilpotent whose Gershgorin discs are wide but whose spectrum
    is a point.  Both bounds are computed and compared in floating point
    without rounding slack, so a matrix whose enclosure ends within rounding
    of the cut can be misjudged.
    """
    M = as_matrix(a)
    for axis in ("col", "row"):
        if (ray_gap(*gershgorin_discs(M, axis)) > 0.0).all():
            return True
    n = M.shape[0]
    for c in (1.0 + 0.0j, complex(np.diag(M).mean())):
        gap = ray_gap(c, 0.0)
        if gap <= 0.0:
            continue
        power = M - c * np.eye(n, dtype=np.complex128)
        bound = norm_1(power)
        exponent = 1
        while exponent <= 16:
            if bound < gap:
                return True
            if bound == 0.0 or not bound <= 1e60:  # an overflowed power reads inf or NaN
                break
            with np.errstate(over="ignore", invalid="ignore"):
                power = power @ power
            exponent *= 2
            bound = norm_1(power) ** (1.0 / exponent)
    return False


# --- JSON matrix decoding: array of rows, entries as [re, im] pairs ---

def matrix_from_json(obj) -> np.ndarray:
    try:
        rows = [[complex(e[0], e[1]) for e in row] for row in obj]
    except (TypeError, IndexError) as exc:
        raise ValueError(f"malformed matrix JSON: {exc}") from exc
    return as_matrix(np.array(rows, dtype=np.complex128))
