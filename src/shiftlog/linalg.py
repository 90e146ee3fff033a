"""Dense real and complex linear algebra kernel.

Everything downstream (matrix functions, propagation, the shifted-log
machinery) goes through the handful of primitives here: validated square
matrices, a solve (``numpy.linalg.solve``, LAPACK's LU with partial
pivoting) that rejects matrices whose reciprocal 1-norm condition number
falls below an explicit threshold, the induced 1-norm, and Gershgorin disc
families.  All functions are pure and operate on plain ``numpy`` arrays.
The dtype follows the input: a real matrix is float64 and stays real
through every kernel (BLAS ``dgemm`` and LAPACK ``dgesv``), a complex one is
complex128.  The exponential, principal square root and principal logarithm
of a real matrix are real (Higham, *Functions of Matrices*, 2008, Thms 1.29
and 1.31), so real input loses nothing by not being made complex.
"""

from __future__ import annotations

import numpy as np

from .errors import SingularMatrixError

# Matrices with 1 / (||A||_1 ||A^-1||_1) below RCOND_MIN are treated as singular.
RCOND_MIN = 1e-14


def as_matrix(a) -> np.ndarray:
    """Coerce input to a non-empty square matrix with finite entries: float64
    for real, integer or boolean input, complex128 for anything else (complex
    entries, or an object array such as one of ``fractions.Fraction``)."""
    m = np.asarray(a)
    m = m.astype(np.float64 if m.dtype.kind in "biuf" else np.complex128, copy=False)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] == 0:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError("matrix contains non-finite entries")
    return m


def eye(n: int) -> np.ndarray:
    return np.eye(n)


def norm_1(a) -> float:
    """Induced 1-norm: maximum absolute column sum."""
    m = np.asarray(a)
    if m.size == 0:
        return 0.0
    return float(np.abs(m).sum(axis=0).max())


def solve(a, b) -> np.ndarray:
    """Solve A X = B by LU with partial pivoting (``numpy.linalg.solve``:
    LAPACK ``dgesv`` for real A and B, ``zgesv`` if either is complex; that
    is ``getrf`` then ``getrs``).

    The guard is the reciprocal condition number 1 / (||A||_1 ||A^-1||_1).
    For B = I, A^-1 is X itself; any other B costs one more factorisation
    (``numpy.linalg.inv``).  It is kept on purpose: forming X as A^-1 B from
    that inverse cost the diffusion sweep's ``residual_recovery`` (nu = 0.01,
    n = 64, t = 0.1, s = 0) a factor of ten, 1.8e-5 to 1.7e-4.

    Raises
    ------
    SingularMatrixError
        If the reciprocal condition number falls below ``RCOND_MIN``; an
        exactly zero pivot reads as 0.
    """
    A = as_matrix(a)
    B = np.asarray(b)
    if B.shape[0] != A.shape[0]:
        raise ValueError("dimension mismatch between A and B")
    scale = norm_1(A)
    if scale == 0.0:
        raise SingularMatrixError("zero matrix has no inverse")
    try:
        x = np.linalg.solve(A, B)
    except np.linalg.LinAlgError:  # getrf met an exactly zero pivot
        rcond = 0.0
    else:
        inv = x if np.array_equal(B, eye(A.shape[0])) else np.linalg.inv(A)
        rcond = 1.0 / (scale * norm_1(inv))
    # An inverse with a NaN entry fails this comparison too.
    if not rcond >= RCOND_MIN:
        raise SingularMatrixError(
            f"reciprocal condition {rcond:.3e} below threshold {RCOND_MIN:.0e}")
    if not np.all(np.isfinite(x)):
        raise SingularMatrixError("solve produced non-finite entries")
    return x


def gershgorin_discs(a, axis: str = "col") -> tuple[np.ndarray, np.ndarray]:
    """Gershgorin discs of the column or row family as arrays (centers, radii):
    the diagonal, and the off-diagonal absolute column or row sums.

    Like :func:`norm_1` it does not validate ``a``; its callers pass a matrix
    :func:`as_matrix` has already checked."""
    A = np.asarray(a)
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

    Each of the four enclosures admits matrices no other one does (Jordan
    blocks and the Heisenberg pair's exponentials need the Gelfand bound), so
    each stays; the column discs, tried first, decide every campaign call.
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
    try:  # each entry unpacks to exactly two numbers
        rows = [[complex(re, im) for re, im in row] for row in obj]
    except (TypeError, ValueError) as exc:
        raise ValueError(f"malformed matrix JSON: {exc}") from exc
    if any(isinstance(v, bool) for row in obj for entry in row for v in entry):
        raise ValueError("malformed matrix JSON: a boolean is not a number")
    m = as_matrix(np.array(rows, dtype=np.complex128))
    # ||AB - BA||_1 <= 2 ||A||_1 ||B||_1 <= 2^1021 for two matrices of 1-norm
    # <= 2^510, so commutators, Hermitian tests and 2 P_2 - P_1^2 stay finite
    with np.errstate(over="ignore"):  # an overflowing norm reads inf
        if not norm_1(m) <= 2.0 ** 510:
            raise ValueError("malformed matrix JSON: its 1-norm exceeds 2^510")
    return m
