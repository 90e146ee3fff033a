"""The package's own exception types, each caught by name somewhere.  Other
refusals are builtins: ``ValueError`` for bad input, ``OverflowError`` for a
non-finite result; ``cli.main`` maps both and :class:`ShiftlogError` alike."""

import numpy as np


class ShiftlogError(Exception):
    """Base class for all package-specific failures."""


class SingularMatrixError(ShiftlogError, np.linalg.LinAlgError):
    """A linear solve met a matrix whose reciprocal condition number is below
    the singularity threshold."""


class NoConvergenceError(ShiftlogError):
    """An iteration, quadrature or sampler ran out of budget before converging."""


class BranchCutError(ShiftlogError):
    """The spectral enclosure touches the branch cut of the principal logarithm."""


class ContourError(ShiftlogError):
    """A quadrature contour fails to enclose the spectrum or crosses the cut."""
