"""Exception types shared across the package."""

import numpy as np


class ShiftlogError(Exception):
    """Base class for all package-specific failures."""


class SingularMatrixError(ShiftlogError, np.linalg.LinAlgError):
    """A linear solve met a matrix whose reciprocal condition number is below
    the singularity threshold."""


class NoConvergenceError(ShiftlogError):
    """An iteration or quadrature exhausted its budget before converging."""


class BranchCutError(ShiftlogError):
    """The spectral enclosure touches the branch cut of the principal logarithm."""


class ContourError(ShiftlogError):
    """A quadrature contour fails to enclose the spectrum or crosses the cut."""


class PropagationError(ShiftlogError):
    """An ODE propagation step produced non-finite entries."""


class ConvergenceRadiusError(ShiftlogError):
    """An input violates the series convergence-radius condition of an identity."""


class ConfigError(ShiftlogError):
    """A campaign configuration file is malformed or inconsistent."""
