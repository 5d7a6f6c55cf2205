"""Exception hierarchy shared across the package."""


class StefansimError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(StefansimError):
    """Invalid or inconsistent configuration (bad field, missing key)."""


class CflViolation(ConfigError):
    """Explicit-scheme stability condition violated.

    ``step`` is the step of a run whose state violates it, -1 for a
    condition checked before the first step.
    """

    step = -1


class BadDimension(ConfigError):
    """Grid resolution below the supported minimum."""


class GridMismatch(StefansimError):
    """Arrays or fields do not live on compatible grids."""


class DimensionMismatch(GridMismatch):
    """Array length differs from the grid's node count."""


class NonPositiveTime(StefansimError):
    """Heat kernels are only defined for strictly positive times."""


class IterationFailure(StefansimError):
    """A fixed-point iterate, or the direct run it is checked against, is not finite."""


class QuadratureFailure(StefansimError):
    """Adaptive quadrature failed to converge within its refinement budget."""


class ObstacleInitialPositive(StefansimError):
    """Obstacle must be non-positive at time zero."""


class InsufficientData(StefansimError):
    """Not enough samples to produce a meaningful estimate."""


class FormatError(StefansimError):
    """Malformed input data beyond the tolerated threshold."""


class NonMonotoneTime(FormatError):
    """Event timestamps decrease."""
