"""Exception types shared across the engine."""

import numpy as np


class FinslerError(Exception):
    """Base class for all engine errors."""


class ConfigurationError(FinslerError):
    """Invalid user-supplied parameters (family specs, jet orders, plans)."""


class StructuralError(FinslerError):
    """Structurally impossible request, e.g. complexifying an odd-dimensional jet."""


class SlitBundleError(FinslerError):
    """Metric derivative requested too close to the zero section."""


class DomainError(FinslerError):
    """Evaluation outside the validity domain of a metric family."""


class DegenerateMetricError(FinslerError):
    """Fundamental tensor or Levi matrix numerically singular."""


class DegenerateFlagError(FinslerError):
    """Flag plane (u, X) is numerically degenerate."""


class ShootingError(FinslerError):
    """Boundary-value geodesic solve failed to converge.

    ``work`` is the failed solve's share of its solver's work record
    (``PoleDistance.work``: starts tried, integrations, Gauss-Newton steps),
    None where the error did not end a shooting solve, and ``best_residual``
    is the least endpoint mismatch (inf if none succeeded).
    """

    def __init__(self, message, best_residual=None, work=None):
        super().__init__(message)
        self.best_residual = best_residual
        self.work = work


class ConjugatePointError(FinslerError):
    """Jacobi boundary map numerically singular: the endpoint of a geodesic is
    (nearly) conjugate to its start, so boundary Jacobi fields are undefined."""

    def __init__(self, message, cond=None):
        super().__init__(message)
        self.cond = cond


class HypothesisViolationError(FinslerError):
    """Curvature-bound hypothesis of a comparison theorem is not met."""


class NoSamplesError(FinslerError):
    """Every sample of a plan failed, so no statistic over the plan exists."""


class NonFiniteSampleError(FinslerError):
    """A sample evaluated to a value with a NaN or infinite entry."""


#: Failures a sample loop records per sample; any other exception is a bug
#: and propagates.
SAMPLE_ERRORS = (FinslerError, np.linalg.LinAlgError, FloatingPointError)
