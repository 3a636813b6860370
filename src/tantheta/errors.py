"""Exception types shared across the package."""


class TanThetaError(Exception):
    """Base class for all library errors."""


class DimensionMismatch(TanThetaError):
    """Array shapes are inconsistent or a matrix is too asymmetric."""


class DomainError(TanThetaError):
    """Arguments fall outside the domain of a bound or parametrization."""


class NoConvergence(TanThetaError):
    """An iterative method exceeded its iteration cap."""


class DispositionViolated(TanThetaError):
    """The spectra do not realize the single-finite-gap disposition."""


class EigenvalueOnBoundary(TanThetaError):
    """An eigenvalue sits too close to an interval endpoint to classify."""


class GapEmptyOrRankMismatch(TanThetaError):
    """The in-gap spectral count disagrees with the unperturbed block size."""


class GraphExtractionFailed(TanThetaError):
    """The perturbed subspace is not a graph over the reference block."""


class ResidualTooLarge(TanThetaError):
    """A computed object failed its defining residual or symmetry check."""


class NotAProjector(TanThetaError):
    """A projector failed its orthonormality or norm check, or a pair of
    projectors is not one the distance is defined for."""


class ConfigInvalid(TanThetaError):
    """A generation or sweep configuration is inconsistent."""
