"""Exception types shared across the package, the table of every check's
tolerance, and `require`, the one comparison of a value with its cap."""

# The tolerance table: what each tolerance bounds and, after the semicolon,
# what it scales with. The modules that run the checks import it from here.
ASYMMETRY_TOL = 1e-12  # ||S - S^T||_F of an input block; max(1, max|s_ij|)
EIG_RESIDUAL_TOL = 1e-10  # ||S V - V diag(w)||_F of an eigensystem; 1 + max|w|
EIG_GRAM_TOL = 1e-8  # ||V^T V - I||_F of a supplied or in-gap eigenbasis; absolute (unit columns)
BOUNDARY_CLASSIFY_TOL = 1e-9  # |v - sqrt(d (D - d))| read as the region boundary; sqrt(d D)
PROJECTOR_DISTANCE_SLACK = 1e-9  # projector distance above 1 taken as round-off; absolute
BOUNDARY_BAND = 1e-9  # in-gap distance to a gap edge that is a boundary hit; 1 + ||L||
EDGE_COLLAR = 1e-12  # distance to a gap edge taken as an edge value's round-off; 1 + ||L||
EXTRACTION_COND_CAP = 1e12  # cond(Y0) of the in-gap basis' top block; dimensionless
RESIDUAL_REL_TOL = 1e-8  # Riccati residual, Lambda0 asymmetry; ||A0|| + ||A1|| + ||B||, ||X||
KERNEL_CUTOFF = 1e-12  # singular value of X counted as its kernel; ||X||
DEGENERACY_TOL = 1e-8  # width of a degenerate singular-value cluster in the audit; 1 + s
FIXED_POINT_TOL = 1e-13  # fixed-point step; 1 + ||X||_F / sqrt(min(dim0, dim1))
RADICAND_GUARD = 1e-12  # round-off of b below the maximizer's lower edge; relative (the edge)
MARGIN_FAILURE_THRESHOLD = -1e-8  # lowest passing margin bound - distance; absolute (sines)


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


def require(what: str, value: float, cap: float, error: type) -> None:
    """Raise `error` unless value <= cap; a NaN value fails. The message
    prints both floats exactly (repr)."""
    if not value <= cap:
        raise error(f"{what} {value!r} exceeds {cap!r}")
