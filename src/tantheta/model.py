"""Core domain types: symmetric matrices, block operators, spectral
dispositions and the regions of the bound domain.

All types are immutable after construction and all functions are pure.
"""
from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    ConfigInvalid,
    DimensionMismatch,
    DomainError,
    NoConvergence,
    ResidualTooLarge,
)

# Relative asymmetry below this is treated as I/O round-off and symmetrized;
# anything larger is rejected as wrong data. It bounds ||S - S^T||_F by
# ASYMMETRY_TOL * max(1, max|s_ij|); the Frobenius norm is at least the
# operator norm and the largest entry at most the operator norm, so this
# rejects everything the operator-norm test ||S - S^T|| <= tol max(1, ||S||)
# rejects.
ASYMMETRY_TOL = 1e-12

# Backward-error contract of every symmetric eigendecomposition:
# ||S V - V diag(w)||_F <= EIG_RESIDUAL_TOL (1 + max|w|).
EIG_RESIDUAL_TOL = 1e-10

# Tolerance (relative to sqrt(d*D)) for labelling a point as lying on the
# common boundary between the two bound regions.
BOUNDARY_CLASSIFY_TOL = 1e-9


def _as_float_matrix(entries, name: str = "matrix") -> np.ndarray:
    arr = np.asarray(entries, dtype=float)
    if arr.ndim != 2:
        raise DimensionMismatch(f"{name} must be 2-dimensional, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise DimensionMismatch(f"{name} contains non-finite entries")
    return arr


def spectral_norm(M) -> float:
    """Operator 2-norm (largest singular value) of a dense matrix.

    Computed as m sqrt(lambda_max(S^T S)), S = M / m with m = max|M|, over
    the smaller of the two dimensions: the largest eigenvalue of the Gram
    matrix carries a relative error of a few ulps, like the SVD route, and
    the scaling keeps S^T S clear of overflow and underflow. Raises
    DimensionMismatch on non-finite entries.
    """
    M = np.asarray(M, dtype=float)
    if M.size == 0:
        return 0.0
    m = float(np.max(np.abs(M)))
    if not math.isfinite(m):
        raise DimensionMismatch("spectral norm of a matrix with non-finite entries")
    if m == 0.0:
        return 0.0
    S = M / m
    G = S.T @ S if S.shape[0] >= S.shape[1] else S @ S.T
    return m * math.sqrt(max(float(np.linalg.eigvalsh(G)[-1]), 0.0))


@dataclass(frozen=True, eq=False)
class EigenSystem:
    """Full symmetric eigendecomposition with its backward residual."""

    values: np.ndarray
    vectors: np.ndarray
    residual: float

    def __post_init__(self):
        self.values.setflags(write=False)
        self.vectors.setflags(write=False)

    @classmethod
    def of(cls, M: np.ndarray) -> "EigenSystem":
        """Eigendecomposition of an exactly symmetric matrix, values ascending.

        The contract enforced here is the residual: ||M V - V diag(w)||_F
        <= 1e-10 (1 + max|w|), in the Frobenius norm, which bounds the
        operator norm; ResidualTooLarge is raised beyond it, and for a
        non-finite eigenvalue, whose residual is not meaningful. Orthonormality
        of V is not checked here: it is checked only for the in-gap basis of
        L, by the Gram test of RangeProjector.lower_svd.
        """
        try:
            values, vectors = np.linalg.eigh(M)
        except np.linalg.LinAlgError as exc:
            raise NoConvergence(f"symmetric eigensolver failed: {exc}") from None
        if not np.all(np.isfinite(values)):
            raise ResidualTooLarge("eigendecomposition has non-finite eigenvalues")
        residual = float(np.linalg.norm(M @ vectors - vectors * values))
        cap = EIG_RESIDUAL_TOL * (1.0 + float(np.max(np.abs(values))))
        if not residual <= cap:
            raise ResidualTooLarge(f"eigendecomposition residual {residual:g} exceeds {cap:g}")
        return cls(values, vectors, residual)


@dataclass(frozen=True, eq=False)
class SymMatrix:
    """Dense real symmetric matrix; construction symmetrizes exactly.

    The eigendecomposition is computed at most once, on first use, and the
    norm is read from its spectrum.
    """

    entries: np.ndarray

    def __post_init__(self):
        arr = _as_float_matrix(self.entries, "SymMatrix")
        n, m = arr.shape
        if n != m or n < 1:
            raise DimensionMismatch(f"SymMatrix must be square and nonempty, got {arr.shape}")
        scale = max(1.0, float(np.max(np.abs(arr))))
        if np.linalg.norm(arr - arr.T) > ASYMMETRY_TOL * scale:
            raise DimensionMismatch("matrix is not symmetric within 1e-12 relative")
        # Halving first cannot overflow; away from subnormals it is
        # bit-identical to (arr + arr.T) / 2.
        sym = arr / 2.0 + arr.T / 2.0
        sym.setflags(write=False)
        object.__setattr__(self, "entries", sym)

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    @cached_property
    def eig(self) -> EigenSystem:
        """The checked eigendecomposition (EigenSystem.of), computed once."""
        return EigenSystem.of(self.entries)

    @cached_property
    def norm(self) -> float:
        """Operator norm, the largest eigenvalue magnitude."""
        return float(np.max(np.abs(self.eig.values)))


@dataclass(frozen=True, eq=False)
class BlockOperator:
    """Block decomposition (A0, A1, B) of A = diag(A0, A1) and L = A + V,
    where V has B as its only nonzero (off-diagonal) block."""

    A0: SymMatrix
    A1: SymMatrix
    B: np.ndarray

    def __post_init__(self):
        B = _as_float_matrix(self.B, "B")
        if B.shape != (self.A0.n, self.A1.n):
            raise DimensionMismatch(
                f"B must be {self.A0.n}x{self.A1.n}, got {B.shape[0]}x{B.shape[1]}"
            )
        B = B.copy()
        B.setflags(write=False)
        object.__setattr__(self, "B", B)

    @property
    def dim0(self) -> int:
        return self.A0.n

    @property
    def dim1(self) -> int:
        return self.A1.n

    @property
    def n(self) -> int:
        return self.dim0 + self.dim1

    # A property with its own cache rather than a cached_property:
    # perfbench times it by rewrapping the getter it reads from `.fget`,
    # which a cached_property does not have.
    @property
    def v_norm(self) -> float:
        """Norm of the perturbation, equal to the largest singular value of
        B; computed once per block."""
        cache = self.__dict__
        if "_v_norm" not in cache:
            cache["_v_norm"] = spectral_norm(self.B)
        return cache["_v_norm"]

    def assemble_perturbed(self) -> np.ndarray:
        """Dense n x n matrix of L = A + V."""
        L = np.zeros((self.n, self.n))
        L[: self.dim0, : self.dim0] = self.A0.entries
        L[self.dim0 :, self.dim0 :] = self.A1.entries
        L[: self.dim0, self.dim0 :] = self.B
        L[self.dim0 :, : self.dim0] = self.B.T
        return L


def make_block_operator(A0, A1, B) -> BlockOperator:
    """Validate and assemble a block operator from its three blocks.

    A0 and A1 may be SymMatrix instances or array-likes (symmetrized on
    construction). Raises DimensionMismatch on inconsistent shapes.
    """
    if not isinstance(A0, SymMatrix):
        A0 = SymMatrix(A0)
    if not isinstance(A1, SymMatrix):
        A1 = SymMatrix(A1)
    return BlockOperator(A0, A1, B)


@dataclass(frozen=True)
class SpectralDisposition:
    """The finite gap (gamma_l, gamma_r) of sigma1 = spec(A1) that contains
    sigma0 = spec(A0), the distance d = dist(sigma0, sigma1) and the gap
    length D = gamma_r - gamma_l."""

    gamma_l: float
    gamma_r: float
    d: float
    D: float


class Region(enum.Enum):
    """Subregions of the admissible set of (D, d, v) triples, ordered by
    increasing v for fixed (D, d)."""

    OMEGA1_0 = 0
    OMEGA1_1 = 1
    BOUNDARY_OMEGA12 = 2
    OMEGA2 = 3
    OUTSIDE_OMEGA = 4


def require_finite(names: str, *values: float) -> None:
    """Raise DomainError unless every value is finite; `names` lists the
    values' names, as in "D, d, v"."""
    if not all(math.isfinite(x) for x in values):
        raise DomainError(f"({names}) = ({', '.join(str(x) for x in values)}) must be finite")


def classify_region(D: float, d: float, v: float) -> Region:
    """Classify the point (D, d, v) into the region partition.

    Points within BOUNDARY_CLASSIFY_TOL * sqrt(d*D) of v = sqrt(d*(D-d))
    are labelled as lying on the inter-region boundary. OUTSIDE_OMEGA is a
    valid label, not an error; it covers v >= sqrt(d*D) as well as
    degenerate d. Non-finite D, d or v raise DomainError.
    """
    D, d, v = float(D), float(d), float(v)
    require_finite("D, d, v", D, d, v)
    if D <= 0.0:
        raise DomainError("D must be positive")
    if v < 0.0:
        raise DomainError("v must be non-negative")
    if d <= 0.0 or d > D / 2.0 or v >= math.sqrt(d * D):
        return Region.OUTSIDE_OMEGA
    v_boundary = math.sqrt(d * (D - d))
    if abs(v - v_boundary) <= BOUNDARY_CLASSIFY_TOL * math.sqrt(d * D):
        return Region.BOUNDARY_OMEGA12
    if v < v_boundary:
        if v <= 0.5 * math.sqrt(d * (D - 2.0 * d)):
            return Region.OMEGA1_0
        return Region.OMEGA1_1
    return Region.OMEGA2


def block_operator_to_dict(block: BlockOperator) -> dict:
    """Serializable instance representation (row-major nested lists)."""
    return {
        "dim0": block.dim0,
        "dim1": block.dim1,
        "A0": block.A0.entries.tolist(),
        "A1": block.A1.entries.tolist(),
        "B": np.asarray(block.B).tolist(),
    }


def block_operator_from_dict(data: dict) -> BlockOperator:
    """Parse an instance dict; rejects NaN/Inf and shape mismatches."""
    try:
        dim0 = int(data["dim0"])
        dim1 = int(data["dim1"])
        A0 = np.asarray(data["A0"], dtype=float)
        A1 = np.asarray(data["A1"], dtype=float)
        B = np.asarray(data["B"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigInvalid(f"malformed instance data: {exc}") from None
    block = make_block_operator(A0, A1, B)
    if block.dim0 != dim0 or block.dim1 != dim1:
        raise DimensionMismatch(
            f"declared dims ({dim0}, {dim1}) disagree with blocks "
            f"({block.dim0}, {block.dim1})"
        )
    return block


def _reject_constant(token: str):
    raise ConfigInvalid(f"non-finite number in JSON file: {token}")


def read_json(path):
    """Parse a JSON file, rejecting NaN and Infinity with ConfigInvalid."""
    with open(path) as fh:
        try:
            return json.load(fh, parse_constant=_reject_constant)
        except json.JSONDecodeError as exc:
            raise ConfigInvalid(f"invalid JSON: {exc}") from None


def load_instance(path) -> BlockOperator:
    """Read a block operator instance from a JSON file."""
    return block_operator_from_dict(read_json(path))


def save_instance(block: BlockOperator, path) -> None:
    """Write a block operator instance to a JSON file."""
    with open(path, "w") as fh:
        json.dump(block_operator_to_dict(block), fh)
        fh.write("\n")
