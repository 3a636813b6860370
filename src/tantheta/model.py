"""Core domain types: symmetric matrices, block operators, spectral
dispositions and points of the bound domain.

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
    DispositionViolated,
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

# Default tolerance (relative to sqrt(d*D)) for labelling a point as lying
# on the common boundary between the two bound regions.
BOUNDARY_CLASSIFY_TOL = 1e-9


def _as_float_matrix(entries, name: str = "matrix") -> np.ndarray:
    arr = np.asarray(entries, dtype=float)
    if arr.ndim != 2:
        raise DimensionMismatch(f"{name} must be 2-dimensional, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise DimensionMismatch(f"{name} contains non-finite entries")
    return arr


def spectral_norm(M) -> float:
    """Operator 2-norm (largest singular value) of a dense matrix."""
    M = np.asarray(M, dtype=float)
    if M.size == 0:
        return 0.0
    return float(np.linalg.norm(M, 2))


@dataclass(frozen=True)
class EigenSystem:
    """Full symmetric eigendecomposition with its backward residual."""

    values: np.ndarray
    vectors: np.ndarray
    residual: float

    def __post_init__(self):
        self.values.setflags(write=False)
        self.vectors.setflags(write=False)


@dataclass(frozen=True)
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
        sym = (arr + arr.T) / 2.0
        sym.setflags(write=False)
        object.__setattr__(self, "entries", sym)

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    @cached_property
    def eig(self) -> EigenSystem:
        """Eigendecomposition, values ascending; the contract is that of
        spectral.sym_eig, which returns this."""
        M = self.entries
        try:
            values, vectors = np.linalg.eigh(M)
        except np.linalg.LinAlgError as exc:
            raise NoConvergence(f"symmetric eigensolver failed: {exc}") from None
        residual = float(np.linalg.norm(M @ vectors - vectors * values))
        cap = EIG_RESIDUAL_TOL * (1.0 + float(np.max(np.abs(values))))
        if residual > cap:
            raise ResidualTooLarge(f"eigendecomposition residual {residual:g} exceeds {cap:g}")
        return EigenSystem(values, vectors, residual)

    @cached_property
    def norm(self) -> float:
        """Operator norm, the largest eigenvalue magnitude."""
        return float(np.max(np.abs(self.eig.values)))


@dataclass(frozen=True)
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

    @property
    def v_norm(self) -> float:
        """Norm of the perturbation, equal to the largest singular value of
        B; computed once per block."""
        cache = self.__dict__
        if "_v_norm" not in cache:
            cache["_v_norm"] = spectral_norm(self.B)
        return cache["_v_norm"]

    def assemble_unperturbed(self) -> np.ndarray:
        """Dense n x n matrix of A = diag(A0, A1)."""
        A = np.zeros((self.n, self.n))
        A[: self.dim0, : self.dim0] = self.A0.entries
        A[self.dim0 :, self.dim0 :] = self.A1.entries
        return A

    def assemble_perturbed(self) -> np.ndarray:
        """Dense n x n matrix of L = A + V."""
        L = self.assemble_unperturbed()
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
    """Spectra of the diagonal blocks together with the finite gap
    (gamma_l, gamma_r) of sigma1 that contains sigma0."""

    sigma0: tuple
    sigma1: tuple
    gamma_l: float
    gamma_r: float
    d: float
    D: float


def disposition_from_spectra(sigma0, sigma1) -> SpectralDisposition:
    """Locate the finite gap of sigma1 containing all of sigma0 and compute
    the exact distance d and gap width D.

    Raises DispositionViolated if sigma0 is not contained in a single finite
    gap of sigma1 or if the closed convex hull of sigma0 meets sigma1.
    """
    s0 = tuple(sorted(float(x) for x in sigma0))
    s1 = tuple(sorted(float(x) for x in sigma1))
    if not s0 or not s1:
        raise DispositionViolated("both spectra must be nonempty")
    lo0, hi0 = s0[0], s0[-1]
    below = [x for x in s1 if x < lo0]
    above = [x for x in s1 if x > hi0]
    inside = [x for x in s1 if lo0 <= x <= hi0]
    if inside or not below or not above:
        raise DispositionViolated(
            "sigma0 must lie strictly inside a finite gap of sigma1"
        )
    gamma_l = max(below)
    gamma_r = min(above)
    d = min(lo0 - gamma_l, gamma_r - hi0)
    D = gamma_r - gamma_l
    if d <= 0.0:
        raise DispositionViolated("distance between sigma0 and sigma1 is not positive")
    return SpectralDisposition(s0, s1, gamma_l, gamma_r, d, D)


class Region(enum.Enum):
    """Subregions of the admissible set of (D, d, v) triples, ordered by
    increasing v for fixed (D, d)."""

    OMEGA1_0 = 0
    OMEGA1_1 = 1
    BOUNDARY_OMEGA12 = 2
    OMEGA2 = 3
    OUTSIDE_OMEGA = 4


@dataclass(frozen=True)
class BoundPoint:
    """A triple (D, d, v) with its region classification."""

    D: float
    d: float
    v: float
    region: Region


def classify_region(D: float, d: float, v: float, tol: float = BOUNDARY_CLASSIFY_TOL) -> BoundPoint:
    """Classify the point (D, d, v) into the region partition.

    Points within tol*sqrt(d*D) of v = sqrt(d*(D-d)) are labelled as lying
    on the inter-region boundary. OUTSIDE_OMEGA is a valid label, not an
    error; it covers v >= sqrt(d*D) as well as degenerate d.
    """
    D, d, v = float(D), float(d), float(v)
    if D <= 0.0:
        raise DomainError("D must be positive")
    if v < 0.0:
        raise DomainError("v must be non-negative")
    if d <= 0.0 or d > D / 2.0 or v >= math.sqrt(d * D):
        return BoundPoint(D, d, v, Region.OUTSIDE_OMEGA)
    v_boundary = math.sqrt(d * (D - d))
    if abs(v - v_boundary) <= tol * math.sqrt(d * D):
        return BoundPoint(D, d, v, Region.BOUNDARY_OMEGA12)
    if v < v_boundary:
        if v <= 0.5 * math.sqrt(d * (D - 2.0 * d)):
            return BoundPoint(D, d, v, Region.OMEGA1_0)
        return BoundPoint(D, d, v, Region.OMEGA1_1)
    return BoundPoint(D, d, v, Region.OMEGA2)


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
