"""Core domain types: symmetric matrices, block operators and spectral
dispositions, with their norms and instance files.

All types are immutable after construction and all functions are pure. A
symmetric matrix is built with its checked eigensystem, so a block operator
exists only once both diagonal blocks' spectra are certified.
"""
from __future__ import annotations

import base64
import json
import math
from dataclasses import InitVar, dataclass, field
from typing import Optional

import numpy as np

from .errors import (
    ASYMMETRY_TOL,
    EIG_GRAM_TOL,
    EIG_RESIDUAL_TOL,
    ConfigInvalid,
    DimensionMismatch,
    NoConvergence,
    ResidualTooLarge,
    require,
)


def as_float_matrix(entries, name: str = "matrix") -> np.ndarray:
    """The entries as a 2-dimensional float array: the one rule for every
    real array the library accepts. DimensionMismatch unless the entries are
    of a numeric dtype (integer or float; not bool, complex, string or
    object), finite and 2-dimensional; also for ragged rows."""
    try:
        arr = np.asarray(entries)
    except (TypeError, ValueError) as exc:
        raise DimensionMismatch(f"{name} entries are not real numbers: {exc}") from None
    if arr.dtype.kind == "c":
        raise DimensionMismatch(f"{name} has complex entries")
    if arr.dtype.kind not in "fiu":
        raise DimensionMismatch(f"{name} entries are not real numbers: dtype {arr.dtype}")
    if arr.ndim != 2:
        raise DimensionMismatch(f"{name} must be 2-dimensional, got shape {arr.shape}")
    arr = arr.astype(float, copy=False)
    if not np.isfinite(arr).all():
        raise DimensionMismatch(f"{name} contains non-finite entries")
    return arr


def frobenius(A: np.ndarray) -> float:
    """Frobenius norm of a float array: exactly what numpy's norm(A)
    computes (the square root of the dot product of the flattened entries),
    without its dispatch."""
    r = A.ravel(order="K")
    return math.sqrt(r.dot(r))


def spectral_norm(M) -> float:
    """Operator 2-norm (largest singular value) of a dense matrix.

    Computed as m sqrt(lambda_max(S^T S)), S = M / m with m = max|M|, over
    the smaller of the two dimensions: the largest eigenvalue of the Gram
    matrix carries a relative error of a few ulps, like the SVD route, and
    the scaling keeps S^T S clear of overflow and underflow. M is read by
    as_float_matrix.
    """
    M = as_float_matrix(M)
    m = float(np.abs(M).max(initial=0.0))  # 0 for an empty M
    if m == 0.0:
        return 0.0
    S = M / m
    G = S.T @ S if S.shape[0] >= S.shape[1] else S @ S.T
    return m * math.sqrt(max(float(np.linalg.eigvalsh(G)[-1]), 0.0))


@dataclass(frozen=True, eq=False)
class EigenSystem:
    """Full symmetric eigendecomposition with its backward residual and
    its norm, the largest eigenvalue magnitude; made only by
    EigenSystem.of, which checks it."""

    values: np.ndarray
    vectors: np.ndarray
    residual: float
    norm: float

    def __post_init__(self):
        self.values.setflags(write=False)
        self.vectors.setflags(write=False)

    @classmethod
    def of(cls, M: np.ndarray, spectrum: Optional[tuple] = None) -> "EigenSystem":
        """The checked eigensystem of an exactly symmetric matrix M
        (DimensionMismatch unless square and nonempty), values ascending:
        eigh's (NoConvergence if it fails, ResidualTooLarge for a non-finite
        eigenvalue), or a supplied spectrum=(values, vectors), eigenvectors
        as columns, kept as read-only copies after a check that it has M's
        shapes, ascends and has ||V^T V - I||_F <= EIG_GRAM_TOL
        (ResidualTooLarge otherwise): an orthonormal V with a small residual
        certifies each value to within the residual, as eigh's own output
        does, while V = 0 has residual 0 and certifies nothing. M and a
        supplied spectrum are read by as_float_matrix. Both routes then
        enforce ||M V - V diag(w)||_F <= EIG_RESIDUAL_TOL (1 + max|w|), which
        bounds the operator-norm residual; ResidualTooLarge is raised beyond
        it. eigh's V is not checked for orthonormality; the in-gap basis of
        L is, by SpectrumPartition.
        """
        M = as_float_matrix(M, "eigensystem matrix")
        n = M.shape[0]
        if not 1 <= n == M.shape[1]:
            raise DimensionMismatch(f"eigensystem of an empty or non-square matrix, shape {M.shape}")
        if spectrum is None:
            try:
                values, vectors = np.linalg.eigh(M)
            except np.linalg.LinAlgError as exc:
                raise NoConvergence(f"symmetric eigensolver failed: {exc}") from None
            if not np.isfinite(values).all():
                raise ResidualTooLarge("eigendecomposition has non-finite eigenvalues")
        else:
            # The values go through the matrix rule as a row; both are copies.
            values = as_float_matrix([spectrum[0]], "supplied eigenvalue row")[0]
            vectors = as_float_matrix(spectrum[1], "supplied eigenvector matrix").copy()
            if values.shape != (n,) or vectors.shape != (n, n):
                raise DimensionMismatch(
                    f"spectrum of shapes {values.shape}, {vectors.shape} for n={n}"
                )
            if not (values[1:] >= values[:-1]).all():
                raise ResidualTooLarge("supplied eigenvalues do not ascend")
            gram = vectors.T @ vectors
            gram.reshape(-1)[:: n + 1] -= 1.0  # the diagonal, in place
            require("supplied eigenbasis Gram defect", frobenius(gram), EIG_GRAM_TOL,
                    ResidualTooLarge)
        # The values ascend, so the largest magnitude is at one end.
        norm = max(abs(float(values[0])), abs(float(values[-1])))
        R = M @ vectors
        R -= vectors * values
        # Scaled by max|w| (when nonzero), so that the squares the Frobenius
        # norm sums cannot overflow where the decomposition is finite.
        unit = norm or 1.0
        R /= unit
        residual = frobenius(R) * unit
        cap = EIG_RESIDUAL_TOL * (1.0 + norm)
        require("eigendecomposition residual", residual, cap, ResidualTooLarge)
        return cls(values, vectors, residual, norm)


@dataclass(frozen=True, eq=False)
class SymMatrix:
    """Dense real symmetric matrix with its checked eigensystem.

    Construction symmetrizes exactly and sets `eig` to
    EigenSystem.of(entries, spectrum): eigh's, or a given
    `spectrum=(values, vectors)`, checked instead of recomputed. So no
    SymMatrix lacks its certified spectrum, its norm is `eig.norm`, and
    reading `eig` runs no eigensolver.
    """

    entries: np.ndarray
    spectrum: InitVar[Optional[tuple]] = None
    eig: EigenSystem = field(init=False)

    def __post_init__(self, spectrum):
        arr = as_float_matrix(self.entries, "SymMatrix")
        n, m = arr.shape
        if n != m or n < 1:
            raise DimensionMismatch(f"SymMatrix must be square and nonempty, got {arr.shape}")
        # The Frobenius norm is at least the operator norm and the largest
        # entry at most it, so this rejects all that the operator-norm test
        # ||S - S^T|| <= tol max(1, ||S||) rejects.
        cap = ASYMMETRY_TOL * max(1.0, float(np.abs(arr).max()))
        require("matrix asymmetry", frobenius(arr - arr.T), cap, DimensionMismatch)
        # Halving first cannot overflow; away from subnormals it is
        # bit-identical to (arr + arr.T) / 2.
        sym = arr / 2.0 + arr.T / 2.0
        sym.setflags(write=False)
        object.__setattr__(self, "entries", sym)
        object.__setattr__(self, "eig", EigenSystem.of(sym, spectrum))

    @property
    def n(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True, eq=False)
class BlockOperator:
    """Block decomposition (A0, A1, B) of A = diag(A0, A1) and L = A + V,
    where V has B as its only nonzero (off-diagonal) block.

    A0 and A1 may be given as SymMatrix instances or as array-likes, which
    become SymMatrix (symmetrized and eigendecomposed) on construction.
    Raises DimensionMismatch on inconsistent shapes.
    """

    A0: SymMatrix
    A1: SymMatrix
    B: np.ndarray
    _v_norm: float = field(init=False, repr=False)

    def __post_init__(self):
        for name in ("A0", "A1"):
            if not isinstance(getattr(self, name), SymMatrix):
                object.__setattr__(self, name, SymMatrix(getattr(self, name)))
        B = as_float_matrix(self.B, "B").copy()
        if B.shape != (self.A0.n, self.A1.n):
            raise DimensionMismatch(
                f"B must be {self.A0.n}x{self.A1.n}, got {B.shape[0]}x{B.shape[1]}"
            )
        B.setflags(write=False)
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "_v_norm", spectral_norm(B))

    @property
    def dim0(self) -> int:
        return self.A0.n

    @property
    def dim1(self) -> int:
        return self.A1.n

    @property
    def n(self) -> int:
        return self.dim0 + self.dim1

    # A property, not a field: perfbench times it by rewrapping its `.fget`.
    @property
    def v_norm(self) -> float:
        """Norm of the perturbation, equal to the largest singular value of
        B; computed once, on construction."""
        return self._v_norm

    def assemble_perturbed(self) -> np.ndarray:
        """Dense n x n matrix of L = A + V."""
        L = np.zeros((self.n, self.n))
        L[: self.dim0, : self.dim0] = self.A0.entries
        L[self.dim0 :, self.dim0 :] = self.A1.entries
        L[: self.dim0, self.dim0 :] = self.B
        L[self.dim0 :, : self.dim0] = self.B.T
        return L


@dataclass(frozen=True)
class SpectralDisposition:
    """The finite gap (gamma_l, gamma_r) of sigma1 = spec(A1) that contains
    sigma0 = spec(A0), the distance d = dist(sigma0, sigma1) and the gap
    length D = gamma_r - gamma_l."""

    gamma_l: float
    gamma_r: float
    d: float
    D: float


def _encode_block(entries: np.ndarray) -> dict:
    """A block in the exact-bits form: its shape and the base64 text of its
    C-order little-endian float64 bytes."""
    raw = np.asarray(entries, dtype="<f8").tobytes()
    return {"shape": list(entries.shape), "f8le": base64.b64encode(raw).decode("ascii")}


def is_json_number(value, kinds=(int, float)) -> bool:
    """Whether a value (parsed JSON, or a config field) is an instance of
    the given kinds. A bool is not a number, although Python makes it an int."""
    return isinstance(value, kinds) and not isinstance(value, bool)


def _decode_block(entry) -> np.ndarray:
    """A block from either instance form: rows of JSON numbers, or the
    exact-bits object {"shape": [m, n], "f8le": base64}. The finiteness and
    shape checks of the matrix types apply to both."""
    if not isinstance(entry, dict):
        for row in entry if isinstance(entry, list) else [entry]:
            for x in row if isinstance(row, list) else [row]:
                if not is_json_number(x):
                    raise ConfigInvalid(f"block entries must be JSON numbers, got {x!r}")
        return np.asarray(entry, dtype=float)
    shape, text = entry["shape"], entry["f8le"]
    if not (isinstance(shape, list) and len(shape) == 2
            and all(is_json_number(k, int) and k >= 0 for k in shape)):
        raise ConfigInvalid(f"block shape must be two non-negative JSON integers, got {shape!r}")
    raw = base64.b64decode(text, validate=True)
    if len(raw) != 8 * shape[0] * shape[1]:
        raise ConfigInvalid(
            f"block of shape {shape} needs {8 * shape[0] * shape[1]} bytes, got {len(raw)}"
        )
    return np.frombuffer(raw, "<f8").reshape(shape)


def block_operator_to_dict(block: BlockOperator) -> dict:
    """Serializable instance representation, each block in the exact-bits
    form {"shape": [m, n], "f8le": base64 of its float64 bytes}."""
    return {
        "dim0": block.dim0,
        "dim1": block.dim1,
        "A0": _encode_block(block.A0.entries),
        "A1": _encode_block(block.A1.entries),
        "B": _encode_block(block.B),
    }


def block_operator_from_dict(data: dict) -> BlockOperator:
    """Parse an instance dict, each block in either form; rejects NaN/Inf,
    dims that are not JSON integers and shape mismatches."""
    try:
        dim0, dim1 = data["dim0"], data["dim1"]
        if not (is_json_number(dim0, int) and is_json_number(dim1, int)):
            raise ConfigInvalid(f"dim0 and dim1 must be JSON integers, got {dim0!r}, {dim1!r}")
        A0, A1, B = (_decode_block(data[key]) for key in ("A0", "A1", "B"))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigInvalid(f"malformed instance data: {exc}") from None
    block = BlockOperator(A0, A1, B)
    if block.dim0 != dim0 or block.dim1 != dim1:
        raise DimensionMismatch(
            f"declared dims ({dim0}, {dim1}) disagree with blocks "
            f"({block.dim0}, {block.dim1})"
        )
    return block


def _reject_constant(token: str):
    raise ConfigInvalid(f"non-finite number in JSON file: {token}")


def read_json(path):
    """Parse a UTF-8 JSON file; ConfigInvalid for NaN, Infinity, undecodable
    bytes and input past the parser's digit or nesting limits."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh, parse_constant=_reject_constant)
        except UnicodeDecodeError as exc:
            raise ConfigInvalid(f"not a UTF-8 file: {exc}") from None
        except (ValueError, RecursionError) as exc:
            raise ConfigInvalid(f"invalid JSON: {exc}") from None


def load_instance(path) -> BlockOperator:
    """Read a block operator instance from a JSON file."""
    return block_operator_from_dict(read_json(path))


def save_instance(block: BlockOperator, path) -> None:
    """Write a block operator instance to a JSON file."""
    with open(path, "w") as fh:
        json.dump(block_operator_to_dict(block), fh)
        fh.write("\n")
