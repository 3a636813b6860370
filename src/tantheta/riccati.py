"""Angular operator construction and validation: graph-subspace extraction
from the perturbed projector, an independent Sylvester fixed-point solver,
and the eigenvalue/eigenvector identity audit for the modulus of X."""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    DimensionMismatch,
    DispositionViolated,
    GraphExtractionFailed,
    NoConvergence,
    ResidualTooLarge,
)
from .model import BlockOperator, SpectralDisposition, SymMatrix, spectral_norm
from .spectral import SpectrumPartition, sym_eig

EXTRACTION_COND_CAP = 1e12
RESIDUAL_REL_TOL = 1e-8
# Singular values below this fraction of ||X|| pair with a zero left vector,
# realizing the convention that the polar isometry vanishes on ker(X).
KERNEL_CUTOFF = 1e-12
# Relative width of a cluster of singular values treated as degenerate when
# auditing basis-independence of the identities.
DEGENERACY_TOL = 1e-8


@dataclass(frozen=True)
class AngularOperator:
    """Solution X of the Riccati equation with its SVD and residual."""

    X: np.ndarray
    singular_values: np.ndarray  # descending, length min(dim0, dim1)
    left_vectors: np.ndarray  # dim1 x k
    right_vectors: np.ndarray  # dim0 x k
    norm: float
    riccati_residual: float

    def __post_init__(self):
        for arr in (self.X, self.singular_values, self.left_vectors, self.right_vectors):
            arr.setflags(write=False)

    @cached_property
    def right_basis(self) -> np.ndarray:
        """Orthonormal eigenbasis of |X| on the dim0 space: the right
        singular vectors, completed by a basis of ker(X) when dim1 < dim0."""
        W = self.right_vectors
        dim0, k = W.shape
        if k < dim0:
            Q, _ = np.linalg.qr(W, mode="complete")
            W = np.hstack([W, Q[:, k:]])
        W.setflags(write=False)
        return W

    @cached_property
    def eigenvalues_abs(self) -> np.ndarray:
        """Eigenvalues of |X| in the order of right_basis: the singular
        values padded with zeros when dim1 < dim0."""
        s = np.zeros(self.right_vectors.shape[0])
        s[: self.singular_values.size] = self.singular_values
        s.setflags(write=False)
        return s

    @property
    def theta_norm(self) -> float:
        """Largest principal angle arctan(||X||), in radians."""
        return math.atan(self.norm)

    @property
    def sin_theta(self) -> float:
        """sin(arctan ||X||) = ||X|| / sqrt(1 + ||X||^2)."""
        return self.norm / math.hypot(1.0, self.norm)


def riccati_residual(X, block: BlockOperator) -> float:
    """Operator norm of X A0 - A1 X + X B X - B^T."""
    X = np.asarray(X, dtype=float)
    if X.shape != (block.dim1, block.dim0):
        raise DimensionMismatch(
            f"X must be {block.dim1}x{block.dim0}, got {X.shape[0]}x{X.shape[1]}"
        )
    A0, A1, B = block.A0.entries, block.A1.entries, block.B
    R = X @ A0 - A1 @ X + X @ B @ X - B.T
    return spectral_norm(R)


def angular_from_matrix(X, block: BlockOperator) -> AngularOperator:
    """Wrap a candidate solution matrix with its SVD and residual."""
    X = np.asarray(X, dtype=float).copy()
    res = riccati_residual(X, block)
    U, s, Wt = np.linalg.svd(X, full_matrices=False)
    norm = float(s[0]) if s.size else 0.0
    return AngularOperator(X, s.copy(), U.copy(), Wt.T.copy(), norm, res)


def _residual_cap(block: BlockOperator, x_norm: float) -> float:
    scale = 1.0 + block.A0.norm + block.A1.norm + block.v_norm
    return RESIDUAL_REL_TOL * scale * (1.0 + x_norm) ** 2


def extract_angular_operator(partition: SpectrumPartition, block: BlockOperator) -> AngularOperator:
    """Angular operator of the perturbed spectral subspace.

    Splits an orthonormal basis Y of range(P0) into blocks Y0 (top dim0
    rows) and Y1 and returns X = Y1 Y0^{-1}. Raises GraphExtractionFailed
    if Y0 is too ill-conditioned for the subspace to be a graph, and
    ResidualTooLarge if the result fails its Riccati residual contract.
    """
    dim0 = block.dim0
    if partition.rank0 != dim0:
        raise GraphExtractionFailed(
            f"partition rank {partition.rank0} != dim0 {dim0}"
        )
    Y = partition.vectors0
    Y0 = Y[:dim0, :]
    Y1 = Y[dim0:, :]
    cond = np.linalg.cond(Y0)
    if not np.isfinite(cond) or cond > EXTRACTION_COND_CAP:
        raise GraphExtractionFailed(
            f"top block condition number {cond:g} exceeds {EXTRACTION_COND_CAP:g}; "
            "the subspace is not a graph over the reference block"
        )
    X = np.linalg.solve(Y0.T, Y1.T).T
    ang = angular_from_matrix(X, block)
    cap = _residual_cap(block, ang.norm)
    if ang.riccati_residual > cap:
        raise ResidualTooLarge(
            f"Riccati residual {ang.riccati_residual:g} exceeds {cap:g}"
        )
    return ang


def solve_riccati_fixed_point(
    block: BlockOperator,
    disp: SpectralDisposition,
    tol: float = 1e-13,
    max_iter: int = 2000,
) -> AngularOperator:
    """Independent cross-check solver.

    Iterates X0 = 0, with X_{k+1} solving the Sylvester equation
    A1 X - X A0 = X_k B X_k - B^T by entrywise division (all divisors at
    least d in magnitude). The iteration runs wholly in the eigenbases Q0,
    Q1 of A0 and A1, which it shares with find_disposition: there X~ =
    Q1^T X Q0 and B~ = Q0^T B Q1 give X~_{k+1} = (X~_k B~ X~_k - B~^T) / (w1 - w0),
    and X = Q1 X~ Q0^T is formed once at the end. It stops when
    ||X_{k+1} - X_k||_F <= tol (1 + ||X_{k+1}||_F / sqrt(min(dim0, dim1))),
    a test at least as strict as the operator-norm test
    ||X_{k+1} - X_k|| <= tol (1 + ||X_{k+1}||). Convergence is guaranteed
    only for small ||B||/d; NoConvergence past max_iter is a regime limit,
    not a correctness failure.
    """
    es0 = sym_eig(block.A0)
    es1 = sym_eig(block.A1)
    Q0, w0 = es0.vectors, es0.values
    Q1, w1 = es1.vectors, es1.values
    denom = w1[:, None] - w0[None, :]
    if np.min(np.abs(denom)) < disp.d / 2.0:
        raise DispositionViolated(
            f"Sylvester divisor {np.min(np.abs(denom)):g} below d/2 = {disp.d / 2.0:g}"
        )
    Bt = Q0.T @ block.B @ Q1
    BtT = Bt.T
    # X B X costs 2 dim0 dim1 min(dim0, dim1) multiplications in the better order.
    narrow = block.dim0 <= block.dim1
    root_k = math.sqrt(min(block.dim0, block.dim1))
    X = np.zeros((block.dim1, block.dim0))
    for _ in range(max_iter):
        XBX = X @ (Bt @ X) if narrow else (X @ Bt) @ X
        X_new = (XBX - BtT) / denom
        step = np.linalg.norm(X_new - X)
        X = X_new
        if step <= tol * (1.0 + np.linalg.norm(X) / root_k):
            return angular_from_matrix(Q1 @ X @ Q0.T, block)
    raise NoConvergence(
        f"fixed-point iteration did not converge in {max_iter} steps "
        f"(||B||/d = {block.v_norm / disp.d:g})"
    )


def lambda0(X: AngularOperator, block: BlockOperator) -> SymMatrix:
    """The operator (I + |X|^2)^{1/2} (A0 + B X) (I + |X|^2)^{-1/2},
    computed in the eigenbasis of |X| that X's SVD already holds.
    Self-adjoint with spectrum equal to the in-gap component of spec(L)."""
    W = X.right_basis
    sqrt_fac = np.sqrt(1.0 + X.eigenvalues_abs**2)
    core = block.A0.entries + block.B @ X.X
    M = W @ (sqrt_fac[:, None] * (W.T @ core @ W) / sqrt_fac[None, :]) @ W.T
    scale = 1.0 + block.A0.norm + block.v_norm * (1.0 + X.norm)
    # The Frobenius norm bounds the operator norm of the asymmetry.
    asymmetry = np.linalg.norm(M - M.T)
    if asymmetry > RESIDUAL_REL_TOL * scale:
        raise ResidualTooLarge(f"Lambda0 asymmetry {asymmetry:g} exceeds tolerance")
    return SymMatrix((M + M.T) / 2.0)


@dataclass(frozen=True)
class PairResiduals:
    lam: float
    id1_residual: float
    id2_residual: float
    id3_residual: float


@dataclass(frozen=True)
class IdentityResiduals:
    """Normalized residuals of the three eigenpair identities, one record
    per audited singular pair of X."""

    per_pair: tuple
    max_residual: float


def _normalized(lhs, rhs):
    return abs(lhs - rhs) / (1.0 + abs(lhs) + abs(rhs))


def _pair_residuals(lam, W, U, A0, A1, B, Lam0) -> list:
    """Residuals of the identities for the eigenpairs (lam[c], W[:, c]) of
    |X| with polar images U[:, c], all columns at once."""
    A0u = A0 @ W
    Btu = B.T @ W
    A1Uu = A1 @ U
    BUu = B @ U
    L0u = Lam0 @ W

    def dots(P, Q):
        return np.einsum("ij,ij->j", P, Q)

    cross = dots(A0u, BUu) + dots(Btu, A1Uu)
    nA0u = dots(A0u, A0u)
    nBtu = dots(Btu, Btu)
    nA1Uu = dots(A1Uu, A1Uu)
    nBUu = dots(BUu, BUu)
    nL0u = dots(L0u, L0u)
    id2 = _normalized(lam * (nA0u + nBtu - nA1Uu - nBUu), (1.0 - lam * lam) * cross)
    id1 = _normalized(lam * cross, nL0u - nA0u - nBtu)
    id3 = _normalized(lam * lam * (nA1Uu + nBUu - nL0u), nA0u + nBtu - nL0u)
    return [
        PairResiduals(float(lam[c]), float(id1[c]), float(id2[c]), float(id3[c]))
        for c in range(W.shape[1])
    ]


def verify_lemma_identities(
    X: AngularOperator, block: BlockOperator, seed: int = 0
) -> IdentityResiduals:
    """Audit the three identities satisfied by every eigenpair of |X|.

    Every right singular vector of X (including the kernel, where the polar
    isometry is zero) is checked. Within clusters of degenerate singular
    values a random orthogonal rotation of the basis is audited as well, so
    the identities are verified basis-independently; the rotation seed is
    explicit for reproducibility. Uses the SVD held by X.
    """
    W = X.right_basis
    s_full = X.eigenvalues_abs
    dim0 = s_full.size
    cutoff = KERNEL_CUTOFF * (X.norm if X.norm > 0.0 else 1.0)
    # Polar images: the left singular vector, or zero on (numerical) ker(X).
    U = np.zeros((block.dim1, dim0))
    live = np.flatnonzero(s_full[: X.singular_values.size] > cutoff)
    U[:, live] = X.left_vectors[:, live]

    A0, A1, B = block.A0.entries, block.A1.entries, block.B
    Lam0 = lambda0(X, block).entries
    records = _pair_residuals(s_full, W, U, A0, A1, B, Lam0)

    # Degenerate clusters: rotate the singular basis within each cluster and
    # re-audit, since any orthonormal eigenbasis of |X| must satisfy the
    # identities.
    rng = np.random.default_rng(seed)
    i = 0
    while i < dim0:
        j = i + 1
        while j < dim0 and abs(s_full[j] - s_full[i]) <= DEGENERACY_TOL * (1.0 + s_full[i]):
            j += 1
        if j - i > 1:
            m = j - i
            Q, _ = np.linalg.qr(rng.standard_normal((m, m)))
            records += _pair_residuals(
                np.full(m, s_full[i]), W[:, i:j] @ Q, U[:, i:j] @ Q, A0, A1, B, Lam0
            )
        i = j

    max_res = max(
        max(r.id1_residual, r.id2_residual, r.id3_residual) for r in records
    )
    return IdentityResiduals(tuple(records), float(max_res))
