"""Angular operator construction and validation: graph-subspace extraction
from the perturbed projector, an independent Sylvester fixed-point solver,
and the eigenvalue/eigenvector identity audit for the modulus of X."""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    ConfigInvalid,
    DimensionMismatch,
    DispositionViolated,
    GraphExtractionFailed,
    NoConvergence,
    ResidualTooLarge,
)
from .model import BlockOperator, SpectralDisposition, spectral_norm
from .spectral import SpectrumPartition

EXTRACTION_COND_CAP = 1e12
RESIDUAL_REL_TOL = 1e-8
# Singular values below this fraction of ||X|| pair with a zero left vector,
# realizing the convention that the polar isometry vanishes on ker(X).
KERNEL_CUTOFF = 1e-12
# Relative width of a cluster of singular values treated as degenerate when
# auditing basis-independence of the identities.
DEGENERACY_TOL = 1e-8
# Step tolerance and iteration cap of the fixed-point cross-check.
FIXED_POINT_TOL = 1e-13
FIXED_POINT_MAX_ITER = 2000


@dataclass(frozen=True, eq=False)
class AngularOperator:
    """Solution X (dim1 x dim0) of the Riccati equation of a block operator,
    with an SVD X = U diag(s) W[:, :k]^T and its Riccati residual.

    `left_vectors` U is dim1 x k and `singular_values` s has length
    k = min(dim0, dim1), descending; `right_basis` W is a square orthonormal
    dim0 x dim0 basis whose columns past the k-th span ker(X). All arrays
    are read-only.
    """

    X: np.ndarray
    left_vectors: np.ndarray
    singular_values: np.ndarray
    right_basis: np.ndarray
    riccati_residual: float

    def __post_init__(self):
        for arr in (self.X, self.left_vectors, self.singular_values, self.right_basis):
            arr.setflags(write=False)

    @property
    def norm(self) -> float:
        s = self.singular_values
        return float(s[0]) if s.size else 0.0

    @cached_property
    def eigenvalues_abs(self) -> np.ndarray:
        """Eigenvalues of |X| in the order of right_basis: the singular
        values padded with zeros when dim1 < dim0."""
        s = np.zeros(self.X.shape[1])
        s[: self.singular_values.size] = self.singular_values
        s.setflags(write=False)
        return s

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


def _residual_cap(block: BlockOperator, x_norm: float) -> float:
    scale = 1.0 + block.A0.norm + block.A1.norm + block.v_norm
    return RESIDUAL_REL_TOL * scale * (1.0 + x_norm) ** 2


def extract_angular_operator(partition: SpectrumPartition, block: BlockOperator) -> AngularOperator:
    """Angular operator of the perturbed spectral subspace.

    Splits the orthonormal in-gap basis Y of the partition into blocks Y0
    (top dim0 rows) and Y1 and returns X = Y1 Y0^{-1}, read off the SVD
    Y1 = U diag(s) W^T that the partition's projector caches for the
    projector distance (P0.lower_svd). The columns of Y0 W are orthogonal
    with norms c, the cosines of the principal angles, so with
    Z = Y0 W / c, Y0 = Z diag(c) W^T and X = U diag(s / c) Z[:, :k]^T is an
    SVD of X whose right basis Z is already square. Raises
    GraphExtractionFailed if Y0 is too ill-conditioned (cond(Y0) =
    max c / min c) for the subspace to be a graph, and ResidualTooLarge if
    the result fails its Riccati residual contract.
    """
    dim0 = block.dim0
    P0 = partition.P0
    if P0.rank != dim0:
        raise GraphExtractionFailed(f"partition rank {P0.rank} != dim0 {dim0}")
    U, s, Wt = P0.lower_svd
    Y0W = P0.basis[:dim0, :] @ Wt.T
    c = np.sqrt(np.einsum("ij,ij->j", Y0W, Y0W))
    c_min, c_max = float(np.min(c)), float(np.max(c))
    cond = c_max / c_min if c_min > 0.0 else math.inf
    if not math.isfinite(cond) or cond > EXTRACTION_COND_CAP:
        raise GraphExtractionFailed(
            f"top block condition number {cond:g} exceeds {EXTRACTION_COND_CAP:g}; "
            "the subspace is not a graph over the reference block"
        )
    Z = Y0W / c
    k = s.size
    t = s / c[:k]
    X = (U * t) @ Z[:, :k].T
    res = riccati_residual(X, block)
    cap = _residual_cap(block, float(t[0]))
    if res > cap:
        raise ResidualTooLarge(f"Riccati residual {res:g} exceeds {cap:g}")
    return AngularOperator(X, U, t, Z, res)


def solve_riccati_fixed_point(block: BlockOperator, disp: SpectralDisposition) -> np.ndarray:
    """Independent cross-check solver; returns the matrix X.

    Iterates X0 = 0, with X_{k+1} solving the Sylvester equation
    A1 X - X A0 = X_k B X_k - B^T by entrywise division (all divisors at
    least d in magnitude). The iteration runs wholly in the eigenbases Q0,
    Q1 of A0 and A1, which it shares with find_disposition: there X~ =
    Q1^T X Q0 and B~ = Q0^T B Q1 give X~_{k+1} = (X~_k B~ X~_k - B~^T) / (w1 - w0),
    and X = Q1 X~ Q0^T is formed once at the end. It stops when
    ||X_{k+1} - X_k||_F <= tol (1 + ||X_{k+1}||_F / sqrt(min(dim0, dim1))),
    tol = FIXED_POINT_TOL, a test at least as strict as the operator-norm
    test ||X_{k+1} - X_k|| <= tol (1 + ||X_{k+1}||). Convergence is
    guaranteed only for small ||B||/d; NoConvergence past
    FIXED_POINT_MAX_ITER steps is a regime limit, not a correctness failure.
    """
    es0 = block.A0.eig
    es1 = block.A1.eig
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
    for _ in range(FIXED_POINT_MAX_ITER):
        XBX = X @ (Bt @ X) if narrow else (X @ Bt) @ X
        X_new = (XBX - BtT) / denom
        step = np.linalg.norm(X_new - X)
        X = X_new
        if step <= FIXED_POINT_TOL * (1.0 + np.linalg.norm(X) / root_k):
            return Q1 @ X @ Q0.T
    raise NoConvergence(
        f"fixed-point iteration did not converge in {FIXED_POINT_MAX_ITER} steps "
        f"(||B||/d = {block.v_norm / disp.d:g})"
    )


def lambda0(X: AngularOperator, block: BlockOperator) -> np.ndarray:
    """The operator (I + |X|^2)^{1/2} (A0 + B X) (I + |X|^2)^{-1/2},
    computed in the eigenbasis of |X| that X's SVD already holds.
    Self-adjoint with spectrum equal to the in-gap component of spec(L);
    returned as the exactly symmetric part of the computed matrix, after
    a check that its asymmetry is round-off (ResidualTooLarge otherwise,
    also when it is not finite)."""
    W = X.right_basis
    sqrt_fac = np.sqrt(1.0 + X.eigenvalues_abs**2)
    core = block.A0.entries + block.B @ X.X
    M = W @ (sqrt_fac[:, None] * (W.T @ core @ W) / sqrt_fac[None, :]) @ W.T
    scale = 1.0 + block.A0.norm + block.v_norm * (1.0 + X.norm)
    # The Frobenius norm bounds the operator norm of the asymmetry.
    asymmetry = np.linalg.norm(M - M.T)
    if not asymmetry <= RESIDUAL_REL_TOL * scale:
        raise ResidualTooLarge(f"Lambda0 asymmetry {asymmetry:g} exceeds tolerance")
    return (M + M.T) / 2.0


@dataclass(frozen=True, eq=False)
class IdentityResiduals:
    """Normalized residuals of the three eigenpair identities: entry c of
    the read-only arrays id1, id2 and id3 belongs to the c-th audited
    eigenpair of |X|, whose eigenvalue is lam[c]."""

    lam: np.ndarray
    id1: np.ndarray
    id2: np.ndarray
    id3: np.ndarray
    max_residual: float

    def __post_init__(self):
        for arr in (self.lam, self.id1, self.id2, self.id3):
            arr.setflags(write=False)


def _normalized(lhs, rhs):
    return abs(lhs - rhs) / (1.0 + abs(lhs) + abs(rhs))


def _pair_residuals(lam, W, U, A0, A1, B, Lam0) -> np.ndarray:
    """Residuals of the identities for the eigenpairs (lam[c], W[:, c]) of
    |X| with polar images U[:, c], all columns at once: a 3 x len(lam)
    array whose rows are id1, id2 and id3."""
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
    return np.array([id1, id2, id3])


def verify_lemma_identities(
    X: AngularOperator, block: BlockOperator, seed: int = 0
) -> IdentityResiduals:
    """Audit the three identities satisfied by every eigenpair of |X|.

    Every right singular vector of X (including the kernel, where the polar
    isometry is zero) is checked. Within clusters of degenerate singular
    values a random orthogonal rotation of the basis is audited as well, so
    the identities are verified basis-independently; the rotation seed is
    explicit for reproducibility and must lie in [0, 2^64); ConfigInvalid
    otherwise. Uses the SVD held by X.
    """
    if not 0 <= seed < 1 << 64:
        raise ConfigInvalid(f"audit seed must be a 64-bit unsigned integer, got {seed}")
    W = X.right_basis
    s_full = X.eigenvalues_abs
    dim0 = s_full.size
    cutoff = KERNEL_CUTOFF * (X.norm if X.norm > 0.0 else 1.0)
    # Polar images: the left singular vector, or zero on (numerical) ker(X).
    U = np.zeros((block.dim1, dim0))
    live = np.flatnonzero(s_full[: X.singular_values.size] > cutoff)
    U[:, live] = X.left_vectors[:, live]

    A0, A1, B = block.A0.entries, block.A1.entries, block.B
    Lam0 = lambda0(X, block)
    lams = [s_full]
    residuals = [_pair_residuals(s_full, W, U, A0, A1, B, Lam0)]

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
            lams.append(np.full(m, s_full[i]))
            residuals.append(
                _pair_residuals(lams[-1], W[:, i:j] @ Q, U[:, i:j] @ Q, A0, A1, B, Lam0)
            )
        i = j

    R = np.concatenate(residuals, axis=1)
    return IdentityResiduals(np.concatenate(lams), *R, float(np.max(R)))
