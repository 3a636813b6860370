"""Angular operator construction and validation: graph-subspace extraction
from the perturbed projector, an independent Sylvester fixed-point solver,
and the eigenvalue/eigenvector identity audit for the modulus of X."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import sin_arctan
from .errors import (
    DEGENERACY_TOL,
    EXTRACTION_COND_CAP,
    FIXED_POINT_TOL,
    KERNEL_CUTOFF,
    RESIDUAL_REL_TOL,
    ConfigInvalid,
    DimensionMismatch,
    DispositionViolated,
    GraphExtractionFailed,
    NoConvergence,
    ResidualTooLarge,
    require,
)
from .model import BlockOperator, SpectralDisposition, frobenius, spectral_norm
from .spectral import SpectrumPartition

# Iteration cap of the fixed-point cross-check.
FIXED_POINT_MAX_ITER = 2000


@dataclass(frozen=True, eq=False)
class AngularOperator:
    """Solution X (dim1 x dim0) of the Riccati equation of a block operator,
    with its polar decomposition X = U |X| and its Riccati residual.

    `right_basis` W is a square orthonormal dim0 x dim0 eigenbasis of |X|,
    `eigenvalues_abs` the eigenvalues of |X| in its order (descending, zero
    on ker X), and `polar` the dim1 x dim0 matrix U W of polar images: its
    column c is X W[:, c] / eigenvalues_abs[c], and zero where that
    eigenvalue is at most KERNEL_CUTOFF ||X||. All arrays are read-only.
    """

    X: np.ndarray
    polar: np.ndarray
    eigenvalues_abs: np.ndarray
    right_basis: np.ndarray
    riccati_residual: float

    def __post_init__(self):
        for arr in (self.X, self.polar, self.eigenvalues_abs, self.right_basis):
            arr.setflags(write=False)

    @property
    def norm(self) -> float:
        return float(self.eigenvalues_abs[0])

    @property
    def sin_theta(self) -> float:
        """sin(arctan ||X||)."""
        return sin_arctan(self.norm)


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


def extract_angular_operator(partition: SpectrumPartition, block: BlockOperator) -> AngularOperator:
    """Angular operator of the perturbed spectral subspace.

    Splits the orthonormal in-gap basis Y of the partition into blocks Y0
    (top dim0 rows) and Y1 and returns X = Y1 Y0^{-1}, read off the SVD
    Y1 = U diag(s) W^T that the partition's projector caches for the
    projector distance (P0.lower_svd). The columns of Y0 W are orthogonal
    with norms c, the cosines of the principal angles, so with
    Z = Y0 W / c, Y0 = Z diag(c) W^T and X = U diag(s / c) Z[:, :k]^T is an
    SVD of X whose right basis Z is already square; the record keeps it as
    the polar decomposition, U with its columns on ker X zeroed. Raises
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
    c_min, c_max = float(c.min()), float(c.max())
    cond = c_max / c_min if c_min > 0.0 else math.inf
    require("top block condition number", cond, EXTRACTION_COND_CAP, GraphExtractionFailed)
    Z = Y0W / c
    k = s.size
    t = s / c[:k]
    x_norm = float(t[0])
    X = (U * t) @ Z[:, :k].T
    res = riccati_residual(X, block)
    scale = 1.0 + block.A0.eig.norm + block.A1.eig.norm + block.v_norm
    cap = RESIDUAL_REL_TOL * scale * (1.0 + x_norm) ** 2
    require("Riccati residual", res, cap, ResidualTooLarge)
    eigenvalues_abs = np.zeros(dim0)
    eigenvalues_abs[:k] = t
    polar = np.zeros((block.dim1, dim0))
    polar[:, :k] = np.where(t > KERNEL_CUTOFF * (x_norm or 1.0), U, 0.0)
    return AngularOperator(X, polar, eigenvalues_abs, Z, res)


def solve_riccati_fixed_point(block: BlockOperator, disp: SpectralDisposition) -> np.ndarray:
    """Independent cross-check solver; returns the matrix X.

    Iterates X_0 = 0, with X_{k+1} solving the Sylvester equation
    A1 X - X A0 = X_k B X_k - B^T by entrywise division (all divisors at
    least d in magnitude), in the eigenbases Q0, Q1 of A0 and A1, which it
    shares with find_disposition: there X~ = Q1^T X Q0 and B~ = Q0^T B Q1
    give X~_{k+1} = (X~_k B~ X~_k - B~^T) / (w1 - w0), X~_1 directly, and
    X = Q1 X~ Q0^T is formed once at the end. It stops when
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
    min_divisor = float(np.abs(denom).min())
    floor = disp.d / 2.0
    require("d/2 against the smallest Sylvester divisor:", floor, min_divisor, DispositionViolated)
    Bt = Q0.T @ block.B @ Q1
    BtT = Bt.T
    # X B X costs 2 dim0 dim1 min(dim0, dim1) multiplications in the better order.
    narrow = block.dim0 <= block.dim1
    root_k = math.sqrt(min(block.dim0, block.dim1))
    # X_1, from X_0 = 0 by the arithmetic of a step (+0 - b), and its step.
    X = (0.0 - BtT) / denom
    step = frobenius(X)
    for _ in range(FIXED_POINT_MAX_ITER):
        if step <= FIXED_POINT_TOL * (1.0 + frobenius(X) / root_k):
            return Q1 @ X @ Q0.T
        # In place: XBX becomes X_{k+1}, and X the step X_k - X_{k+1}, whose
        # norm is that of X_{k+1} - X_k bit for bit (negation is exact).
        XBX = X @ (Bt @ X) if narrow else (X @ Bt) @ X
        XBX -= BtT
        XBX /= denom
        X -= XBX
        step = frobenius(X)
        X = XBX
    raise NoConvergence(
        f"fixed-point iteration did not converge in {FIXED_POINT_MAX_ITER} steps "
        f"(||B||/d = {block.v_norm / disp.d:g})"
    )


def lambda0(X: AngularOperator, block: BlockOperator) -> np.ndarray:
    """The operator (I + |X|^2)^{1/2} (A0 + B X) (I + |X|^2)^{-1/2},
    computed in the eigenbasis of |X| that X already holds.
    Self-adjoint with spectrum equal to the in-gap component of spec(L);
    returned as the exactly symmetric part of the computed matrix, after
    a check that its asymmetry is round-off (ResidualTooLarge otherwise,
    also when it is not finite)."""
    W = X.right_basis
    sqrt_fac = np.sqrt(1.0 + X.eigenvalues_abs**2)
    core = block.A0.entries + block.B @ X.X
    M = W @ (sqrt_fac[:, None] * (W.T @ core @ W) / sqrt_fac[None, :]) @ W.T
    scale = 1.0 + block.A0.eig.norm + block.v_norm * (1.0 + X.norm)
    # The Frobenius norm bounds the operator norm of the asymmetry.
    require("Lambda0 asymmetry", frobenius(M - M.T), RESIDUAL_REL_TOL * scale, ResidualTooLarge)
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
    # Row c holds the two sides of identity c + 1, normalized in one pass.
    lhs = np.array([
        lam * cross, lam * (nA0u + nBtu - nA1Uu - nBUu), lam * lam * (nA1Uu + nBUu - nL0u)
    ])
    rhs = np.array([nL0u - nA0u - nBtu, (1.0 - lam * lam) * cross, nA0u + nBtu - nL0u])
    return abs(lhs - rhs) / (1.0 + abs(lhs) + abs(rhs))


@np.errstate(over="ignore", invalid="ignore")
def verify_lemma_identities(
    X: AngularOperator, block: BlockOperator, seed: int = 0
) -> IdentityResiduals:
    """Audit the three identities satisfied by every eigenpair of |X|.

    Every eigenvector of |X| (including the kernel, where the polar
    isometry is zero) is checked. Within clusters of degenerate singular
    values a random orthogonal rotation of the basis is audited as well, so
    the identities are verified basis-independently; the rotation seed is
    explicit for reproducibility and must lie in [0, 2^64); ConfigInvalid
    otherwise. Uses the polar decomposition held by X. Squared norms
    overflow once entries near 2^510; a residual that is not finite then
    raises ResidualTooLarge, without a floating-point warning.
    """
    if not 0 <= seed < 1 << 64:
        raise ConfigInvalid(f"audit seed must be a 64-bit unsigned integer, got {seed}")
    W, U, s_full = X.right_basis, X.polar, X.eigenvalues_abs
    dim0 = s_full.size
    A0, A1, B = block.A0.entries, block.A1.entries, block.B
    Lam0 = lambda0(X, block)
    lams = [s_full]
    residuals = [_pair_residuals(s_full, W, U, A0, A1, B, Lam0)]

    # Degenerate clusters: rotate the singular basis within each cluster and
    # re-audit, since any orthonormal eigenbasis of |X| must satisfy the
    # identities. The generator is built at the first cluster; each call
    # starts a fresh stream, so the rotations do not depend on when.
    rng = None
    i = 0
    while i < dim0:
        j = i + 1
        while j < dim0 and abs(s_full[j] - s_full[i]) <= DEGENERACY_TOL * (1.0 + s_full[i]):
            j += 1
        if j - i > 1:
            m = j - i
            if rng is None:
                rng = np.random.default_rng(seed)
            Q, _ = np.linalg.qr(rng.standard_normal((m, m)))
            lams.append(np.full(m, s_full[i]))
            residuals.append(
                _pair_residuals(lams[-1], W[:, i:j] @ Q, U[:, i:j] @ Q, A0, A1, B, Lam0)
            )
        i = j

    R = np.concatenate(residuals, axis=1)
    max_residual = float(R.max())
    if not math.isfinite(max_residual):
        raise ResidualTooLarge(f"identity residual {max_residual:g} is not finite")
    return IdentityResiduals(np.concatenate(lams), *R, max_residual)
