"""Angular operator construction and validation: graph-subspace extraction
from the in-gap eigenbasis, an independent Sylvester fixed-point solver,
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
    DimensionMismatch,
    DispositionViolated,
    GraphExtractionFailed,
    NoConvergence,
    ResidualTooLarge,
    require,
)
from .model import BlockOperator, SpectralDisposition, as_float_matrix, frobenius, spectral_norm
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
    Construction raises DimensionMismatch unless the shapes agree with X's.
    """

    X: np.ndarray
    polar: np.ndarray
    eigenvalues_abs: np.ndarray
    right_basis: np.ndarray
    riccati_residual: float

    def __post_init__(self):
        dim0 = self.X.shape[1:]  # (dim0,) for the dim1 x dim0 X
        shapes = (self.polar.shape, self.eigenvalues_abs.shape, self.right_basis.shape)
        if shapes != (self.X.shape, dim0, dim0 * 2):
            raise DimensionMismatch(
                f"an X of shape {self.X.shape} has polar, eigenvalues and right basis of "
                f"shapes {shapes}"
            )
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
    """Operator norm of X (A0 + B X) - (B^T + A1 X), the lower block of
    L G - G (A0 + B X) for the graph basis G = [I; X], whose upper block is
    zero: Ran G is invariant under L exactly when this vanishes."""
    X = as_float_matrix(X, "X")
    if X.shape != (block.dim1, block.dim0):
        raise DimensionMismatch(f"X must be {block.dim1}x{block.dim0}, got shape {X.shape}")
    A0, A1, B = block.A0.entries, block.A1.entries, block.B
    return spectral_norm(X @ (A0 + B @ X) - (B.T + A1 @ X))


def extract_angular_operator(partition: SpectrumPartition, block: BlockOperator) -> AngularOperator:
    """Angular operator of the perturbed spectral subspace.

    Splits the orthonormal in-gap basis Y of the partition into blocks Y0
    (top dim0 rows) and Y1 and returns X = Y1 Y0^{-1}, read off the SVD
    Y1 = U diag(s) W^T that the partition holds for the projector
    distance too (lower_svd). The columns of Y0 W are orthogonal
    with norms c, the cosines of the principal angles, so with
    Z = Y0 W / c, Y0 = Z diag(c) W^T and X = U diag(s / c) Z[:, :k]^T is an
    SVD of X whose right basis Z is already square; the record keeps it as
    the polar decomposition, U with its columns on ker X zeroed. Raises
    GraphExtractionFailed if Y0 is too ill-conditioned (cond(Y0) =
    max c / min c) for the subspace to be a graph, and ResidualTooLarge if
    the result fails its Riccati residual contract.
    """
    dim0 = block.dim0
    Y = partition.basis
    if Y.shape[1] != dim0:
        raise GraphExtractionFailed(f"partition rank {Y.shape[1]} != dim0 {dim0}")
    U, s, Wt = partition.lower_svd
    Y0W = Y[:dim0, :] @ Wt.T
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


@np.errstate(over="ignore", invalid="ignore")
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
    A diverged iteration, whose step or iterate norm is not finite, raises
    NoConvergence at once, without a floating-point warning.
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
    for k in range(FIXED_POINT_MAX_ITER):
        x_norm = frobenius(X)
        if not (math.isfinite(step) and math.isfinite(x_norm)):
            raise NoConvergence(
                f"fixed-point iteration diverged at step {k + 1} "
                f"(||X||_F = {x_norm:g}, ||B||/d = {block.v_norm / disp.d:g})"
            )
        if step <= FIXED_POINT_TOL * (1.0 + x_norm / root_k):
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


@dataclass(frozen=True, eq=False)
class IdentityResiduals:
    """Normalized residuals of the three eigenpair identities: entry c of
    the read-only arrays id1, id2 and id3 belongs to the eigenpair of |X|
    with eigenvalue lam[c] = X.eigenvalues_abs[c], raised on a degenerate
    cluster to the cluster's worst on its span. The read-only lambda0 is
    the matrix they read, (I + |X|^2)^{1/2} (A0 + B X) (I + |X|^2)^{-1/2} in
    the eigenbasis W = X.right_basis of |X|, D W^T (A0 + B X) W D^{-1} with
    D = diag sqrt(1 + eigenvalues_abs^2), held as the exactly symmetric part
    of the computed matrix; its spectrum is the in-gap component of spec(L)."""

    lam: np.ndarray
    id1: np.ndarray
    id2: np.ndarray
    id3: np.ndarray
    lambda0: np.ndarray
    max_residual: float

    def __post_init__(self):
        for arr in (self.lam, self.id1, self.id2, self.id3, self.lambda0):
            arr.setflags(write=False)


def _column_dots(a, b) -> np.ndarray:
    return np.einsum("ij,ij->j", a, b)


def _symmetric_gram(a, b) -> np.ndarray:
    G = a.T @ b
    return G / 2.0 + G.T / 2.0


def _pair_residuals(lam, P, Q, L0u, pair) -> np.ndarray:
    """Residuals of the identities for the eigenpairs (lam, w) of |X|, from
    the block columns of L applied to w and to its polar image u,
    P = [A0; B^T] w and Q = [B; A1] u, and from L0u = Lambda0 w (in the
    eigenbasis of |X|), rows id1, id2 and id3. Paired by _column_dots,
    column c is the eigenpair (lam[c], w_c). Paired by _symmetric_gram, the
    columns span one eigenspace of lam, where each identity is a quadratic
    form in the coordinates of a unit vector: entry [k, a, b] is that of the
    symmetric Gram combination of identity k + 1."""
    cross, nP, nQ, nL0u = pair(P, Q), pair(P, P), pair(Q, Q), pair(L0u, L0u)
    # Row c holds the two sides of identity c + 1, normalized in one pass.
    lhs = np.array([lam * cross, lam * (nP - nQ), lam * lam * (nQ - nL0u)])
    rhs = np.array([nL0u - nP, (1.0 - lam * lam) * cross, nP - nL0u])
    return abs(lhs - rhs) / (1.0 + abs(lhs) + abs(rhs))


@np.errstate(over="ignore", invalid="ignore")
def verify_lemma_identities(
    X: AngularOperator, block: BlockOperator, seed: int = 0
) -> IdentityResiduals:
    """Audit the three identities satisfied by every eigenpair of |X|.

    Every eigenvector of |X| (including the kernel, where the polar
    isometry is zero) is checked. A cluster of degenerate singular values
    is checked on its whole span: a member's residuals are the larger of
    its own and the largest in its row of the cluster's Gram residuals.
    `seed` is ignored: the audit draws nothing. An X of another block's
    shape raises DimensionMismatch. Uses the polar decomposition held by X,
    and Lambda0 (lambda0 on the record) formed from X.X, not from it:
    ResidualTooLarge if its asymmetry is not round-off, also when it is not
    finite. Squared norms overflow once entries near 2^510; a residual that
    is not finite then raises ResidualTooLarge, without a floating-point
    warning.
    """
    if X.X.shape != (block.dim1, block.dim0):
        raise DimensionMismatch(f"X must be {block.dim1}x{block.dim0}, got shape {X.X.shape}")
    W, U, s_full = X.right_basis, X.polar, X.eigenvalues_abs
    dim0 = s_full.size
    A0, A1, B = block.A0.entries, block.A1.entries, block.B
    sqrt_fac = np.sqrt(1.0 + s_full**2)
    M = sqrt_fac[:, None] * (W.T @ (A0 + B @ X.X) @ W) / sqrt_fac[None, :]
    scale = 1.0 + block.A0.eig.norm + block.v_norm * (1.0 + X.norm)
    # The Frobenius norm bounds the operator norm of the asymmetry.
    require("Lambda0 asymmetry", frobenius(M - M.T), RESIDUAL_REL_TOL * scale, ResidualTooLarge)
    Lam0 = M / 2.0 + M.T / 2.0
    P, Q = np.vstack((A0, B.T)) @ W, np.vstack((B, A1)) @ U
    table = _pair_residuals(s_full, P, Q, Lam0, _column_dots)

    # Degenerate clusters, audited on their span with the cluster's first
    # value as the eigenvalue; the operands' columns already span it.
    i = 0
    while i < dim0:
        j = i + 1
        while j < dim0 and abs(s_full[j] - s_full[i]) <= DEGENERACY_TOL * (1.0 + s_full[i]):
            j += 1
        if j - i > 1:
            span = _pair_residuals(s_full[i], P[:, i:j], Q[:, i:j], Lam0[:, i:j], _symmetric_gram)
            table[:, i:j] = np.maximum(table[:, i:j], span.max(axis=2))
        i = j

    max_residual = float(table.max())
    if not math.isfinite(max_residual):
        raise ResidualTooLarge(f"identity residual {max_residual:g} is not finite")
    return IdentityResiduals(s_full, *table, Lam0, max_residual)
