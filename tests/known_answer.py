"""Known-answer block operators: L is built around a prescribed angular
operator X, so its spectral subspace, the projector distance and X itself
are known without an eigensolver.

X = U S V^T is prescribed by its SVD, with U and V square orthogonal and
S the dim1 x dim0 diagonal of the singular values s. With
c0 = (1 + s^2)^(-1/2) padded with ones to dim0, and c1 likewise to dim1,

    Y = [I; X] (I + X^T X)^(-1/2) = [V diag(c0) V^T; U S diag(c0) V^T],
    Z = [-X^T; I] (I + X X^T)^(-1/2) = [-V S^T diag(c1) U^T; U diag(c1) U^T]

are orthonormal, [Y Z] is orthogonal, and L = [Y Z] diag(omega0, omega1)
[Y Z]^T has the graph Ran Y = Ran [I; X] as the spectral subspace of
omega0 (Kostrykin-Makarov-Motovilov). A0, A1 and B are read off the blocks
of L. When spec(A0) lies in a finite gap of spec(A1) that holds exactly
omega0, the pipeline must find X, and the distance
||X|| / sqrt(1 + ||X||^2), the sine of the largest principal angle
(Bjorck-Golub). Nothing here calls an eigensolver; the singular bases are
QR factors of Gaussian draws.
"""
import numpy as np

from tantheta import BlockOperator

# omega0 is drawn in [-h, h], h = OMEGA0_HALF_WIDTH unless a call gives
# its own, and omega1 in +-[OMEGA1_LOW, OMEGA1_HIGH], half of it on each side.
OMEGA0_HALF_WIDTH = 0.6
OMEGA1_LOW, OMEGA1_HIGH = 1.0, 2.0


def known_answer_block(U, s, V, omega0, omega1):
    """(block, X) for X = U S V^T and L = [Y Z] diag(omega0, omega1) [Y Z]^T,
    with U (dim1 x dim1) and V (dim0 x dim0) orthogonal and s the
    min(dim0, dim1) singular values."""
    dim1, dim0 = U.shape[0], V.shape[0]
    S = np.zeros((dim1, dim0))
    S[range(s.size), range(s.size)] = s
    c0 = 1.0 / np.sqrt(1.0 + np.pad(s, (0, dim0 - s.size)) ** 2)
    c1 = 1.0 / np.sqrt(1.0 + np.pad(s, (0, dim1 - s.size)) ** 2)
    Y = np.vstack(((V * c0) @ V.T, U @ (S * c0) @ V.T))
    Z = np.vstack((-V @ (S.T * c1) @ U.T, (U * c1) @ U.T))
    L = (Y * omega0) @ Y.T + (Z * omega1) @ Z.T
    block = BlockOperator(L[:dim0, :dim0], L[dim0:, dim0:], L[:dim0, dim0:])
    return block, U @ S @ V.T


def draw_known_answer(rng, dim0, dim1, x_norm, shape=None, half_width=OMEGA0_HALF_WIDTH):
    """(block, X, omega0) with ||X|| = x_norm, a random singular basis on
    each side, omega0 drawn in [-half_width, half_width] and omega1 as the
    module constants say. `shape` gives the singular values relative to
    x_norm (descending, the first 1); by default the others are uniform in
    (0, 1]."""
    k = min(dim0, dim1)
    if shape is None:
        shape = np.concatenate(([1.0], np.sort(1.0 - rng.random(k - 1))[::-1]))
    U, _ = np.linalg.qr(rng.standard_normal((dim1, dim1)))
    V, _ = np.linalg.qr(rng.standard_normal((dim0, dim0)))
    omega0 = rng.uniform(-half_width, half_width, dim0)
    sides = np.where(np.arange(dim1) < dim1 // 2, -1.0, 1.0)
    omega1 = sides * rng.uniform(OMEGA1_LOW, OMEGA1_HIGH, dim1)
    block, X = known_answer_block(U, x_norm * np.asarray(shape, dtype=float), V, omega0, omega1)
    return block, X, omega0
