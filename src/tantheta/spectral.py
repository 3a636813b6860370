"""Eigendecomposition-based ground truth: gap discovery, the perturbed
spectrum's partition with its in-gap subspace, and the projector distance."""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BOUNDARY_BAND,
    EIG_GRAM_TOL,
    PROJECTOR_DISTANCE_SLACK,
    DimensionMismatch,
    DispositionViolated,
    EigenvalueOnBoundary,
    GapEmptyOrRankMismatch,
    NotAProjector,
    require,
)
from .model import BlockOperator, EigenSystem, SpectralDisposition, frobenius


def find_disposition(block: BlockOperator) -> SpectralDisposition:
    """Locate the finite gap of sigma1 = spec(A1) containing all of
    sigma0 = spec(A0), reading both spectra (ascending) off the eigensystems
    that A0 and A1 carry from construction.

    Raises DispositionViolated when sigma0 is not inside a single finite
    gap of sigma1: a value of sigma1 lies in the closed hull of sigma0, or
    none lies on one of its sides.
    """
    s0, s1 = block.A0.eig.values, block.A1.eig.values
    lo0, hi0 = float(s0[0]), float(s0[-1])
    # s1[:i] < lo0 and s1[j:] > hi0, so s1[i:j] meets the hull of sigma0.
    i = int(np.searchsorted(s1, lo0, side="left"))
    j = int(np.searchsorted(s1, hi0, side="right"))
    if not 0 < i == j < s1.size:
        raise DispositionViolated("sigma0 must lie strictly inside a finite gap of sigma1")
    gamma_l, gamma_r = float(s1[i - 1]), float(s1[j])
    d = min(lo0 - gamma_l, gamma_r - hi0)
    return SpectralDisposition(gamma_l, gamma_r, d, gamma_r - gamma_l)


@dataclass(frozen=True, eq=False)
class SpectrumPartition:
    """The in-gap eigenvalues omega0 of L (ascending) with their orthonormal
    eigenvectors Y = [Y0; Y1] (n x k, columns), a basis of the spectral
    subspace, and lower_svd = (U1, s, Wt), the SVD of Y1 = Y[k:].

    Construction checks that Y is 2-dimensional (DimensionMismatch) and
    ||Y^T Y - I||_F <= EIG_GRAM_TOL (NotAProjector), then takes the SVD.
    Its singular values s (descending) are the sines of the principal
    angles between the subspace and the span of the first k coordinate
    vectors. U1 and s are thin and Wt is square (k x k), so that its rows
    span the whole domain also when Y1 has fewer rows than k. Every array
    is read-only.
    """

    omega0: np.ndarray
    basis: np.ndarray
    lower_svd: tuple = field(init=False)

    def __post_init__(self):
        Y = self.basis
        if Y.ndim != 2:
            raise DimensionMismatch(f"range basis must be 2-dimensional, got shape {Y.shape}")
        k = Y.shape[1]
        gram_defect = frobenius(Y.T @ Y - np.eye(k))
        require("range basis Gram defect", gram_defect, EIG_GRAM_TOL, NotAProjector)
        Y1 = Y[k:]
        U1, s, Wt = np.linalg.svd(Y1, full_matrices=Y1.shape[0] < Y1.shape[1])
        s += 0.0  # turns the -0.0 LAPACK can return for a Y1 of signed zeros into 0.0
        for arr in (self.omega0, Y, U1, s, Wt):
            arr.setflags(write=False)
        object.__setattr__(self, "lower_svd", (U1, s, Wt))


def perturbed_partition(block: BlockOperator, disp: SpectralDisposition) -> SpectrumPartition:
    """Assemble L = A + V, eigendecompose and split the spectrum by
    membership in the open gap (gamma_l, gamma_r). An eigenvalue within the
    certified error of L's and A1's eigenvalues (their eigensystems'
    residuals) of an edge is an edge value, outside the gap.

    The guarantee that dim0 eigenvalues lie in the gap requires
    ||B|| < sqrt(d D); GapEmptyOrRankMismatch is raised beyond that regime,
    and also when the in-gap rank differs from dim0 within it.
    """
    v = block.v_norm
    if v >= math.sqrt(disp.d * disp.D):
        raise GapEmptyOrRankMismatch(
            f"||B|| = {v!r} >= sqrt(d*D) = {math.sqrt(disp.d * disp.D)!r}"
        )
    # L is exactly symmetric by construction, so it needs no SymMatrix.
    es = EigenSystem.of(block.assemble_perturbed())
    w = es.values
    band = BOUNDARY_BAND * (1.0 + es.norm)  # 1 + ||L||
    # Each residual bounds its eigenvalues' errors (Kahan); the edges are A1's.
    collar = es.residual + block.A1.eig.residual
    # A distance past the float range overflows to +inf, which still classifies.
    with np.errstate(over="ignore"):
        near = np.minimum(w - disp.gamma_l, disp.gamma_r - w)  # to the nearer edge
    inside = near > collar
    on_boundary = inside & (near <= band)
    if on_boundary.any():
        raise EigenvalueOnBoundary(
            f"eigenvalue {float(w[on_boundary][0])!r} is within {band:g} of a gap endpoint"
        )
    omega0 = w[inside]
    if omega0.size != block.dim0:
        raise GapEmptyOrRankMismatch(
            f"in-gap rank {omega0.size} != dim0 {block.dim0} (numerical trouble)"
        )
    return SpectrumPartition(omega0, es.vectors[:, inside])


def projection_distance(block: BlockOperator, partition: SpectrumPartition) -> float:
    """||E_A(sigma0) - E_L(omega0)||, the operator norm of the difference
    of the projector onto the top dim0 coordinates and the partition's
    spectral projector.

    Both have rank dim0, so the distance is ||(I - E_A) E_L|| = ||Y1||, the
    largest singular value of the partition's lower_svd. A partition basis
    that is not n x dim0 raises NotAProjector.
    """
    if partition.basis.shape != (block.n, block.dim0):
        raise NotAProjector(
            f"partition basis shape {partition.basis.shape} != (n, dim0) = {(block.n, block.dim0)}"
        )
    s = partition.lower_svd[1]
    dist = float(s[0])
    require("projector distance", dist, 1.0 + PROJECTOR_DISTANCE_SLACK, NotAProjector)
    return min(dist, 1.0)


def unperturbed_projector(block: BlockOperator) -> np.ndarray:
    """Orthonormal basis of the range of E_A(sigma0), the reference
    subspace carrying spec(A0): the first dim0 coordinate vectors (n x dim0)."""
    return np.eye(block.n, block.dim0)
