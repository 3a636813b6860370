"""Eigendecomposition-based ground truth: gap discovery, perturbed-spectrum
partition and projector distances."""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    DispositionViolated,
    EigenvalueOnBoundary,
    GapEmptyOrRankMismatch,
    NotAProjector,
)
from .model import BlockOperator, EigenSystem, SpectralDisposition

# Projectors have unit norm, so their defects have no units and this
# tolerance is absolute. It applies to ||U^T U - I||_F of a range basis U,
# which bounds the idempotency defect ||P^2 - P|| of P = U U^T to first
# order.
PROJECTOR_TOL = 1e-8
# Eigenvalues this close to a gap endpoint (from inside the gap) cannot be
# assigned to either spectral component and are reported as boundary hits.
BOUNDARY_BAND = 1e-9
# Inner collar absorbing eigensolver round-off on eigenvalues that belong
# exactly to a gap endpoint (e.g. the unperturbed B = 0 case).
EDGE_COLLAR = 1e-12


def find_disposition(block: BlockOperator) -> SpectralDisposition:
    """Locate the finite gap of sigma1 = spec(A1) containing all of
    sigma0 = spec(A0), reading both spectra (ascending) off the cached
    eigensystems of A0 and A1.

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
class RangeProjector:
    """Orthogonal projector U U^T held by an orthonormal basis U (n x k,
    columns) of its range."""

    basis: np.ndarray

    def __post_init__(self):
        self.basis.setflags(write=False)

    @property
    def rank(self) -> int:
        return self.basis.shape[1]

    @cached_property
    def leading(self) -> bool:
        """Whether the basis is the first k coordinate vectors."""
        return np.array_equal(self.basis, np.eye(*self.basis.shape))

    @cached_property
    def lower_svd(self) -> tuple:
        """SVD (U1, s, Wt) of the lower block Y1 = Y[k:] of the basis
        Y = [Y0; Y1], k = rank, after a check ||Y^T Y - I||_F <= PROJECTOR_TOL.

        The singular values s (descending) are the sines of the principal
        angles between the range and the span of the first k coordinate
        vectors. U1 and s are thin and Wt is square (k x k), so that its
        rows span the whole domain also when Y1 has fewer rows than k. All
        three are read-only.
        """
        Y = self.basis
        gram_defect = np.linalg.norm(Y.T @ Y - np.eye(self.rank))
        if gram_defect > PROJECTOR_TOL:
            raise NotAProjector(
                f"range basis is off orthonormal by {gram_defect:g} > {PROJECTOR_TOL:g}"
            )
        Y1 = Y[self.rank :]
        factors = np.linalg.svd(Y1, full_matrices=Y1.shape[0] < Y1.shape[1])
        for arr in factors:
            arr.setflags(write=False)
        return tuple(factors)


@dataclass(frozen=True, eq=False)
class SpectrumPartition:
    """The in-gap eigenvalues omega0 of L (ascending, read-only) with the
    orthogonal projector onto their spectral subspace, held by the
    orthonormal in-gap eigenvectors."""

    omega0: np.ndarray
    P0: RangeProjector

    def __post_init__(self):
        self.omega0.setflags(write=False)


def perturbed_partition(block: BlockOperator, disp: SpectralDisposition) -> SpectrumPartition:
    """Assemble L = A + V, eigendecompose and split the spectrum by
    membership in the open gap (gamma_l, gamma_r).

    The guarantee that dim0 eigenvalues lie in the gap requires
    ||B|| < sqrt(d D); GapEmptyOrRankMismatch is raised beyond that regime,
    and also when the in-gap rank differs from dim0 within it.
    """
    v = block.v_norm
    if v >= math.sqrt(disp.d * disp.D):
        raise GapEmptyOrRankMismatch(
            f"||B|| = {v:g} >= sqrt(d*D) = {math.sqrt(disp.d * disp.D):g}"
        )
    # L is exactly symmetric by construction, so it needs no SymMatrix.
    es = EigenSystem.of(block.assemble_perturbed())
    w = es.values
    scale = 1.0 + float(np.max(np.abs(w)))  # ||L||
    band = BOUNDARY_BAND * scale
    collar = EDGE_COLLAR * scale
    to_l = w - disp.gamma_l
    to_r = disp.gamma_r - w
    # Endpoint eigenvalues (round-off absorbed by the collar) lie outside.
    inside = (to_l > collar) & (to_r > collar)
    on_boundary = inside & ((to_l <= band) | (to_r <= band))
    if np.any(on_boundary):
        raise EigenvalueOnBoundary(
            f"eigenvalue {float(w[on_boundary][0])!r} is within {band:g} of a gap endpoint"
        )
    omega0 = w[inside]
    if omega0.size != block.dim0:
        raise GapEmptyOrRankMismatch(
            f"in-gap rank {omega0.size} != dim0 {block.dim0} (numerical trouble)"
        )
    return SpectrumPartition(omega0, RangeProjector(es.vectors[:, inside]))


def projection_distance(P: RangeProjector, Q: RangeProjector) -> float:
    """Operator norm of the difference of two orthogonal projectors of one
    rank, one of which projects onto the leading coordinates.

    P and Q are RangeProjectors of the same shape, one of them `leading`;
    the distance ||(I - P) Q|| is then the norm of the other basis' rows
    below the first k, the largest singular value of its cached lower_svd.
    Any other pair raises NotAProjector.
    """
    if not (
        isinstance(P, RangeProjector)
        and isinstance(Q, RangeProjector)
        and P.basis.shape == Q.basis.shape
        and (P.leading or Q.leading)
    ):
        raise NotAProjector(
            "projection_distance takes two range projectors of one shape, one of them leading"
        )
    s = (Q if P.leading else P).lower_svd[1]
    dist = float(s[0]) if s.size else 0.0
    if dist > 1.0 + 1e-9:
        raise NotAProjector(f"projector distance {dist:g} exceeds 1")
    return min(dist, 1.0)


def unperturbed_projector(block: BlockOperator) -> RangeProjector:
    """Projector onto the reference subspace carrying spec(A0) (the top
    dim0 coordinates of the block decomposition)."""
    return RangeProjector(np.eye(block.n, block.dim0))
