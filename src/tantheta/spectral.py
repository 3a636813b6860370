"""Eigendecomposition-based ground truth: gap discovery, perturbed-spectrum
partition and projector distances."""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    EigenvalueOnBoundary,
    GapEmptyOrRankMismatch,
    NotAProjector,
)
from .model import (
    BlockOperator,
    SpectralDisposition,
    SymMatrix,
    disposition_from_spectra,
    svd_square_right,
)

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
    """Compute sigma0 = spec(A0), sigma1 = spec(A1) and locate the finite
    gap of sigma1 containing all of sigma0.

    Raises DispositionViolated when sigma0 is not inside a single finite
    gap of sigma1.
    """
    return disposition_from_spectra(block.A0.eig.values, block.A1.eig.values)


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
        vectors. U1 and s are thin and Wt is square (k x k), as
        model.svd_square_right returns them.
        """
        Y = self.basis
        gram_defect = np.linalg.norm(Y.T @ Y - np.eye(self.rank))
        if gram_defect > PROJECTOR_TOL:
            raise NotAProjector(
                f"range basis is off orthonormal by {gram_defect:g} > {PROJECTOR_TOL:g}"
            )
        return svd_square_right(Y[self.rank :])


@dataclass(frozen=True, eq=False)
class SpectrumPartition:
    """Spectrum of L split by membership in the gap, with the orthogonal
    projector onto the in-gap spectral subspace, held by the orthonormal
    in-gap eigenvectors."""

    omega0: tuple
    omega1: tuple
    P0: RangeProjector


def perturbed_partition(
    block: BlockOperator,
    disp: SpectralDisposition,
    force: bool = False,
) -> SpectrumPartition:
    """Assemble L = A + V, eigendecompose and split the spectrum by
    membership in the open gap (gamma_l, gamma_r).

    The guarantee that dim0 eigenvalues lie in the gap requires ||B|| < sqrt(d D); pass force=True
    to run beyond that regime (rank mismatch then still raises, flagging
    that the theorem's guarantee lapsed).
    """
    v = block.v_norm
    if v >= math.sqrt(disp.d * disp.D) and not force:
        raise GapEmptyOrRankMismatch(
            f"||B|| = {v:g} >= sqrt(d*D) = {math.sqrt(disp.d * disp.D):g}; "
            "pass force=True to override"
        )
    es = SymMatrix(block.assemble_perturbed()).eig
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
    omega0 = tuple(float(x) for x in w[inside])
    omega1 = tuple(float(x) for x in w[~inside])
    if len(omega0) != block.dim0:
        raise GapEmptyOrRankMismatch(
            f"in-gap rank {len(omega0)} != dim0 {block.dim0} "
            "(precondition override or numerical trouble)"
        )
    return SpectrumPartition(omega0, omega1, RangeProjector(es.vectors[:, inside]))


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
