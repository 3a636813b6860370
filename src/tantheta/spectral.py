"""Eigendecomposition-based ground truth: spectral projections, gap
discovery, perturbed-spectrum partition and projector distances."""
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
    EigenSystem,
    SpectralDisposition,
    SymMatrix,
    disposition_from_spectra,
    spectral_norm,
)

# Projectors have unit norm, so their defects have no units and this
# tolerance is absolute. It applies to ||U^T U - I||_F of a range basis U,
# which bounds the idempotency defect ||P^2 - P|| of P = U U^T to first
# order, and to the idempotency and symmetry defects of a dense projector.
PROJECTOR_TOL = 1e-8
# Eigenvalues this close to a gap endpoint (from inside the gap) cannot be
# assigned to either spectral component and are reported as boundary hits.
BOUNDARY_BAND = 1e-9
# Inner collar absorbing eigensolver round-off on eigenvalues that belong
# exactly to a gap endpoint (e.g. the unperturbed B = 0 case).
EDGE_COLLAR = 1e-12


def sym_eig(S: SymMatrix) -> EigenSystem:
    """Eigendecomposition of a symmetric matrix, values ascending.

    The contract is the residual: ||S V - V diag(w)||_F <= 1e-10 (1 + max|w|)
    in the Frobenius norm, which bounds the operator norm, enforced by
    raising ResidualTooLarge; and V orthonormal to 1e-10 entrywise.
    Deterministic for fixed input. A SymMatrix is decomposed at most once:
    later calls return the same EigenSystem.
    """
    return (S if isinstance(S, SymMatrix) else SymMatrix(S)).eig


def spectral_projection(es: EigenSystem, lo: float, hi: float) -> SymMatrix:
    """Orthogonal projector onto the span of eigenvectors with eigenvalues
    in the open interval (lo, hi).

    Raises EigenvalueOnBoundary if any eigenvalue sits within
    1e-9 (1 + ||S||) of either endpoint.
    """
    if not lo < hi:
        raise EigenvalueOnBoundary(f"empty interval ({lo}, {hi})")
    scale = 1.0 + float(np.max(np.abs(es.values))) if es.values.size else 1.0
    band = BOUNDARY_BAND * scale
    if np.any(np.abs(es.values - lo) <= band) or np.any(np.abs(es.values - hi) <= band):
        raise EigenvalueOnBoundary(
            f"an eigenvalue lies within {band:g} of an endpoint of ({lo}, {hi})"
        )
    mask = (es.values > lo) & (es.values < hi)
    V = es.vectors[:, mask]
    return SymMatrix(V @ V.T)


def find_disposition(block: BlockOperator) -> SpectralDisposition:
    """Compute sigma0 = spec(A0), sigma1 = spec(A1) and locate the finite
    gap of sigma1 containing all of sigma0.

    Raises DispositionViolated when sigma0 is not inside a single finite
    gap of sigma1.
    """
    s0 = sym_eig(block.A0).values
    s1 = sym_eig(block.A1).values
    return disposition_from_spectra(s0, s1)


@dataclass(frozen=True)
class RangeProjector:
    """Orthogonal projector U U^T held by an orthonormal basis U (n x k,
    columns) of its range; the dense matrix is assembled only on request."""

    basis: np.ndarray

    def __post_init__(self):
        self.basis.setflags(write=False)

    @property
    def rank(self) -> int:
        return self.basis.shape[1]

    @cached_property
    def entries(self) -> np.ndarray:
        """The dense n x n projector U U^T."""
        P = self.basis @ self.basis.T
        P = (P + P.T) / 2.0
        P.setflags(write=False)
        return P


@dataclass(frozen=True)
class SpectrumPartition:
    """Spectrum of L split by membership in the gap, with the orthogonal
    projector onto the in-gap spectral subspace."""

    omega0: tuple
    omega1: tuple
    P0: RangeProjector

    @property
    def rank0(self) -> int:
        return self.P0.rank

    @property
    def vectors0(self) -> np.ndarray:
        """Orthonormal in-gap eigenvectors, columns."""
        return self.P0.basis


def perturbed_partition(
    block: BlockOperator,
    disp: SpectralDisposition,
    force: bool = False,
) -> SpectrumPartition:
    """Assemble L = A + V, eigendecompose and split the spectrum by
    membership in the open gap (gamma_l, gamma_r).

    The guarantee rank0 == dim0 requires ||B|| < sqrt(d D); pass force=True
    to run beyond that regime (rank mismatch then still raises, flagging
    that the theorem's guarantee lapsed).
    """
    v = block.v_norm
    if v >= math.sqrt(disp.d * disp.D) and not force:
        raise GapEmptyOrRankMismatch(
            f"||B|| = {v:g} >= sqrt(d*D) = {math.sqrt(disp.d * disp.D):g}; "
            "pass force=True to override"
        )
    es = sym_eig(SymMatrix(block.assemble_perturbed()))
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


def _check_projector(P: np.ndarray, name: str) -> None:
    if spectral_norm(P @ P - P) > PROJECTOR_TOL or spectral_norm(P - P.T) > PROJECTOR_TOL:
        raise NotAProjector(f"{name} is not idempotent-symmetric within {PROJECTOR_TOL:g}")


def _check_basis(U: np.ndarray, name: str) -> None:
    gram_defect = np.linalg.norm(U.T @ U - np.eye(U.shape[1]))
    if gram_defect > PROJECTOR_TOL:
        raise NotAProjector(
            f"{name}: range basis is off orthonormal by {gram_defect:g} > {PROJECTOR_TOL:g}"
        )


def projection_distance(P, Q) -> float:
    """Operator norm of the difference of two orthogonal projectors.

    For two RangeProjectors with bases U and V (orthonormality checked to
    PROJECTOR_TOL) this is 1 when the ranks differ and otherwise
    ||V - U (U^T V)|| = ||(I - P) Q|| = ||P - Q||, without forming an n x n
    matrix. Any other pair (SymMatrix, dense array) takes the dense route,
    the largest absolute eigenvalue of P - Q after idempotency and
    symmetry checks; it is kept as the test oracle of the basis route.
    """
    if isinstance(P, RangeProjector) and isinstance(Q, RangeProjector):
        U, V = P.basis, Q.basis
        if U.shape[0] != V.shape[0]:
            raise NotAProjector(f"dimension mismatch {U.shape[0]} vs {V.shape[0]}")
        _check_basis(U, "P")
        _check_basis(V, "Q")
        if U.shape[1] != V.shape[1]:
            return 1.0
        dist = spectral_norm(V - U @ (U.T @ V))
    else:
        Pm = np.asarray(getattr(P, "entries", P), dtype=float)
        Qm = np.asarray(getattr(Q, "entries", Q), dtype=float)
        if Pm.shape != Qm.shape:
            raise NotAProjector(f"shape mismatch {Pm.shape} vs {Qm.shape}")
        _check_projector(Pm, "P")
        _check_projector(Qm, "Q")
        dist = float(np.max(np.abs(np.linalg.eigvalsh(Pm - Qm)))) if Pm.size else 0.0
    if dist > 1.0 + 1e-9:
        raise NotAProjector(f"projector distance {dist:g} exceeds 1")
    return min(dist, 1.0)


def unperturbed_projector(block: BlockOperator) -> RangeProjector:
    """Projector onto the reference subspace carrying spec(A0) (the top
    dim0 coordinates of the block decomposition)."""
    return RangeProjector(np.eye(block.n, block.dim0))
