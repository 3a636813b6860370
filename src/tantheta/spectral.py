"""Eigendecomposition-based ground truth: spectral projections, gap
discovery, perturbed-spectrum partition and projector distances."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    EigenvalueOnBoundary,
    GapEmptyOrRankMismatch,
    NoConvergence,
    NotAProjector,
    ResidualTooLarge,
)
from .model import (
    BlockOperator,
    SpectralDisposition,
    SymMatrix,
    disposition_from_spectra,
    spectral_norm,
)

EIG_RESIDUAL_TOL = 1e-10
PROJECTOR_TOL = 1e-8
# Eigenvalues this close to a gap endpoint (from inside the gap) cannot be
# assigned to either spectral component and are reported as boundary hits.
BOUNDARY_BAND = 1e-9
# Inner collar absorbing eigensolver round-off on eigenvalues that belong
# exactly to a gap endpoint (e.g. the unperturbed B = 0 case).
EDGE_COLLAR = 1e-12


@dataclass(frozen=True)
class EigenSystem:
    """Full symmetric eigendecomposition with its backward residual."""

    values: np.ndarray
    vectors: np.ndarray
    residual: float

    def __post_init__(self):
        self.values.setflags(write=False)
        self.vectors.setflags(write=False)


def sym_eig(S: SymMatrix) -> EigenSystem:
    """Eigendecomposition of a symmetric matrix, values ascending.

    The contract is the residual: ||S V - V diag(w)|| <= 1e-10 (1 + ||S||)
    in operator norm, with ||S|| = max|w|, enforced by raising
    ResidualTooLarge; and V orthonormal to 1e-10 entrywise. Deterministic
    for fixed input.
    """
    M = S.entries if isinstance(S, SymMatrix) else SymMatrix(S).entries
    try:
        values, vectors = np.linalg.eigh(M)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"symmetric eigensolver failed: {exc}") from None
    residual = spectral_norm(M @ vectors - vectors * values)
    cap = EIG_RESIDUAL_TOL * (1.0 + float(np.max(np.abs(values))))
    if residual > cap:
        raise ResidualTooLarge(f"eigendecomposition residual {residual:g} exceeds {cap:g}")
    return EigenSystem(values.copy(), vectors.copy(), float(residual))


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
class SpectrumPartition:
    """Spectrum of L split by membership in the gap, with the orthogonal
    projector onto the in-gap spectral subspace."""

    omega0: tuple
    omega1: tuple
    P0: SymMatrix
    rank0: int
    vectors0: np.ndarray  # orthonormal in-gap eigenvectors, columns

    def __post_init__(self):
        self.vectors0.setflags(write=False)


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
    L = block.assemble_perturbed()
    es = sym_eig(SymMatrix(L))
    scale = 1.0 + spectral_norm(L)
    band = BOUNDARY_BAND * scale
    collar = EDGE_COLLAR * scale
    in_gap = []
    for i, lam in enumerate(es.values):
        to_l = lam - disp.gamma_l
        to_r = disp.gamma_r - lam
        if to_l <= collar or to_r <= collar:
            continue  # endpoint eigenvalue (round-off absorbed): outside
        if to_l <= band or to_r <= band:
            raise EigenvalueOnBoundary(
                f"eigenvalue {lam!r} is within {band:g} of a gap endpoint"
            )
        if to_l > 0.0 and to_r > 0.0:
            in_gap.append(i)
    mask = np.zeros(len(es.values), dtype=bool)
    mask[in_gap] = True
    omega0 = tuple(float(x) for x in es.values[mask])
    omega1 = tuple(float(x) for x in es.values[~mask])
    V0 = es.vectors[:, mask]
    P0 = SymMatrix(V0 @ V0.T)
    rank0 = int(round(float(np.trace(P0.entries))))
    if abs(rank0 - len(omega0)) > 0.5:
        raise GapEmptyOrRankMismatch(
            f"projector trace {np.trace(P0.entries):g} disagrees with "
            f"eigenvector count {len(omega0)}"
        )
    if rank0 != block.dim0:
        raise GapEmptyOrRankMismatch(
            f"in-gap rank {rank0} != dim0 {block.dim0} "
            "(precondition override or numerical trouble)"
        )
    return SpectrumPartition(omega0, omega1, P0, rank0, V0.copy())


def _check_projector(P: np.ndarray, name: str) -> None:
    if spectral_norm(P @ P - P) > PROJECTOR_TOL or spectral_norm(P - P.T) > PROJECTOR_TOL:
        raise NotAProjector(f"{name} is not idempotent-symmetric within {PROJECTOR_TOL:g}")


def projection_distance(P: SymMatrix, Q: SymMatrix) -> float:
    """Operator norm of the difference of two orthogonal projectors,
    computed as the largest absolute eigenvalue of P - Q."""
    Pm = P.entries if isinstance(P, SymMatrix) else np.asarray(P, dtype=float)
    Qm = Q.entries if isinstance(Q, SymMatrix) else np.asarray(Q, dtype=float)
    if Pm.shape != Qm.shape:
        raise NotAProjector(f"shape mismatch {Pm.shape} vs {Qm.shape}")
    _check_projector(Pm, "P")
    _check_projector(Qm, "Q")
    dist = float(np.max(np.abs(np.linalg.eigvalsh(Pm - Qm)))) if Pm.size else 0.0
    if dist > 1.0 + 1e-9:
        raise NotAProjector(f"projector distance {dist:g} exceeds 1")
    return min(dist, 1.0)


def unperturbed_projector(block: BlockOperator) -> SymMatrix:
    """Projector onto the reference subspace carrying spec(A0) (the top
    dim0 coordinates of the block decomposition)."""
    P = np.zeros((block.n, block.n))
    P[: block.dim0, : block.dim0] = np.eye(block.dim0)
    return SymMatrix(P)
