"""Dense reference implementations the tests compare the production
routes against: the projector distance from the full n x n projectors and
the trigonometric form of the M1 bound branch."""
import numpy as np

from tantheta import NotAProjector, m_total
from tantheta.bounds import _kappa, half_arctan_tangent, unit_scaled
from tantheta.errors import EIG_GRAM_TOL
from tantheta.model import spectral_norm


def dense_projector(P) -> np.ndarray:
    """The dense n x n matrix of a projector given by an orthonormal range
    basis U, an n x k array (U U^T, symmetrized), or by a SymMatrix."""
    if isinstance(P, np.ndarray):
        M = P @ P.T
        return (M + M.T) / 2.0
    return np.asarray(P.entries, dtype=float)


def check_projector(P: np.ndarray, name: str) -> None:
    if spectral_norm(P @ P - P) > EIG_GRAM_TOL or spectral_norm(P - P.T) > EIG_GRAM_TOL:
        raise NotAProjector(f"{name} is not idempotent-symmetric within {EIG_GRAM_TOL:g}")


def dense_projection_distance(P, Q) -> float:
    """||P - Q|| for any two orthogonal projectors in a form dense_projector
    reads: after idempotency and symmetry checks, 1 when the ranks (rounded
    traces) differ and otherwise the largest absolute eigenvalue of P - Q."""
    Pm, Qm = dense_projector(P), dense_projector(Q)
    if Pm.shape != Qm.shape:
        raise NotAProjector(f"shape mismatch {Pm.shape} vs {Qm.shape}")
    check_projector(Pm, "P")
    check_projector(Qm, "Q")
    if round(np.trace(Pm)) != round(np.trace(Qm)):
        return 1.0
    dist = float(np.max(np.abs(np.linalg.eigvalsh(Pm - Qm)))) if Pm.size else 0.0
    if dist > 1.0 + 1e-9:
        raise NotAProjector(f"projector distance {dist:g} exceeds 1")
    return min(dist, 1.0)


def m1_trig(D: float, d: float, v: float) -> float:
    """Trigonometric form tan(arctan(kappa)/2) of the M1 branch, with kappa
    read off m_total; in the boundary band, where m_total gives none, from
    the bound module's helper at the unit-scaled point."""
    kappa = m_total(D, d, v).kappa
    if kappa is None:
        kappa = _kappa(*unit_scaled(D, d, v))
    return half_arctan_tangent(kappa)
