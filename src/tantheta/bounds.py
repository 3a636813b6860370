"""Closed-form estimating functions: the spectral-shift radius r_V, the
kappa function, the two bound branches M1 and M2, the combined bound M, the
projection bound sin(arctan M), and the maximizer of the auxiliary rational
function behind the M2 branch."""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .errors import RADICAND_GUARD, DomainError
from .model import Region, classify_region, require_finite, unit_scaled

SQRT2 = math.sqrt(2.0)


def half_arctan_tangent(x: float) -> float:
    """tan(arctan(x) / 2) via the cancellation-free identity
    x / (1 + sqrt(1 + x^2))."""
    return x / (1.0 + math.hypot(1.0, x))


def sin_arctan(x: float) -> float:
    """sin(arctan x) = x / sqrt(1 + x^2)."""
    return x / math.hypot(1.0, x)


def _guarded_sqrt(radicand: float, what: str) -> float:
    if radicand < -RADICAND_GUARD:
        raise DomainError(f"negative radicand for {what}: {radicand:g}")
    return math.sqrt(max(radicand, 0.0))


def r_v(D: float, d: float, v: float) -> float:
    """Radius of the spectral shift: v tan(arctan(2v / (D - d)) / 2).
    Strictly below d whenever v < sqrt(d D)."""
    require_finite("D, d, v", D, d, v)
    if d <= 0.0 or d >= D:
        raise DomainError(f"need 0 < d < D, got d={d}, D={D}")
    if v < 0.0:
        raise DomainError(f"v must be non-negative, got {v}")
    return v * half_arctan_tangent(2.0 * v / (D - d))


def _in_omega1(D: float, d: float, v: float) -> bool:
    return D > 0.0 and 0.0 < d <= D / 2.0 and 0.0 <= v < math.sqrt(d * (D - d))


def kappa(D: float, d: float, v: float) -> float:
    """Two-branch estimating function, defined for 0 <= v < sqrt(d(D-d)).

    Branch 1 (2v/d) applies up to v = sqrt(d(D-2d))/2; the second, rational
    branch is continuous across that threshold and blows up as v approaches
    sqrt(d(D-d)).
    """
    Ds, ds, vs = unit_scaled(D, d, v)
    if not _in_omega1(Ds, ds, vs):
        raise DomainError(f"(D, d, v) = ({D}, {d}, {v}) is outside Omega_1")
    if vs <= 0.5 * math.sqrt(ds * (Ds - 2.0 * ds)):
        return 2.0 * vs / ds
    num = vs * Ds + math.sqrt(ds * (Ds - ds)) * math.sqrt((Ds - 2.0 * ds) ** 2 + 4.0 * vs * vs)
    return num / (2.0 * (ds * (Ds - ds) - vs * vs))


def m1(D: float, d: float, v: float) -> float:
    """First bound branch, in [0, 1]; defined up to and including the
    boundary v = sqrt(d(D-d)) by continuous extension (value 1 there)."""
    Ds, ds, vs = unit_scaled(D, d, v)
    if Ds <= 0.0 or ds <= 0.0 or ds > Ds / 2.0 or vs < 0.0:
        raise DomainError(f"(D, d, v) = ({D}, {d}, {v}) is outside Omega_1 closure")
    v_boundary = math.sqrt(ds * (Ds - ds))
    if vs > v_boundary * (1.0 + RADICAND_GUARD):
        raise DomainError(f"v = {v} exceeds the boundary sqrt(d(D-d)) = {v_boundary * (D / Ds)}")
    if vs <= 0.5 * math.sqrt(ds * (Ds - 2.0 * ds)):
        return 2.0 * vs / (ds + math.sqrt(ds * ds + 4.0 * vs * vs))
    root = math.sqrt((Ds - 2.0 * ds) ** 2 + 4.0 * vs * vs)
    num = vs * (2.0 * vs + root) + v_boundary * (Ds - 2.0 * v_boundary)
    den = Ds * vs + v_boundary * root
    return num / den


def m2(D: float, d: float, v: float) -> float:
    """Second bound branch, in [1, sqrt(2)); defined for
    sqrt(d(D-d)) <= v < sqrt(d D)."""
    Ds, ds, vs = unit_scaled(D, d, v)
    if Ds <= 0.0 or ds <= 0.0 or ds > Ds / 2.0:
        raise DomainError(f"(D, d) = ({D}, {d}) is outside the bound domain")
    v_boundary = math.sqrt(ds * (Ds - ds))
    if vs < v_boundary * (1.0 - RADICAND_GUARD) or vs >= math.sqrt(ds * Ds):
        raise DomainError(f"v = {v} is outside [sqrt(d(D-d)), sqrt(dD))")
    t1 = _guarded_sqrt(ds * Ds - vs * vs, "M2 first factor")
    t2 = _guarded_sqrt((Ds - ds) * Ds - vs * vs, "M2 second factor")
    radicand = 1.0 + 2.0 * vs * vs / (Ds * Ds) - 2.0 * t1 * t2 / (Ds * Ds)
    return _guarded_sqrt(radicand, "M2")


@dataclass(frozen=True)
class BoundEvaluation:
    """All estimating quantities at one point (D, d, v) of the bound
    domain, with the region the point lies in."""

    D: float
    d: float
    v: float
    region: Region
    r_V: float
    kappa: Optional[float]
    M1: Optional[float]
    M2: Optional[float]
    M: float
    projection_bound: float  # sin(arctan M)
    apriori_bound: Optional[float]  # sin(arctan(v/d)), defined for v < sqrt(2) d


def m_total(D: float, d: float, v: float) -> BoundEvaluation:
    """Combined bound M (M1 below the inter-branch boundary, M2 at and
    above it) together with every derived quantity."""
    region = classify_region(D, d, v)
    if region is Region.OUTSIDE_OMEGA:
        raise DomainError(f"(D, d, v) = ({D}, {d}, {v}) is outside Omega")
    Ds, ds, vs = unit_scaled(D, d, v)
    v_boundary = math.sqrt(ds * (Ds - ds))
    kap = kappa(D, d, v) if region in (Region.OMEGA1_0, Region.OMEGA1_1) else None
    M1_val = m1(D, d, v) if vs <= v_boundary else None
    M2_val = m2(D, d, v) if vs >= v_boundary else None
    M = M1_val if vs < v_boundary else M2_val
    apriori = apriori_bound(d, v) if v < SQRT2 * d else None
    return BoundEvaluation(
        D=float(D),
        d=float(d),
        v=float(v),
        region=region,
        r_V=r_v(D, d, v),
        kappa=kap,
        M1=M1_val,
        M2=M2_val,
        M=float(M),
        projection_bound=sin_arctan(float(M)),
        apriori_bound=apriori,
    )


def apriori_bound(d: float, v: float) -> float:
    """The norm estimate sin(arctan(v/d)), strictly below sqrt(2/3);
    defined for v < sqrt(2) d."""
    require_finite("d, v", d, v)
    if d <= 0.0:
        raise DomainError(f"d must be positive, got {d}")
    if v < 0.0 or v >= SQRT2 * d:
        raise DomainError(f"v = {v} is outside [0, sqrt(2) d) with d = {d}")
    return sin_arctan(v / d)


def require_in_gap(gamma: float, a: float) -> None:
    """Raise DomainError unless 0 <= a < gamma, the range of the unperturbed
    value a of the sharpness families inside the gap (-gamma, gamma)."""
    if not 0.0 <= a < gamma:
        raise DomainError(f"need 0 <= a < gamma, got a={a}, gamma={gamma}")


def phi_maximizer(gamma: float, a: float, b: float) -> tuple:
    """Maximizer z0 and maximum of phi(z) = (b^2 + 2z(a-z)) / (gamma^2 - z^2)
    over [0, gamma); the maximum equals M2(2 gamma, gamma - a, b)^2.

    Defined for 0 <= a < gamma and sqrt(gamma^2 - a^2) <= b <
    sqrt(2 gamma (gamma - a)).
    """
    require_in_gap(gamma, a)
    b_lo = math.sqrt(gamma * gamma - a * a)
    b_hi = math.sqrt(2.0 * gamma * (gamma - a))
    if not b_lo * (1.0 - RADICAND_GUARD) <= b < b_hi:
        raise DomainError(f"b = {b} is outside [{b_lo}, {b_hi})")
    if a == 0.0:
        z0 = 0.0
    else:
        h = (2.0 * gamma * gamma - b * b) / (2.0 * a)
        z0 = h - _guarded_sqrt(h * h - gamma * gamma, "z0")
    if not 0.0 <= z0 < gamma:
        raise DomainError(f"maximizer z0 = {z0} escaped [0, gamma)")
    phi_max = (b * b + 2.0 * z0 * (a - z0)) / (gamma * gamma - z0 * z0)
    return z0, phi_max
