"""Closed-form estimating functions: the spectral-shift radius r_V, the
kappa function, the two bound branches M1 and M2, the combined bound M, the
projection bound sin(arctan M), and the maximizer of the auxiliary rational
function behind the M2 branch."""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .errors import RADICAND_GUARD, DomainError
from .model import Region, classify_region, require_finite, unit_exponent, unit_scaled

SQRT2 = math.sqrt(2.0)


def half_arctan_tangent(x: float) -> float:
    """tan(arctan(x) / 2) via the cancellation-free identity
    x / (1 + sqrt(1 + x^2))."""
    return x / (1.0 + math.hypot(1.0, x))


def sin_arctan(x: float) -> float:
    """sin(arctan x) = x / sqrt(1 + x^2)."""
    return x / math.hypot(1.0, x)


# The helpers below trust their point: m_total has checked it and, for
# kappa, M1 and M2, scaled it to unit size with unit_scaled.


def _r_v(D: float, d: float, v: float) -> float:
    """Radius of the spectral shift: v tan(arctan(2v / (D - d)) / 2).
    Strictly below d whenever v < sqrt(d D)."""
    return v * half_arctan_tangent(2.0 * v / (D - d))


def _kappa(D: float, d: float, v: float) -> float:
    """Two-branch estimating function, defined for 0 <= v < sqrt(d(D-d)).

    Branch 1 (2v/d) applies up to v = sqrt(d(D-2d))/2; the second, rational
    branch is continuous across that threshold and blows up as v approaches
    sqrt(d(D-d)).
    """
    if v <= 0.5 * math.sqrt(d * (D - 2.0 * d)):
        return 2.0 * v / d
    num = v * D + math.sqrt(d * (D - d)) * math.sqrt((D - 2.0 * d) ** 2 + 4.0 * v * v)
    return num / (2.0 * (d * (D - d) - v * v))


def _m1(D: float, d: float, v: float) -> float:
    """First bound branch, in [0, 1]; defined up to and including the
    boundary v = sqrt(d(D-d)) by continuous extension (value 1 there)."""
    if v <= 0.5 * math.sqrt(d * (D - 2.0 * d)):
        return 2.0 * v / (d + math.sqrt(d * d + 4.0 * v * v))
    v_boundary = math.sqrt(d * (D - d))
    root = math.sqrt((D - 2.0 * d) ** 2 + 4.0 * v * v)
    num = v * (2.0 * v + root) + v_boundary * (D - 2.0 * v_boundary)
    den = D * v + v_boundary * root
    return num / den


def _m2(D: float, d: float, v: float) -> float:
    """Second bound branch, in [1, sqrt(2)); defined for
    sqrt(d(D-d)) <= v < sqrt(d D). At a unit-scaled point of that range no
    radicand falls more than a few ulps below 0; the clamps absorb that."""
    t1 = math.sqrt(max(d * D - v * v, 0.0))
    t2 = math.sqrt(max((D - d) * D - v * v, 0.0))
    return math.sqrt(max(1.0 + 2.0 * v * v / (D * D) - 2.0 * t1 * t2 / (D * D), 0.0))


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
    above it) together with every derived quantity. The point is classified
    once, at its unit-scaled copy, where kappa, M1 and M2, homogeneous of
    degree 0, are taken too; r_V is taken at the point itself."""
    Ds, ds, vs = unit_scaled(D, d, v)
    region = classify_region(Ds, ds, vs)
    if region is Region.OUTSIDE_OMEGA:
        raise DomainError(f"(D, d, v) = ({D}, {d}, {v}) is outside Omega")
    v_boundary = math.sqrt(ds * (Ds - ds))
    M1 = _m1(Ds, ds, vs) if vs <= v_boundary else None
    M2 = _m2(Ds, ds, vs) if vs >= v_boundary else None
    M = M1 if vs < v_boundary else M2
    return BoundEvaluation(
        D=float(D),
        d=float(d),
        v=float(v),
        region=region,
        r_V=_r_v(D, d, v),
        kappa=_kappa(Ds, ds, vs) if region in (Region.OMEGA1_0, Region.OMEGA1_1) else None,
        M1=M1,
        M2=M2,
        M=M,
        projection_bound=sin_arctan(M),
        apriori_bound=sin_arctan(v / d) if v < SQRT2 * d else None,
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
    sqrt(2 gamma (gamma - a)). Computed at the point times the power of two
    that puts gamma in [1, 2): z0 scales with it and the maximum does not,
    and every value in an error message is given back in the caller's scale.
    """
    require_in_gap(gamma, a)
    g, a_u, b_u = unit_scaled(gamma, a, b, names="gamma, a, b")
    back = 2.0 ** -unit_exponent(gamma)  # rounds like ldexp, but overflows to inf, not raising
    b_lo = math.sqrt(g * g - a_u * a_u)
    b_hi = math.sqrt(2.0 * g * (g - a_u))
    if not b_lo * (1.0 - RADICAND_GUARD) <= b_u < b_hi:
        raise DomainError(f"b = {b} is outside [{b_lo * back}, {b_hi * back})")
    z0 = 0.0
    if a_u != 0.0:
        h = (2.0 * g * g - b_u * b_u) / (2.0 * a_u)
        radicand = h * h - g * g  # inf, not negative, where h * h overflows
        if radicand < -RADICAND_GUARD:
            raise DomainError(f"negative radicand for z0: {radicand * back * back:g}")
        # h - sqrt(h^2 - g^2), rationalized: no cancellation at large h
        # (small a), and no h^2, which overflows for a below about 1e-154.
        z0 = g * g / (h + math.sqrt(max(h - g, 0.0)) * math.sqrt(h + g))
    if not 0.0 <= z0 < g:
        raise DomainError(f"maximizer z0 = {z0 * back} escaped [0, gamma)")
    phi_max = (b_u * b_u + 2.0 * z0 * (a_u - z0)) / (g * g - z0 * z0)
    return z0 * back, phi_max
