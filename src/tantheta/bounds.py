"""The bound domain Omega and everything scalar on it: the regions and the
unit scaling, the closed forms r_V, kappa, M1, M2, M and sin(arctan M), the
maximizer of the auxiliary rational function behind M2, and the 3x3
rank-one and 4x4 circulant sharpness families that attain the bound."""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import BOUNDARY_CLASSIFY_TOL, RADICAND_GUARD, DomainError
from .model import BlockOperator

SQRT2 = math.sqrt(2.0)


class Region(enum.Enum):
    """Subregions of the admissible set of (D, d, v) triples, ordered by
    increasing v for fixed (D, d)."""

    OMEGA1_0 = 0
    OMEGA1_1 = 1
    BOUNDARY_OMEGA12 = 2
    OMEGA2 = 3
    OUTSIDE_OMEGA = 4


def require_finite(names: str, *values: float) -> None:
    """Raise DomainError unless every value is finite; `names` lists the
    values' names, as in "D, d, v"."""
    if not all(math.isfinite(x) for x in values):
        raise DomainError(f"({names}) = ({', '.join(str(x) for x in values)}) must be finite")


def unit_exponent(x: float) -> int:
    """The exponent e that puts |x| 2^e in [1, 2); 1 for zero, inf and NaN."""
    return 1 - math.frexp(x)[1]


def unit_scaled(*values: float, names: str = "D, d, v") -> tuple:
    """The point, as (D, d, v) by default, which must be finite (DomainError
    otherwise), times the power of two 2^unit_exponent(x) that puts the
    first coordinate |x| in [1, 2). The scaling is exact unless a coordinate
    falls below the normal range, so a function homogeneous of degree 0
    gives the same bits at the scaled point, where products such as d D and
    v^2 neither overflow nor underflow; -0.0 comes back as +0.0. A coordinate
    the scaling lifts past the float range raises DomainError naming it."""
    require_finite(names, *values)
    e = unit_exponent(values[0])
    try:
        return tuple(math.ldexp(x, e) + 0.0 for x in values)
    except OverflowError:
        name, x = max(zip(names.split(", "), values), key=lambda pair: abs(pair[1]))
        raise DomainError(f"{name} = {x!r} overflows at the scale 2^{e}") from None


def classify_region(D: float, d: float, v: float) -> Region:
    """Classify the point (D, d, v) into the region partition.

    Points within BOUNDARY_CLASSIFY_TOL * sqrt(d*D) of v = sqrt(d*(D-d))
    are labelled as lying on the inter-region boundary. OUTSIDE_OMEGA is a
    valid label, not an error; it covers v >= sqrt(d*D) as well as
    degenerate d. Non-finite D, d or v raise DomainError.
    """
    D, d, v = unit_scaled(D, d, v)
    if D <= 0.0:
        raise DomainError("D must be positive")
    if v < 0.0:
        raise DomainError("v must be non-negative")
    if d <= 0.0 or d > D / 2.0 or v >= math.sqrt(d * D):
        return Region.OUTSIDE_OMEGA
    v_boundary = math.sqrt(d * (D - d))
    if abs(v - v_boundary) <= BOUNDARY_CLASSIFY_TOL * math.sqrt(d * D):
        return Region.BOUNDARY_OMEGA12
    if v < v_boundary:
        if v <= 0.5 * math.sqrt(d * (D - 2.0 * d)):
            return Region.OMEGA1_0
        return Region.OMEGA1_1
    return Region.OMEGA2


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
        apriori_bound=sin_arctan(v / d + 0.0) if v < SQRT2 * d else None,
    )


def apriori_bound(d: float, v: float) -> float:
    """The norm estimate sin(arctan(v/d)), strictly below sqrt(2/3);
    defined for v < sqrt(2) d."""
    require_finite("d, v", d, v)
    if d <= 0.0:
        raise DomainError(f"d must be positive, got {d}")
    if v < 0.0 or v >= SQRT2 * d:
        raise DomainError(f"v = {v} is outside [0, sqrt(2) d) with d = {d}")
    return sin_arctan(v / d + 0.0)


def require_in_gap(gamma: float, a: float) -> None:
    """Raise DomainError unless 0 <= a < gamma, the range of the unperturbed
    value a of the sharpness families inside the gap (-gamma, gamma)."""
    if not 0.0 <= a < gamma:
        raise DomainError(f"need 0 <= a < gamma, got a={a}, gamma={gamma}")


def _phi_peak(gamma: float, a: float, b: float) -> tuple:
    """(g, a, b, back, z0, g - z0, r1): phi_maximizer's point, checked and
    scaled by unit_scaled (back undoes the scaling), phi's maximizer z0
    there, g - z0 and r1 = 2g(g - a) - b^2. With n = 2g^2 - b^2 and
    r2 = 2g(g + a) - b^2, n^2 - 4a^2 g^2 = r1 r2, so with s = sqrt(r1 r2),
    z0 = 2ag^2 / (n + s) and g - z0 = g (r1 + s) / (n + s): no division by
    a, and r1, clamped at 0 against round-off, is the one difference."""
    require_in_gap(gamma, a)
    g, a_u, b_u = unit_scaled(gamma, a, b, names="gamma, a, b")
    back = 2.0 ** -unit_exponent(gamma)  # rounds like ldexp, but overflows to inf, not raising
    edge = 2.0 * g * (g - a_u)
    b_lo = math.sqrt((g - a_u) * (g + a_u))
    b_hi = math.sqrt(edge)
    if not b_lo * (1.0 - RADICAND_GUARD) <= b_u < b_hi:
        raise DomainError(f"b = {b} is outside [{b_lo * back}, {b_hi * back})")
    r1 = max(edge - b_u * b_u, 0.0)
    s = math.sqrt(r1 * (2.0 * g * (g + a_u) - b_u * b_u))
    den = 2.0 * g * g - b_u * b_u + s
    z0 = 2.0 * a_u * g * g / den
    if not 0.0 <= z0 < g:
        raise DomainError(f"maximizer z0 = {z0 * back} escaped [0, gamma)")
    return g, a_u, b_u, back, z0, g * (r1 + s) / den, r1


def phi_maximizer(gamma: float, a: float, b: float) -> tuple:
    """Maximizer z0 and maximum of phi(z) = (b^2 + 2z(a-z)) / (gamma^2 - z^2)
    over [0, gamma); the maximum equals M2(2 gamma, gamma - a, b)^2.

    Defined for 0 <= a < gamma and sqrt((gamma - a)(gamma + a)) <= b <
    sqrt(2 gamma (gamma - a)). Taken by _phi_peak at the point times the
    power of two that puts gamma in [1, 2): z0 scales with it and the
    maximum, (2 (g - z0)(g + z0 - a) - r1) / ((g - z0)(g + z0)), does not.
    Values in error messages are given back in the caller's scale.
    """
    g, a_u, _, back, z0, gz, r1 = _phi_peak(gamma, a, b)
    return z0 * back, (2.0 * gz * (g - a_u + z0) - r1) / (gz * (g + z0))


def _require_weights(b1: float, b2: float) -> None:
    """Raise DomainError if a coupling weight is negative."""
    if b1 < 0.0 or b2 < 0.0:
        raise DomainError("b1 and b2 must be non-negative")


def rank_one_build(gamma: float, a: float, b1: float, b2: float) -> BlockOperator:
    """3x3 family: A0 = [a], A1 = diag(-gamma, gamma), B = [b1 b2].

    The single unperturbed eigenvalue a sits in the gap (-gamma, gamma),
    so d = gamma - a and D = 2 gamma.
    """
    require_in_gap(gamma, a)
    _require_weights(b1, b2)
    return BlockOperator(np.array([[a]]), np.diag([-gamma, gamma]), np.array([[b1, b2]]))


def rank_one_inner_expected(d: float, v: float) -> float:
    """Exact projection distance for the b1 = 0 configuration:
    sin(arctan(2v / (d + sqrt(d^2 + 4v^2)))).

    The inner expression is the norm of the angular operator; it coincides
    with the bound branch M1 on the inner region, which is what makes this
    family a sharpness witness there. Taken at (d, v) scaled by the power of
    two that puts the larger in [1, 2), where nothing overflows; a
    non-finite d or v raises DomainError.
    """
    _, d_u, v_u = unit_scaled(max(d, v), d, v, names="max(d, v), d, v")
    if d <= 0.0 or v < 0.0:
        raise DomainError(f"need d > 0 and v >= 0, got d={d}, v={v}")
    return sin_arctan(2.0 * v_u / (d_u + math.sqrt(d_u * d_u + 4.0 * v_u * v_u)))


def rank_one_outer_params(gamma: float, a: float, b: float) -> tuple:
    """Weights (z0, t, b1, b2) making the 3x3 family attain equality on the
    outer bound region for total perturbation norm b, where
    sqrt((gamma - a)(gamma + a)) <= b < sqrt(2 gamma (gamma - a)). z0 is the
    single in-gap eigenvalue of the tuned instance. t, of degree 0, is taken
    where phi_maximizer takes z0, as (g - z0)((g - z0)(2g + z0 - a) - r1) /
    (2g b^2), clamped at 0 against round-off."""
    g, a_u, b_u, back, z0, gz, r1 = _phi_peak(gamma, a, b)
    t = max(gz * (gz * (2.0 * g + z0 - a_u) - r1) / (2.0 * g * b_u * b_u), 0.0)
    return z0 * back, t, math.sqrt(1.0 - t) * b, math.sqrt(t) * b


def circulant_build(gamma: float, a: float, b1: float, b2: float) -> BlockOperator:
    """4x4 family: A0 = diag(-a, a), A1 = diag(-gamma, gamma) and a
    symmetric circulant coupling B = [[b1, b2], [b2, b1]].

    Here d = gamma - a, D = 2 gamma and ||B|| = b1 + b2.
    """
    require_in_gap(gamma, a)
    _require_weights(b1, b2)
    return BlockOperator(
        np.diag([-a, a]), np.diag([-gamma, gamma]), np.array([[b1, b2], [b2, b1]])
    )


def circulant_kappas(gamma: float, a: float, b1: float, b2: float) -> tuple:
    """Closed-form entries (kappa1, kappa2) of the explicit Riccati solution
    X = [[k1, k2], [-k2, -k1]] of the 4x4 family; ||X|| = k1 + k2. Taken at
    the unit-scaled point, whose DomainErrors (non-finite, or a weight
    overflowing) pass through."""
    g, a_u, b1_u, b2_u = unit_scaled(gamma, a, b1, b2, names="gamma, a, b1, b2")
    require_in_gap(gamma, a)
    _require_weights(b1, b2)
    if b1_u + b2_u >= math.sqrt(2.0 * g * (g - a_u)):
        raise DomainError(
            f"||B|| = {b1 + b2} is not below sqrt(2 gamma (gamma - a))"
        )
    r_minus = math.sqrt((g - a_u) ** 2 + 4.0 * b1_u * b1_u)
    r_plus = math.sqrt((g + a_u) ** 2 + 4.0 * b2_u * b2_u)
    den = (g + a_u) * r_minus + (g - a_u) * r_plus
    return 2.0 * b1_u * r_plus / den, 2.0 * b2_u * r_minus / den


def circulant_kappa_matrix(gamma: float, a: float, b1: float, b2: float) -> np.ndarray:
    """The explicit solution matrix built from circulant_kappas."""
    k1, k2 = circulant_kappas(gamma, a, b1, b2)
    return np.array([[k1, k2], [-k2, -k1]])


def circulant_case_params(gamma: float, a: float, b: float) -> tuple:
    """Weights (beta, b1, b2) making the 4x4 family attain equality on the
    intermediate bound region for total perturbation norm b.

    Requires sqrt(2 (gamma - a) a) / 2 < b < sqrt((gamma - a)(gamma + a));
    both returned weights are positive (b2 > 0 by the lower inequality).
    beta = a c / (hypot(gamma b, a sqrt(c)) + gamma b), c = (gamma - a)
    (gamma + a) - b^2, is the caller's a times a ratio of degree 0 taken at
    unit scale as phi_maximizer is: it never divides by a. The lower edge is
    taken at the caller's scale, where a cannot underflow; a b too small at
    unit scale for beta, or for a positive weight, raises DomainError.
    """
    require_in_gap(gamma, a)
    g, a_u, b_u = unit_scaled(gamma, a, b, names="gamma, a, b")
    back = 2.0 ** -unit_exponent(gamma)
    b_lo = math.sqrt(0.5 * (gamma - a)) * math.sqrt(a)
    c = (g - a_u) * (g + a_u)
    b_hi = math.sqrt(c)
    if not (b_lo < b and b_u < b_hi):
        raise DomainError(f"b = {b} is outside ({b_lo}, {b_hi * back})")
    c -= b_u * b_u
    gb = g * b_u
    den = math.hypot(gb, a_u * math.sqrt(c)) + gb
    ratio = c / den if den > 0.0 else math.inf
    if ratio == math.inf:
        raise DomainError(f"b = {b} underflows at the unit scale of gamma = {gamma}")
    beta = a * ratio
    b1, b2 = (b + beta) / 2.0, (b - beta) / 2.0
    if not (b1 > 0.0 and b2 > 0.0):
        raise DomainError(f"b = {b} leaves a weight of (b1, b2) = ({b1}, {b2}) at 0")
    return beta, b1, b2
