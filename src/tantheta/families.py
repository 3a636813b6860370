"""Parametric constructors and closed-form expected values for the two
sharpness families: a 3x3 rank-one-perturbation family (exact on the inner
region and, with tuned weights, on the outer region) and a 4x4 family with
an explicit Riccati solution (exact on the intermediate region)."""
from __future__ import annotations

import math

import numpy as np

from .bounds import _phi_peak, require_in_gap, sin_arctan
from .errors import DomainError
from .model import BlockOperator, unit_exponent, unit_scaled


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
    unit scale as phi_maximizer is: it never divides by a.
    """
    require_in_gap(gamma, a)
    g, a_u, b_u = unit_scaled(gamma, a, b, names="gamma, a, b")
    back = 2.0 ** -unit_exponent(gamma)
    b_lo = 0.5 * math.sqrt(2.0 * (g - a_u) * a_u)
    c = (g - a_u) * (g + a_u)
    b_hi = math.sqrt(c)
    if not b_lo < b_u < b_hi:
        raise DomainError(f"b = {b} is outside ({b_lo * back}, {b_hi * back})")
    c -= b_u * b_u
    gb = g * b_u
    beta = a * (c / (math.hypot(gb, a_u * math.sqrt(c)) + gb))
    return beta, (b + beta) / 2.0, (b - beta) / 2.0
