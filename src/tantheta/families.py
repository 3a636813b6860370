"""Parametric constructors and closed-form expected values for the two
sharpness families: a 3x3 rank-one-perturbation family (exact on the inner
region and, with tuned weights, on the outer region) and a 4x4 family with
an explicit Riccati solution (exact on the intermediate region)."""
from __future__ import annotations

import math

import numpy as np

from .bounds import phi_maximizer, require_in_gap, sin_arctan
from .errors import RADICAND_GUARD, DomainError
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
    family a sharpness witness there. Taken at the unit-scaled (d, v);
    unit_scaled's DomainErrors (non-finite, or v overflowing) pass through.
    """
    d_u, v_u = unit_scaled(d, v, names="d, v")
    if d <= 0.0 or v < 0.0:
        raise DomainError(f"need d > 0 and v >= 0, got d={d}, v={v}")
    return sin_arctan(2.0 * v_u / (d_u + math.sqrt(d_u * d_u + 4.0 * v_u * v_u)))


def rank_one_outer_params(gamma: float, a: float, b: float) -> tuple:
    """Weights (z0, t, b1, b2) making the 3x3 family attain equality on the
    outer bound region for total perturbation norm b.

    Requires sqrt(gamma^2 - a^2) <= b < sqrt(2 gamma (gamma - a)). The
    returned z0 is the single in-gap eigenvalue of the tuned instance.
    """
    z0 = phi_maximizer(gamma, a, b)[0]
    # t is homogeneous of degree 0: take it where phi_maximizer took z0.
    g, a_u, b_u, z = unit_scaled(gamma, a, b, z0, names="gamma, a, b, z0")
    t = (b_u * b_u * (g - z) + (g * g - z * z) * (a_u - z)) / (2.0 * g * b_u * b_u)
    if not -RADICAND_GUARD <= t < 1.0:
        raise DomainError(f"weight t = {t} escaped [0, 1)")
    t = max(t, 0.0)
    b1 = math.sqrt(1.0 - t) * b
    b2 = math.sqrt(t) * b
    return z0, t, b1, b2


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

    Requires sqrt(2 (gamma - a) a) / 2 < b < sqrt(gamma^2 - a^2); both
    returned weights are positive (b2 > 0 by the lower inequality). Taken
    at unit scale as phi_maximizer is, and given back in the caller's scale.
    """
    require_in_gap(gamma, a)
    g, a_u, b_u = unit_scaled(gamma, a, b, names="gamma, a, b")
    back = 2.0 ** -unit_exponent(gamma)
    b_lo = 0.5 * math.sqrt(2.0 * (g - a_u) * a_u)
    b_hi = math.sqrt(g * g - a_u * a_u)
    if not b_lo < b_u < b_hi:
        raise DomainError(f"b = {b} is outside ({b_lo * back}, {b_hi * back})")
    if a == 0.0:
        beta = 0.0
    else:
        beta = (
            math.sqrt(g * g * b_u * b_u + a_u * a_u * (g * g - a_u * a_u - b_u * b_u))
            - g * b_u
        ) / a_u * back
    return beta, (b + beta) / 2.0, (b - beta) / 2.0
