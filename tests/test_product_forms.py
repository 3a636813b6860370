"""The sharpness witnesses' closed forms against 80-digit mpmath
(tests/mp_reference.py): the outer rank-one maximizer z0, maximum phi_max
and weight t over a D/d grid and near the upper edge b_hi, and the
circulant weight beta with a down to 1e-300 gamma and at seeded boundary
points over the whole float range. Tier-1 runs a seeded prefix of the
near-edge, beta and boundary sets; the full sets are marked slow:

    python3 -m pytest -q -m slow
"""
import math
import random
import sys

import pytest

pytest.importorskip("mpmath")

import mp_reference  # noqa: E402
from tantheta import (  # noqa: E402
    DomainError, circulant_case_params, phi_maximizer, rank_one_outer_params,
)

EPS = 2.0 ** -52

# D/d = 2 gamma / (gamma - a) at gamma = 1. Taken by subtraction, h - gamma
# and gamma^2 - a^2 refuse 10 of the 39 points at 1e8 and all at 1e9 and 1e12.
DD_RATIOS = (4.0, 1e4, 1e6, 1e8, 1e9, 1e12)


@pytest.mark.parametrize("ratio", DD_RATIOS)
def test_outer_witness_on_the_dd_grid(ratio):
    a = 1.0 - 2.0 / ratio
    lo, hi = math.sqrt((1.0 - a) * (1.0 + a)), math.sqrt(2.0 * (1.0 - a))
    for k in range(39):
        b = lo + (hi - lo) * k / 39
        z0, phi_max = phi_maximizer(1.0, a, b)
        z0_t, t, _, _ = rank_one_outer_params(1.0, a, b)
        z_ref, phi_ref, t_ref = mp_reference.outer(1.0, a, b)
        assert z0_t == z0, (ratio, k)
        assert mp_reference.rel_err(z0, z_ref) <= 16 * EPS, (ratio, k)
        assert abs(phi_max - float(phi_ref)) <= 16 * EPS, (ratio, k)
        assert abs(t - float(t_ref)) <= 16 * EPS, (ratio, k)


def near_edge_a():
    """300 values of a in [0, 1); at gamma = 1 each takes b from 5 to 1,000
    ulps below b_hi = sqrt(2 (1 - a)) in steps of 5: 60,000 points, where
    h - gamma taken by subtraction raises 24 times and puts 52 maxima
    outside the bracket."""
    rng = random.Random(7)
    return [rng.random() for _ in range(300)]


def check_near_edge(a_values):
    # z0 and phi_max increase with b: each lies between mpmath's values at
    # b -+ 4 ulps, which bracket b's own rounding and that of the products
    # with it; phi_max within 4e-16 more.
    for a in a_values:
        b_hi = math.sqrt(2.0 * (1.0 - a))
        for k in range(5, 1001, 5):
            b = b_hi - k * math.ulp(b_hi)
            z0, phi_max = phi_maximizer(1.0, a, b)
            z_lo, phi_lo, _ = mp_reference.outer(1.0, a, b - 4 * math.ulp(b))
            z_hi, phi_hi, _ = mp_reference.outer(1.0, a, b + 4 * math.ulp(b))
            assert z_lo <= z0 <= z_hi, (a, b)
            assert float(phi_lo) - 4e-16 <= phi_max <= float(phi_hi) + 4e-16, (a, b)


def test_phi_max_near_the_upper_edge():
    check_near_edge(near_edge_a()[:15])


@pytest.mark.slow
def test_phi_max_near_the_upper_edge_full():
    check_near_edge(near_edge_a())


def check_beta(count):
    # gamma in [1, 2), a / gamma uniform or, on even draws, 10^U(-300, 0),
    # and b uniform in the intermediate region (b_lo, b_hi).
    rng = random.Random(11)
    worst = 0.0
    for i in range(count):
        gamma = 1.0 + rng.random()
        a = gamma * (10.0 ** rng.uniform(-300.0, 0.0) if i % 2 == 0 else rng.random())
        lo = 0.5 * math.sqrt(2.0 * (gamma - a) * a)
        hi = math.sqrt((gamma - a) * (gamma + a))
        b = lo + (hi - lo) * rng.random()
        beta, _, _ = circulant_case_params(gamma, a, b)
        worst = max(worst, mp_reference.rel_err(beta, mp_reference.beta(gamma, a, b)))
    assert worst <= 1e-12


def test_beta_with_a_far_below_gamma():
    check_beta(2000)


@pytest.mark.slow
def test_beta_with_a_far_below_gamma_full():
    check_beta(20000)


def test_beta_where_a_underflows_at_unit_scale():
    # a = 4e-45 underflows to 0 at the scale that puts gamma in [1, 2), so a
    # form that divides by the scaled a raises ZeroDivisionError here.
    beta, b1, b2 = circulant_case_params(1.7e308, 4e-45, 4e144)
    assert mp_reference.rel_err(beta, mp_reference.beta(1.7e308, 4e-45, 4e144)) <= 1e-15
    assert abs(beta / 8.5e118 - 1.0) <= 1e-15
    assert b1 == b2 == 2e144


EDGE_VALUES = (0.0, 5e-324, sys.float_info.min, 1e-300, 1.0, 2.0, 1e300, sys.float_info.max)


def boundary_coordinate(rng):
    """Uniform in [0, 4], log-uniform over the float range, or an edge value."""
    kind = rng.randrange(3)
    if kind == 0:
        return rng.uniform(0.0, 4.0)
    if kind == 1:
        return math.ldexp(1.0 + rng.random(), rng.randint(-1074, 1023))
    return rng.choice(EDGE_VALUES)


def check_circulant_boundary(count):
    # Half the points with 0 <= a < gamma take b inside (b_lo, b_hi) or
    # just below b_lo. Each point raises DomainError or gives finite
    # weights b1, b2 > 0 and a beta within 1e-12 of mpmath, or within one
    # subnormal step where beta is below the normal range.
    rng = random.Random(13)
    returned = 0
    for _ in range(count):
        gamma, a, b = (boundary_coordinate(rng) for _ in range(3))
        if rng.random() < 0.5 and 0.0 <= a < gamma:
            lo = math.sqrt(0.5 * (gamma - a)) * math.sqrt(a)
            hi = math.sqrt(gamma - a) * math.sqrt(gamma + a)
            inside = rng.random() < 0.8
            b = lo + (hi - lo) * rng.random() if inside else lo * (1.0 - 1e-3 * rng.random())
        try:
            beta, b1, b2 = circulant_case_params(gamma, a, b)
        except DomainError:
            continue
        returned += 1
        point = (gamma, a, b)
        assert all(math.isfinite(x) for x in (beta, b1, b2)) and b1 > 0.0 and b2 > 0.0, point
        ref = float(mp_reference.beta(gamma, a, b))
        assert abs(beta - ref) <= max(1e-12 * abs(ref), 5e-324), point
    assert returned >= count // 5


def test_circulant_weights_at_boundary_points():
    check_circulant_boundary(2000)


@pytest.mark.slow
def test_circulant_weights_at_boundary_points_full():
    check_circulant_boundary(20000)
