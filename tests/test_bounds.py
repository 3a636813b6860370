import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tantheta import (
    DomainError,
    apriori_bound,
    classify_region,
    kappa,
    m1,
    m2,
    m_total,
    phi_maximizer,
    r_v,
)
from tantheta.bounds import half_arctan_tangent, sin_arctan

from oracles import m1_trig

SQRT2 = math.sqrt(2.0)


def omega1_points(count, seed):
    """Random points of the first bound region, d normalized to 1."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        D = 2.0 + 8.0 * rng.random()
        v = rng.random() * math.sqrt(D - 1.0) * (1.0 - 1e-9)
        out.append((D, 1.0, v))
    return out


class TestHalfAngle:
    @given(st.floats(min_value=0.0, max_value=1e6))
    @settings(max_examples=200, derandomize=True, database=None)
    def test_matches_naive_form(self, x):
        assert half_arctan_tangent(x) == pytest.approx(math.tan(0.5 * math.atan(x)), rel=1e-13)


class TestRv:
    def test_zero(self):
        assert r_v(4.0, 1.0, 0.0) == 0.0

    def test_frozen_value(self):
        # v tan(arctan(2/3)/2) = 2/(3 + sqrt(13))
        assert r_v(4.0, 1.0, 1.0) == pytest.approx(2.0 / (3.0 + math.sqrt(13.0)), rel=1e-15)

    def test_golden_ratio_point(self):
        # D = 2d, v = d gives d (sqrt(5) - 1) / 2 < d
        val = r_v(2.0, 1.0, 1.0)
        assert val == pytest.approx((math.sqrt(5.0) - 1.0) / 2.0, rel=1e-15)
        assert val < 1.0

    def test_below_d_everywhere(self):
        rng = np.random.default_rng(8)
        for _ in range(2000):
            D = 2.0 + 10.0 * rng.random()
            d = D / 2.0 * rng.random() or 0.1
            v = rng.random() * math.sqrt(d * D)
            assert r_v(D, d, v) < d

    def test_domain(self):
        with pytest.raises(DomainError):
            r_v(2.0, 2.0, 0.5)
        with pytest.raises(DomainError):
            r_v(2.0, 0.0, 0.5)


class TestKappa:
    def test_linear_branch(self):
        assert kappa(4.0, 1.0, 0.5) == pytest.approx(1.0, abs=0.0)

    def test_branch_continuity(self):
        v_star = 0.5 * math.sqrt(1.0 * (4.0 - 2.0))
        below = kappa(4.0, 1.0, v_star)
        above = kappa(4.0, 1.0, v_star * (1.0 + 1e-13))
        assert below == pytest.approx(SQRT2, rel=1e-12)
        assert above == pytest.approx(below, rel=1e-10)

    def test_pole_at_region_edge(self):
        assert kappa(4.0, 1.0, math.sqrt(3.0) * (1.0 - 1e-12)) > 1e10
        with pytest.raises(DomainError):
            kappa(4.0, 1.0, math.sqrt(3.0))


class TestM1:
    def test_inner_value(self):
        assert m1(4.0, 1.0, 0.5) == pytest.approx(SQRT2 - 1.0, rel=1e-14)

    def test_boundary_extension_is_one(self):
        assert m1(4.0, 1.0, math.sqrt(3.0)) == pytest.approx(1.0, rel=1e-14)

    def test_reduces_to_ratio_at_minimal_gap(self):
        assert m1(2.0, 1.0, 0.7) == pytest.approx(0.7, rel=1e-13)

    def test_agrees_with_trig_form(self):
        for D, d, v in omega1_points(500, seed=21):
            assert m1(D, d, v) == pytest.approx(m1_trig(D, d, v), rel=1e-12)

    def test_range(self):
        for D, d, v in omega1_points(500, seed=22):
            assert 0.0 <= m1(D, d, v) < 1.0

    def test_domain(self):
        with pytest.raises(DomainError):
            m1(4.0, 1.0, 1.8)


class TestM2:
    def test_boundary_is_one(self):
        assert m2(4.0, 1.0, math.sqrt(3.0)) == pytest.approx(1.0, rel=1e-14)

    def test_reduces_to_ratio_at_minimal_gap(self):
        assert m2(2.0, 1.0, 1.2) == pytest.approx(1.2, rel=1e-13)

    def test_supremum_approached(self):
        vals = [m2(2.0, 1.0, SQRT2 * (1.0 - 10.0**-k)) for k in range(4, 9)]
        assert all(1.0 <= v < SQRT2 for v in vals)
        assert vals == sorted(vals)
        assert vals[-1] > SQRT2 - 1e-3

    def test_domain(self):
        with pytest.raises(DomainError):
            m2(4.0, 1.0, 0.5)
        with pytest.raises(DomainError):
            m2(4.0, 1.0, 2.0)


class TestMTotal:
    def test_minimal_gap_equals_ratio(self):
        for v in (0.0, 0.3, 0.9999, 1.0, 1.2, 1.41):
            ev = m_total(2.0, 1.0, v)
            assert ev.M == pytest.approx(v, rel=1e-12, abs=1e-12)
            assert ev.projection_bound == pytest.approx(sin_arctan(v), rel=1e-12, abs=1e-12)

    def test_zero_point(self):
        ev = m_total(4.0, 1.0, 0.0)
        assert ev.M == 0.0
        assert ev.projection_bound == 0.0
        assert ev.kappa == 0.0

    def test_outer_region_dispatch(self):
        ev = m_total(4.0, 1.0, 1.9)
        assert ev.region.name == "OMEGA2"
        assert ev.M == pytest.approx(m2(4.0, 1.0, 1.9), abs=0.0)
        assert ev.M1 is None and ev.kappa is None

    def test_continuity_across_branch_boundary(self):
        for D, d in ((4.0, 1.0), (3.0, 1.2), (10.0, 2.0)):
            vb = math.sqrt(d * (D - d))
            for k in range(4, 9):
                eps = 10.0**-k
                lo = m_total(D, d, vb * (1.0 - eps)).M
                hi = m_total(D, d, vb * (1.0 + eps)).M
                assert abs(hi - lo) <= 10.0 * eps * 10.0  # generous slope cap

    def test_monotone_in_d_and_v(self):
        rng = np.random.default_rng(77)
        for _ in range(300):
            D = 2.0 + 8.0 * rng.random()
            d_hi = D / 2.0 * (0.2 + 0.8 * rng.random())
            d_lo = d_hi * (0.3 + 0.7 * rng.random())
            v = rng.random() * math.sqrt(d_lo * D) * 0.999
            assert m_total(D, d_lo, v).M >= m_total(D, d_hi, v).M - 1e-12
            v_hi = v + (math.sqrt(d_hi * D) * 0.999 - v) * rng.random()
            assert m_total(D, d_hi, v_hi).M >= m_total(D, d_hi, v).M - 1e-12

    def test_monotone_nonincreasing_in_D(self):
        rng = np.random.default_rng(78)
        for _ in range(300):
            d = 0.5 + rng.random()
            v = rng.random() * SQRT2 * d * 0.999
            Ds = sorted(2.0 * d + 10.0 * rng.random(4))
            vals = [m_total(D, d, v).M for D in Ds]
            assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))
            assert m_total(2.0 * d, d, v).M == pytest.approx(v / d, rel=1e-12, abs=1e-15)

    def test_domain(self):
        with pytest.raises(DomainError):
            m_total(4.0, 1.0, 2.0)
        with pytest.raises(DomainError):
            m_total(4.0, 3.0, 0.1)


class TestAprioriBound:
    def test_values(self):
        assert apriori_bound(1.0, 1.0) == pytest.approx(SQRT2 / 2.0, rel=1e-15)
        assert apriori_bound(2.0, 0.0) == 0.0

    def test_strict_supremum(self):
        val = apriori_bound(1.0, SQRT2 * (1.0 - 1e-12))
        assert val < math.sqrt(2.0 / 3.0)

    def test_domain(self):
        with pytest.raises(DomainError):
            apriori_bound(1.0, SQRT2)


class TestPhiMaximizer:
    def test_centered_case(self):
        z0, phi_max = phi_maximizer(1.0, 0.0, 1.2)
        assert z0 == 0.0
        assert phi_max == pytest.approx(1.44, rel=1e-14)
        assert phi_max == pytest.approx(m2(2.0, 1.0, 1.2) ** 2, rel=1e-12)

    def test_boundary_case(self):
        z0, phi_max = phi_maximizer(2.0, 1.0, math.sqrt(3.0))
        assert phi_max == pytest.approx(m2(4.0, 1.0, math.sqrt(3.0)) ** 2, rel=1e-12)
        assert 0.0 <= z0 < 2.0

    def test_grid_search_oracle(self):
        gamma, a, b = 2.0, 1.0, 1.9
        z0, phi_max = phi_maximizer(gamma, a, b)
        z = np.linspace(0.0, gamma, 1_000_001)[:-1]
        phi = (b * b + 2.0 * z * (a - z)) / (gamma * gamma - z * z)
        idx = int(np.argmax(phi))
        assert abs(z[idx] - z0) <= 1e-5
        assert phi[idx] <= phi_max + 1e-9

    def test_matches_m2_squared_randomly(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            gamma = 0.5 + 2.0 * rng.random()
            a = gamma * rng.random() * 0.9
            lo = math.sqrt(gamma**2 - a**2)
            hi = math.sqrt(2.0 * gamma * (gamma - a))
            b = lo + (hi - lo) * rng.random() * 0.999
            _, phi_max = phi_maximizer(gamma, a, b)
            assert phi_max == pytest.approx(m2(2.0 * gamma, gamma - a, b) ** 2, rel=1e-10)

    def test_domain(self):
        with pytest.raises(DomainError):
            phi_maximizer(2.0, 1.0, 1.0)  # below sqrt(gamma^2 - a^2)
        with pytest.raises(DomainError):
            phi_maximizer(2.0, 1.0, 2.0)  # at sqrt(2 gamma (gamma - a))


# Each public function at a point of its domain, so that only the
# non-finite slot can make it raise.
VALID_POINTS = [
    (classify_region, (4.0, 1.0, 0.5)),
    (r_v, (4.0, 1.0, 0.5)),
    (kappa, (4.0, 1.0, 0.5)),
    (m1, (4.0, 1.0, 0.5)),
    (m2, (4.0, 1.0, 1.9)),
    (m_total, (4.0, 1.0, 0.5)),
    (apriori_bound, (1.0, 0.5)),
]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize(
    "fn, slot, point",
    [
        pytest.param(fn, slot, point, id=f"{fn.__name__}-{slot}")
        for fn, point in VALID_POINTS
        for slot in range(len(point))
    ],
)
def test_non_finite_argument_raises(fn, slot, point, bad):
    fn(*point)
    args = list(point)
    args[slot] = bad
    with pytest.raises(DomainError, match="must be finite"):
        fn(*args)
