import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tantheta import (
    DomainError,
    apriori_bound,
    classify_region,
    m_total,
    phi_maximizer,
)
from tantheta.bounds import _kappa, half_arctan_tangent, sin_arctan, unit_scaled

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
        assert m_total(4.0, 1.0, 0.0).r_V == 0.0

    def test_frozen_value(self):
        # v tan(arctan(2/3)/2) = 2/(3 + sqrt(13))
        assert m_total(4.0, 1.0, 1.0).r_V == pytest.approx(2.0 / (3.0 + math.sqrt(13.0)), rel=1e-15)

    def test_golden_ratio_point(self):
        # D = 2d, v = d gives d (sqrt(5) - 1) / 2 < d
        val = m_total(2.0, 1.0, 1.0).r_V
        assert val == pytest.approx((math.sqrt(5.0) - 1.0) / 2.0, rel=1e-15)
        assert val < 1.0

    def test_below_d_everywhere(self):
        rng = np.random.default_rng(8)
        for _ in range(2000):
            D = 2.0 + 10.0 * rng.random()
            d = D / 2.0 * rng.random() or 0.1
            v = rng.random() * math.sqrt(d * D)
            assert m_total(D, d, v).r_V < d


class TestKappa:
    def test_linear_branch(self):
        assert m_total(4.0, 1.0, 0.5).kappa == pytest.approx(1.0, abs=0.0)

    def test_branch_continuity(self):
        v_star = 0.5 * math.sqrt(1.0 * (4.0 - 2.0))
        below = m_total(4.0, 1.0, v_star).kappa
        above = m_total(4.0, 1.0, v_star * (1.0 + 1e-13)).kappa
        assert below == pytest.approx(SQRT2, rel=1e-12)
        assert above == pytest.approx(below, rel=1e-10)

    def test_pole_at_region_edge(self):
        # The point lies in the boundary band, where m_total gives no kappa.
        point = (4.0, 1.0, math.sqrt(3.0) * (1.0 - 1e-12))
        assert m_total(*point).kappa is None
        assert _kappa(*unit_scaled(*point)) > 1e10


class TestM1:
    def test_inner_value(self):
        assert m_total(4.0, 1.0, 0.5).M1 == pytest.approx(SQRT2 - 1.0, rel=1e-14)

    def test_boundary_extension_is_one(self):
        assert m_total(4.0, 1.0, math.sqrt(3.0)).M1 == pytest.approx(1.0, rel=1e-14)

    def test_reduces_to_ratio_at_minimal_gap(self):
        assert m_total(2.0, 1.0, 0.7).M1 == pytest.approx(0.7, rel=1e-13)

    def test_agrees_with_trig_form(self):
        for D, d, v in omega1_points(500, seed=21):
            assert m_total(D, d, v).M1 == pytest.approx(m1_trig(D, d, v), rel=1e-12)

    def test_range(self):
        for D, d, v in omega1_points(500, seed=22):
            assert 0.0 <= m_total(D, d, v).M1 < 1.0


class TestM2:
    def test_boundary_is_one(self):
        assert m_total(4.0, 1.0, math.sqrt(3.0)).M2 == pytest.approx(1.0, rel=1e-14)

    def test_reduces_to_ratio_at_minimal_gap(self):
        assert m_total(2.0, 1.0, 1.2).M2 == pytest.approx(1.2, rel=1e-13)

    def test_supremum_approached(self):
        vals = [m_total(2.0, 1.0, SQRT2 * (1.0 - 10.0**-k)).M2 for k in range(4, 9)]
        assert all(1.0 <= v < SQRT2 for v in vals)
        assert vals == sorted(vals)
        assert vals[-1] > SQRT2 - 1e-3


class TestMTotal:
    def test_minimal_gap_equals_ratio(self):
        for v in (0.0, 0.3, 0.9999, 1.0, 1.2, 1.41):
            ev = m_total(2.0, 1.0, v)
            assert ev.M == pytest.approx(v, rel=1e-12, abs=1e-12)
            assert ev.projection_bound == pytest.approx(sin_arctan(v), rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("v", [0.0, -0.0])
    def test_zero_point(self, v):
        # Every computed field is +0.0, sign included; v echoes the caller's.
        ev = m_total(4.0, 1.0, v)
        assert ev.M2 is None
        for name in ("r_V", "kappa", "M1", "M", "projection_bound", "apriori_bound"):
            value = getattr(ev, name)
            assert value == 0.0 and math.copysign(1.0, value) == 1.0, name
        assert math.copysign(1.0, ev.v) == math.copysign(1.0, v)

    def test_outer_region_dispatch(self):
        ev = m_total(4.0, 1.0, 1.9)
        assert ev.region.name == "OMEGA2"
        assert ev.M2 is not None and ev.M == ev.M2
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

    @pytest.mark.parametrize(
        "point",
        [(4.0, 1.0, 0.1), (4.0, 1.0, 1.2), (4.0, 1.0, math.sqrt(3.0)), (4.0, 1.0, 1.9),
         (2.5, 1.0, 0.9), (2.0, 1.0, 1.2), (10.0, 3.0, 0.0)],
        ids=["omega1_0", "omega1_1", "boundary", "omega2", "omega1_1_narrow",
             "minimal_gap", "zero_coupling"],
    )
    def test_exact_at_every_binary_scale(self, point):
        # M is homogeneous of degree 0 and r_V of degree 1, and scaling by
        # 2^k is exact, so nothing may move but r_V, by exactly 2^k.
        ref = m_total(*point)
        for k in range(-1000, 1001, 50):
            ev = m_total(*(math.ldexp(x, k) for x in point))
            for name in ("region", "kappa", "M1", "M2", "M", "projection_bound",
                         "apriori_bound"):
                assert getattr(ev, name) == getattr(ref, name), (k, name)
            assert ev.r_V == math.ldexp(ref.r_V, k), k

    def test_domain_message_keeps_caller_scale(self):
        D, d, v = (math.ldexp(x, 600) for x in (4.0, 1.0, 2.5))
        with pytest.raises(DomainError, match=re.escape(f"({D}, {d}, {v}) is outside Omega")):
            m_total(D, d, v)
        gamma, a, b = (math.ldexp(x, 600) for x in (2.0, 1.0, 1.0))
        edges = f"[{math.ldexp(math.sqrt(3.0), 600)}, {math.ldexp(2.0, 600)})"
        with pytest.raises(DomainError, match=re.escape(f"b = {b} is outside {edges}")):
            phi_maximizer(gamma, a, b)

    def test_domain(self):
        with pytest.raises(DomainError):
            m_total(4.0, 1.0, 2.0)
        with pytest.raises(DomainError):
            m_total(4.0, 3.0, 0.1)

    def test_sign_errors(self):
        with pytest.raises(DomainError, match="^v must be non-negative$"):
            m_total(4.0, 1.0, -1.0)
        with pytest.raises(DomainError, match="^D must be positive$"):
            classify_region(-1.0, 1.0, 1.0)


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
        with pytest.raises(DomainError, match="^d must be positive, got 0$"):
            apriori_bound(0, 0)


class TestPhiMaximizer:
    def test_centered_case(self):
        z0, phi_max = phi_maximizer(1.0, 0.0, 1.2)
        assert z0 == 0.0
        assert phi_max == pytest.approx(1.44, rel=1e-14)
        assert phi_max == pytest.approx(m_total(2.0, 1.0, 1.2).M2 ** 2, rel=1e-12)

    def test_boundary_case(self):
        z0, phi_max = phi_maximizer(2.0, 1.0, math.sqrt(3.0))
        assert phi_max == pytest.approx(m_total(4.0, 1.0, math.sqrt(3.0)).M2 ** 2, rel=1e-12)
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
            assert phi_max == pytest.approx(m_total(2.0 * gamma, gamma - a, b).M2 ** 2, rel=1e-10)

    def test_domain(self):
        with pytest.raises(DomainError):
            phi_maximizer(2.0, 1.0, 1.0)  # below sqrt(gamma^2 - a^2)
        with pytest.raises(DomainError):
            phi_maximizer(2.0, 1.0, 2.0)  # at sqrt(2 gamma (gamma - a))

    @pytest.mark.parametrize(
        "point", [(1.0, 0.0, 1.2), (2.0, 1.0, math.sqrt(3.0)), (2.0, 1.0, 1.9), (1.5, 0.3, 1.5)],
        ids=["centered", "lower_edge", "outer", "off_center"],
    )
    def test_exact_at_every_binary_scale(self, point):
        # z0 is homogeneous of degree 1 and the maximum of degree 0, and
        # scaling by 2^k is exact: z0 moves by exactly 2^k, the maximum not.
        z0_ref, phi_ref = phi_maximizer(*point)
        for k in range(-1000, 1001, 50):
            z0, phi_max = phi_maximizer(*(math.ldexp(x, k) for x in point))
            assert (z0, phi_max) == (math.ldexp(z0_ref, k), phi_ref), k

    def test_maximizer_near_gamma_matches_mpmath(self):
        # gamma - z0 = 1e-8 is taken in product form, not by cancelling
        # z0 against gamma: z0 is mpmath's value rounded.
        pytest.importorskip("mpmath")
        import mp_reference

        point = (1.0, 0.99999998, 0.00019999999969756423)
        z0, _ = phi_maximizer(*point)
        assert z0 == float(mp_reference.outer(*point)[0]) == 0.999999990003997

    def test_maximizer_rounding_onto_gamma_raises(self):
        # a one ulp below gamma and b one ulp below b_hi, within the round-off
        # slack below the lower edge: the true z0 lies 1.8 ulps below gamma,
        # and the computed one rounds onto it.
        with pytest.raises(DomainError, match="escaped"):
            phi_maximizer(1.7, 1.6999999999999997, 2.7476383618393202e-08)

    @pytest.mark.parametrize("a", [1e-150, 1e-160, 1e-200, 1e-300])
    def test_tiny_a_keeps_full_precision(self, a):
        # At gamma = 1 and b = 1.2, z0 = a / 0.56 up to O(a^3); h = 0.28 / a,
        # whose square overflows below a of about 1e-154.
        z0, phi_max = phi_maximizer(1.0, a, 1.2)
        assert abs(z0 / a - 25.0 / 14.0) <= 1e-14
        assert abs(phi_max - phi_maximizer(1.0, 0.0, 1.2)[1]) <= 1e-15

    def test_smallest_subnormal_a_returns(self):
        z0, phi_max = phi_maximizer(1.0, 5e-324, 1.2)
        assert 0.0 <= z0 <= 1e-323
        assert phi_max == phi_maximizer(1.0, 0.0, 1.2)[1]

    def test_point_one_ulp_below_the_upper_edge_returns(self):
        # b one ulp below its upper edge sqrt(2 gamma (gamma - a)) at a small
        # a, where h^2 - gamma^2 would cancel to -1.5e-11: z0 and the
        # maximum lie between mpmath's values at b -+ 4 ulps (the upper one
        # past the edge, where mpmath gives the limits there).
        pytest.importorskip("mpmath")
        import mp_reference

        gamma, a, b = 1.88090991564738, 4.300600004236315e-05, 2.659977902302469
        z0, phi_max = phi_maximizer(gamma, a, b)
        z_lo, phi_lo, _ = mp_reference.outer(gamma, a, b - 4 * math.ulp(b))
        z_hi, phi_hi, _ = mp_reference.outer(gamma, a, b + 4 * math.ulp(b))
        assert z_lo <= z0 <= z_hi and phi_lo <= phi_max <= phi_hi


# Each public function at a point of its domain, so that only the
# non-finite slot can make it raise.
VALID_POINTS = [
    (classify_region, (4.0, 1.0, 0.5)),
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
