import math

import numpy as np
import pytest

from tantheta import (
    DomainError,
    Verification,
    rank_one_build,
    rank_one_inner_expected,
    rank_one_outer_params,
    extract_angular_operator,
    find_disposition,
    m_total,
    circulant_build,
    circulant_case_params,
    circulant_kappa_matrix,
    circulant_kappas,
    perturbed_partition,
    phi_maximizer,
    projection_distance,
    riccati_residual,
)
from tantheta.cli import main
from tantheta.errors import TanThetaError


def measured_distance(block):
    disp = find_disposition(block)
    part = perturbed_partition(block, disp)
    return projection_distance(block, part)


class TestRankOneBuild:
    def test_shapes_and_gap(self):
        block = rank_one_build(2.0, 1.0, 0.0, 0.5)
        assert block.n == 3
        disp = find_disposition(block)
        assert disp.d == pytest.approx(1.0)
        assert disp.D == pytest.approx(4.0)
        assert block.v_norm == pytest.approx(0.5)

    def test_rejects_bad_params(self):
        with pytest.raises(DomainError):
            rank_one_build(1.0, 1.5, 0.0, 0.5)
        with pytest.raises(DomainError):
            rank_one_build(1.0, 0.5, -0.1, 0.5)


class TestRankOneInner:
    def test_frozen_value(self):
        assert rank_one_inner_expected(1.0, 0.5) == pytest.approx(
            0.38268343236508984, abs=1e-15
        )

    def test_matches_measurement(self):
        block = rank_one_build(2.0, 1.0, 0.0, 0.5)
        dist = measured_distance(block)
        assert dist == pytest.approx(rank_one_inner_expected(1.0, 0.5), abs=1e-12)

    def test_attains_inner_bound(self):
        gamma, a = 2.0, 1.0
        d, D = gamma - a, 2.0 * gamma
        # the b1 = 0 configuration is sharp on the inner subregion only
        for v in np.linspace(0.02, 0.98 * 0.5 * math.sqrt(d * (D - 2.0 * d)), 40):
            block = rank_one_build(gamma, a, 0.0, float(v))
            ev = m_total(D, d, float(v))
            assert measured_distance(block) == pytest.approx(
                ev.projection_bound, rel=1e-9
            )

    def test_domain(self):
        with pytest.raises(DomainError):
            rank_one_inner_expected(0.0, 0.5)


class TestRankOneOuter:
    def test_centered_weights(self):
        z0, t, b1, b2 = rank_one_outer_params(1.0, 0.0, 1.2)
        assert z0 == 0.0
        assert t == pytest.approx(0.5, rel=1e-14)
        assert b1 == pytest.approx(b2, rel=1e-14)
        assert math.hypot(b1, b2) == pytest.approx(1.2, rel=1e-14)

    def test_in_gap_eigenvalue_is_z0(self):
        for gamma, a, b in ((2.0, 1.0, 1.8), (1.0, 0.3, 1.05), (3.0, 0.5, 3.1)):
            z0, _, b1, b2 = rank_one_outer_params(gamma, a, b)
            block = rank_one_build(gamma, a, b1, b2)
            part = perturbed_partition(block, find_disposition(block))
            assert len(part.omega0) == 1
            assert part.omega0[0] == pytest.approx(z0, abs=1e-8)

    def test_frozen_distance(self):
        _, _, b1, b2 = rank_one_outer_params(1.0, 0.0, 1.2)
        block = rank_one_build(1.0, 0.0, b1, b2)
        assert measured_distance(block) == pytest.approx(
            0.7682212795973764, abs=1e-12
        )

    def test_attains_outer_bound(self):
        gamma, a = 2.0, 1.0
        d, D = gamma - a, 2.0 * gamma
        lo, hi = math.sqrt(gamma**2 - a**2), math.sqrt(2.0 * gamma * (gamma - a))
        for v in np.linspace(lo, hi, 40, endpoint=False):
            _, _, b1, b2 = rank_one_outer_params(gamma, a, float(v))
            block = rank_one_build(gamma, a, b1, b2)
            ev = m_total(D, d, float(v))
            assert measured_distance(block) == pytest.approx(
                ev.projection_bound, rel=1e-9
            )

    def test_domain(self):
        with pytest.raises(DomainError):
            rank_one_outer_params(2.0, 1.0, 1.0)
        with pytest.raises(DomainError):
            rank_one_outer_params(2.0, 1.0, 2.0)

    def test_point_below_the_product_form_edge_is_outside(self):
        # a two ulps below gamma: b lies below the lower edge
        # sqrt((gamma - a)(gamma + a)) = 2.68e-8, which gamma^2 - a^2 taken
        # by subtraction cancels into accepting, with a weight t near 1.6.
        with pytest.raises(DomainError, match="is outside"):
            rank_one_outer_params(1.6190777453040845, 1.6190777453040843, 2.1073424255446997e-08)


# (a, b) / gamma in the outer region [sqrt(1 - 0.25^2), sqrt(1.5)), scaled by
# gamma = 2^k: every product with gamma is exact.
OUTER_AT_SCALE = (0.25, 1.1)


class TestRankOneOuterAtScale:
    @pytest.mark.parametrize("k", [-500, -300, 0, 20, 400])
    def test_params_are_exact_at_every_binary_scale(self, k):
        gamma = math.ldexp(1.0, k)
        a, b = (x * gamma for x in OUTER_AT_SCALE)
        z0, t, b1, b2 = rank_one_outer_params(gamma, a, b)
        reference = rank_one_outer_params(1.0, *OUTER_AT_SCALE)
        assert (z0 / gamma, t, b1 / gamma, b2 / gamma) == reference

    @pytest.mark.parametrize("k", [-500, -300, 0, 20, 400])
    def test_example_gives_a_verdict_or_a_typed_error(self, k, capsys):
        # Below about 2^-100 the pipeline loses the in-gap eigenvalue
        # (GapEmptyOrRankMismatch), but nothing raises an untyped error.
        gamma = math.ldexp(1.0, k)
        a, b = (x * gamma for x in OUTER_AT_SCALE)
        try:
            Verification(rank_one_build(gamma, a, *rank_one_outer_params(gamma, a, b)[2:]))
        except TanThetaError:
            pass
        argv = ["example", "rank1-outer", "--gamma", repr(gamma), "--a", repr(a), "--b", repr(b)]
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 0 or (code == 2 and err.startswith("error: ")), (code, err)


# The closed forms at (1, 0.5) (rank one, inner) and (2, 1, 0.3, 0.4) and
# (2, 1, 1) (circulant), scaled by 2^k. Taken at the caller's scale they
# break where a product such as d^2 or gamma^2 b^2 leaves the float range,
# for the inner distance and the kappas only beyond about 2^+-511: so the
# exactness test adds k = +-1000 to the five scales.
SCALES = [-500, -300, 0, 20, 400]
EXACT_SCALES = [-1000] + SCALES + [1000]


class TestClosedFormsAtScale:
    @pytest.mark.parametrize("k", EXACT_SCALES)
    def test_inner_distance_is_exact_at_every_binary_scale(self, k):
        d, v = math.ldexp(1.0, k), math.ldexp(0.5, k)
        assert rank_one_inner_expected(d, v) == rank_one_inner_expected(1.0, 0.5)

    @pytest.mark.parametrize("k", EXACT_SCALES)
    def test_kappas_are_exact_at_every_binary_scale(self, k):
        point = (2.0, 1.0, 0.3, 0.4)
        kappas = circulant_kappas(*(math.ldexp(x, k) for x in point))
        assert kappas == circulant_kappas(*point)

    @pytest.mark.parametrize("k", EXACT_SCALES)
    def test_case_params_are_exact_at_every_binary_scale(self, k):
        gamma, a, b = (math.ldexp(x, k) for x in (2.0, 1.0, 1.0))
        beta, b1, b2 = circulant_case_params(gamma, a, b)
        reference = circulant_case_params(2.0, 1.0, 1.0)
        assert tuple(math.ldexp(x, -k) for x in (beta, b1, b2)) == reference

    @pytest.mark.parametrize(
        "fn, point, name",
        [
            (phi_maximizer, (1e-300, 0.0, 1e308), "b"),
            (rank_one_outer_params, (1e-310, 0.0, 1.0), "b"),
            (circulant_case_params, (1e-300, 0.0, 1e308), "b"),
            (circulant_kappas, (1e-300, 0.0, 1e308, 0.0), "b1"),
            (m_total, (1e-300, 1e-301, 1e300), "v"),
        ],
    )
    def test_coupling_that_overflows_at_unit_scale_is_named(self, fn, point, name):
        with pytest.raises(DomainError, match=f"^{name} = .* overflows"):
            fn(*point)

    @pytest.mark.parametrize("point", [(1e-300, 1e7), (2.2e-308, 1.0), (1e-300, 1e300)])
    def test_inner_distance_at_the_degree_0_limit(self, point):
        # v / d past the float range: scaled by the larger coordinate, d
        # vanishes against v and the distance is sin(arctan 1).
        assert rank_one_inner_expected(*point) == 0.7071067811865475

    @pytest.mark.parametrize(
        "point",
        [
            (1.7e308, 2.1642438295532542e-233, 0.22119306071466038),
            (1e160, 5e-324, 3.9615939921911e-154),
            (118606286841047.72, 5.2263845577e-313, 2.2e-308),
        ],
    )
    def test_circulant_b_below_the_edge_where_a_underflows_at_unit_scale(self, point):
        # a underflows to 0 at the scale that puts gamma in [1, 2), so a lower
        # edge taken there reads 0; these points returned (inf, inf, -inf).
        with pytest.raises(DomainError, match=r"^b = .* is outside \("):
            circulant_case_params(*point)

    def test_circulant_b_that_underflows_at_unit_scale_is_named(self, capsys):
        # b = 1e-5 lies in (2.1e-8, 1.7e308), but underflows to 0 at the
        # scale of gamma, where beta would divide by it.
        with pytest.raises(DomainError, match="^b = 1e-05 underflows"):
            circulant_case_params(1.7e308, 5e-324, 1e-5)
        argv = ["example", "circulant", "--gamma", "1.7e308", "--a", "2.1642438295532542e-233",
                "--b", "0.22119306071466038"]
        assert main(argv) == 2
        assert "is outside" in capsys.readouterr().err

    def test_circulant_weight_that_rounds_to_0_is_refused(self):
        # With a = 0, beta = 0 and b1 = b2 = b / 2, which rounds the smallest
        # subnormal to 0: the example would measure an uncoupled block.
        with pytest.raises(DomainError, match=r"^b = 5e-324 leaves a weight"):
            circulant_case_params(1e-300, 0.0, 5e-324)

    def test_overflowing_outer_example_exits_2(self, capsys):
        argv = ["example", "rank1-outer", "--gamma", "1e-310", "--a", "0", "--b", "1"]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: b = 1.0 overflows")

    @pytest.mark.parametrize("k", SCALES)
    @pytest.mark.parametrize(
        "family, point", [("rank1-inner", (2.0, 1.0, 0.5)), ("circulant", (2.0, 1.0, 1.0))]
    )
    def test_example_gives_a_verdict_or_a_typed_error(self, family, point, k, capsys):
        gamma, a, b = (repr(math.ldexp(x, k)) for x in point)
        code = main(["example", family, "--gamma", gamma, "--a", a, "--b", b])
        err = capsys.readouterr().err
        assert code == 0 or (code == 2 and err.startswith("error: ")), (code, err)


class TestCirculant:
    def test_coupling_norm_is_entry_sum(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            b1, b2 = rng.random(2) * 0.5
            block = circulant_build(2.0, 1.0, b1, b2)
            assert block.v_norm == pytest.approx(b1 + b2, rel=1e-13)

    def test_explicit_solution_solves_riccati(self):
        for gamma, a, b1, b2 in (
            (2.0, 1.0, 0.3, 0.4),
            (1.0, 0.0, 0.5, 0.1),
            (5.0, 4.0, 0.0, 0.9),
        ):
            block = circulant_build(gamma, a, b1, b2)
            X = circulant_kappa_matrix(gamma, a, b1, b2)
            scale = 1.0 + gamma + b1 + b2
            assert riccati_residual(X, block) <= 1e-10 * scale

    def test_extracted_norm_is_kappa_sum(self):
        gamma, a, b1, b2 = 2.0, 1.0, 0.3, 0.4
        block = circulant_build(gamma, a, b1, b2)
        ang = extract_angular_operator(
            perturbed_partition(block, find_disposition(block)), block
        )
        k1, k2 = circulant_kappas(gamma, a, b1, b2)
        assert ang.norm == pytest.approx(k1 + k2, abs=1e-12)
        assert np.linalg.norm(
            circulant_kappa_matrix(gamma, a, b1, b2), 2
        ) == pytest.approx(k1 + k2, rel=1e-14)

    def test_case_params_frozen(self):
        beta, b1, b2 = circulant_case_params(2.0, 1.0, 1.0)
        assert beta == pytest.approx(0.4494897427831779, rel=1e-14)
        assert b1 == pytest.approx(0.7247448713915889, rel=1e-14)
        assert b1 + b2 == pytest.approx(1.0, rel=1e-14)
        assert b2 > 0.0

    def test_attains_intermediate_bound(self):
        gamma, a = 2.0, 1.0
        d, D = gamma - a, 2.0 * gamma
        lo = 0.5 * math.sqrt(2.0 * (gamma - a) * a)
        hi = math.sqrt(gamma**2 - a**2)
        pad = 1e-3 * (hi - lo)
        for v in np.linspace(lo + pad, hi - pad, 40):
            _, b1, b2 = circulant_case_params(gamma, a, float(v))
            block = circulant_build(gamma, a, b1, b2)
            ev = m_total(D, d, float(v))
            assert measured_distance(block) == pytest.approx(
                ev.projection_bound, rel=1e-9
            )

    def test_domain(self):
        with pytest.raises(DomainError):
            circulant_kappas(2.0, 1.0, 1.0, 1.0)
        with pytest.raises(DomainError):
            circulant_case_params(2.0, 1.0, 0.5)
        with pytest.raises(DomainError):
            circulant_case_params(2.0, 1.0, 1.8)


# Each closed form at a point of its domain, so that only the non-finite
# slot can make it raise.
CLOSED_FORMS = [
    (rank_one_inner_expected, (1.0, 0.5)),
    (circulant_kappas, (2.0, 1.0, 0.3, 0.5)),
]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize(
    "fn, slot, point",
    [
        pytest.param(fn, slot, point, id=f"{fn.__name__}-{slot}")
        for fn, point in CLOSED_FORMS
        for slot in range(len(point))
    ],
)
def test_non_finite_argument_raises(fn, slot, point, bad):
    fn(*point)
    args = list(point)
    args[slot] = bad
    with pytest.raises(DomainError, match="must be finite"):
        fn(*args)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("slot", [0, 1, 2], ids=["gamma", "a", "b"])
@pytest.mark.parametrize("fn", [phi_maximizer, rank_one_outer_params])
def test_non_finite_outer_argument_raises(fn, slot, bad):
    # A non-finite slot fails the maximizer's gap check or the finiteness
    # check of its unit scaling.
    point = [2.0, 1.0, 1.9]
    fn(*point)
    point[slot] = bad
    with pytest.raises(DomainError):
        fn(*point)


# v = k sqrt(2) / 40, k = 1..39: the a priori domain 0 < v < sqrt(2) d at d = 1.
HEADLINE_V = [k * math.sqrt(2.0) / 40.0 for k in range(1, 40)]


class TestHeadline:
    """The paper's headline estimate ||E_A(sigma0) - E_L(omega0)|| <=
    sin(arctan(||V|| / d)) is the bound at D = 2d, and the a = 0 witnesses
    attain it there."""

    @pytest.mark.parametrize("v", HEADLINE_V)
    def test_apriori_estimate_is_the_bound_at_D_2d(self, v):
        ev = m_total(2.0, 1.0, v)
        assert abs(ev.apriori_bound - ev.projection_bound) <= 2 * math.ulp(ev.projection_bound)

    @pytest.mark.parametrize("v", HEADLINE_V)
    def test_a0_witnesses_attain_the_headline(self, v):
        # circulant below v = d, outer rank-one from v = d up to sqrt(2) d
        if v < 1.0:
            _, b1, b2 = circulant_case_params(1.0, 0.0, v)
            block = circulant_build(1.0, 0.0, b1, b2)
        else:
            _, _, b1, b2 = rank_one_outer_params(1.0, 0.0, v)
            block = rank_one_build(1.0, 0.0, b1, b2)
        ver = Verification(block)
        assert (ver.disposition.D, ver.disposition.d) == (2.0, 1.0)
        assert abs(ver.bound.projection_bound - ver.distance) <= 1e-15
        assert abs(ver.bound.apriori_bound - ver.distance) <= 1e-15
