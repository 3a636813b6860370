import math

import numpy as np
import pytest

from tantheta import (
    DomainError,
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
    projection_distance,
    riccati_residual,
    unperturbed_projector,
)


def measured_distance(block):
    disp = find_disposition(block)
    part = perturbed_partition(block, disp)
    return projection_distance(part.P0, unperturbed_projector(block))


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
