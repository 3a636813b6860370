import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tantheta import (
    BlockOperator,
    ConfigInvalid,
    DimensionMismatch,
    DispositionViolated,
    DomainError,
    Region,
    ResidualTooLarge,
    SymMatrix,
    block_operator_from_dict,
    block_operator_to_dict,
    classify_region,
    find_disposition,
    load_instance,
    make_block_operator,
    save_instance,
)
from tantheta.errors import TanThetaError
from tantheta.model import spectral_norm


class TestSymMatrix:
    def test_symmetrizes_roundoff(self):
        M = np.array([[1.0, 2.0], [2.0 + 1e-14, 3.0]])
        S = SymMatrix(M)
        assert np.array_equal(S.entries, S.entries.T)

    def test_rejects_large_asymmetry(self):
        with pytest.raises(DimensionMismatch):
            SymMatrix(np.array([[1.0, 2.0], [2.1, 3.0]]))

    def test_rejects_nonsquare_and_nonfinite(self):
        with pytest.raises(DimensionMismatch):
            SymMatrix(np.zeros((2, 3)))
        with pytest.raises(DimensionMismatch):
            SymMatrix(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    def test_symmetrizes_near_overflow(self):
        S = SymMatrix(np.diag([1e308, 1.7e308]))
        assert np.array_equal(S.eig.values, [1e308, 1.7e308])

    def test_overflowing_spectrum_raises(self):
        with pytest.raises(ResidualTooLarge):
            SymMatrix(np.full((2, 2), 1.7e308)).eig

    def test_immutable(self):
        S = SymMatrix(np.eye(2))
        with pytest.raises(ValueError):
            S.entries[0, 0] = 5.0


class TestMakeBlockOperator:
    def test_rank_one_family_shape(self):
        block = make_block_operator(
            np.array([[1.0]]), np.diag([-2.0, 2.0]), np.array([[0.0, 0.5]])
        )
        assert (block.dim0, block.dim1, block.n) == (1, 2, 3)
        L = block.assemble_perturbed()
        assert np.array_equal(L, L.T)
        assert L[0, 2] == 0.5

    def test_zero_perturbation_accepted(self):
        block = make_block_operator([[0.0]], [[1.0]], [[0.0]])
        assert block.v_norm == 0.0

    def test_shape_violation(self):
        with pytest.raises(DimensionMismatch):
            make_block_operator(np.eye(2), np.eye(2), np.zeros((2, 3)))


class TestClassifyRegion:
    def test_inner_region(self):
        assert classify_region(4, 1, 0.5) is Region.OMEGA1_0

    def test_boundary(self):
        assert classify_region(4, 1, math.sqrt(3)) is Region.BOUNDARY_OMEGA12

    def test_outside(self):
        assert classify_region(2, 1, 1.5) is Region.OUTSIDE_OMEGA

    def test_intermediate_and_outer(self):
        assert classify_region(4, 1, 1.0) is Region.OMEGA1_1
        assert classify_region(4, 1, 1.9) is Region.OMEGA2

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("slot", [0, 1, 2])
    def test_non_finite_point_raises(self, slot, bad):
        point = [4.0, 1.0, 0.5]
        point[slot] = bad
        with pytest.raises(DomainError, match="finite"):
            classify_region(*point)

    @given(
        st.floats(min_value=0.1, max_value=100.0),
        st.floats(min_value=0.01, max_value=0.5),
        st.floats(min_value=0.0, max_value=1.5),
    )
    @settings(max_examples=300, derandomize=True, database=None)
    def test_partition_is_total(self, D, d_frac, v_frac):
        d = d_frac * D
        v = v_frac * math.sqrt(d * D)
        region = classify_region(D, d, v)
        assert region in Region

    @given(
        st.floats(min_value=0.1, max_value=50.0),
        st.floats(min_value=0.01, max_value=0.5),
        st.lists(st.floats(min_value=0.0, max_value=1.3), min_size=2, max_size=8),
    )
    @settings(max_examples=200, derandomize=True, database=None)
    def test_monotone_in_v(self, D, d_frac, v_fracs):
        d = d_frac * D
        labels = [
            classify_region(D, d, f * math.sqrt(d * D)).value
            for f in sorted(v_fracs)
        ]
        assert labels == sorted(labels)


def disposition_of(s0, s1):
    """The disposition of the unperturbed block operator with A0 = diag(s0)
    and A1 = diag(s1)."""
    return find_disposition(
        make_block_operator(np.diag(s0), np.diag(s1), np.zeros((len(s0), len(s1))))
    )


class TestDisposition:
    @given(
        st.lists(st.floats(min_value=-0.9, max_value=0.9), min_size=1, max_size=6),
        st.lists(
            st.floats(min_value=1.0, max_value=3.0), min_size=2, max_size=6
        ),
    )
    @settings(max_examples=200, derandomize=True, database=None)
    def test_round_trip_against_brute_force(self, s0, s1_mag):
        # sigma1 gets one point on each side of the gap
        s1 = [s1_mag[0]] + [-x for x in s1_mag[1:]] + [-1.0, 1.0]
        disp = disposition_of(s0, s1)
        brute_d = min(abs(x - y) for x in s0 for y in s1)
        assert disp.d == pytest.approx(brute_d, abs=0.0)
        assert disp.D == disp.gamma_r - disp.gamma_l

    def test_straddle_rejected(self):
        with pytest.raises(DispositionViolated):
            disposition_of([0.0, 3.0], [-1.0, 1.0])

    def test_touching_rejected(self):
        with pytest.raises(DispositionViolated):
            disposition_of([1.0], [-1.0, 1.0])

    @pytest.mark.parametrize(
        "s0, s1",
        [
            ([0.0, 0.5], [1.0, 2.0]),  # sigma0 below all of sigma1
            ([0.0, 0.5], [-2.0, -1.0]),  # sigma0 above all of sigma1
            ([0.0, 0.5], [-1.0, 0.0, 1.0]),  # a sigma1 value equal to min sigma0
            ([0.0, 0.5], [-1.0, 0.5, 1.0]),  # a sigma1 value equal to max sigma0
            ([0.0, 0.5], [-1.0, 0.25, 1.0]),  # a sigma1 value inside the hull
        ],
    )
    def test_gap_search_rejects(self, s0, s1):
        with pytest.raises(
            DispositionViolated, match="sigma0 must lie strictly inside a finite gap of sigma1"
        ):
            disposition_of(s0, s1)

    def test_repeated_edge_values(self):
        disp = disposition_of([0.0, 0.5], [2.0, -1.0, 2.0, -1.0, -3.0, 2.0])
        assert (disp.gamma_l, disp.gamma_r, disp.d, disp.D) == (-1.0, 2.0, 1.0, 3.0)

    def test_single_sigma0_value(self):
        disp = disposition_of([0.25], [-1.0, 3.0, -2.0])
        assert (disp.gamma_l, disp.gamma_r, disp.d, disp.D) == (-1.0, 3.0, 1.25, 4.0)


class TestInstanceIO:
    def test_round_trip(self, tmp_path):
        block = make_block_operator(
            np.array([[1.0]]), np.diag([-2.0, 2.0]), np.array([[0.0, 0.5]])
        )
        path = tmp_path / "instance.json"
        save_instance(block, path)
        loaded = load_instance(path)
        assert np.array_equal(loaded.B, block.B)
        assert np.array_equal(loaded.A1.entries, block.A1.entries)

    def test_rejects_nan(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"dim0": 1, "dim1": 2, "A0": [[NaN]], "A1": [[-2,0],[0,2]], "B": [[0,0.5]]}')
        with pytest.raises(ConfigInvalid):
            load_instance(path)

    def test_rejects_dim_mismatch(self):
        data = {"dim0": 2, "dim1": 2, "A0": [[1.0]], "A1": [[-2, 0], [0, 2]], "B": [[0, 0.5]]}
        with pytest.raises(DimensionMismatch):
            block_operator_from_dict(data)

    def test_dict_round_trip(self):
        block = make_block_operator(np.eye(2), np.diag([-3.0, 3.0]), np.ones((2, 2)))
        again = block_operator_from_dict(json.loads(json.dumps(block_operator_to_dict(block))))
        assert np.array_equal(again.B, block.B)


class TestSpectralNorm:
    @pytest.mark.parametrize(
        "shape, scale",
        [
            ((9, 4), 1.0),  # tall
            ((4, 9), 1.0),  # wide
            ((1, 7), 1.0),
            ((7, 1), 1.0),
            ((1, 1), 1.0),
            ((30, 50), 1.0),
            ((6, 5), 1e-300),
            ((5, 6), 1e300),
        ],
    )
    def test_matches_svd_norm(self, shape, scale):
        rng = np.random.default_rng(sum(shape))
        for _ in range(5):
            M = rng.standard_normal(shape) * scale
            expected = np.linalg.norm(M, 2)
            assert spectral_norm(M) == pytest.approx(expected, rel=1e-14, abs=0.0)

    def test_rank_one_and_clustered(self):
        u, v = np.arange(1.0, 6.0), np.linspace(-1.0, 2.0, 8)
        assert spectral_norm(np.outer(u, v)) == pytest.approx(
            np.linalg.norm(u) * np.linalg.norm(v), rel=1e-14
        )
        Q, _ = np.linalg.qr(np.random.default_rng(1).standard_normal((8, 8)))
        assert spectral_norm(3.0 * Q[:, :5]) == pytest.approx(3.0, rel=1e-14)

    def test_zero_and_empty(self):
        assert spectral_norm(np.zeros((4, 3))) == 0.0
        assert spectral_norm(np.zeros((0, 3))) == 0.0

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_raises_typed_error(self, bad):
        M = np.ones((3, 4))
        M[1, 2] = bad
        with pytest.raises(TanThetaError):
            spectral_norm(M)
        with pytest.raises(DimensionMismatch):
            spectral_norm(M.T)
