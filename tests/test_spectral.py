
import numpy as np
import pytest

from tantheta import (
    DispositionViolated,
    ResidualTooLarge,
    EigenvalueOnBoundary,
    GapEmptyOrRankMismatch,
    NotAProjector,
    SymMatrix,
    find_disposition,
    make_block_operator,
    perturbed_partition,
    projection_distance,
    r_v,
    spectral_projection,
    sym_eig,
    unperturbed_projector,
)
from tantheta.families import rank_one_build, rank_one_outer_params


def brute_projector(M, lo, hi):
    """Independent oracle: spectral projector from numpy's eigendecomposition."""
    w, V = np.linalg.eigh(M)
    mask = (w > lo) & (w < hi)
    return V[:, mask] @ V[:, mask].T


class TestSymEig:
    def test_diagonal_permutation(self):
        es = sym_eig(SymMatrix(np.diag([3.0, 1.0, 2.0])))
        assert np.allclose(es.values, [1.0, 2.0, 3.0])
        assert np.allclose(np.abs(es.vectors), np.eye(3)[:, [1, 2, 0]])

    def test_symmetry_forced_pair(self):
        es = sym_eig(SymMatrix(np.array([[0.0, 1.0], [1.0, 0.0]])))
        assert np.allclose(es.values, [-1.0, 1.0])

    def test_residual_contract_random(self):
        rng = np.random.default_rng(3)
        M = rng.standard_normal((8, 8))
        S = SymMatrix((M + M.T) / 2)
        es = sym_eig(S)
        assert es.residual <= 1e-10 * (1.0 + S.norm)
        assert np.max(np.abs(es.vectors.T @ es.vectors - np.eye(8))) <= 1e-10

    def test_residual_contract_enforced(self, monkeypatch):
        eigh = np.linalg.eigh

        def perturbed(M):
            w, V = eigh(M)
            return w, V + 1e-6

        monkeypatch.setattr(np.linalg, "eigh", perturbed)
        with pytest.raises(ResidualTooLarge):
            sym_eig(SymMatrix(np.diag([3.0, 1.0, 2.0])))


class TestSpectralProjection:
    def test_diagonal_case(self):
        es = sym_eig(SymMatrix(np.diag([-2.0, 0.0, 2.0])))
        P = spectral_projection(es, -1.0, 1.0)
        assert np.allclose(P.entries, np.diag([0.0, 1.0, 0.0]))

    def test_full_spectrum_gives_identity(self):
        es = sym_eig(SymMatrix(np.diag([-2.0, 0.0, 2.0])))
        P = spectral_projection(es, -10.0, 10.0)
        assert np.allclose(P.entries, np.eye(3))

    def test_eigenvalue_on_endpoint(self):
        es = sym_eig(SymMatrix(np.diag([-2.0, 0.0, 2.0])))
        with pytest.raises(EigenvalueOnBoundary):
            spectral_projection(es, 0.999999999 * 2.0, 10.0)


class TestFindDisposition:
    def test_symmetric_toy(self):
        block = make_block_operator(np.diag([-1.0, 1.0]), np.diag([-2.0, 2.0]), np.zeros((2, 2)))
        disp = find_disposition(block)
        assert (disp.gamma_l, disp.gamma_r, disp.d, disp.D) == (-2.0, 2.0, 1.0, 4.0)

    def test_rank_one_instance(self):
        disp = find_disposition(rank_one_build(2.0, 1.0, 0.0, 0.5))
        assert disp.sigma0 == (1.0,)
        assert disp.sigma1 == (-2.0, 2.0)
        assert (disp.d, disp.D) == (1.0, 4.0)

    def test_straddling_rejected(self):
        block = make_block_operator(np.diag([0.0, 3.0]), np.diag([-1.0, 1.0]), np.zeros((2, 2)))
        with pytest.raises(DispositionViolated):
            find_disposition(block)


class TestPerturbedPartition:
    def test_unperturbed(self):
        block = make_block_operator(np.diag([-1.0, 1.0]), np.diag([-2.0, 2.0]), np.zeros((2, 2)))
        part = perturbed_partition(block, find_disposition(block))
        assert part.omega0 == pytest.approx((-1.0, 1.0), abs=1e-12)
        assert np.allclose(part.P0.entries, np.diag([1.0, 1.0, 0.0, 0.0]), atol=1e-10)

    def test_rank_one_outer_single_midgap_eigenvalue(self):
        # a = 0 configuration keeps the in-gap eigenvalue pinned at zero
        _, _, b1, b2 = rank_one_outer_params(1.0, 0.0, 1.2)
        assert b1 == pytest.approx(b2)
        block = rank_one_build(1.0, 0.0, b1, b2)
        part = perturbed_partition(block, find_disposition(block))
        assert part.omega0 == pytest.approx((0.0,), abs=1e-12)

    def test_ingap_count_and_shift_bound(self):
        block = rank_one_build(2.0, 1.0, 0.0, 0.5)
        disp = find_disposition(block)
        part = perturbed_partition(block, disp)
        assert len(part.omega0) == 1
        rv = r_v(disp.D, disp.d, block.v_norm)
        assert min(part.omega0) >= disp.gamma_l + disp.d - rv - 1e-8
        assert max(part.omega0) <= disp.gamma_r - disp.d + rv + 1e-8

    def test_norm_precondition_enforced_and_overridable(self):
        block = rank_one_build(2.0, 1.0, 0.0, 2.5)  # v = 2.5 >= sqrt(d D) = 2
        disp = find_disposition(block)
        with pytest.raises(GapEmptyOrRankMismatch):
            perturbed_partition(block, disp)
        # override: this instance still keeps one eigenvalue in the gap
        part = perturbed_partition(block, disp, force=True)
        assert len(part.omega0) == 1

    def test_forced_run_reports_rank_mismatch(self):
        block = rank_one_build(2.0, 1.0, 0.0, 5.0)  # coupling expels the gap eigenvalue
        disp = find_disposition(block)
        with pytest.raises(GapEmptyOrRankMismatch):
            perturbed_partition(block, disp, force=True)

    def test_gap_survives_below_sqrt2d(self):
        # v/d = 1.3 < sqrt(2) at D = 2d: gap keeps exactly dim0 eigenvalues
        _, _, b1, b2 = rank_one_outer_params(1.0, 0.0, 1.3)
        block = rank_one_build(1.0, 0.0, b1, b2)
        part = perturbed_partition(block, find_disposition(block))
        assert len(part.omega0) == 1


class TestProjectionDistance:
    def test_identical(self):
        P = SymMatrix(np.diag([1.0, 0.0]))
        assert projection_distance(P, P) == 0.0

    def test_orthogonal_rank_one(self):
        assert projection_distance(
            SymMatrix(np.diag([1.0, 0.0])), SymMatrix(np.diag([0.0, 1.0]))
        ) == pytest.approx(1.0)

    def test_rank_one_value_against_brute_force(self):
        block = rank_one_build(2.0, 1.0, 0.0, 0.5)
        part = perturbed_partition(block, find_disposition(block))
        d = projection_distance(unperturbed_projector(block), part.P0)
        # independent oracle: dense 3x3 eigendecomposition
        Q = brute_projector(block.assemble_perturbed(), -2.0, 2.0)
        oracle = np.abs(np.linalg.eigvalsh(np.diag([1.0, 0.0, 0.0]) - Q)).max()
        assert d == pytest.approx(oracle, abs=1e-14)
        assert d == pytest.approx(0.38268343236508984, abs=1e-12)

    def test_rejects_non_projector(self):
        with pytest.raises(NotAProjector):
            projection_distance(SymMatrix(np.diag([0.5, 0.0])), SymMatrix(np.eye(2)))

    def test_metric_properties_on_random_projectors(self):
        rng = np.random.default_rng(11)
        projectors = []
        for _ in range(6):
            Q, _ = np.linalg.qr(rng.standard_normal((5, 5)))
            k = rng.integers(1, 4)
            projectors.append(SymMatrix(Q[:, :k] @ Q[:, :k].T))
        for P in projectors:
            for Q in projectors:
                dPQ = projection_distance(P, Q)
                assert dPQ == pytest.approx(projection_distance(Q, P), abs=1e-10)
                for R in projectors:
                    assert dPQ <= projection_distance(P, R) + projection_distance(R, Q) + 1e-10
