
import numpy as np
import pytest

from tantheta import (
    DispositionViolated,
    GenConfig,
    Verification,
    generate_instance,
    ResidualTooLarge,
    EigenvalueOnBoundary,
    GapEmptyOrRankMismatch,
    GraphExtractionFailed,
    NotAProjector,
    SymMatrix,
    extract_angular_operator,
    find_disposition,
    make_block_operator,
    perturbed_partition,
    projection_distance,
    r_v,
    trial_seed,
    unperturbed_projector,
)
from tantheta.model import SpectralDisposition
from tantheta.spectral import RangeProjector, SpectrumPartition
from tantheta.families import rank_one_build, rank_one_outer_params

from oracles import dense_projection_distance, dense_projector


def brute_projector(M, lo, hi):
    """Independent oracle: spectral projector from numpy's eigendecomposition."""
    w, V = np.linalg.eigh(M)
    mask = (w > lo) & (w < hi)
    return V[:, mask] @ V[:, mask].T


class TestSymEig:
    def test_diagonal_permutation(self):
        es = SymMatrix(np.diag([3.0, 1.0, 2.0])).eig
        assert np.allclose(es.values, [1.0, 2.0, 3.0])
        assert np.allclose(np.abs(es.vectors), np.eye(3)[:, [1, 2, 0]])

    def test_symmetry_forced_pair(self):
        es = SymMatrix(np.array([[0.0, 1.0], [1.0, 0.0]])).eig
        assert np.allclose(es.values, [-1.0, 1.0])

    def test_residual_contract_random(self):
        rng = np.random.default_rng(3)
        M = rng.standard_normal((8, 8))
        S = SymMatrix((M + M.T) / 2)
        es = S.eig
        assert es.residual <= 1e-10 * (1.0 + S.norm)
        assert np.max(np.abs(es.vectors.T @ es.vectors - np.eye(8))) <= 1e-10

    def test_decomposes_once(self):
        S = SymMatrix(np.diag([3.0, 1.0, 2.0]))
        assert S.eig is S.eig
        assert S.norm == 3.0

    def test_residual_contract_enforced(self, monkeypatch):
        eigh = np.linalg.eigh

        def perturbed(M):
            w, V = eigh(M)
            return w, V + 1e-6

        monkeypatch.setattr(np.linalg, "eigh", perturbed)
        with pytest.raises(ResidualTooLarge):
            SymMatrix(np.diag([3.0, 1.0, 2.0])).eig


class TestFindDisposition:
    def test_symmetric_toy(self):
        block = make_block_operator(np.diag([-1.0, 1.0]), np.diag([-2.0, 2.0]), np.zeros((2, 2)))
        disp = find_disposition(block)
        assert (disp.gamma_l, disp.gamma_r, disp.d, disp.D) == (-2.0, 2.0, 1.0, 4.0)

    def test_rank_one_instance(self):
        block = rank_one_build(2.0, 1.0, 0.0, 0.5)
        disp = find_disposition(block)
        assert block.A0.eig.values.tolist() == [1.0]
        assert block.A1.eig.values.tolist() == [-2.0, 2.0]
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
        assert np.allclose(dense_projector(part.P0), np.diag([1.0, 1.0, 0.0, 0.0]), atol=1e-10)

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

    def test_shift_inclusion_on_campaign_geometries(self):
        # omega0 lies in [gamma_l + d - r_V, gamma_r - d + r_V] on the four
        # acceptance geometries and conjugated 6 x 3, 42 repeats x 6 ratios.
        geometries = [
            (2.0, 2, 3, False), (2.5, 4, 6, True), (4.0, 8, 12, False),
            (10.0, 3, 5, True), (4.0, 6, 3, True),
        ]
        count = 0
        for g, (D, dim0, dim1, conj) in enumerate(geometries):
            for index in range(42 * 6):
                cfg = GenConfig(dim0=dim0, dim1=dim1, D=D, d=1.0,
                                ratio=(0.2, 0.5, 0.8, 1.0, 1.2, 1.35)[index % 6],
                                conjugate=conj, seed=trial_seed(1000 + g, index))
                ver = Verification(generate_instance(cfg)[0])
                disp, omega0 = ver.disposition, ver.partition.omega0
                rv = r_v(disp.D, disp.d, ver.block.v_norm)
                assert min(omega0) >= disp.gamma_l + disp.d - rv - 1e-8
                assert max(omega0) <= disp.gamma_r - disp.d + rv + 1e-8
                count += 1
        assert count == 1260

    @pytest.mark.parametrize("v", [2.5, 5.0])
    def test_norm_precondition_enforced(self, v):
        # v >= sqrt(d D) = 2: at 2.5 one eigenvalue would still stay in the
        # gap and at 5.0 none would; the gate raises before either is found.
        block = rank_one_build(2.0, 1.0, 0.0, v)
        with pytest.raises(GapEmptyOrRankMismatch, match="sqrt"):
            perturbed_partition(block, find_disposition(block))

    def test_rank_mismatch_raises(self):
        # A gap (-3, 3) wider than spec(A1) holds all of spec(L) = {-2, 0, 2}.
        block = make_block_operator([[0.0]], np.diag([-2.0, 2.0]), np.zeros((1, 2)))
        disp = SpectralDisposition(-3.0, 3.0, 1.0, 6.0)
        with pytest.raises(GapEmptyOrRankMismatch, match="in-gap rank 3 != dim0 1"):
            perturbed_partition(block, disp)

    @pytest.mark.parametrize("offset, raises", [(1e-9, True), (1e-13, False)])
    def test_eigenvalue_near_gap_edge(self, offset, raises):
        # spec(L) = {-2, 0, 2}; band = 1e-9 (1 + ||L||) = 3e-9 and the
        # collar 3e-12, so -2 is a boundary hit at 1e-9 inside the gap and
        # an endpoint eigenvalue at 1e-13.
        block = make_block_operator([[0.0]], np.diag([-2.0, 2.0]), np.zeros((1, 2)))
        disp = SpectralDisposition(-2.0 - offset, 2.0, 2.0, 4.0)
        if raises:
            with pytest.raises(EigenvalueOnBoundary):
                perturbed_partition(block, disp)
        else:
            assert perturbed_partition(block, disp).omega0 == (0.0,)

    def test_omega0_read_only(self):
        ver = Verification(rank_one_build(2.0, 1.0, 0.0, 0.5))
        assert not ver.partition.omega0.flags.writeable
        with pytest.raises(ValueError):
            ver.partition.omega0[0] = 0.0

    def test_gap_survives_below_sqrt2d(self):
        # v/d = 1.3 < sqrt(2) at D = 2d: gap keeps exactly dim0 eigenvalues
        _, _, b1, b2 = rank_one_outer_params(1.0, 0.0, 1.3)
        block = rank_one_build(1.0, 0.0, b1, b2)
        part = perturbed_partition(block, find_disposition(block))
        assert len(part.omega0) == 1


class TestProjectionDistance:
    def test_identical(self):
        P = SymMatrix(np.diag([1.0, 0.0]))
        assert dense_projection_distance(P, P) == 0.0

    def test_orthogonal_rank_one(self):
        assert dense_projection_distance(
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
            dense_projection_distance(SymMatrix(np.diag([0.5, 0.0])), SymMatrix(np.eye(2)))

    def test_metric_properties_on_random_projectors(self):
        rng = np.random.default_rng(11)
        projectors = []
        for _ in range(6):
            Q, _ = np.linalg.qr(rng.standard_normal((5, 5)))
            k = rng.integers(1, 4)
            projectors.append(SymMatrix(Q[:, :k] @ Q[:, :k].T))
        for P in projectors:
            for Q in projectors:
                dPQ = dense_projection_distance(P, Q)
                assert dPQ == pytest.approx(dense_projection_distance(Q, P), abs=1e-10)
                for R in projectors:
                    assert dPQ <= (
                        dense_projection_distance(P, R) + dense_projection_distance(R, Q) + 1e-10
                    )


def oracle_instances():
    """Seeded instances for the basis-route oracle: small plain and
    conjugated geometries, dim0 > dim1, and conjugated 50 x 80."""
    shapes = [(2, 3), (3, 5), (4, 6), (8, 12), (5, 3), (6, 2), (7, 4)]
    for i in range(21):
        dim0, dim1 = shapes[i % len(shapes)]
        yield GenConfig(dim0=dim0, dim1=dim1, D=4.0, d=1.0, ratio=0.2 + 0.06 * i,
                        conjugate=(i % 2 == 0), seed=700 + i)
    for i in range(3):
        yield GenConfig(dim0=50, dim1=80, D=4.0, d=1.0, ratio=0.5 + 0.4 * i,
                        conjugate=True, seed=800 + i)


class TestBasisRoute:
    def test_unperturbed_projector_is_a_basis(self):
        block = rank_one_build(2.0, 1.0, 0.0, 0.5)
        P = unperturbed_projector(block)
        assert P.rank == 1
        assert np.array_equal(dense_projector(P), np.diag([1.0, 0.0, 0.0]))

    def test_partition_projector_dense_form(self):
        block = make_block_operator(np.diag([-1.0, 1.0]), np.diag([-2.0, 2.0]), np.zeros((2, 2)))
        part = perturbed_partition(block, find_disposition(block))
        assert part.P0.rank == 2
        assert np.allclose(dense_projector(part.P0), np.diag([1.0, 1.0, 0.0, 0.0]), atol=1e-10)

    def test_basis_off_orthonormal_rejected(self):
        Q, _ = np.linalg.qr(np.random.default_rng(5).standard_normal((6, 6)))
        good = RangeProjector(Q[:, :3])
        bad = RangeProjector(Q[:, :3] * (1.0 + 1e-6))
        assert dense_projection_distance(good, good) == pytest.approx(0.0, abs=1e-15)
        with pytest.raises(NotAProjector):
            dense_projection_distance(bad, good)
        with pytest.raises(NotAProjector):
            dense_projection_distance(good, bad)

    def test_unequal_ranks_give_one(self):
        Q, _ = np.linalg.qr(np.random.default_rng(6).standard_normal((6, 6)))
        P, R = RangeProjector(Q[:, :2]), RangeProjector(Q[:, 1:4])
        assert dense_projection_distance(P, R) == 1.0
        assert dense_projection_distance(R, P) == 1.0
        # the dense route agrees
        assert dense_projection_distance(
            SymMatrix(dense_projector(P)), SymMatrix(dense_projector(R))
        ) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(NotAProjector):
            projection_distance(RangeProjector(np.eye(3, 1)), RangeProjector(np.eye(4, 1)))

    def test_matches_dense_route_and_eigh_oracle(self):
        count = 0
        for cfg in oracle_instances():
            block, disp = generate_instance(cfg)
            ver = Verification(block, seed=cfg.seed)
            P, Q = unperturbed_projector(block), ver.partition.P0
            dense = dense_projection_distance(P, Q)
            assert abs(projection_distance(P, Q) - dense) <= 1e-12
            assert abs(projection_distance(Q, P) - dense) <= 1e-12
            # independent oracle: ||Y1|| from a fresh eigendecomposition of L
            w, V = np.linalg.eigh(block.assemble_perturbed())
            Y = V[:, (w > disp.gamma_l) & (w < disp.gamma_r)]
            assert Y.shape[1] == block.dim0
            oracle = np.linalg.norm(Y[block.dim0 :], 2)
            assert abs(ver.distance - oracle) <= 1e-12
            assert abs(ver.distance - ver.angular.sin_theta) <= 1e-12
            count += 1
        assert count >= 20


def relative_gap(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


class TestCosineSineRoute:
    """The extraction and the distance read off one SVD of Y1, checked
    against X = Y1 Y0^{-1} by a linear solve and a fresh SVD of X."""

    def test_extraction_matches_solve_and_svd(self):
        count = 0
        for cfg in oracle_instances():
            block, _ = generate_instance(cfg)
            ver = Verification(block, seed=cfg.seed)
            Y = ver.partition.P0.basis
            Y0, Y1 = Y[: block.dim0], Y[block.dim0 :]
            X_ref = np.linalg.solve(Y0.T, Y1.T).T
            s_ref = np.linalg.svd(X_ref, compute_uv=False)
            ang = ver.angular
            assert relative_gap(ang.X, X_ref) <= 1e-12
            assert abs(ang.norm - s_ref[0]) <= 1e-12 * s_ref[0]
            assert relative_gap(ang.singular_values, s_ref) <= 1e-12
            # X^T X from the factors held by the result, W diag(s^2) W^T
            W = ang.right_basis
            XtX = (W * ang.eigenvalues_abs**2) @ W.T
            assert relative_gap(XtX, X_ref.T @ X_ref) <= 1e-12
            assert relative_gap(ang.X.T @ ang.X, X_ref.T @ X_ref) <= 1e-12
            assert np.allclose(W.T @ W, np.eye(block.dim0), atol=1e-12)
            U = ang.left_vectors
            assert np.allclose(U.T @ U, np.eye(U.shape[1]), atol=1e-12)
            assert ver.distance == pytest.approx(ang.sin_theta, abs=1e-12)
            count += 1
        assert count == 24

    @pytest.mark.parametrize("cosine, raises", [(1e-13, True), (1e-9, False)])
    def test_singular_top_block(self, cosine, raises):
        # Y = diag(R0, R1) [[c, 0], [0, 1], [sqrt(1 - c^2), 0], [0, 0]]: the
        # smallest cosine is c, so cond(Y0) = 1 / c.
        rng = np.random.default_rng(17)
        R0, _ = np.linalg.qr(rng.standard_normal((2, 2)))
        R1, _ = np.linalg.qr(rng.standard_normal((2, 2)))
        Y = np.zeros((4, 2))
        Y[0, 0], Y[2, 0], Y[1, 1] = cosine, np.sqrt(1.0 - cosine**2), 1.0
        Y[:2], Y[2:] = R0 @ Y[:2], R1 @ Y[2:]
        part = SpectrumPartition(np.zeros(2), RangeProjector(Y))
        block = make_block_operator(np.diag([-1.0, 1.0]), np.diag([-2.0, 2.0]), np.zeros((2, 2)))
        assert projection_distance(unperturbed_projector(block), part.P0) == pytest.approx(
            1.0, abs=1e-12
        )
        if raises:
            with pytest.raises(GraphExtractionFailed):
                extract_angular_operator(part, block)
        else:
            # passes the condition gate, with ||X|| = tan(theta) = sqrt(1 - c^2) / c
            ang = extract_angular_operator(part, block)
            assert ang.norm == pytest.approx(np.sqrt(1.0 - cosine**2) / cosine, rel=1e-6)

    def test_leading_route(self):
        Q, _ = np.linalg.qr(np.random.default_rng(8).standard_normal((6, 6)))
        E = RangeProjector(np.eye(6, 2))
        V = RangeProjector(Q[:, :2])
        assert E.leading and not V.leading
        dense = dense_projection_distance(E, V)
        assert projection_distance(E, V) == pytest.approx(dense, abs=1e-12)
        assert projection_distance(V, E) == projection_distance(E, V)
        assert projection_distance(E, E) == 0.0
        # unequal ranks have no leading route; the dense oracle gives exactly 1
        assert dense_projection_distance(E, RangeProjector(Q[:, :3])) == 1.0
        # the other basis is checked before its SVD
        with pytest.raises(NotAProjector):
            projection_distance(E, RangeProjector(Q[:, :2] * (1.0 + 1e-6)))

    def test_other_pairs_raise(self):
        # Only the leading route is production code; every other pair of
        # projectors goes to the dense oracle in the tests.
        Q, _ = np.linalg.qr(np.random.default_rng(8).standard_normal((6, 6)))
        E, V = RangeProjector(np.eye(6, 2)), RangeProjector(Q[:, :2])
        pairs = [
            (V, V),
            (E, RangeProjector(Q[:, :3])),
            (SymMatrix(dense_projector(E)), SymMatrix(dense_projector(V))),
            (dense_projector(E), V),
        ]
        for P, R in pairs:
            with pytest.raises(NotAProjector):
                projection_distance(P, R)

    def test_lower_svd_is_cached(self):
        block, _ = generate_instance(GenConfig(dim0=5, dim1=3, D=4.0, d=1.0, ratio=0.6,
                                               conjugate=True, seed=4))
        part = Verification(block).partition
        U, s, Wt = part.P0.lower_svd
        assert part.P0.lower_svd[0] is U
        assert U.shape == (3, 3) and s.shape == (3,) and Wt.shape == (5, 5)
        Y1 = part.P0.basis[5:]
        assert np.allclose((U * s) @ Wt[:3], Y1, atol=1e-14)
