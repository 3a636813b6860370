
import math
import warnings

import numpy as np
import pytest

from tantheta import (
    ConfigInvalid,
    DimensionMismatch,
    GenConfig,
    NoConvergence,
    ResidualTooLarge,
    extract_angular_operator,
    find_disposition,
    generate_instance,
    lambda0,
    make_block_operator,
    perturbed_partition,
    projection_distance,
    riccati_residual,
    solve_riccati_fixed_point,
    unperturbed_projector,
    verify_lemma_identities,
)
from tantheta import riccati
from tantheta.model import frobenius
from tantheta.riccati import FIXED_POINT_TOL, KERNEL_CUTOFF
from tantheta.families import circulant_build, circulant_case_params, circulant_kappa_matrix


def pipeline(block):
    disp = find_disposition(block)
    part = perturbed_partition(block, disp)
    return disp, part, extract_angular_operator(part, block)


def random_blocks(count, seed=0):
    for i in range(count):
        cfg = GenConfig(
            dim0=2 + i % 4,
            dim1=3 + (i * 7) % 6,
            D=3.0 + (i % 3),
            d=1.0,
            ratio=0.3 + 0.1 * (i % 7),
            conjugate=(i % 2 == 0),
            seed=seed + i,
        )
        yield generate_instance(cfg)[0]


class TestRiccatiResidual:
    def test_zero_everything(self):
        block = make_block_operator([[0.0]], np.diag([-1.0, 1.0]), [[0.0, 0.0]])
        assert riccati_residual(np.zeros((2, 1)), block) == 0.0

    def test_zero_solution_nonzero_coupling(self):
        block = make_block_operator([[0.0]], np.diag([-1.0, 1.0]), [[0.3, 0.4]])
        assert riccati_residual(np.zeros((2, 1)), block) == pytest.approx(0.5)

    def test_shape_check(self):
        block = make_block_operator([[0.0]], np.diag([-1.0, 1.0]), [[0.3, 0.4]])
        with pytest.raises(DimensionMismatch):
            riccati_residual(np.zeros((1, 2)), block)


class TestExtraction:
    def test_zero_coupling_gives_zero(self):
        block = make_block_operator([[0.0]], np.diag([-1.0, 1.0]), [[0.0, 0.0]])
        _, _, ang = pipeline(block)
        assert ang.norm == 0.0
        assert ang.riccati_residual == 0.0

    def test_circulant_matches_closed_form_solution(self):
        _, b1, b2 = circulant_case_params(2.0, 1.0, 1.0)
        block = circulant_build(2.0, 1.0, b1, b2)
        _, _, ang = pipeline(block)
        X_exact = circulant_kappa_matrix(2.0, 1.0, b1, b2)
        assert np.max(np.abs(ang.X - X_exact)) <= 1e-8

    def test_sin_arctan_norm_equals_distance(self):
        for block in random_blocks(12, seed=100):
            disp = find_disposition(block)
            part = perturbed_partition(block, disp)
            ang = extract_angular_operator(part, block)
            dist = projection_distance(unperturbed_projector(block), part.P0)
            assert abs(dist - ang.sin_theta) <= 1e-9 * (1.0 + ang.norm)

    def test_extraction_residual_contract(self):
        for block in random_blocks(8, seed=200):
            _, _, ang = pipeline(block)
            scale = 1.0 + block.A0.eig.norm + block.A1.eig.norm + np.linalg.norm(block.B, 2)
            assert ang.riccati_residual <= 1e-8 * scale * (1.0 + ang.norm) ** 2

    def test_complement_spans_adjoint_graph(self):
        # the orthogonal complement of the extracted subspace is the graph
        # of -X^T over the second block
        for block in random_blocks(6, seed=300):
            disp = find_disposition(block)
            part = perturbed_partition(block, disp)
            ang = extract_angular_operator(part, block)
            Z = np.vstack([-ang.X.T, np.eye(block.dim1)])
            assert np.max(np.abs(part.P0.basis.T @ Z)) <= 1e-8


# (dim0, dim1, D, ratio, seed, number of eigenvalues of |X| at or below
# the kernel cutoff); d = 1 and conjugated throughout
POLAR_CASES = {
    "dim1_below_dim0": (6, 3, 4.0, 0.7, 9, 3),
    "ratio_0": (3, 5, 4.0, 0.0, 4, 3),
    "ratio_0_dim1_below_dim0": (4, 2, 4.0, 0.0, 5, 4),
    "dim0_below_dim1": (4, 6, 2.5, 1.2, 12, 0),
}


class TestPolarRecord:
    """The polar decomposition X = U |X| the extraction returns, checked
    against X alone."""

    @pytest.mark.parametrize(
        "dim0, dim1, D, ratio, seed, dead", POLAR_CASES.values(), ids=POLAR_CASES.keys()
    )
    def test_polar_decomposition(self, dim0, dim1, D, ratio, seed, dead):
        cfg = GenConfig(dim0=dim0, dim1=dim1, D=D, d=1.0, ratio=ratio, conjugate=True, seed=seed)
        block, _ = generate_instance(cfg)
        _, _, ang = pipeline(block)
        W, U, lam = ang.right_basis, ang.polar, ang.eigenvalues_abs
        assert U.shape == (block.dim1, block.dim0) and lam.shape == (block.dim0,)
        assert np.linalg.norm(ang.X @ W - U * lam) <= 1e-12 * np.linalg.norm(ang.X)
        kernel = lam <= KERNEL_CUTOFF * (ang.norm or 1.0)
        assert np.count_nonzero(kernel) == dead
        assert np.all(U[:, kernel] == 0.0)
        live = U[:, ~kernel]
        assert np.allclose(live.T @ live, np.eye(live.shape[1]), rtol=0.0, atol=1e-12)
        for arr in (ang.X, U, lam, W):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 1.0


class TestFixedPoint:
    def test_zero_coupling_one_step(self):
        block = make_block_operator([[0.0]], np.diag([-1.0, 1.0]), [[0.0, 0.0]])
        ang = solve_riccati_fixed_point(block, find_disposition(block))
        assert np.linalg.norm(ang, 2) == 0.0

    def test_agrees_with_extraction(self):
        block = make_block_operator(
            np.array([[1.0]]), np.diag([-2.0, 2.0]), np.array([[0.0, 0.5]])
        )
        disp, _, ang = pipeline(block)
        fp = solve_riccati_fixed_point(block, disp)
        assert np.linalg.norm(fp - ang.X, 2) <= 1e-8 * (1.0 + ang.norm)

    @staticmethod
    def iterate_from_zero(block):
        """The eigenbasis recurrence written out from X_0 = 0, zero products
        included: (Q1 X_k Q0^T, k) at the first iterate k whose step passes."""
        es0, es1 = block.A0.eig, block.A1.eig
        denom = es1.values[:, None] - es0.values[None, :]
        Bt = es0.vectors.T @ block.B @ es1.vectors
        root_k = math.sqrt(min(block.dim0, block.dim1))
        X = np.zeros((block.dim1, block.dim0))
        for k in range(1, riccati.FIXED_POINT_MAX_ITER + 1):
            XBX = X @ (Bt @ X) if block.dim0 <= block.dim1 else (X @ Bt) @ X
            X_next = (XBX - Bt.T) / denom
            step = frobenius(X_next - X)
            X = X_next
            if step <= FIXED_POINT_TOL * (1.0 + frobenius(X) / root_k):
                return es1.vectors @ X @ es0.vectors.T, k
        raise AssertionError("the recurrence did not converge")

    def test_same_bits_and_iterates_as_the_recurrence_from_zero(self, monkeypatch):
        # Starting at X_1 skips only X_0 = 0's products: the result, and the
        # iterate at which the cap is met, are the recurrence's.
        blocks = list(random_blocks(10, seed=700)) + [
            generate_instance(GenConfig(dim0=6, dim1=3, D=4.0, d=1.0, ratio=0.7,
                                        conjugate=True, seed=9))[0]
        ]
        for block in blocks:
            disp = find_disposition(block)
            X_ref, k = self.iterate_from_zero(block)
            assert solve_riccati_fixed_point(block, disp).tobytes() == X_ref.tobytes()
            monkeypatch.setattr(riccati, "FIXED_POINT_MAX_ITER", k)
            assert solve_riccati_fixed_point(block, disp).tobytes() == X_ref.tobytes()
            monkeypatch.setattr(riccati, "FIXED_POINT_MAX_ITER", k - 1)
            with pytest.raises(NoConvergence):
                solve_riccati_fixed_point(block, disp)
            monkeypatch.undo()

    def test_no_convergence_outside_regime(self, monkeypatch):
        # v/d = 1.3 sits in the outer region; divergence is a regime limit
        cfg = GenConfig(dim0=2, dim1=4, D=4.0, d=1.0, ratio=1.3, seed=5)
        block, _ = generate_instance(cfg)
        disp = find_disposition(block)
        monkeypatch.setattr(riccati, "FIXED_POINT_MAX_ITER", 50)
        try:
            fp = solve_riccati_fixed_point(block, disp)
        except NoConvergence:
            return
        # if it converged anyway the result must still solve the equation
        assert riccati_residual(fp, block) <= 1e-6 * (1.0 + np.linalg.norm(fp, 2)) ** 2 * (
            1.0 + block.A0.eig.norm + block.A1.eig.norm + np.linalg.norm(block.B, 2)
        )


class TestLambda0:
    def test_zero_coupling_reduces_to_block(self):
        block = make_block_operator(np.diag([-0.5, 0.5]), np.diag([-2.0, 2.0]), np.zeros((2, 2)))
        _, _, ang = pipeline(block)
        lam = lambda0(ang, block)
        assert np.allclose(lam, block.A0.entries, atol=1e-12)

    def test_midgap_scalar_case(self):
        from tantheta.families import rank_one_build, rank_one_outer_params

        _, _, b1, b2 = rank_one_outer_params(1.0, 0.0, 1.2)
        block = rank_one_build(1.0, 0.0, b1, b2)
        _, _, ang = pipeline(block)
        lam = lambda0(ang, block)
        assert lam.shape == (1, 1)
        assert lam[0, 0] == pytest.approx(0.0, abs=1e-10)

    def test_spectrum_matches_ingap_component(self):
        for block in random_blocks(8, seed=400):
            disp = find_disposition(block)
            part = perturbed_partition(block, disp)
            ang = extract_angular_operator(part, block)
            lam_values = np.linalg.eigvalsh(lambda0(ang, block))
            scale = 1.0 + max(abs(v) for v in part.omega0)
            assert np.max(np.abs(lam_values - np.array(part.omega0))) <= 1e-8 * scale


class TestLemmaIdentities:
    def test_random_instances(self):
        for block in random_blocks(10, seed=500):
            _, _, ang = pipeline(block)
            audit = verify_lemma_identities(ang, block)
            assert audit.max_residual <= 1e-8

    def test_circulant_instance_both_pairs(self):
        _, b1, b2 = circulant_case_params(2.0, 1.0, 1.0)
        block = circulant_build(2.0, 1.0, b1, b2)
        _, _, ang = pipeline(block)
        audit = verify_lemma_identities(ang, block)
        assert audit.lam.size >= 2
        assert audit.max_residual <= 1e-8

    def test_degenerate_singular_values_with_rotations(self):
        # equal-magnitude couplings on symmetric spectra force a doubly
        # degenerate singular value of X
        c = 0.4
        block = make_block_operator(
            np.zeros((2, 2)), np.diag([-1.0, 1.0]), c * np.eye(2)
        )
        _, _, ang = pipeline(block)
        assert ang.eigenvalues_abs[0] == pytest.approx(ang.eigenvalues_abs[1], rel=1e-12)
        for seed in (0, 1, 2):
            audit = verify_lemma_identities(ang, block, seed=seed)
            # rotated cluster bases are audited in addition to the SVD basis
            assert audit.lam.size > 2
            assert audit.max_residual <= 1e-8

    @pytest.mark.parametrize("seed, raises", [(-1, True), (2**64, True), (2**64 - 1, False)])
    def test_seed_range(self, seed, raises):
        # the degenerate block draws a rotation from the seeded generator
        block = make_block_operator(np.zeros((2, 2)), np.diag([-1.0, 1.0]), 0.4 * np.eye(2))
        _, _, ang = pipeline(block)
        if raises:
            with pytest.raises(ConfigInvalid):
                verify_lemma_identities(ang, block, seed=seed)
        else:
            assert verify_lemma_identities(ang, block, seed=seed).max_residual <= 1e-8

    def test_seed_unused_without_degenerate_cluster(self):
        cfg = GenConfig(dim0=4, dim1=6, D=4.0, d=1.0, ratio=0.8, conjugate=True, seed=31)
        block, _ = generate_instance(cfg)
        _, _, ang = pipeline(block)
        s = ang.eigenvalues_abs
        assert np.all(s[:-1] - s[1:] > riccati.DEGENERACY_TOL * (1.0 + s[:-1]))
        first = verify_lemma_identities(ang, block, seed=0)
        last = verify_lemma_identities(ang, block, seed=2**64 - 1)
        assert first.lam.size == block.dim0
        for name in ("lam", "id1", "id2", "id3"):
            assert np.array_equal(getattr(first, name), getattr(last, name)), name
        assert first.max_residual == last.max_residual

    def test_zero_solution_degenerate_case(self):
        block = make_block_operator(np.diag([-0.5, 0.5]), np.diag([-2.0, 2.0]), np.zeros((2, 2)))
        _, _, ang = pipeline(block)
        audit = verify_lemma_identities(ang, block)
        assert audit.max_residual <= 1e-12
        assert np.all(audit.lam == 0.0)


class TestAuditOverflow:
    """The seed-11 3x5 instance scaled by 2^k: its squared norms overflow
    from k = 510 on."""

    def scaled(self, k):
        cfg = GenConfig(dim0=3, dim1=5, D=10.0, d=1.0, ratio=1.2, conjugate=True, seed=11)
        block, _ = generate_instance(cfg)
        A0, A1, B = (np.ldexp(M, k) for M in (block.A0.entries, block.A1.entries, block.B))
        block = make_block_operator(A0, A1, B)
        return block, pipeline(block)[2]

    @pytest.mark.parametrize("k", [510, 511, 520, 600, 1000])
    def test_non_finite_residual_raises_without_warning(self, k):
        block, ang = self.scaled(k)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ResidualTooLarge):
                verify_lemma_identities(ang, block)

    def test_last_finite_scale_passes(self):
        block, ang = self.scaled(509)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert verify_lemma_identities(ang, block).max_residual <= 1e-8


def reference_pair_residuals(lam, u, Uu, block, Lam0):
    """The identities for one eigenpair, one matrix-vector product at a time."""
    A0, A1, B = block.A0.entries, block.A1.entries, block.B
    A0u, Btu, A1Uu, BUu, L0u = A0 @ u, B.T @ u, A1 @ Uu, B @ Uu, Lam0 @ u
    cross = A0u @ BUu + Btu @ A1Uu
    nA0u, nBtu, nA1Uu, nBUu, nL0u = (x @ x for x in (A0u, Btu, A1Uu, BUu, L0u))

    def normalized(lhs, rhs):
        return abs(lhs - rhs) / (1.0 + abs(lhs) + abs(rhs))

    return (
        normalized(lam * cross, nL0u - nA0u - nBtu),
        normalized(lam * (nA0u + nBtu - nA1Uu - nBUu), (1.0 - lam * lam) * cross),
        normalized(lam * lam * (nA1Uu + nBUu - nL0u), nA0u + nBtu - nL0u),
    )


def reference_fixed_point(block, tol=1e-13, max_iter=2000):
    """The Sylvester fixed point iterated in the original basis, with the
    operator-norm step test."""
    w0, Q0 = np.linalg.eigh(block.A0.entries)
    w1, Q1 = np.linalg.eigh(block.A1.entries)
    denom = w1[:, None] - w0[None, :]
    B = block.B
    X = np.zeros((block.dim1, block.dim0))
    for _ in range(max_iter):
        X_new = Q1 @ ((Q1.T @ (X @ B @ X - B.T) @ Q0) / denom) @ Q0.T
        step = np.linalg.norm(X_new - X, 2)
        X = X_new
        if step <= tol * (1.0 + np.linalg.norm(X, 2)):
            return X
    raise AssertionError("reference iteration did not converge")


class TestAgainstReferences:
    def test_batched_audit_matches_per_pair_loop(self):
        # includes dim0 > dim1, where the kernel of X is audited too
        for block in random_blocks(10, seed=600):
            _, _, ang = pipeline(block)
            audit = verify_lemma_identities(ang, block)
            Lam0 = lambda0(ang, block)
            W = ang.right_basis
            assert np.allclose(W.T @ W, np.eye(block.dim0), atol=1e-12)
            cutoff = KERNEL_CUTOFF * ang.norm
            for c in range(block.dim0):
                lam = ang.eigenvalues_abs[c]
                # the polar image X w / lambda, zero on ker X
                Uu = ang.X @ W[:, c] / lam if lam > cutoff else np.zeros(block.dim1)
                assert audit.lam[c] == lam
                expected = reference_pair_residuals(audit.lam[c], W[:, c], Uu, block, Lam0)
                got = (audit.id1[c], audit.id2[c], audit.id3[c])
                assert np.allclose(got, expected, rtol=0.0, atol=1e-14)

    def test_eigenbasis_fixed_point_matches_original_basis_iteration(self):
        for block in random_blocks(10, seed=700):
            fp = solve_riccati_fixed_point(block, find_disposition(block))
            X_ref = reference_fixed_point(block)
            assert np.linalg.norm(fp - X_ref, 2) <= 1e-12 * (1.0 + np.linalg.norm(fp, 2))

    @pytest.mark.parametrize("route", ["ext"])
    def test_right_basis_spans_kernel_when_dim1_below_dim0(self, route):
        # the extraction's square right basis Z
        cfg = GenConfig(dim0=6, dim1=3, D=4.0, d=1.0, ratio=0.7, conjugate=True, seed=9)
        block, _ = generate_instance(cfg)
        _, _, ang = pipeline(block)
        W = ang.right_basis
        assert W.shape == (6, 6)
        assert np.allclose(W.T @ W, np.eye(6), atol=1e-12)
        assert np.allclose(ang.X @ W[:, 3:], 0.0, atol=1e-12)
        assert list(ang.eigenvalues_abs[3:]) == [0.0, 0.0, 0.0]
        X = (ang.polar * ang.eigenvalues_abs) @ W.T
        assert np.linalg.norm(X - ang.X) <= 1e-12 * np.linalg.norm(ang.X)
        assert verify_lemma_identities(ang, block).max_residual <= 1e-8
