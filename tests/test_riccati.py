
import numpy as np
import pytest

from tantheta import (
    DimensionMismatch,
    GenConfig,
    NoConvergence,
    extract_angular_operator,
    find_disposition,
    generate_instance,
    lambda0,
    make_block_operator,
    perturbed_partition,
    projection_distance,
    riccati_residual,
    solve_riccati_fixed_point,
    sym_eig,
    unperturbed_projector,
    verify_lemma_identities,
)
from tantheta.riccati import KERNEL_CUTOFF
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
            scale = 1.0 + block.A0.norm + block.A1.norm + np.linalg.norm(block.B, 2)
            assert ang.riccati_residual <= 1e-8 * scale * (1.0 + ang.norm) ** 2

    def test_complement_spans_adjoint_graph(self):
        # the orthogonal complement of the extracted subspace is the graph
        # of -X^T over the second block
        for block in random_blocks(6, seed=300):
            disp = find_disposition(block)
            part = perturbed_partition(block, disp)
            ang = extract_angular_operator(part, block)
            Z = np.vstack([-ang.X.T, np.eye(block.dim1)])
            assert np.max(np.abs(part.vectors0.T @ Z)) <= 1e-8


class TestFixedPoint:
    def test_zero_coupling_one_step(self):
        block = make_block_operator([[0.0]], np.diag([-1.0, 1.0]), [[0.0, 0.0]])
        ang = solve_riccati_fixed_point(block, find_disposition(block))
        assert ang.norm == 0.0

    def test_agrees_with_extraction(self):
        block = make_block_operator(
            np.array([[1.0]]), np.diag([-2.0, 2.0]), np.array([[0.0, 0.5]])
        )
        disp, _, ang = pipeline(block)
        fp = solve_riccati_fixed_point(block, disp)
        assert np.linalg.norm(fp.X - ang.X, 2) <= 1e-8 * (1.0 + ang.norm)

    def test_no_convergence_outside_regime(self):
        # v/d = 1.3 sits in the outer region; divergence is a regime limit
        cfg = GenConfig(dim0=2, dim1=4, D=4.0, d=1.0, ratio=1.3, seed=5)
        block, _ = generate_instance(cfg)
        disp = find_disposition(block)
        try:
            fp = solve_riccati_fixed_point(block, disp, max_iter=50)
        except NoConvergence:
            return
        # if it converged anyway the result must still solve the equation
        assert fp.riccati_residual <= 1e-6 * (1.0 + fp.norm) ** 2 * (
            1.0 + block.A0.norm + block.A1.norm + np.linalg.norm(block.B, 2)
        )


class TestLambda0:
    def test_zero_coupling_reduces_to_block(self):
        block = make_block_operator(np.diag([-0.5, 0.5]), np.diag([-2.0, 2.0]), np.zeros((2, 2)))
        _, _, ang = pipeline(block)
        lam = lambda0(ang, block)
        assert np.allclose(lam.entries, block.A0.entries, atol=1e-12)

    def test_midgap_scalar_case(self):
        from tantheta.families import rank_one_build, rank_one_outer_params

        _, _, b1, b2 = rank_one_outer_params(1.0, 0.0, 1.2)
        block = rank_one_build(1.0, 0.0, b1, b2)
        _, _, ang = pipeline(block)
        lam = lambda0(ang, block)
        assert lam.entries.shape == (1, 1)
        assert lam.entries[0, 0] == pytest.approx(0.0, abs=1e-10)

    def test_spectrum_matches_ingap_component(self):
        for block in random_blocks(8, seed=400):
            disp = find_disposition(block)
            part = perturbed_partition(block, disp)
            ang = extract_angular_operator(part, block)
            lam_values = sym_eig(lambda0(ang, block)).values
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
        assert len(audit.per_pair) >= 2
        assert audit.max_residual <= 1e-8

    def test_degenerate_singular_values_with_rotations(self):
        # equal-magnitude couplings on symmetric spectra force a doubly
        # degenerate singular value of X
        c = 0.4
        block = make_block_operator(
            np.zeros((2, 2)), np.diag([-1.0, 1.0]), c * np.eye(2)
        )
        _, _, ang = pipeline(block)
        assert ang.singular_values[0] == pytest.approx(ang.singular_values[1], rel=1e-12)
        for seed in (0, 1, 2):
            audit = verify_lemma_identities(ang, block, seed=seed)
            # rotated cluster bases are audited in addition to the SVD basis
            assert len(audit.per_pair) > 2
            assert audit.max_residual <= 1e-8

    def test_zero_solution_degenerate_case(self):
        block = make_block_operator(np.diag([-0.5, 0.5]), np.diag([-2.0, 2.0]), np.zeros((2, 2)))
        _, _, ang = pipeline(block)
        audit = verify_lemma_identities(ang, block)
        assert audit.max_residual <= 1e-12
        assert all(r.lam == 0.0 for r in audit.per_pair)


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
            Lam0 = lambda0(ang, block).entries
            W = ang.right_basis
            assert np.allclose(W.T @ W, np.eye(block.dim0), atol=1e-12)
            k = ang.singular_values.size
            cutoff = KERNEL_CUTOFF * ang.norm
            for c in range(block.dim0):
                live = c < k and ang.eigenvalues_abs[c] > cutoff
                Uu = ang.left_vectors[:, c] if live else np.zeros(block.dim1)
                rec = audit.per_pair[c]
                assert rec.lam == ang.eigenvalues_abs[c]
                expected = reference_pair_residuals(rec.lam, W[:, c], Uu, block, Lam0)
                got = (rec.id1_residual, rec.id2_residual, rec.id3_residual)
                assert np.allclose(got, expected, rtol=0.0, atol=1e-14)

    def test_eigenbasis_fixed_point_matches_original_basis_iteration(self):
        for block in random_blocks(10, seed=700):
            fp = solve_riccati_fixed_point(block, find_disposition(block))
            X_ref = reference_fixed_point(block)
            assert np.linalg.norm(fp.X - X_ref, 2) <= 1e-12 * (1.0 + fp.norm)

    def test_right_basis_spans_kernel_when_dim1_below_dim0(self):
        cfg = GenConfig(dim0=6, dim1=3, D=4.0, d=1.0, ratio=0.7, conjugate=True, seed=9)
        block, _ = generate_instance(cfg)
        _, _, ang = pipeline(block)
        W = ang.right_basis
        assert W.shape == (6, 6)
        assert np.allclose(W.T @ W, np.eye(6), atol=1e-12)
        assert np.allclose(ang.X @ W[:, 3:], 0.0, atol=1e-12)
        assert list(ang.eigenvalues_abs[3:]) == [0.0, 0.0, 0.0]
