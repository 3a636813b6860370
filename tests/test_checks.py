"""The tolerance table and `require`: every cap compares NaN as a failure and
prints exact floats, and each cap rewritten onto `require` has teeth. A
value about ten times past the cap raises the check's typed error and the
honest value passes, so loosening the cap (say, a thousandfold) or skipping
the check fails a test here. The same holds for the checks that report a
value rather than raise (identity residuals, the cross-method deviation)
and for the cutoffs that classify (kernel of X, region boundary, degenerate
cluster, domain edge); tools/mutants.py loosens each of them on a copy of
the package and expects tier-1 to fail."""
import dataclasses
import math
import re

import numpy as np
import pytest

from tantheta import (
    BlockOperator,
    DimensionMismatch,
    DispositionViolated,
    DomainError,
    GenConfig,
    GraphExtractionFailed,
    NotAProjector,
    Region,
    ResidualTooLarge,
    SymMatrix,
    classify_region,
    extract_angular_operator,
    find_disposition,
    generate_instance,
    projection_distance,
    run_trial,
    solve_riccati_fixed_point,
    verify_lemma_identities,
)
from tantheta import bounds, errors, harness
from tantheta.cli import main
from tantheta.errors import TanThetaError, require
from tantheta.bounds import rank_one_build
from tantheta.harness import margin_fails
from tantheta.model import EigenSystem
from tantheta.spectral import SpectrumPartition

TABLE = [
    name for name, value in vars(errors).items() if name.isupper() and isinstance(value, float)
]


class TestRequire:
    def test_at_the_cap_passes(self):
        require("value", 1.0, 1.0, TanThetaError)
        require("value", -math.inf, 0.0, TanThetaError)

    @pytest.mark.parametrize("value", [math.nextafter(1.0, 2.0), math.inf, math.nan])
    def test_past_the_cap_or_nan_raises(self, value):
        with pytest.raises(NotAProjector, match="^value "):
            require("value", value, 1.0, NotAProjector)

    def test_message_prints_exact_floats(self):
        with pytest.raises(TanThetaError) as info:
            require("projector distance", 1.0 + 3e-9, 1.0 + 1e-9, TanThetaError)
        assert str(info.value) == "projector distance 1.000000003 exceeds 1.000000001"


class TestTable:
    def test_modules_read_the_table(self):
        from tantheta import bounds, model, riccati, spectral

        for module in (bounds, harness, model, riccati, spectral):
            for name, value in vars(module).items():
                if name in TABLE:
                    assert value is getattr(errors, name), (module.__name__, name)


def reference_instance():
    """The 3x5 instance, D = 10 d, ratio 1.2, conjugated, seed 11, with its
    verified pipeline."""
    cfg = GenConfig(dim0=3, dim1=5, D=10.0, d=1.0, ratio=1.2, conjugate=True, seed=11)
    block, _ = generate_instance(cfg)
    return block, harness.Verification(block)


class TestCapsHaveTeeth:
    def test_asymmetry(self):
        # Relative asymmetry 1e-10 is rejected, 1e-14 is round-off.
        SymMatrix(np.array([[1.0, 0.5], [0.5 + 1e-14, 1.0]]))
        with pytest.raises(DimensionMismatch, match="^matrix asymmetry "):
            SymMatrix(np.array([[1.0, 0.5], [0.5 + 1e-10, 1.0]]))

    @pytest.mark.parametrize("eps, fails", [(1e-8, False), (1e-6, True)])
    def test_riccati_residual(self, eps, fails):
        # The first in-gap eigenvector turned by eps toward an out-of-gap
        # one: still an orthonormal basis, but no longer an invariant
        # subspace, so X solves the Riccati equation only to O(eps).
        block, ver = reference_instance()
        part = ver.partition
        es = EigenSystem.of(block.assemble_perturbed())
        outside = es.vectors[:, ~np.isin(es.values, part.omega0)][:, 0]
        Y = part.basis.copy()
        Y[:, 0] = math.cos(eps) * Y[:, 0] + math.sin(eps) * outside
        turned = SpectrumPartition(part.omega0.copy(), Y)
        if not fails:
            extract_angular_operator(turned, block)
            return
        with pytest.raises(ResidualTooLarge, match="^Riccati residual "):
            extract_angular_operator(turned, block)

    def test_extraction_condition_infinite(self):
        # An in-gap basis with a zero top block is no graph: cond(Y0) = inf.
        block = BlockOperator([[0.5]], np.diag([-2.0, 2.0]), [[0.3, 0.4]])
        vertical = SpectrumPartition(np.array([0.5]), np.eye(3)[:, 1:2])
        with pytest.raises(GraphExtractionFailed, match="^top block condition number inf "):
            extract_angular_operator(vertical, block)

    def test_sylvester_divisor_floor(self):
        # Every divisor w1 - w0 is at least d; a disposition claiming a d
        # past twice the smallest one is rejected.
        block = rank_one_build(2.0, 1.0, 0.0, 0.5)
        disp = find_disposition(block)
        solve_riccati_fixed_point(block, disp)
        with pytest.raises(DispositionViolated, match=re.escape("divisor: 1.25 exceeds 1.0")):
            solve_riccati_fixed_point(block, dataclasses.replace(disp, d=2.5))

    def test_lambda0_asymmetry(self):
        # An X off by a relative 1e-5 makes Lambda0 about ten times more
        # asymmetric than its cap allows; the extracted X passes.
        block, ver = reference_instance()
        verify_lemma_identities(ver.angular, block)
        scaled = dataclasses.replace(ver.angular, X=ver.angular.X * (1.0 + 1e-5))
        with pytest.raises(ResidualTooLarge, match="^Lambda0 asymmetry "):
            verify_lemma_identities(scaled, block)

    def test_projector_distance(self):
        # A singular value 1 + 3e-9 passes the Gram check (defect 6e-9) but
        # is no sine of an angle.
        block = rank_one_build(2.0, 1.0, 0.0, 0.5)
        vertical = SpectrumPartition(np.zeros(1), np.array([[0.0], [1.0], [0.0]]))
        assert projection_distance(block, vertical) == 1.0
        long = SpectrumPartition(np.zeros(1), np.array([[0.0], [1.0 + 3e-9], [0.0]]))
        with pytest.raises(NotAProjector, match=re.escape(f"distance {1.0 + 3e-9!r} exceeds")):
            projection_distance(block, long)

    def test_partition_shape(self):
        # A partition of another block's in-gap subspace is no E_L(omega0)
        # of this block, whatever its lower block's singular values.
        block, ver = reference_instance()
        assert projection_distance(block, ver.partition) == ver.distance
        other = harness.Verification(rank_one_build(2.0, 1.0, 0.0, 0.5)).partition
        with pytest.raises(NotAProjector, match=re.escape("shape (3, 1) != (n, dim0)")):
            projection_distance(block, other)

    def test_range_basis_gram_defect(self):
        # A basis 1e-6 too long has a Gram defect of about 2e-6 sqrt(k).
        _, ver = reference_instance()
        part = ver.partition
        SpectrumPartition(part.omega0.copy(), part.basis.copy())
        with pytest.raises(NotAProjector, match="^range basis Gram defect "):
            SpectrumPartition(part.omega0.copy(), part.basis * (1.0 + 1e-6))

    @pytest.mark.parametrize("excess, code", [(1e-10, 0), (1e-6, 1)])
    def test_margin_verdict(self, monkeypatch, capsys, excess, code):
        argv = ["--seed", "7", "--dim0", "3", "--dim1", "4", "--D", "4", "--d", "1",
                "--ratio", "0.8"]
        cfg = GenConfig(seed=7, dim0=3, dim1=4, D=4.0, d=1.0, ratio=0.8)
        bound = run_trial(cfg).bound
        monkeypatch.setattr(harness, "projection_distance", lambda P, Q: bound + excess)
        assert main(["trial", *argv]) == code
        assert f"distance: {bound + excess!r}" in capsys.readouterr().out

    @pytest.mark.parametrize("cfg", [
        GenConfig(dim0=3, dim1=5, D=10.0, d=1.0, ratio=1.2, conjugate=True, seed=11),
        GenConfig(dim0=8, dim1=12, D=4.0, d=1.0, ratio=0.8, seed=3),
    ])
    def test_identity_residual_normaliser(self, cfg):
        # Polar images 1e-6 too long break the identities by about 1e-6 in
        # relative terms; a normaliser that dilutes the residuals (1e6 in
        # place of 1) would report about 1e-12.
        block, _ = generate_instance(cfg)
        ver = harness.Verification(block)
        assert ver.audit.max_residual <= 1e-13
        long = dataclasses.replace(ver.angular, polar=ver.angular.polar * (1.0 + 1e-6))
        assert verify_lemma_identities(long, block).max_residual > 1e-7

    def test_cross_method_deviation(self, monkeypatch):
        # A fixed-point solution 1e-6 off in every entry is reported as a
        # deviation of at least 1e-7; the honest one agrees to round-off.
        cfg = GenConfig(seed=7, dim0=3, dim1=4, D=4.0, d=1.0, ratio=0.8)
        assert run_trial(cfg).cross_method_deviation <= 1e-12
        solve = harness.solve_riccati_fixed_point
        monkeypatch.setattr(harness, "solve_riccati_fixed_point", lambda *a: solve(*a) + 1e-6)
        assert run_trial(cfg).cross_method_deviation >= 1e-7

    def test_kernel_cutoff(self):
        # X has singular values 0.30 and 3.3e-7: both are above the kernel
        # cutoff (1e-12 ||X||), so both polar images keep unit norm.
        block = BlockOperator(np.diag([-0.5, 0.5]), np.diag([-2.0, 2.0]),
                                    [[0.5, 0.0], [0.0, 5e-7]])
        ang = harness.Verification(block).angular
        assert ang.eigenvalues_abs[1] == pytest.approx(1e-6 / 3.0, rel=1e-6)
        assert np.linalg.norm(ang.polar, axis=0) == pytest.approx([1.0, 1.0], abs=1e-12)

    def test_region_boundary_band(self):
        # v = sqrt(d (D - d)) = sqrt(3) at (D, d) = (4, 1): a relative 1e-6
        # past it lies in OMEGA2, a relative 1e-12 is the boundary.
        v = math.sqrt(3.0)
        assert classify_region(4.0, 1.0, v * (1.0 + 1e-6)) is Region.OMEGA2
        assert classify_region(4.0, 1.0, v * (1.0 + 1e-12)) is Region.BOUNDARY_OMEGA12

    @pytest.mark.parametrize("split, audited", [(1e-11, 4), (1e-6, 2)])
    def test_degenerate_cluster_width(self, split, audited):
        # Singular values of X a relative 1e-11 apart form a cluster, whose
        # rotated basis is audited beside the two base pairs; 1e-6 apart
        # they are two simple values.
        B = np.diag([0.4, 0.4 * (1.0 + split)])
        ver = harness.Verification(BlockOperator(np.zeros((2, 2)), np.diag([-1.0, 1.0]), B))
        assert ver.audit.lam.size == audited
        assert ver.audit.max_residual <= 1e-10

    def test_radicand_guard(self):
        # b a relative 1e-6 below its lower edge sqrt(gamma^2 - a^2) is
        # outside the maximizer's domain; a relative 1e-14 below it is
        # round-off.
        b_lo = math.sqrt(3.0)
        z0, phi_max = bounds.phi_maximizer(2.0, 1.0, b_lo * (1.0 - 1e-14))
        assert z0 == pytest.approx(1.0, rel=1e-6) and phi_max == pytest.approx(1.0, rel=1e-12)
        with pytest.raises(DomainError, match="is outside"):
            bounds.phi_maximizer(2.0, 1.0, b_lo * (1.0 - 1e-6))


class TestMarginFails:
    def test_threshold_nan_and_below(self):
        threshold = errors.MARGIN_FAILURE_THRESHOLD
        assert not margin_fails(threshold) and not margin_fails(0.0)
        assert margin_fails(math.nextafter(threshold, -1.0))
        assert margin_fails(math.nan)
