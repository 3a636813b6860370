"""The tolerance table and `require`: every cap compares NaN as a failure and
prints exact floats, and each cap rewritten onto `require` has teeth. A
value about ten times past the cap raises the check's typed error and the
honest value passes, so loosening the cap (say, a thousandfold) or skipping
the check fails a test here."""
import dataclasses
import math
import re

import numpy as np
import pytest

from tantheta import (
    DimensionMismatch,
    DispositionViolated,
    GenConfig,
    GraphExtractionFailed,
    NotAProjector,
    ResidualTooLarge,
    SymMatrix,
    extract_angular_operator,
    find_disposition,
    generate_instance,
    lambda0,
    make_block_operator,
    projection_distance,
    run_trial,
    solve_riccati_fixed_point,
)
from tantheta import errors, harness
from tantheta.cli import main
from tantheta.errors import TanThetaError, require
from tantheta.families import rank_one_build
from tantheta.harness import margin_fails
from tantheta.model import EigenSystem
from tantheta.spectral import RangeProjector, SpectrumPartition

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
        Y = part.P0.basis.copy()
        Y[:, 0] = math.cos(eps) * Y[:, 0] + math.sin(eps) * outside
        turned = SpectrumPartition(part.omega0.copy(), RangeProjector(Y))
        if not fails:
            extract_angular_operator(turned, block)
            return
        with pytest.raises(ResidualTooLarge, match="^Riccati residual "):
            extract_angular_operator(turned, block)

    def test_extraction_condition_infinite(self):
        # An in-gap basis with a zero top block is no graph: cond(Y0) = inf.
        block = make_block_operator([[0.5]], np.diag([-2.0, 2.0]), [[0.3, 0.4]])
        vertical = SpectrumPartition(np.array([0.5]), RangeProjector(np.eye(3)[:, 1:2]))
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
        lambda0(ver.angular, block)
        scaled = dataclasses.replace(ver.angular, X=ver.angular.X * (1.0 + 1e-5))
        with pytest.raises(ResidualTooLarge, match="^Lambda0 asymmetry "):
            lambda0(scaled, block)

    def test_projector_distance(self):
        # A singular value 1 + 3e-9 passes the Gram check (defect 6e-9) but
        # is no sine of an angle.
        leading = RangeProjector(np.eye(3, 1))
        assert projection_distance(leading, RangeProjector(np.array([[0.0], [1.0], [0.0]]))) == 1.0
        long = RangeProjector(np.array([[0.0], [1.0 + 3e-9], [0.0]]))
        with pytest.raises(NotAProjector, match=re.escape(f"distance {1.0 + 3e-9!r} exceeds")):
            projection_distance(leading, long)

    @pytest.mark.parametrize("excess, code", [(1e-10, 0), (1e-6, 1)])
    def test_margin_verdict(self, monkeypatch, capsys, excess, code):
        argv = ["--seed", "7", "--dim0", "3", "--dim1", "4", "--D", "4", "--d", "1",
                "--ratio", "0.8"]
        cfg = GenConfig(seed=7, dim0=3, dim1=4, D=4.0, d=1.0, ratio=0.8)
        bound = run_trial(cfg).bound
        monkeypatch.setattr(harness, "projection_distance", lambda P, Q: bound + excess)
        assert main(["trial", *argv]) == code
        assert f"distance: {bound + excess!r}" in capsys.readouterr().out


class TestMarginFails:
    def test_threshold_nan_and_below(self):
        threshold = errors.MARGIN_FAILURE_THRESHOLD
        assert not margin_fails(threshold) and not margin_fails(0.0)
        assert margin_fails(math.nextafter(threshold, -1.0))
        assert margin_fails(math.nan)
