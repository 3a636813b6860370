"""Metamorphic invariance of a verification: the distance, ||X|| and the
bound margin depend only on the geometry of the two subspaces, so they are
unchanged under (A0, A1, B) -> (c A0 + s I, c A1 + s I, c B), c > 0, and
under a block-orthogonal change of basis."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tantheta import BlockOperator, GenConfig, Verification, generate_instance

# Deterministic examples, so that the suite gives the same verdict on
# every run.
SETTINGS = settings(derandomize=True, max_examples=40, deadline=None, database=None)
SHAPES = [(2, 3), (3, 5), (5, 3), (4, 6), (6, 2), (8, 12)]
TOL = 1e-12


def instance(shape, ratio, seed):
    dim0, dim1 = shape
    cfg = GenConfig(dim0=dim0, dim1=dim1, D=4.0, d=1.0, ratio=ratio, conjugate=True, seed=seed)
    return generate_instance(cfg)[0]


def observed(block):
    ver = Verification(block)
    return ver.distance, ver.angular.norm, ver.bound.projection_bound - ver.distance


def assert_invariant(before, after):
    (dist, x_norm, margin), (dist2, x_norm2, margin2) = before, after
    assert dist2 == pytest.approx(dist, rel=0.0, abs=TOL)
    assert x_norm2 == pytest.approx(x_norm, rel=TOL, abs=TOL)
    assert margin2 == pytest.approx(margin, rel=0.0, abs=TOL)


@given(
    shape=st.sampled_from(SHAPES),
    ratio=st.floats(min_value=0.1, max_value=1.2),
    seed=st.integers(min_value=0, max_value=2**32),
    log_c=st.floats(min_value=-3.0, max_value=6.0),
    shift=st.floats(min_value=-10.0, max_value=10.0),
)
@SETTINGS
def test_affine_rescaling(shape, ratio, seed, log_c, shift):
    block = instance(shape, ratio, seed)
    c = 10.0**log_c
    s = c * shift
    scaled = BlockOperator(
        c * block.A0.entries + s * np.eye(block.dim0),
        c * block.A1.entries + s * np.eye(block.dim1),
        c * block.B,
    )
    assert_invariant(observed(block), observed(scaled))


@given(
    shape=st.sampled_from(SHAPES),
    ratio=st.floats(min_value=0.1, max_value=1.2),
    seed=st.integers(min_value=0, max_value=2**32),
    basis_seed=st.integers(min_value=0, max_value=2**32),
)
@SETTINGS
def test_block_orthogonal_conjugation(shape, ratio, seed, basis_seed):
    block = instance(shape, ratio, seed)
    rng = np.random.default_rng(basis_seed)
    Q0, _ = np.linalg.qr(rng.standard_normal((block.dim0, block.dim0)))
    Q1, _ = np.linalg.qr(rng.standard_normal((block.dim1, block.dim1)))
    rotated = BlockOperator(
        Q0 @ block.A0.entries @ Q0.T, Q1 @ block.A1.entries @ Q1.T, Q0 @ block.B @ Q1.T
    )
    assert_invariant(observed(block), observed(rotated))
