"""The pipeline against known-answer instances (tests/known_answer.py): the
distance, X, the Riccati residual of the true X and the identity audit are
checked against a prescribed X, and the in-gap eigenvalues and the spectrum
of Lambda0 against the prescribed omega0, with no oracle eigensolver."""
import math

import numpy as np
import pytest

from tantheta import TanThetaError, Verification, riccati_residual
from known_answer import OMEGA0_HALF_WIDTH, draw_known_answer

EPS = np.finfo(float).eps
SEED = 7
DRAWS = 40
MIN_ACCEPTED = 30  # of DRAWS per cell; 39 or 40 were accepted in each

# (dim0, dim1, ||X||, singular values relative to ||X||, or None for
# random ones): four shapes, dim0 > dim1 among them, at two norms, then a
# rank-deficient X, a repeated singular value, and a rank-one X with
# dim1 < dim0, whose 3-dimensional kernel needs the square right basis of
# the SVD of Y1 (full_matrices).
RANK_DEFICIENT = (1.0, 0.5, 0.0, 0.0)
REPEATED = (1.0, 0.6, 0.6, 0.6)
RANK_ONE = (1.0, 0.0)
CELLS = [(dim0, dim1, x_norm, None)
         for dim0, dim1 in ((2, 3), (3, 5), (8, 12), (3, 2)) for x_norm in (0.1, 0.5)]
CELLS += [(4, 6, 0.5, RANK_DEFICIENT), (4, 6, 0.5, REPEATED), (4, 2, 0.5, RANK_ONE)]
LABELS = {None: "random", RANK_DEFICIENT: "rank-deficient", REPEATED: "repeated",
          RANK_ONE: "rank-one"}

# Two cells at ||X|| = 1, which reach the paper's new regime
# d <= ||B|| < sqrt(2) d. omega0 is drawn in +-0.2 and each cell makes 200
# draws, most of which the pipeline refuses: at least 20 must be accepted,
# and at least 3 of those in the new regime (35 and 30 accepted, 5 and 4 in
# it, at SEED). At ||X|| = 1.35, 0 or 1 of 200 draws were accepted.
NARROW_CELLS = [(2, 3, 1.0, None), (3, 5, 1.0, None)]
NARROW_HALF_WIDTH, NARROW_DRAWS, NARROW_MIN_ACCEPTED, MIN_NEW_REGIME = 0.2, 200, 20, 3
CELLS += NARROW_CELLS

# The largest values over the first eleven cells at SEED, in units of eps:
# the distance error, ||X_pipeline - X|| / (1 + ||X||)^2, the Riccati
# residual of the prescribed X, the audit's largest residual, and the
# largest error of the in-gap eigenvalues and of the spectrum of Lambda0
# against sorted omega0. Every omega lies in [-2, 2], so ||L|| <= 2 and eps
# needs no further scale. Each cap is CAP_FACTOR times its measured
# constant. The narrow cells stay under the same caps; their worst values
# were distance 4.0, X 2.9, Riccati 3.9, audit 9.41, omega0 3.69 and
# Lambda0 6.75.
MEASURED = {"distance": 2.75, "x": 11.6, "riccati": 4.0, "audit": 4.8, "omega0": 7.0,
            "lambda0": 9.0}
CAP_FACTOR = 4.0


@pytest.mark.parametrize("index", range(len(CELLS)),
                         ids=[f"{a}x{b}-x{x}-{LABELS[s]}" for a, b, x, s in CELLS])
def test_pipeline_recovers_the_prescribed_angular_operator(index):
    dim0, dim1, x_norm, shape = CELLS[index]
    narrow = CELLS[index] in NARROW_CELLS
    half_width = NARROW_HALF_WIDTH if narrow else OMEGA0_HALF_WIDTH
    cap = {name: CAP_FACTOR * c * EPS for name, c in MEASURED.items()}
    rng = np.random.default_rng([SEED, index])
    accepted = new_regime = 0
    for _ in range(NARROW_DRAWS if narrow else DRAWS):
        block, X, omega0 = draw_known_answer(rng, dim0, dim1, x_norm, shape, half_width)
        # A draw whose spec(A0) is not in one gap of spec(A1) holding just
        # omega0 must be refused with a typed error; it is not a pass.
        try:
            ver = Verification(block)
        except TanThetaError:
            continue
        # A gap that misses some of omega0 holds other eigenvalues: a valid
        # instance, but not the prescribed one, so it counts for nothing.
        # One that holds all dim0 of omega0 holds no omega1, since the
        # partition found exactly dim0 eigenvalues in it.
        gap = ver.disposition
        if not ((gap.gamma_l < omega0) & (omega0 < gap.gamma_r)).all():
            continue
        accepted += 1
        new_regime += ver.bound.d <= ver.bound.v < math.sqrt(2.0) * ver.bound.d
        assert abs(ver.distance - x_norm / math.sqrt(1.0 + x_norm**2)) <= cap["distance"]
        x_error = np.linalg.norm(ver.angular.X - X, 2)
        assert x_error <= cap["x"] * (1.0 + x_norm) ** 2
        assert riccati_residual(X, block) <= cap["riccati"]
        assert ver.audit.max_residual <= cap["audit"]
        omega0 = np.sort(omega0)
        assert np.max(np.abs(ver.partition.omega0 - omega0)) <= cap["omega0"]
        lambda0_spectrum = np.linalg.eigvalsh(ver.audit.lambda0)
        assert np.max(np.abs(lambda0_spectrum - omega0)) <= cap["lambda0"]
        if shape is RANK_DEFICIENT:
            # the kernel of X: its polar columns are zeroed
            assert not ver.angular.polar[:, 2:].any()
        # one row per eigenpair; a cluster's span is read into its rows
        assert ver.audit.lam.size == dim0
        if shape is RANK_ONE:
            assert not ver.angular.polar[:, 1:].any()
    assert accepted >= (NARROW_MIN_ACCEPTED if narrow else MIN_ACCEPTED)
    if narrow:
        assert new_regime >= MIN_NEW_REGIME


@pytest.mark.slow
@pytest.mark.parametrize("x_norm", [0.1, 0.5])
def test_full_size_cell(x_norm):
    # 300x500, the largest trial_large size, where the CI's other full-size
    # checks compare against eigh(L), the pipeline's own eigensolver: three
    # draws per norm under the caps measured on the small cells.
    cap = {name: CAP_FACTOR * c * EPS for name, c in MEASURED.items()}
    rng = np.random.default_rng([SEED, 300, 500, int(10 * x_norm)])
    for _ in range(3):
        block, X, omega0 = draw_known_answer(rng, 300, 500, x_norm)
        ver = Verification(block)
        assert abs(ver.distance - x_norm / math.sqrt(1.0 + x_norm**2)) <= cap["distance"]
        assert np.linalg.norm(ver.angular.X - X, 2) <= cap["x"] * (1.0 + x_norm) ** 2
        assert riccati_residual(X, block) <= cap["riccati"]
        assert ver.audit.max_residual <= cap["audit"]
        omega0 = np.sort(omega0)
        assert np.max(np.abs(ver.partition.omega0 - omega0)) <= cap["omega0"]
        lambda0_spectrum = np.linalg.eigvalsh(ver.audit.lambda0)
        assert np.max(np.abs(lambda0_spectrum - omega0)) <= cap["lambda0"]
