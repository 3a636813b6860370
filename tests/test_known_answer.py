"""The pipeline against known-answer instances (tests/known_answer.py): the
distance, X, the Riccati residual of the true X and the identity audit are
checked against a prescribed X, and the in-gap eigenvalues and the spectrum
of Lambda0 against the prescribed omega0, with no oracle eigensolver."""
import math

import numpy as np
import pytest

from tantheta import TanThetaError, Verification, riccati_residual
from known_answer import draw_known_answer

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

# The largest values over all cells at SEED, in units of eps: the distance
# error, ||X_pipeline - X|| / (1 + ||X||)^2, the Riccati residual of the
# prescribed X, the audit's largest residual, and the largest error of the
# in-gap eigenvalues and of the spectrum of Lambda0 against sorted omega0.
# Every omega lies in [-2, 2], so ||L|| <= 2 and eps needs no further
# scale. Each cap is CAP_FACTOR times its measured constant.
MEASURED = {"distance": 2.75, "x": 11.6, "riccati": 4.0, "audit": 4.8, "omega0": 7.0,
            "lambda0": 9.0}
CAP_FACTOR = 4.0


@pytest.mark.parametrize("index", range(len(CELLS)),
                         ids=[f"{a}x{b}-x{x}-{LABELS[s]}" for a, b, x, s in CELLS])
def test_pipeline_recovers_the_prescribed_angular_operator(index):
    dim0, dim1, x_norm, shape = CELLS[index]
    cap = {name: CAP_FACTOR * c * EPS for name, c in MEASURED.items()}
    rng = np.random.default_rng([SEED, index])
    accepted = 0
    for _ in range(DRAWS):
        block, X, omega0 = draw_known_answer(rng, dim0, dim1, x_norm, shape)
        # A draw whose spec(A0) is not in one gap of spec(A1) holding just
        # omega0 must be refused with a typed error; it is not a pass.
        try:
            ver = Verification(block)
        except TanThetaError:
            continue
        accepted += 1
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
        if shape is REPEATED:
            # the tied singular values were audited in a rotated basis too
            assert ver.audit.lam.size == dim0 + 3
        if shape is RANK_ONE:
            # the three zeros of |X| were audited in a rotated basis too
            assert ver.audit.lam.size == dim0 + 3
            assert not ver.angular.polar[:, 1:].any()
    assert accepted >= MIN_ACCEPTED


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
