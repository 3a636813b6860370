"""The bound's scalars r_V, kappa, M1 and M2 from m_total against 80-digit
mpmath (tests/mp_reference.py), at the acceptance points and on a grid of
D/d from 2 to 1e12 with d = 1 and v = f sqrt(d D), f in (0, 0.99999].
Tier-1 runs every tenth f of the grid; the full grid is marked slow:

    python3 -m pytest -q -m slow

Last, the sharpness witnesses built at 80 digits attain sin(arctan M).
"""
import math

import pytest

mpmath = pytest.importorskip("mpmath")

import mp_reference  # noqa: E402
from tantheta import Region, m_total  # noqa: E402

EPS = 2.0 ** -52

# The acceptance campaign's (D, d) and ratios v / d.
ACCEPTANCE_DD = ((2.0, 1.0), (2.5, 1.0), (4.0, 1.0), (10.0, 1.0))
ACCEPTANCE_RATIOS = (0.2, 0.5, 0.8, 1.0, 1.2, 1.35)
GRID_DD = (2.0, 2.5, 4.0, 10.0, 1e2, 1e4, 1e6, 1e8, 1e12)
GRID_F = [0.99999 * k / 1499 for k in range(1, 1500)]


def check_point(D, d, v):
    # M1, M2 and r_V within 4 eps. kappa is ill-conditioned near the
    # inter-branch boundary, where d (D - d) - v^2 cancels: it is held to
    # 4 eps times the condition number 1 + 2 v^2 / |d (D - d) - v^2|.
    ev = m_total(D, d, v)
    r_v, kappa, m1, m2 = mp_reference.bound_scalars(D, d, v)
    cond = 1.0 + 2.0 * v * v / abs(d * (D - d) - v * v) if kappa is not None else 1.0
    for name, x, ref, cap in (("r_V", ev.r_V, r_v, 4.0), ("kappa", ev.kappa, kappa, 4.0 * cond),
                              ("M1", ev.M1, m1, 4.0), ("M2", ev.M2, m2, 4.0)):
        assert (x is None) == (ref is None), (name, D, d, v)
        if x is not None:
            assert mp_reference.rel_err(x, ref) <= cap * EPS, (name, D, d, v)


@pytest.mark.parametrize("D, d", ACCEPTANCE_DD)
def test_scalars_at_the_acceptance_points(D, d):
    for ratio in ACCEPTANCE_RATIOS:
        check_point(D, d, ratio * d)


def check_grid(f_values):
    for D in GRID_DD:
        for f in f_values:
            v = f * math.sqrt(D)
            # The 1e-9 boundary band, where m_total gives no kappa and the
            # side of v_b a float comparison takes may differ from mpmath's.
            if m_total(D, 1.0, v).region is not Region.BOUNDARY_OMEGA12:
                check_point(D, 1.0, v)


def test_scalars_on_the_dd_grid():
    check_grid(GRID_F[::10])


@pytest.mark.slow
def test_scalars_on_the_dd_grid_full():
    check_grid(GRID_F)


# (gamma, a, b) of the outer rank-one and the circulant witness. The third
# outer point has D/d = 1e8: its float distance exceeds the bound by 1.1e-8
# (tests/test_cli.py, the strict xfail), while at 80 digits the witness
# attains it. The tests take d = gamma - a in mpmath: a float gamma - a
# rounds, and at (1, 1e-3, 1.4) that leaves a true gap of 3.0e-21.
OUTER_POINTS = ((2.0, 1.0, 1.8), (1.0, 0.5, 0.9), (1.0, 0.99999998, 0.00019999999990890288))
CIRCULANT_POINTS = ((2.0, 1.0, 1.0), (2.0, 0.5, 1.4))


def mp_in_gap_distance(a0, gamma, b):
    """||Y1|| of L = [[diag(a0), b], [b^T, diag(-gamma, gamma)]] at the
    references' precision: Y1 is the A1 rows of the eigenvectors of L's
    eigenvalues in (-gamma, gamma), of which there are len(a0)."""
    n0 = len(a0)
    L = mpmath.diag(list(a0) + [-gamma, gamma])
    for i in range(n0):
        for j in range(2):
            L[i, n0 + j] = L[n0 + j, i] = b[i][j]
    values, vectors = mpmath.eigsy(L)
    cols = [k for k in range(n0 + 2) if abs(values[k]) < gamma]
    assert len(cols) == n0
    Y1 = mpmath.matrix([[vectors[n0 + j, k] for k in cols] for j in range(2)])
    return mpmath.sqrt(max(mpmath.eigsy(Y1.T * Y1, eigvals_only=True)))


@pytest.mark.parametrize("gamma, a, b", OUTER_POINTS)
def test_outer_witness_attains_sin_arctan_m2(gamma, a, b):
    with mpmath.workdps(mp_reference.DIGITS):
        t = mp_reference.outer(gamma, a, b)[2]
        g, a, b = (mpmath.mpf(x) for x in (gamma, a, b))
        distance = mp_in_gap_distance([a], g, [[mpmath.sqrt(1 - t) * b, mpmath.sqrt(t) * b]])
        m2 = mp_reference.bound_scalars(2 * g, g - a, b)[3]
        assert abs(distance - m2 / mpmath.sqrt(1 + m2 * m2)) <= mpmath.mpf("1e-30")


@pytest.mark.parametrize("gamma, a, b", CIRCULANT_POINTS)
def test_circulant_witness_attains_sin_arctan_m1(gamma, a, b):
    with mpmath.workdps(mp_reference.DIGITS):
        beta = mp_reference.beta(gamma, a, b)
        g, a, b = (mpmath.mpf(x) for x in (gamma, a, b))
        b1, b2 = (b + beta) / 2, (b - beta) / 2
        distance = mp_in_gap_distance([-a, a], g, [[b1, b2], [b2, b1]])
        m1 = mp_reference.bound_scalars(2 * g, g - a, b)[2]
        assert abs(distance - m1 / mpmath.sqrt(1 + m1 * m1)) <= mpmath.mpf("1e-30")
