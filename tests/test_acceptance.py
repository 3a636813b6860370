"""Acceptance gate: eight end-to-end criteria for the bound machinery,
each printing a single PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the lines as they
print; without -s they appear in captured output on failure.
"""
import math

import numpy as np
import pytest

from tantheta import (
    BlockOperator,
    GenConfig,
    rank_one_build,
    rank_one_outer_params,
    extract_angular_operator,
    find_disposition,
    m_total,
    circulant_build,
    circulant_case_params,
    perturbed_partition,
    phi_maximizer,
    projection_distance,
    run_sweep,
    verify_lemma_identities,
    write_reports,
)
from tantheta.harness import TrialReport

from oracles import m1_trig

RATIO_GRID = (0.2, 0.5, 0.8, 1.0, 1.2, 1.35)

# (D, d) with D/d in {2, 2.5, 4, 10}, dims within the stated caps,
# with and without a random change of basis.
CAMPAIGNS = (
    (2.0, 1.0, 2, 3, False),
    (2.5, 1.0, 4, 6, True),
    (4.0, 1.0, 8, 12, False),
    (10.0, 1.0, 3, 5, True),
)


def _verdict(num: int, name: str, ok: bool) -> None:
    print(f"ACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'}")


@pytest.fixture(scope="session")
def trial_records():
    """1008 trials: 42 repeats x 6 ratios x 4 gap geometries."""
    records = []
    total_failures = 0
    for i, (D, d, dim0, dim1, conj) in enumerate(CAMPAIGNS):
        cfg = GenConfig(
            dim0=dim0, dim1=dim1, D=D, d=d, ratio=0.0,
            conjugate=conj, seed=1000 + i,
        )
        recs, summary = run_sweep(cfg, trials=42, ratio_grid=RATIO_GRID)
        total_failures += summary.failures
        records.extend(r for r in recs if isinstance(r, TrialReport))
    return records, total_failures


def measured_distance(block):
    part = perturbed_partition(block, find_disposition(block))
    return projection_distance(block, part)


def test_1_bound_validity(trial_records):
    records, failures = trial_records
    ok = (
        failures == 0
        and len(records) >= 1000
        and all(r.margin >= -1e-8 for r in records)
    )
    _verdict(1, "bound validity on 1000 random trials", ok)
    assert ok


def test_2_distance_equals_sine_of_angle(trial_records):
    records, _ = trial_records
    ok = all(
        abs(r.distance - r.x_norm / math.sqrt(1.0 + r.x_norm**2))
        <= 1e-9 * (1.0 + r.x_norm)
        for r in records
    )
    _verdict(2, "projector distance equals sin(arctan ||X||)", ok)
    assert ok


def test_3_identity_audit(trial_records):
    records, _ = trial_records
    ok = all(r.lemma_max_residual <= 1e-8 for r in records)

    def audit(block):
        part = perturbed_partition(block, find_disposition(block))
        ang = extract_angular_operator(part, block)
        return verify_lemma_identities(ang, block).max_residual

    # both example families, generic and bound-attaining parameters
    ok = ok and audit(rank_one_build(2.0, 1.0, 0.6, 0.5)) <= 1e-8
    _, _, b1, b2 = rank_one_outer_params(2.0, 1.0, 1.8)
    ok = ok and audit(rank_one_build(2.0, 1.0, b1, b2)) <= 1e-8
    ok = ok and audit(circulant_build(2.0, 1.0, 0.3, 0.4)) <= 1e-8
    _, b1, b2 = circulant_case_params(2.0, 1.0, 1.0)
    ok = ok and audit(circulant_build(2.0, 1.0, b1, b2)) <= 1e-8
    # repeated singular values: the identities hold on their whole span
    degenerate = BlockOperator(
        np.zeros((2, 2)), np.diag([-1.0, 1.0]), 0.4 * np.eye(2)
    )
    ok = ok and audit(degenerate) <= 1e-8
    _verdict(3, "eigenpair identity residuals <= 1e-8", ok)
    assert ok


def test_4_sharpness_three_regions():
    gamma, a = 2.0, 1.0
    d, D = gamma - a, 2.0 * gamma
    ok = True

    # inner region: single-coupling 3x3 family
    hi = 0.5 * math.sqrt(d * (D - 2.0 * d))
    for v in np.linspace(0.02, hi * (1.0 - 1e-3), 50):
        block = rank_one_build(gamma, a, 0.0, float(v))
        bound = m_total(D, d, float(v)).projection_bound
        ok = ok and abs(measured_distance(block) - bound) <= 1e-6 * bound

    # intermediate region: 4x4 family with explicit solution
    lo, hi = 0.5 * math.sqrt(2.0 * d * a), math.sqrt(gamma**2 - a**2)
    pad = 1e-3 * (hi - lo)
    for v in np.linspace(lo + pad, hi - pad, 50):
        _, b1, b2 = circulant_case_params(gamma, a, float(v))
        block = circulant_build(gamma, a, b1, b2)
        bound = m_total(D, d, float(v)).projection_bound
        ok = ok and abs(measured_distance(block) - bound) <= 1e-6 * bound

    # outer region: tuned two-coupling 3x3 family
    lo, hi = math.sqrt(gamma**2 - a**2), math.sqrt(2.0 * gamma * d)
    for v in np.linspace(lo, hi * (1.0 - 1e-3), 50):
        _, _, b1, b2 = rank_one_outer_params(gamma, a, float(v))
        block = rank_one_build(gamma, a, b1, b2)
        bound = m_total(D, d, float(v)).projection_bound
        ok = ok and abs(measured_distance(block) - bound) <= 1e-6 * bound

    _verdict(4, "bound attained on all three regions (50-point sweeps)", ok)
    assert ok


def test_5_formula_cross_oracles():
    rng = np.random.default_rng(2024)
    ok = True

    # trigonometric vs algebraic first-branch bound
    for _ in range(10_000):
        D = 2.0 + 8.0 * rng.random()
        d = 1.0
        v = rng.random() * math.sqrt(d * (D - d)) * (1.0 - 1e-9)
        ok = ok and abs(m_total(D, d, v).M1 - m1_trig(D, d, v)) <= 1e-12

    # maximizer of the rational profile vs the closed-form second branch
    for _ in range(100):
        gamma = 0.5 + 2.0 * rng.random()
        a = gamma * rng.random() * 0.9
        lo = math.sqrt(gamma**2 - a**2)
        hi = math.sqrt(2.0 * gamma * (gamma - a))
        b = lo + (hi - lo) * rng.random() * 0.999
        z0, phi_max = phi_maximizer(gamma, a, b)
        ok = ok and abs(phi_max - m_total(2.0 * gamma, gamma - a, b).M2 ** 2) <= 1e-10
        z = np.linspace(0.0, gamma, 1_000_001)[:-1]
        phi = (b * b + 2.0 * z * (a - z)) / (gamma * gamma - z * z)
        ok = ok and abs(z[int(np.argmax(phi))] - z0) <= 1e-5

    # minimal relative gap collapses the bound to v/d
    for _ in range(100):
        d = 0.5 + rng.random()
        v = rng.random() * math.sqrt(2.0) * d * (1.0 - 1e-9)
        ok = ok and abs(m_total(2.0 * d, d, v).M - v / d) <= 1e-12

    _verdict(5, "closed forms agree with independent oracles", ok)
    assert ok


def test_6_boundary_and_ranges():
    rng = np.random.default_rng(99)
    ok = True
    sqrt23 = math.sqrt(2.0 / 3.0)

    # both branches equal one on the region interface
    for _ in range(200):
        D = 2.0 + 8.0 * rng.random()
        d = D / 2.0 * (0.1 + 0.9 * rng.random())
        vb = math.sqrt(d * (D - d))
        ev = m_total(D, d, vb)
        ok = ok and abs(ev.M1 - 1.0) <= 1e-10
        ok = ok and abs(ev.M2 - 1.0) <= 1e-10

    for _ in range(10_000):
        D = 2.0 + 10.0 * rng.random()
        d = D / 2.0 * (0.05 + 0.95 * rng.random())
        v = rng.random() * math.sqrt(2.0) * d * (1.0 - 1e-9)
        ev = m_total(D, d, v)
        if ev.M2 is not None:
            ok = ok and 1.0 <= ev.M2 < math.sqrt(2.0)
        ok = ok and ev.projection_bound < sqrt23
        ok = ok and ev.r_V < d

    _verdict(6, "interface values, branch ranges and r_V < d", ok)
    assert ok


def test_7_cross_method_agreement(trial_records):
    records, _ = trial_records
    checked = [r for r in records if r.cross_method_deviation is not None]
    ok = len(checked) > 0 and all(
        r.cross_method_deviation <= 1e-8 * (1.0 + r.x_norm) for r in checked
    )
    _verdict(7, "extraction vs fixed-point Riccati solutions", ok)
    assert ok


def test_8_deterministic_reports(tmp_path):
    outputs = []
    for run in range(2):
        cfg = GenConfig(dim0=3, dim1=4, D=4.0, d=1.0, ratio=0.0, seed=77)
        records, summary = run_sweep(cfg, trials=5, ratio_grid=[0.3, 0.9, 1.3])
        path = tmp_path / f"sweep{run}.jsonl"
        write_reports(records, summary, path)
        outputs.append(path.read_bytes())
    ok = outputs[0] == outputs[1] and len(outputs[0]) > 0
    _verdict(8, "byte-identical sweep reruns", ok)
    assert ok
