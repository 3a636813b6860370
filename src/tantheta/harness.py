"""Random instance generation with controlled (D, d, ||V||), single-trial
verification, and deterministic batch sweeps with JSONL/CSV reporting."""
from __future__ import annotations

import csv
import json
import math
import time
from dataclasses import asdict, astuple, dataclass, fields, replace
from functools import cached_property
from typing import Optional

import numpy as np

from .bounds import m_total
from .errors import ConfigInvalid, NoConvergence, TanThetaError
from .model import BlockOperator, SpectralDisposition, make_block_operator, spectral_norm
from .riccati import (
    extract_angular_operator,
    solve_riccati_fixed_point,
    verify_lemma_identities,
)
from .spectral import (
    find_disposition,
    perturbed_partition,
    projection_distance,
    unperturbed_projector,
)

# Trials with ratio at or below this also run the fixed-point solver and
# record the cross-method deviation.
CROSS_CHECK_RATIO = 0.9

MARGIN_FAILURE_THRESHOLD = -1e-8

_MASK64 = (1 << 64) - 1


def splitmix64(x: int) -> int:
    """Finalizer of the splitmix64 generator; the fixed 64-bit mixing
    function used to derive per-trial seeds."""
    z = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def trial_seed(base_seed: int, index: int) -> int:
    """seed_i = base_seed XOR splitmix64(i)."""
    return (base_seed ^ splitmix64(index)) & _MASK64


@dataclass(frozen=True)
class GenConfig:
    """Parameters of one random instance draw."""

    dim0: int
    dim1: int
    D: float
    d: float
    ratio: float
    span: float = 1.0
    conjugate: bool = False
    seed: int = 0

    def validate(self) -> None:
        if self.dim0 < 1 or self.dim1 < 2:
            raise ConfigInvalid("need dim0 >= 1 and dim1 >= 2")
        if not (self.D > 0.0 and 0.0 < self.d <= self.D / 2.0):
            raise ConfigInvalid(f"need 0 < d <= D/2, got d={self.d}, D={self.D}")
        if not 0.0 <= self.ratio < math.sqrt(self.D / self.d):
            raise ConfigInvalid(
                f"ratio must lie in [0, sqrt(D/d)), got {self.ratio}"
            )
        if not self.span > 0.0:
            raise ConfigInvalid("span must be positive")
        if not 0 <= self.seed <= _MASK64:
            raise ConfigInvalid("seed must be a 64-bit unsigned integer")


def generate_instance(cfg: GenConfig) -> tuple:
    """Draw a block operator with gap exactly (-D/2, D/2), distance exactly
    d and ||B|| = ratio * d.

    One sigma0 value is pinned at an inner-interval endpoint and the gap
    edges +-D/2 carry sigma1 values, so the disposition parameters are
    attained, not just bounded. With conjugate=True both diagonal blocks
    and B undergo a random block-orthogonal change of basis, which leaves
    every computed norm invariant. Deterministic for fixed seed.
    """
    cfg.validate()
    rng = np.random.default_rng(np.random.PCG64(cfg.seed))
    half = cfg.D / 2.0
    lo, hi = -half + cfg.d, half - cfg.d

    sigma0 = lo + (hi - lo) * rng.random(cfg.dim0)
    sigma0[0] = lo if rng.random() < 0.5 else hi
    sigma0.sort()

    sigma1 = np.empty(cfg.dim1)
    sigma1[0] = -half
    sigma1[1] = half
    for i in range(2, cfg.dim1):
        side = 1.0 if rng.random() < 0.5 else -1.0
        sigma1[i] = side * (half + cfg.span * rng.random())
    sigma1.sort()

    B = rng.standard_normal((cfg.dim0, cfg.dim1))
    top = np.linalg.norm(B, 2)
    B = B * (cfg.ratio * cfg.d / top) if cfg.ratio > 0.0 else np.zeros_like(B)

    A0 = np.diag(sigma0)
    A1 = np.diag(sigma1)
    if cfg.conjugate:
        Q0, _ = np.linalg.qr(rng.standard_normal((cfg.dim0, cfg.dim0)))
        Q1, _ = np.linalg.qr(rng.standard_normal((cfg.dim1, cfg.dim1)))
        # (Q * sigma) @ Q.T is bit-identical to Q @ diag(sigma) @ Q.T.
        A0 = (Q0 * sigma0) @ Q0.T
        A1 = (Q1 * sigma1) @ Q1.T
        B = Q0 @ B @ Q1.T

    block = make_block_operator(A0, A1, B)
    disp = SpectralDisposition(
        tuple(sigma0), tuple(sigma1), -half, half, cfg.d, cfg.D
    )
    return block, disp


@dataclass(frozen=True)
class TrialReport:
    """Measured and estimated quantities of one verification run."""

    seed: int
    dims: tuple
    D: float
    d: float
    v: float
    region: str
    distance: float
    bound: float
    margin: float
    apriori: Optional[float]
    x_norm: float
    riccati_residual: float
    lemma_max_residual: float
    elapsed_ms: float
    cross_method_deviation: Optional[float] = None


@dataclass(frozen=True)
class FailureRecord:
    """A trial whose pipeline raised; carried in-stream, never fatal."""

    seed: int
    error: str
    message: str


@dataclass(frozen=True)
class SweepSummary:
    trials: int
    failures: int
    min_margin: Optional[float]
    max_distance_bound_ratio: Optional[float]


@dataclass(frozen=True, eq=False)
class Verification:
    """The verification pipeline of one block operator: disposition, ||B||,
    perturbed partition, angular operator, projector distance, bound and
    identity audit.

    Each stage is computed on first access, after the stages it depends
    on, and cached; a caller pays only for the stages it reads. `seed`
    drives the audit's rotation of degenerate singular bases.
    """

    block: BlockOperator
    seed: int = 0

    @cached_property
    def disposition(self) -> SpectralDisposition:
        return find_disposition(self.block)

    @cached_property
    def v(self) -> float:
        return self.block.v_norm

    @cached_property
    def partition(self):
        return perturbed_partition(self.block, self.disposition)

    @cached_property
    def angular(self):
        return extract_angular_operator(self.partition, self.block)

    @cached_property
    def distance(self) -> float:
        return projection_distance(unperturbed_projector(self.block), self.partition.P0)

    @cached_property
    def bound(self):
        """The BoundEvaluation at the measured (D, d) and ||B||."""
        return m_total(self.disposition.D, self.disposition.d, self.v)

    @cached_property
    def audit(self):
        return verify_lemma_identities(self.angular, self.block, seed=self.seed)


# Pipeline order: a failing trial reports the error of the first stage
# that raises.
TRIAL_STAGES = ("disposition", "v", "partition", "angular", "distance", "bound", "audit")


def run_trial(cfg: GenConfig) -> TrialReport:
    """Full pipeline: generate, run every Verification stage, and (for
    small ratio) cross-check against the fixed-point solver."""
    start = time.perf_counter()
    block, _ = generate_instance(cfg)
    ver = Verification(block, seed=cfg.seed)
    for stage in TRIAL_STAGES:
        getattr(ver, stage)
    cross = None
    if 0.0 < cfg.ratio <= CROSS_CHECK_RATIO:
        try:
            fp = solve_riccati_fixed_point(block, ver.disposition)
            cross = spectral_norm(fp - ver.angular.X)
        except NoConvergence:
            cross = None
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    ev = ver.bound
    return TrialReport(
        seed=cfg.seed,
        dims=(cfg.dim0, cfg.dim1),
        D=ver.disposition.D,
        d=ver.disposition.d,
        v=ver.v,
        region=ev.region.name,
        distance=ver.distance,
        bound=ev.projection_bound,
        margin=ev.projection_bound - ver.distance,
        apriori=ev.apriori_bound,
        x_norm=ver.angular.norm,
        riccati_residual=ver.angular.riccati_residual,
        lemma_max_residual=ver.audit.max_residual,
        elapsed_ms=elapsed_ms,
        cross_method_deviation=cross,
    )


def run_sweep(base_cfg: GenConfig, trials: int, ratio_grid) -> tuple:
    """Run trials x len(ratio_grid) independent trials with seeds derived
    from the base seed by the documented mixing rule.

    Returns (records, summary); records holds TrialReport and FailureRecord
    entries in trial order. Individual failures are recorded in-stream.
    """
    if trials < 0:
        raise ConfigInvalid(f"trials must be non-negative, got {trials}")
    ratio_grid = [float(r) for r in ratio_grid]
    for r in ratio_grid:
        replace(base_cfg, ratio=r).validate()
    records = []
    min_margin = None
    max_ratio = None
    failures = 0
    index = 0
    for _trial in range(trials):
        for ratio in ratio_grid:
            cfg = replace(
                base_cfg, ratio=ratio, seed=trial_seed(base_cfg.seed, index)
            )
            index += 1
            try:
                report = run_trial(cfg)
            except TanThetaError as exc:
                failures += 1
                records.append(
                    FailureRecord(cfg.seed, type(exc).__name__, str(exc))
                )
                continue
            records.append(report)
            if min_margin is None or report.margin < min_margin:
                min_margin = report.margin
            if report.bound > 0.0:
                ratio_db = report.distance / report.bound
                if max_ratio is None or ratio_db > max_ratio:
                    max_ratio = ratio_db
    summary = SweepSummary(
        trials=trials * len(ratio_grid),
        failures=failures,
        min_margin=min_margin,
        max_distance_bound_ratio=max_ratio,
    )
    return records, summary


def format_float(x: float) -> str:
    """Fixed 17-significant-digit rendering used by all report output."""
    return format(float(x), ".17g")


# elapsed_ms is intentionally absent: sweep output must be byte-identical
# across reruns with the same seed.
REPORT_FIELDS = tuple(f.name for f in fields(TrialReport) if f.name != "elapsed_ms")


def _record_to_json_line(record: dict) -> str:
    """One JSON object per line: floats in the fixed .17g rendering,
    everything else (keys, strings, ints, bools, lists, None) by json."""
    return "{" + ", ".join(
        f"{json.dumps(key)}: "
        + (format_float(value) if isinstance(value, float) else json.dumps(value))
        for key, value in record.items()
    ) + "}"


def report_to_json_line(report: TrialReport) -> str:
    return _record_to_json_line({name: getattr(report, name) for name in REPORT_FIELDS})


def failure_to_json_line(rec: FailureRecord) -> str:
    return _record_to_json_line(asdict(rec))


def summary_to_json_line(summary: SweepSummary) -> str:
    return _record_to_json_line({"summary": True, **asdict(summary)})


def _csv_cell(value):
    if isinstance(value, float):
        return format_float(value)
    if isinstance(value, tuple):
        return "x".join(str(n) for n in value)
    return value


def write_reports(records, summary: SweepSummary, path, fmt: str = "jsonl") -> None:
    """Write the report stream plus a trailing summary record.

    In CSV a failure row carries `failed:<error>` in the region column and
    the summary row lists trials, failures, min margin and max
    distance/bound ratio after the word `summary`.
    """
    if fmt == "jsonl":
        with open(path, "w") as fh:
            for rec in records:
                if isinstance(rec, FailureRecord):
                    fh.write(failure_to_json_line(rec) + "\n")
                else:
                    fh.write(report_to_json_line(rec) + "\n")
            fh.write(summary_to_json_line(summary) + "\n")
    elif fmt == "csv":
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh, lineterminator="\n")
            out.writerow(REPORT_FIELDS)
            for rec in records:
                if isinstance(rec, FailureRecord):
                    row = {"seed": rec.seed, "region": f"failed:{rec.error}"}
                    out.writerow([row.get(name) for name in REPORT_FIELDS])
                else:
                    out.writerow([_csv_cell(getattr(rec, name)) for name in REPORT_FIELDS])
            head = ["summary", *astuple(summary)]
            out.writerow([_csv_cell(c) for c in head] + [None] * (len(REPORT_FIELDS) - len(head)))
    else:
        raise ConfigInvalid(f"unknown report format: {fmt}")
