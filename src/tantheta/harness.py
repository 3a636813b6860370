"""Random instance generation with controlled (D, d, ||V||), single-trial
verification, and deterministic batch sweeps with JSONL/CSV reporting."""
from __future__ import annotations

import csv
import json
import math
import numbers
import time
from dataclasses import asdict, astuple, dataclass, field, fields, replace
from typing import Optional

import numpy as np

from .bounds import BoundEvaluation, m_total
from .errors import MARGIN_FAILURE_THRESHOLD, ConfigInvalid, NoConvergence, TanThetaError
from .model import BlockOperator, SpectralDisposition, SymMatrix, is_json_number, spectral_norm
from .riccati import (
    AngularOperator,
    IdentityResiduals,
    extract_angular_operator,
    solve_riccati_fixed_point,
    verify_lemma_identities,
)
from .spectral import (
    SpectrumPartition,
    find_disposition,
    perturbed_partition,
    projection_distance,
)

# Trials with ratio at or below this also run the fixed-point solver and
# record the cross-method deviation.
CROSS_CHECK_RATIO = 0.9

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
    return (int(base_seed) ^ splitmix64(index)) & _MASK64


@dataclass(frozen=True)
class GenConfig:
    """Parameters of one random instance draw, checked when built:
    ConfigInvalid names the first field of a wrong type or out of range, so
    every GenConfig, also one made by dataclasses.replace, is valid."""

    dim0: int
    dim1: int
    D: float
    d: float
    ratio: float
    span: float = 1.0
    conjugate: bool = False
    seed: int = 0

    def __post_init__(self):
        for name in ("dim0", "dim1", "seed"):
            if not is_json_number(getattr(self, name), numbers.Integral):
                raise ConfigInvalid(f"{name} must be an integer, got {getattr(self, name)!r}")
        for name in ("D", "d", "ratio", "span"):
            value = getattr(self, name)
            if not is_json_number(value, numbers.Real):
                raise ConfigInvalid(f"{name} must be a real number, got {value!r}")
            try:
                float(value)
            except OverflowError:
                raise ConfigInvalid(f"{name} must round to a finite float") from None
        if not isinstance(self.conjugate, bool):
            raise ConfigInvalid(f"conjugate must be a bool, got {self.conjugate!r}")
        if self.dim0 < 1 or self.dim1 < 2:
            raise ConfigInvalid("need dim0 >= 1 and dim1 >= 2")
        if (self.dim0 + self.dim1) ** 2 > np.iinfo(np.intp).max // 8:
            raise ConfigInvalid(f"dim0 + dim1 = {self.dim0 + self.dim1} is past numpy's array size")
        if not (0.0 < self.D < math.inf and 0.0 < self.d <= self.D / 2.0):
            raise ConfigInvalid(f"need 0 < d <= D/2 < inf, got d={self.d}, D={self.D}")
        if not 0.0 <= self.ratio < math.sqrt(self.D / self.d):
            raise ConfigInvalid(
                f"ratio must lie in [0, sqrt(D/d)), got {self.ratio}"
            )
        if not 0.0 < self.span < math.inf:
            raise ConfigInvalid(f"span must be positive and finite, got {self.span}")
        if not 0 <= self.seed <= _MASK64:
            raise ConfigInvalid("seed must be a 64-bit unsigned integer")


def generate_instance(cfg: GenConfig) -> tuple:
    """Draw a block operator with gap exactly (-D/2, D/2), distance d and
    ||B|| = ratio * d, with the disposition find_disposition reads off it.

    One sigma0 value is pinned at an inner-interval endpoint and the gap
    edges +-D/2 carry sigma1 values, so the disposition parameters are
    attained, not just bounded; the rounded endpoint can put d below cfg.d.
    Where rounding lifts ||B|| onto the partition gate sqrt(d D), B is scaled
    down until its norm is below the gate. With conjugate=True both
    diagonal blocks and B undergo a random block-orthogonal change of
    basis, which leaves every computed norm invariant. A0 and A1 are built
    with the spectra they were made from (SymMatrix's `spectrum`), so of the
    three symmetric matrices of a trial only L is handed to an eigensolver.
    Deterministic for fixed seed.
    """
    (A0, spectrum0), (A1, spectrum1), B = _draw_blocks(cfg)
    # The blocks are built, and copy their spectra, after the draw has
    # returned and freed its temporaries (the R factors of the QR draws among
    # them). Built inside the draw, perfbench's trial_large peak RSS read
    # about 5 MB higher in most code layouts tried: heap layout, not live
    # memory.
    block = BlockOperator(
        SymMatrix(A0, spectrum=spectrum0), SymMatrix(A1, spectrum=spectrum1), B
    )
    disp = find_disposition(block)
    gate = math.sqrt(disp.d * disp.D)
    # A gate that underflows to 0 is left for the partition to reject.
    while 0.0 < gate <= block.v_norm:
        factor = math.nextafter(gate / block.v_norm, 0.0)
        block = BlockOperator(block.A0, block.A1, block.B * factor)
    return block, disp


def _draw_blocks(cfg: GenConfig) -> tuple:
    """generate_instance's draw: ((A0, (sigma0, Q0)), (A1, (sigma1, Q1)), B),
    each diagonal block with the spectrum it was built from."""
    rng = np.random.default_rng(np.random.PCG64(cfg.seed))
    half = cfg.D / 2.0
    lo, hi = -half + cfg.d, half - cfg.d

    sigma0 = lo + (hi - lo) * rng.random(cfg.dim0)
    sigma0[0] = lo if rng.random() < 0.5 else hi
    sigma0.sort()

    # Each outer value draws its side, then its offset beyond the gap edge;
    # this stream order fixes the instance a seed gives.
    u = rng.random((cfg.dim1 - 2, 2))
    outer = np.where(u[:, 0] < 0.5, 1.0, -1.0) * (half + cfg.span * u[:, 1])
    sigma1 = np.sort(np.concatenate(([-half, half], outer)))

    B = rng.standard_normal((cfg.dim0, cfg.dim1))
    B = B * (cfg.ratio * cfg.d / spectral_norm(B)) if cfg.ratio > 0.0 else np.zeros_like(B)

    A0 = np.diag(sigma0)
    A1 = np.diag(sigma1)
    Q0, Q1 = np.eye(cfg.dim0), np.eye(cfg.dim1)
    if cfg.conjugate:
        Q0, _ = np.linalg.qr(rng.standard_normal((cfg.dim0, cfg.dim0)))
        Q1, _ = np.linalg.qr(rng.standard_normal((cfg.dim1, cfg.dim1)))
        # (Q * sigma) @ Q.T is bit-identical to Q @ diag(sigma) @ Q.T.
        A0 = (Q0 * sigma0) @ Q0.T
        A1 = (Q1 * sigma1) @ Q1.T
        B = Q0 @ B @ Q1.T
    return (A0, (sigma0, Q0)), (A1, (sigma1, Q1)), B


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
    """The verification pipeline of one block operator: disposition,
    perturbed partition, angular operator, projector distance, bound and
    identity audit.

    Construction runs the six stages once, in that order; the first stage
    that raises ends it with its own error.
    """

    block: BlockOperator
    disposition: SpectralDisposition = field(init=False)
    partition: SpectrumPartition = field(init=False)
    angular: AngularOperator = field(init=False)
    distance: float = field(init=False)
    bound: BoundEvaluation = field(init=False)  # at the measured (D, d) and ||B||
    audit: IdentityResiduals = field(init=False)

    def __post_init__(self):
        block, put = self.block, object.__setattr__
        put(self, "disposition", find_disposition(block))
        put(self, "partition", perturbed_partition(block, self.disposition))
        put(self, "angular", extract_angular_operator(self.partition, block))
        put(self, "distance", projection_distance(block, self.partition))
        put(self, "bound", m_total(self.disposition.D, self.disposition.d, block.v_norm))
        put(self, "audit", verify_lemma_identities(self.angular, block))


def run_trial(cfg: GenConfig) -> TrialReport:
    """Full pipeline: generate, verify, and (for small ratio) cross-check
    against the fixed-point solver."""
    start = time.perf_counter()
    block, _ = generate_instance(cfg)
    ver = Verification(block)
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
        seed=int(cfg.seed),
        dims=(int(cfg.dim0), int(cfg.dim1)),
        D=ver.disposition.D,
        d=ver.disposition.d,
        v=block.v_norm,
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


def margin_fails(margin: float) -> bool:
    """Whether a margin bound - distance falls below MARGIN_FAILURE_THRESHOLD;
    a NaN margin fails."""
    return not margin >= MARGIN_FAILURE_THRESHOLD


def run_sweep(base_cfg: GenConfig, trials: int, ratio_grid) -> tuple:
    """Run trials x len(ratio_grid) independent trials with seeds derived
    from the base seed by the documented mixing rule.

    Returns (records, summary); records holds TrialReport and FailureRecord
    entries in trial order. Individual failures are recorded in-stream.
    Each grid ratio is checked, as the config it gives, before any trial
    runs.
    """
    if not is_json_number(trials, numbers.Integral) or trials < 0:
        raise ConfigInvalid(f"trials must be a non-negative integer, got {trials!r}")
    grid = [float(replace(base_cfg, ratio=r).ratio) for r in ratio_grid]
    records = []
    for index in range(trials * len(grid)):
        cfg = replace(
            base_cfg,
            ratio=grid[index % len(grid)],
            seed=trial_seed(base_cfg.seed, index),
        )
        try:
            records.append(run_trial(cfg))
        except TanThetaError as exc:
            records.append(FailureRecord(cfg.seed, type(exc).__name__, str(exc)))
    reports = [rec for rec in records if isinstance(rec, TrialReport)]
    summary = SweepSummary(
        trials=len(records),
        failures=len(records) - len(reports),
        min_margin=min((rep.margin for rep in reports), default=None),
        max_distance_bound_ratio=max(
            (rep.distance / rep.bound for rep in reports if rep.bound > 0.0), default=None
        ),
    )
    return records, summary


# elapsed_ms is intentionally absent: sweep output must be byte-identical
# across reruns with the same seed.
REPORT_FIELDS = tuple(f.name for f in fields(TrialReport) if f.name != "elapsed_ms")


def report_to_json_line(report: TrialReport) -> str:
    return json.dumps({name: getattr(report, name) for name in REPORT_FIELDS})


def write_reports(records, summary: SweepSummary, path, fmt: str = "jsonl") -> None:
    """Write the report stream plus a trailing summary record through
    json.dumps or csv.DictWriter; every line ends in a bare newline.

    In CSV a failure row carries `failed:<error>` in the region column and
    the summary row lists trials, failures, min margin and max
    distance/bound ratio after the word `summary`; the other cells are empty.
    """
    if fmt not in ("jsonl", "csv"):
        raise ConfigInvalid(f"unknown report format: {fmt}")
    with open(path, "w", newline="") as fh:
        if fmt == "jsonl":
            for rec in records:
                if isinstance(rec, FailureRecord):
                    fh.write(json.dumps(asdict(rec)) + "\n")
                else:
                    fh.write(report_to_json_line(rec) + "\n")
            fh.write(json.dumps({"summary": True, **asdict(summary)}) + "\n")
        else:
            out = csv.DictWriter(fh, REPORT_FIELDS, lineterminator="\n")
            out.writeheader()
            for rec in records:
                if isinstance(rec, FailureRecord):
                    out.writerow({"seed": rec.seed, "region": f"failed:{rec.error}"})
                else:
                    row = {name: getattr(rec, name) for name in REPORT_FIELDS}
                    out.writerow({**row, "dims": "x".join(map(str, rec.dims))})
            out.writerow(dict(zip(REPORT_FIELDS, ["summary", *astuple(summary)])))
