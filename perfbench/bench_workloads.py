"""The three workloads: inputs made from the seed, one timed pass, and the
checks applied to a pass's outputs outside the timed region.

A workload object is built once per run, untimed; then `run_pass(rec)` is
timed again and again on the same inputs, `check(outputs)` returns the
problems found in one pass's outputs, and `blocks()` yields each item's
block operator for the benchmark's own eigh floor.
"""
from __future__ import annotations

import hashlib
import json
import statistics
import time

import numpy as np

from tantheta import harness, model, riccati, spectral
from tantheta.errors import TanThetaError
from tantheta.harness import FailureRecord, GenConfig, TrialReport, splitmix64, trial_seed

# The acceptance-gate campaign: (D, d, dim0, dim1, conjugate) per geometry.
CAMPAIGN_GEOMETRIES = (
    (2.0, 1.0, 2, 3, False),
    (2.5, 1.0, 4, 6, True),
    (4.0, 1.0, 8, 12, False),
    (10.0, 1.0, 3, 5, True),
)
RATIO_GRID = (0.2, 0.5, 0.8, 1.0, 1.2, 1.35)
CAMPAIGN_REPEATS = 42
# Campaign trials per run whose distance is compared with the eigh oracle.
ORACLE_SAMPLE = 48
# (dim0, dim1, ratio) of the conjugated D=4, d=1 trials of trial_large.
# Ratio 1.2 lies in the second region, where run_trial skips the
# fixed-point cross-check.
LARGE_TRIALS = ((150, 250, 0.5), (150, 250, 1.2), (300, 500, 0.5))
# (dim0, dim1, ratio) of the conjugated D=4, d=1 instance files.
AUDIT_FILES = ((50, 80, 0.8),) * 8 + ((150, 250, 1.0),) * 2

MARGIN_FLOOR = -1e-8  # the CLI's margin failure threshold
ORACLE_TOL = 1e-10
IDENTITY_TOL = 1e-8  # the acceptance gate's identity-residual tolerance
EIGH = np.linalg.eigh


def oracle_distance(block, disp) -> float:
    """||Y1||_2 for Y the in-gap eigenvectors of L, the sine of the largest
    angle between the perturbed and the unperturbed subspace."""
    w, V = EIGH(block.assemble_perturbed())
    Y = V[:, (w > disp.gamma_l) & (w < disp.gamma_r)]
    if Y.shape[1] != block.dim0:
        return float("nan")
    return float(np.linalg.norm(Y[block.dim0 :], 2))


def eigh_ms(block, repeats: int = 3) -> float:
    """Median time of the benchmark's own eigh on the assembled L."""
    L = block.assemble_perturbed()
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        EIGH(L)
        times.append((time.perf_counter() - start) * 1e3)
    return statistics.median(times)


def _check_trial(report, expected, label: str) -> list:
    problems = []
    if report.margin < MARGIN_FLOOR:
        problems.append(f"{label}: margin {report.margin!r} below {MARGIN_FLOOR}")
    if report.lemma_max_residual > IDENTITY_TOL:
        problems.append(f"{label}: identity residual {report.lemma_max_residual!r}")
    if expected is not None and not abs(report.distance - expected) <= ORACLE_TOL:
        problems.append(f"{label}: distance {report.distance!r} != oracle {expected!r}")
    return problems


class CampaignSmall:
    """1008 small trials in run_sweep order, written to JSONL."""

    name = "campaign_small"

    def __init__(self, seed: int, workdir):
        # trial_seed XORs the base seed with a hash of the index, so bases
        # must not themselves be trial_seed(seed, i): geometry i, index j and
        # geometry j, index i would then share a seed.
        self.bases = [
            GenConfig(dim0=m, dim1=n, D=D, d=d, ratio=0.0, conjugate=conj,
                      seed=splitmix64(seed) ^ i)
            for i, (D, d, m, n, conj) in enumerate(CAMPAIGN_GEOMETRIES)
        ]
        self.paths = [workdir / f"campaign_{i}.jsonl" for i in range(len(self.bases))]
        per_sweep = CAMPAIGN_REPEATS * len(RATIO_GRID)
        picks = np.random.default_rng(seed).choice(
            len(self.bases) * per_sweep, size=min(ORACLE_SAMPLE, len(self.bases) * per_sweep),
            replace=False,
        )
        self.oracle = {}  # (sweep, index in sweep) -> distance
        for pick in sorted(int(p) for p in picks):
            sweep, index = divmod(pick, per_sweep)
            block, disp = harness.generate_instance(self._config(sweep, index))
            self.oracle[(sweep, index)] = oracle_distance(block, disp)
        self.digests = None

    def _config(self, sweep: int, index: int) -> GenConfig:
        base = self.bases[sweep]
        return GenConfig(
            dim0=base.dim0, dim1=base.dim1, D=base.D, d=base.d,
            ratio=RATIO_GRID[index % len(RATIO_GRID)], conjugate=base.conjugate,
            seed=trial_seed(base.seed, index),
        )

    def run_pass(self, rec):
        results = []
        for base, path in zip(self.bases, self.paths):
            records, summary = harness.run_sweep(base, CAMPAIGN_REPEATS, RATIO_GRID)
            harness.write_reports(records, summary, path)
            results.append((records, summary))
        return results

    def check(self, results) -> list:
        problems = []
        digests = []
        for sweep, ((records, summary), path) in enumerate(zip(results, self.paths)):
            raw = path.read_bytes()
            digests.append(hashlib.sha256(raw).hexdigest())
            lines = [json.loads(line) for line in raw.decode().splitlines()]
            failures = sum(isinstance(r, FailureRecord) for r in records)
            tail = lines[-1] if lines else {}
            if not (
                tail.get("summary") is True
                and tail.get("trials") == summary.trials == len(records) == len(lines) - 1
                and tail.get("failures") == summary.failures == failures
            ):
                problems.append(f"{path.name}: summary record {tail} disagrees with "
                                f"{len(records)} trials, {failures} failures")
            for index, rec in enumerate(records):
                if isinstance(rec, TrialReport):
                    problems += _check_trial(
                        rec, self.oracle.get((sweep, index)), f"sweep {sweep} trial {index}"
                    )
        if self.digests is None:
            self.digests = digests
        elif digests != self.digests:
            problems.append("JSONL output differs between passes on the same inputs")
        return problems

    def blocks(self):
        per_sweep = CAMPAIGN_REPEATS * len(RATIO_GRID)
        for sweep in range(len(self.bases)):
            for index in range(per_sweep):
                yield harness.generate_instance(self._config(sweep, index))[0]


class TrialLarge:
    """Three conjugated trials, where O(n^3) LAPACK work dominates."""

    name = "trial_large"

    def __init__(self, seed: int, workdir):
        self.configs = [
            GenConfig(dim0=m, dim1=n, D=4.0, d=1.0, ratio=ratio, conjugate=True,
                      seed=trial_seed(seed, i))
            for i, (m, n, ratio) in enumerate(LARGE_TRIALS)
        ]
        instances = [harness.generate_instance(c) for c in self.configs]
        self.oracle = [oracle_distance(*instance) for instance in instances]
        self._blocks = [block for block, _ in instances]

    def run_pass(self, rec):
        reports = []
        for cfg in self.configs:
            try:
                reports.append(harness.run_trial(cfg))
            except TanThetaError:
                reports.append(None)
        return reports

    def check(self, reports) -> list:
        problems = []
        for cfg, report, expected in zip(self.configs, reports, self.oracle):
            if report is not None:
                problems += _check_trial(report, expected, f"trial {cfg.dim0}x{cfg.dim1}")
        return problems

    def blocks(self):
        return iter(self._blocks)


def audit_file(path):
    """The check-identities path with its default audit seed: load, locate
    the gap, partition, extract the angular operator, audit the identities."""
    block = model.load_instance(path)
    partition = spectral.perturbed_partition(block, spectral.find_disposition(block))
    ang = riccati.extract_angular_operator(partition, block)
    return ang, riccati.verify_lemma_identities(ang, block, seed=0)


class InstanceAudit:
    """The identity audit on instance files written before timing."""

    name = "instance_audit"

    def __init__(self, seed: int, workdir):
        self.paths = []
        self.oracle = []
        self._blocks = []
        for i, (m, n, ratio) in enumerate(AUDIT_FILES):
            cfg = GenConfig(dim0=m, dim1=n, D=4.0, d=1.0, ratio=ratio, conjugate=True,
                            seed=trial_seed(seed, i))
            block, disp = harness.generate_instance(cfg)
            path = workdir / f"instance_{i}.json"
            model.save_instance(block, path)
            self.paths.append(path)
            self.oracle.append(oracle_distance(block, disp))
            self._blocks.append(block)

    def run_pass(self, rec):
        results = []
        for path in self.paths:
            try:
                results.append(rec.item(audit_file, path))
            except TanThetaError:
                results.append(None)
        return results

    def check(self, results) -> list:
        problems = []
        for path, result, expected in zip(self.paths, results, self.oracle):
            if result is None:
                continue
            ang, audit = result
            if not abs(ang.sin_theta - expected) <= ORACLE_TOL:
                problems.append(f"{path.name}: sin(arctan ||X||) {ang.sin_theta!r} "
                                f"!= oracle {expected!r}")
            if audit.max_residual > IDENTITY_TOL:
                problems.append(f"{path.name}: identity residual {audit.max_residual!r}")
        return problems

    def blocks(self):
        return iter(self._blocks)


WORKLOADS = {w.name: w for w in (CampaignSmall, TrialLarge, InstanceAudit)}
