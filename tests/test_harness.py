import csv
import importlib.util
import json
import math
import re
import struct
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from tantheta import (
    BlockOperator,
    ConfigInvalid,
    GapEmptyOrRankMismatch,
    GraphExtractionFailed,
    NoConvergence,
    ResidualTooLarge,
    GenConfig,
    SymMatrix,
    Verification,
    find_disposition,
    generate_instance,
    load_instance,
    perturbed_partition,
    run_sweep,
    run_trial,
    save_instance,
    write_reports,
)
from tantheta import harness
from tantheta.harness import (
    MARGIN_FAILURE_THRESHOLD,
    REPORT_FIELDS,
    FailureRecord,
    SweepSummary,
    TrialReport,
    report_to_json_line,
    splitmix64,
    trial_seed,
)


# tools/output_digest.py, for its sweep geometries and ratio grid.
_spec = importlib.util.spec_from_file_location(
    "output_digest", Path(__file__).resolve().parents[1] / "tools" / "output_digest.py"
)
DIGEST_TOOL = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(DIGEST_TOOL)


def base_cfg(**overrides):
    kw = dict(dim0=3, dim1=4, D=4.0, d=1.0, ratio=0.5, seed=11)
    kw.update(overrides)
    return GenConfig(**kw)


class TestGenConfig:
    @pytest.mark.parametrize(
        "overrides",
        [{}, {"ratio": 0.0}, {"d": 2.0, "ratio": math.nextafter(math.sqrt(2.0), 0.0)},
         {"seed": 2**64 - 1}],
    )
    def test_accepts_default_and_edges(self, overrides):
        assert replace(base_cfg(), **overrides) == base_cfg(**overrides)

    @pytest.mark.parametrize(
        "overrides",
        [
            {"dim0": 0},
            {"dim1": 1},
            {"d": 0.0},
            {"d": 2.5},
            {"ratio": -0.1},
            {"ratio": 2.0},  # sqrt(D/d) = 2
            {"span": 0.0},
            {"seed": -1},
            {"ratio": float("nan")},
            {"span": float("nan")},
            {"D": float("inf")},
            {"span": float("inf")},
            {"D": 10**400},  # no finite float value
            {"dim0": 2**70},  # past numpy's array size
            {"dim1": 2**70},
            {"span": 10**400},
        ],
    )
    def test_rejects_at_construction(self, overrides):
        with pytest.raises(ConfigInvalid):
            base_cfg(**overrides)
        # dataclasses.replace builds a new config, which checks itself too.
        with pytest.raises(ConfigInvalid):
            replace(base_cfg(), **overrides)

    @pytest.mark.parametrize(
        "name, value",
        [
            ("dim0", 2.5), ("dim0", True), ("dim1", np.float64(4.0)), ("seed", 1.5),
            ("seed", False), ("D", "4"), ("d", True), ("ratio", None), ("span", 1j),
            ("conjugate", "no"), ("conjugate", 1),
        ],
    )
    def test_wrong_type_names_the_field(self, name, value):
        with pytest.raises(ConfigInvalid, match=f"^{name} must be"):
            run_trial(base_cfg(**{name: value}))

    def test_integer_and_numpy_values_give_the_same_report(self):
        ref = report_to_json_line(run_trial(base_cfg(D=4.0, d=1.0)))
        assert report_to_json_line(run_trial(base_cfg(D=4, d=1))) == ref
        numpy_cfg = base_cfg(dim0=np.int64(3), dim1=np.uint8(4), seed=np.uint64(11),
                             D=np.float32(4.0), ratio=np.float64(0.5))
        assert report_to_json_line(run_trial(numpy_cfg)) == ref


class TestGenerateInstance:
    def test_disposition_is_exact(self):
        for seed in range(20):
            block, disp = generate_instance(base_cfg(seed=seed))
            assert find_disposition(block) == disp
            assert (disp.d, disp.D) == (1.0, 4.0)
            assert block.v_norm == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize(
        "base_seed, geometry", list(enumerate(DIGEST_TOOL.SWEEP_GEOMETRIES, 1000))
    )
    def test_every_draw_below_the_gate_has_norm_ratio_d(self, base_seed, geometry):
        # The draws of a 42-trial sweep over the digest's ratio grid.
        D, d, dim0, dim1, conjugate = geometry
        grid = DIGEST_TOOL.SWEEP_RATIOS
        for index in range(42 * len(grid)):
            ratio = grid[index % len(grid)]
            if ratio == 0.0:
                continue
            cfg = GenConfig(dim0=dim0, dim1=dim1, D=D, d=d, ratio=ratio, conjugate=conjugate,
                            seed=trial_seed(base_seed, index))
            block, disp = generate_instance(cfg)
            assert block.v_norm < math.sqrt(disp.d * disp.D)
            assert abs(block.v_norm / (ratio * d) - 1.0) <= 8 * 2.0**-52, (index, ratio)

    def test_zero_ratio_gives_zero_coupling(self):
        block, _ = generate_instance(base_cfg(ratio=0.0))
        assert block.v_norm == 0.0

    def test_deterministic(self):
        b1, _ = generate_instance(base_cfg(seed=7))
        b2, _ = generate_instance(base_cfg(seed=7))
        assert np.array_equal(b1.B, b2.B)
        assert np.array_equal(b1.A0.entries, b2.A0.entries)

    def test_conjugation_preserves_invariants(self):
        plain, _ = generate_instance(base_cfg(seed=3))
        conj, _ = generate_instance(base_cfg(seed=3, conjugate=True))
        md_p = find_disposition(plain)
        md_c = find_disposition(conj)
        assert md_c.d == pytest.approx(md_p.d, abs=1e-9)
        assert md_c.D == pytest.approx(md_p.D, abs=1e-9)
        assert conj.v_norm == pytest.approx(plain.v_norm, abs=1e-9)
        # but the conjugated blocks are genuinely dense
        assert abs(conj.A1.entries[0, 1]) > 1e-6


class TestEdgeRatio:
    """At a ratio one ulp below sqrt(D/d) the rounding of the scaling and
    of the conjugation can lift ||B|| onto the partition gate sqrt(d D);
    the generator scales B back below it."""

    @pytest.mark.parametrize("D, d", [(2.0, 1.0), (1e11, 0.1)])
    @pytest.mark.parametrize("dims", [(2, 3), (4, 6), (8, 12)])
    @pytest.mark.parametrize("conjugate", [False, True])
    def test_every_edge_draw_passes_the_partition_gate(self, D, d, dims, conjugate):
        ratio = math.nextafter(math.sqrt(D / d), 0.0)
        for i in range(10):
            cfg = GenConfig(dim0=dims[0], dim1=dims[1], D=D, d=d, ratio=ratio,
                            conjugate=conjugate, seed=trial_seed(1, i))
            block, disp = generate_instance(cfg)
            assert find_disposition(block) == disp
            assert block.v_norm < math.sqrt(disp.d * disp.D)
            assert perturbed_partition(block, disp).omega0.size == dims[0]

    @pytest.mark.parametrize("conjugate", [False, True])
    def test_underflowed_gate_is_left_to_the_partition(self, conjugate):
        # sqrt(d D) underflows to 0.0, so no rescale can bring ||B|| below it.
        cfg = GenConfig(dim0=2, dim1=3, D=2e-300, d=1e-300, ratio=0.5, conjugate=conjugate)
        block, disp = generate_instance(cfg)
        assert math.sqrt(disp.d * disp.D) == 0.0 < block.v_norm
        with pytest.raises(GapEmptyOrRankMismatch, match=re.escape("sqrt(d*D) = 0.0")):
            run_trial(cfg)


class TestSeedMixing:
    def test_splitmix64_is_stable(self):
        # reference values of the standard finalizer
        assert splitmix64(0) == 16294208416658607535
        assert splitmix64(1) == 10451216379200822465

    def test_trial_seeds_distinct(self):
        seeds = {trial_seed(11, i) for i in range(1000)}
        assert len(seeds) == 1000

    def test_trial_seed_in_range(self):
        for i in (0, 5, 999):
            assert 0 <= trial_seed((1 << 64) - 1, i) < (1 << 64)


class TestRunTrial:
    def test_report_contract(self):
        rep = run_trial(base_cfg(seed=42))
        assert isinstance(rep, TrialReport)
        assert rep.margin == pytest.approx(rep.bound - rep.distance)
        assert rep.margin > MARGIN_FAILURE_THRESHOLD
        assert 0.0 <= rep.distance <= 1.0
        assert rep.lemma_max_residual <= 1e-8
        assert rep.cross_method_deviation is not None
        assert rep.cross_method_deviation <= 1e-8 * (1.0 + rep.x_norm)

    def test_cross_check_without_convergence_is_null(self, monkeypatch):
        def stalls(*args):
            raise NoConvergence("stalled")

        monkeypatch.setattr(harness, "solve_riccati_fixed_point", stalls)
        rep = run_trial(base_cfg(seed=42))
        assert rep.cross_method_deviation is None
        assert json.loads(report_to_json_line(rep))["cross_method_deviation"] is None

    def test_large_ratio_skips_cross_check(self):
        rep = run_trial(base_cfg(ratio=1.2, seed=4))
        assert rep.cross_method_deviation is None
        assert rep.region == "OMEGA1_1"

    def test_zero_ratio(self):
        rep = run_trial(base_cfg(ratio=0.0))
        assert rep.distance == 0.0
        assert rep.bound == 0.0
        assert rep.x_norm == 0.0

    @pytest.mark.parametrize("seed", [0, 2, 4, 5, 8])
    def test_zero_ratio_conjugated_norms_are_positive_zero(self, seed):
        # The zero Y1 block then holds -0.0 entries, and LAPACK can return a
        # -0.0 singular value for it.
        cfg = base_cfg(dim0=3, dim1=5, ratio=0.0, conjugate=True, seed=seed)
        rep = run_trial(cfg)
        ver = Verification(generate_instance(cfg)[0])
        assert not np.signbit([rep.distance, rep.x_norm]).any()
        assert not np.signbit(ver.angular.eigenvalues_abs).any()


@pytest.mark.parametrize("index", range(3))
@pytest.mark.parametrize("ratio", [0.5, 1.2])
@pytest.mark.parametrize("geometry", [(2, 3, 2.0, 1.0, False), (4, 6, 2.5, 1.0, True)])
def test_one_margin(geometry, ratio, index):
    # Campaign geometries and seeds, plain and conjugated: the trial's
    # margin is Verification's, which is bound - distance, bit for bit.
    dim0, dim1, D, d, conjugate = geometry
    cfg = GenConfig(dim0=dim0, dim1=dim1, D=D, d=d, ratio=ratio, conjugate=conjugate,
                    seed=trial_seed(1000, index))
    ver = Verification(generate_instance(cfg)[0])
    margins = (run_trial(cfg).margin, ver.margin, ver.bound.projection_bound - ver.distance)
    assert len({m.hex() for m in margins}) == 1, margins


class TestVerificationPipeline:
    """Verification runs its six stage functions once each, in pipeline
    order, and the first stage that raises ends it with its own error."""

    STAGES = (
        "find_disposition", "perturbed_partition", "extract_angular_operator",
        "projection_distance", "m_total", "verify_lemma_identities",
    )

    def test_each_stage_runs_once_in_order(self, monkeypatch):
        calls = []

        def spied(name, fn):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)

            return wrapper

        block = generate_instance(base_cfg())[0]
        for name in self.STAGES:
            monkeypatch.setattr(harness, name, spied(name, getattr(harness, name)))
        ver = Verification(block)
        assert calls == list(self.STAGES)
        ver.disposition, ver.partition, ver.angular, ver.distance, ver.bound, ver.audit
        assert calls == list(self.STAGES)
        # Generation reads its disposition off the drawn block first.
        run_trial(base_cfg())
        assert calls == list(self.STAGES) + ["find_disposition"] + list(self.STAGES)

    def test_first_failing_stage_reports_its_error(self, monkeypatch):
        def failing(error):
            def stage(*args, **kwargs):
                raise error

            return stage

        monkeypatch.setattr(
            harness, "extract_angular_operator", failing(GraphExtractionFailed("from extraction"))
        )
        monkeypatch.setattr(
            harness, "verify_lemma_identities", failing(ResidualTooLarge("from the audit"))
        )
        cfg = base_cfg()
        with pytest.raises(GraphExtractionFailed, match="from extraction"):
            Verification(generate_instance(cfg)[0])
        records, summary = run_sweep(cfg, 1, [0.5])
        seed = trial_seed(cfg.seed, 0)
        assert records == [FailureRecord(seed, "GraphExtractionFailed", "from extraction")]
        assert summary.failures == 1


def test_array_records_compare_by_identity():
    # Records holding arrays hash and compare by identity: two records of
    # one block's values are unequal, and each equals itself.
    block, _ = generate_instance(base_cfg(dim0=3, dim1=5))
    twin = BlockOperator(block.A0.entries, block.A1.entries, block.B)
    ver, other = Verification(block), Verification(twin)
    pairs = [
        (block, twin),
        (block.A0, twin.A0),
        (block.A0.eig, twin.A0.eig),
        (ver, other),
        (ver.partition, other.partition),
        (ver.angular, other.angular),
        (ver.audit, other.audit),
    ]
    for one, two in pairs:
        assert len({one, two}) == 2
        assert one == one and one != two


class TestDecompositionCount:
    """Which matrices one trial hands to numpy's decompositions; a count,
    so it does not depend on timing."""

    @staticmethod
    def record_decompositions(monkeypatch, run):
        """The (name, argument) of every eigh, eigvalsh, svd and 2-norm call
        that run() makes."""
        calls = []

        def recording(name, fn):
            def wrapper(*args, **kwargs):
                ord_ = args[1] if len(args) > 1 else kwargs.get("ord")
                if name != "norm" or ord_ == 2:
                    calls.append((name, np.array(args[0], dtype=float)))
                return fn(*args, **kwargs)

            return wrapper

        for name in ("eigh", "eigvalsh", "svd", "norm"):
            monkeypatch.setattr(np.linalg, name, recording(name, getattr(np.linalg, name)))
        result = run()
        monkeypatch.undo()
        return calls, result

    @staticmethod
    def times_decomposed(calls, target):
        return sum(np.array_equal(M, target) or np.array_equal(M, target.T) for _, M in calls)

    def test_each_matrix_decomposed_at_most_once(self, monkeypatch):
        cfg = base_cfg(dim0=8, dim1=12, ratio=0.5, conjugate=True, seed=21)
        calls, report = self.record_decompositions(monkeypatch, lambda: run_trial(cfg))
        assert report.cross_method_deviation is not None  # the fixed point ran

        block, _ = generate_instance(cfg)
        X = Verification(block).angular.X
        n = block.n
        square = [(name, M.shape) for name, M in calls if M.shape == (n, n)]
        assert square == [("eigh", (n, n))]
        L = block.assemble_perturbed()
        assert sum(name == "eigh" and np.array_equal(M, L) for name, M in calls) == 1

        # A generated block carries the spectra A0 and A1 were built from,
        # so neither reaches an eigensolver.
        assert self.times_decomposed(calls, block.A0.entries) == 0
        assert self.times_decomposed(calls, block.A1.entries) == 0
        for label, target in (("B", block.B), ("X", X)):
            assert self.times_decomposed(calls, target) <= 1, label

        # A symmetric eigensolve of M^T M or M M^T (scaled) decomposes M too.
        def times_gram_decomposed(target):
            grams = [target.T @ target, target @ target.T]
            return sum(
                name in ("eigh", "eigvalsh")
                and any(
                    M.shape == G.shape
                    and np.max(np.abs(G)) > 0.0
                    and np.allclose(M / np.max(np.abs(M)), G / np.max(np.abs(G)),
                                    rtol=1e-10, atol=1e-12)
                    for G in grams
                )
                for name, M in calls
            )

        for label, target in (("B", block.B), ("X", X)):
            assert (
                self.times_decomposed(calls, target) + times_gram_decomposed(target) <= 1
            ), label
        assert times_gram_decomposed(block.B) == 1  # ||B||, from its Gram matrix

        # The only SVD of a trial is the one of Y1, the lower block of the
        # in-gap eigenvectors, and no 2-norm is SVD-based.
        Y1 = Verification(block).partition.basis[block.dim0 :]
        svds = [M for name, M in calls if name == "svd"]
        assert len(svds) == 1 and np.array_equal(svds[0], Y1)
        assert not any(name == "norm" for name, _ in calls)

    def test_loaded_instance_decomposes_each_diagonal_block_once(self, monkeypatch, tmp_path):
        block, _ = generate_instance(base_cfg(dim0=8, dim1=12, conjugate=True, seed=21))
        path = tmp_path / "instance.json"
        save_instance(block, path)
        calls, ver = self.record_decompositions(
            monkeypatch, lambda: Verification(load_instance(path))
        )
        for label, target in (("A0", block.A0.entries), ("A1", block.A1.entries)):
            assert [name for name, M in calls if np.array_equal(M, target)] == ["eigh"], label
        assert self.times_decomposed(calls, ver.block.assemble_perturbed()) == 1


class TestGeneratedSpectra:
    """A generated block carries the spectra A0 and A1 were built from;
    np.linalg.eigvalsh and a block rebuilt from the same entries, whose
    spectra come from eigh, are the references."""

    @staticmethod
    def assert_values_match_eigvalsh(S):
        ref = np.linalg.eigvalsh(S.entries)
        assert np.max(np.abs(S.eig.values - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("ratio", [0.5, 1.2])
    @pytest.mark.parametrize("dim0, dim1", [(2, 3), (8, 12), (6, 3)])
    def test_generated_trial_matches_the_eigh_path(self, dim0, dim1, ratio):
        for seed in range(4):
            cfg = base_cfg(dim0=dim0, dim1=dim1, ratio=ratio, conjugate=True, seed=seed)
            block, disp = generate_instance(cfg)
            self.assert_values_match_eigvalsh(block.A0)
            self.assert_values_match_eigvalsh(block.A1)
            rebuilt = BlockOperator(block.A0.entries, block.A1.entries, block.B)
            one, two = Verification(block), Verification(rebuilt)
            assert (one.disposition.D, one.disposition.d) == (disp.D, disp.d)
            for name in ("D", "d"):
                mine, ref = getattr(one.disposition, name), getattr(two.disposition, name)
                assert abs(mine - ref) <= 1e-14 * ref, name
            assert one.distance == two.distance
            assert one.angular.norm == two.angular.norm
            assert one.angular.riccati_residual == two.angular.riccati_residual
            assert one.audit.max_residual == two.audit.max_residual
            assert one.bound.region == two.bound.region

    def test_repeated_eigenvalue(self):
        sigma = np.array([-1.0, 0.5, 0.5, 0.5, 2.0])
        Q, _ = np.linalg.qr(np.random.default_rng(5).standard_normal((5, 5)))
        S = SymMatrix((Q * sigma) @ Q.T, spectrum=(sigma, Q))
        assert np.array_equal(S.eig.values, sigma)
        self.assert_values_match_eigvalsh(S)


class TestRunSweep:
    def test_counts_and_order(self):
        records, summary = run_sweep(base_cfg(), trials=3, ratio_grid=[0.2, 0.8])
        assert summary.trials == 6
        assert summary.failures == 0
        assert len(records) == 6
        assert summary.min_margin > MARGIN_FAILURE_THRESHOLD
        assert 0.0 < summary.max_distance_bound_ratio <= 1.0
        expect = [trial_seed(11, i) for i in range(6)]
        assert [r.seed for r in records] == expect

    def test_empty_sweep(self):
        records, summary = run_sweep(base_cfg(), trials=0, ratio_grid=[0.5])
        assert records == []
        assert summary.trials == 0
        assert summary.min_margin is None
        assert summary.max_distance_bound_ratio is None

    def test_generator_grid_gives_the_list_grid_records(self):
        records, summary = run_sweep(base_cfg(), 2, (r / 10 for r in (3, 5)))
        ref_records, ref_summary = run_sweep(base_cfg(), 2, [0.3, 0.5])
        assert summary == ref_summary and summary.trials == 4
        assert list(map(report_to_json_line, records)) == list(
            map(report_to_json_line, ref_records)
        )

    def test_overflowing_audit_is_a_failure_not_nan(self):
        base = base_cfg(dim0=3, dim1=5, D=4e154, d=1e153, conjugate=True)
        records, summary = run_sweep(base, 3, [0.5, 1.2])
        assert summary.failures == summary.trials == 6
        assert {(type(rec), rec.error) for rec in records} == {(FailureRecord, "ResidualTooLarge")}

    def test_empty_grid_still_validates_the_base(self):
        # The base is checked when it is built, before run_sweep sees it.
        with pytest.raises(ConfigInvalid, match="^D must be a real number"):
            run_sweep(GenConfig(dim0=3, dim1=4, D="4", d=1.0, ratio=0.0), 1, [])

    def test_rejects_bad_grid_before_any_trial(self, monkeypatch):
        calls = []
        monkeypatch.setattr(harness, "run_trial", calls.append)
        with pytest.raises(ConfigInvalid, match="^ratio must"):
            run_sweep(base_cfg(), trials=3, ratio_grid=[0.5, 2.0])
        assert calls == []

    def test_rejects_nan_grid(self):
        with pytest.raises(ConfigInvalid):
            run_sweep(base_cfg(), trials=1, ratio_grid=[0.5, float("nan")])

    def test_rejects_negative_trials(self):
        with pytest.raises(ConfigInvalid):
            run_sweep(base_cfg(), trials=-1, ratio_grid=[0.5])

    @pytest.mark.parametrize(
        "trials, grid", [(1.5, [0.5]), (True, [0.5]), ("2", [0.5]), (1, [True]), (1, ["0.5"])]
    )
    def test_rejects_mistyped_trials_or_grid(self, trials, grid):
        with pytest.raises(ConfigInvalid, match="^(trials|ratio) must be"):
            run_sweep(base_cfg(), trials=trials, ratio_grid=grid)

    def test_numpy_integers_write_the_same_bytes(self, tmp_path):
        cfg = base_cfg(dim0=np.int64(3), seed=np.int64(11))
        for name, config, trials in (("py", base_cfg(), 2), ("np", cfg, np.int64(2))):
            write_reports(*run_sweep(config, trials, [0.5]), tmp_path / name)
        assert (tmp_path / "py").read_bytes() == (tmp_path / "np").read_bytes()

    def test_byte_identical_reruns(self, tmp_path):
        paths = []
        for run in range(2):
            records, summary = run_sweep(
                base_cfg(), trials=4, ratio_grid=[0.3, 1.1]
            )
            p = tmp_path / f"out{run}.jsonl"
            write_reports(records, summary, p)
            paths.append(p.read_bytes())
        assert paths[0] == paths[1]

    def test_csv_output(self, tmp_path):
        records, summary = run_sweep(base_cfg(), trials=2, ratio_grid=[0.5])
        p = tmp_path / "out.csv"
        write_reports(records, summary, p, fmt="csv")
        lines = p.read_text().splitlines()
        assert len(lines) == 4  # header + 2 rows + summary
        assert lines[0].startswith("seed,dims,D,d,v,region,")
        assert lines[-1].startswith("summary,2,0,")

    def test_csv_failure_row(self, tmp_path):
        import csv

        records, summary = run_sweep(base_cfg(), trials=1, ratio_grid=[0.5])
        records.append(FailureRecord(7, "NoConvergence", "stalled"))
        p = tmp_path / "out.csv"
        write_reports(records, summary, p, fmt="csv")
        with p.open(newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert "method" not in rows[0]
        assert rows[0]["apriori"] != ""
        assert rows[1]["seed"] == "7"
        assert rows[1]["region"] == "failed:NoConvergence"
        assert all(rows[1][k] == "" for k in rows[1] if k not in ("seed", "region"))

    def test_jsonl_failure_line(self, tmp_path):
        records, summary = run_sweep(base_cfg(), trials=1, ratio_grid=[0.5])
        records.append(FailureRecord(7, "NoConvergence", "stalled"))
        p = tmp_path / "out.jsonl"
        write_reports(records, summary, p, fmt="jsonl")
        lines = p.read_text().splitlines()
        assert len(lines) == 3  # report, failure, summary
        assert json.loads(lines[1]) == {"seed": 7, "error": "NoConvergence", "message": "stalled"}

    def test_partition_gate_prints_the_compared_floats(self):
        # ||B|| one ulp above sqrt(d D) = sqrt(2): the message must show the
        # two floats the gate compared, in full.
        gate = math.sqrt(2.0)
        B = np.array([[math.nextafter(gate, 3.0), 0.0]])
        block = BlockOperator(np.zeros((1, 1)), np.diag([-1.0, 1.0]), B)
        with pytest.raises(GapEmptyOrRankMismatch) as info:
            Verification(block)
        v, shown = re.fullmatch(
            r"\|\|B\|\| = (\S+) >= sqrt\(d\*D\) = (\S+)", str(info.value)
        ).groups()
        assert (float(v), float(shown)) == (block.v_norm, gate)
        assert float(v) > float(shown)

    def test_unknown_format(self, tmp_path):
        records, summary = run_sweep(base_cfg(), trials=1, ratio_grid=[0.5])
        with pytest.raises(ConfigInvalid):
            write_reports(records, summary, tmp_path / "x", fmt="yaml")
        assert not (tmp_path / "x").exists()


class TestSerialization:
    def test_jsonl_lines_parse(self, tmp_path):
        import json

        records, summary = run_sweep(base_cfg(), trials=2, ratio_grid=[0.4])
        for rec in records:
            obj = json.loads(report_to_json_line(rec))
            assert obj["seed"] == rec.seed
            assert obj["v"] == rec.v
            assert obj["distance"] == rec.distance
            assert "elapsed_ms" not in obj
        write_reports(records, summary, tmp_path / "r.jsonl")
        obj = json.loads((tmp_path / "r.jsonl").read_text().splitlines()[-1])
        assert obj["summary"] is True
        assert obj["trials"] == 2

    def test_floats_read_back_bit_identical(self, tmp_path):
        # ratio 1.5 > sqrt(2) leaves apriori and the cross-check None.
        records, summary = run_sweep(base_cfg(), trials=2, ratio_grid=[0.3, 1.5])
        write_reports(records, summary, tmp_path / "r.jsonl")
        write_reports(records, summary, tmp_path / "r.csv", fmt="csv")
        lines = (tmp_path / "r.jsonl").read_text().splitlines()
        with (tmp_path / "r.csv").open(newline="") as fh:
            rows = list(csv.DictReader(fh))
        nulls = 0
        for rec, line, row in zip(records, lines, rows):
            obj = json.loads(line)
            for name in REPORT_FIELDS:
                value = getattr(rec, name)
                if value is None:
                    assert obj[name] is None and row[name] == ""
                    nulls += 1
                elif isinstance(value, float):
                    assert type(obj[name]) is float, name
                    assert struct.pack("d", obj[name]) == struct.pack("d", value), name
                    assert struct.pack("d", float(row[name])) == struct.pack("d", value), name
        assert nulls > 0
        obj = json.loads(lines[-1])
        assert struct.pack("d", obj["min_margin"]) == struct.pack("d", summary.min_margin)

    def test_failure_record_stream(self, tmp_path):
        import json

        rec = FailureRecord(7, "NoConvergence", 'iteration "stalled"\nat 3')
        write_reports([rec], SweepSummary(1, 1, None, None), tmp_path / "r.jsonl")
        obj = json.loads((tmp_path / "r.jsonl").read_text().splitlines()[0])
        assert obj["seed"] == 7
        assert obj["error"] == "NoConvergence"
        assert obj["message"] == 'iteration "stalled"\nat 3'

    @pytest.mark.parametrize(
        "message", ["tab\there", "carriage\rreturn", "nul\x00byte", "accent é"]
    )
    def test_failure_record_control_characters(self, message, tmp_path):
        import json

        rec = FailureRecord(7, "NoConvergence", message)
        write_reports([rec], SweepSummary(1, 1, None, None), tmp_path / "r.jsonl")
        line, summary, end = (tmp_path / "r.jsonl").read_bytes().decode().split("\n")
        assert "\r" not in line and end == ""
        assert json.loads(line)["message"] == message
        assert json.loads(summary)["summary"] is True

    def test_layout_of_literal_records(self, tmp_path):
        # The exact bytes of both formats: None as null or an empty cell, a
        # failure's message escaped on one JSONL line, "\n" line ends.
        records = [
            TrialReport(seed=3, dims=(2, 3), D=2.0, d=1.0, v=1.5, region="OMEGA2",
                        distance=0.5, bound=0.75, margin=0.25, apriori=None,
                        x_norm=0.5773502691896257, riccati_residual=1e-16,
                        lemma_max_residual=2.5e-15, elapsed_ms=9.0),
            FailureRecord(5, "NoConvergence", 'stalled, "twice"\nat 3'),
            TrialReport(seed=2**64 - 1, dims=(4, 6), D=2.5, d=1.0, v=0.2, region="OMEGA1_0",
                        distance=0.1, bound=0.125, margin=0.025, apriori=0.19611613513818404,
                        x_norm=0.1, riccati_residual=0.0, lemma_max_residual=1.25e-16,
                        elapsed_ms=1.0, cross_method_deviation=3e-17),
        ]
        summary = SweepSummary(trials=3, failures=1, min_margin=None,
                               max_distance_bound_ratio=0.8)
        write_reports(records, summary, tmp_path / "r.jsonl")
        write_reports(records, summary, tmp_path / "r.csv", fmt="csv")
        assert (tmp_path / "r.jsonl").read_bytes().decode() == (
            '{"seed": 3, "dims": [2, 3], "D": 2.0, "d": 1.0, "v": 1.5, "region": "OMEGA2", '
            '"distance": 0.5, "bound": 0.75, "margin": 0.25, "apriori": null, '
            '"x_norm": 0.5773502691896257, "riccati_residual": 1e-16, '
            '"lemma_max_residual": 2.5e-15, "cross_method_deviation": null}\n'
            '{"seed": 5, "error": "NoConvergence", "message": "stalled, \\"twice\\"\\nat 3"}\n'
            '{"seed": 18446744073709551615, "dims": [4, 6], "D": 2.5, "d": 1.0, "v": 0.2, '
            '"region": "OMEGA1_0", "distance": 0.1, "bound": 0.125, "margin": 0.025, '
            '"apriori": 0.19611613513818404, "x_norm": 0.1, "riccati_residual": 0.0, '
            '"lemma_max_residual": 1.25e-16, "cross_method_deviation": 3e-17}\n'
            '{"summary": true, "trials": 3, "failures": 1, "min_margin": null, '
            '"max_distance_bound_ratio": 0.8}\n'
        )
        assert (tmp_path / "r.csv").read_bytes().decode() == (
            "seed,dims,D,d,v,region,distance,bound,margin,apriori,x_norm,riccati_residual,"
            "lemma_max_residual,cross_method_deviation\n"
            "3,2x3,2.0,1.0,1.5,OMEGA2,0.5,0.75,0.25,,0.5773502691896257,1e-16,2.5e-15,\n"
            "5,,,,,failed:NoConvergence,,,,,,,,\n"
            "18446744073709551615,4x6,2.5,1.0,0.2,OMEGA1_0,0.1,0.125,0.025,"
            "0.19611613513818404,0.1,0.0,1.25e-16,3e-17\n"
            "summary,3,1,,0.8,,,,,,,,,\n"
        )
