import numpy as np
import pytest

from tantheta import (
    ConfigInvalid,
    GenConfig,
    Verification,
    find_disposition,
    generate_instance,
    make_block_operator,
    run_sweep,
    run_trial,
    write_reports,
)
from tantheta.harness import (
    MARGIN_FAILURE_THRESHOLD,
    FailureRecord,
    TrialReport,
    report_to_json_line,
    splitmix64,
    summary_to_json_line,
    trial_seed,
)


def base_cfg(**overrides):
    kw = dict(dim0=3, dim1=4, D=4.0, d=1.0, ratio=0.5, seed=11)
    kw.update(overrides)
    return GenConfig(**kw)


class TestGenConfig:
    def test_validate_accepts_default(self):
        base_cfg().validate()

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
        ],
    )
    def test_validate_rejects(self, overrides):
        with pytest.raises(ConfigInvalid):
            base_cfg(**overrides).validate()


class TestGenerateInstance:
    def test_disposition_is_exact(self):
        for seed in range(20):
            block, disp = generate_instance(base_cfg(seed=seed))
            measured = find_disposition(block)
            assert measured.d == pytest.approx(disp.d, abs=1e-12)
            assert measured.D == pytest.approx(disp.D, abs=1e-12)
            assert block.v_norm == pytest.approx(0.5, abs=1e-12)

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

    def test_large_ratio_skips_cross_check(self):
        rep = run_trial(base_cfg(ratio=1.2, seed=4))
        assert rep.cross_method_deviation is None
        assert rep.region == "OMEGA1_1"

    def test_zero_ratio(self):
        rep = run_trial(base_cfg(ratio=0.0))
        assert rep.distance == 0.0
        assert rep.bound == 0.0
        assert rep.x_norm == 0.0


def test_array_records_compare_by_identity():
    # Records holding arrays hash and compare by identity: two records of
    # one block's values are unequal, and each equals itself.
    block, _ = generate_instance(base_cfg(dim0=3, dim1=5))
    twin = make_block_operator(block.A0.entries, block.A1.entries, block.B)
    ver, other = Verification(block), Verification(twin)
    pairs = [
        (block, twin),
        (block.A0, twin.A0),
        (block.A0.eig, twin.A0.eig),
        (ver, other),
        (ver.partition, other.partition),
        (ver.partition.P0, other.partition.P0),
        (ver.angular, other.angular),
    ]
    for one, two in pairs:
        assert len({one, two}) == 2
        assert one == one and one != two


class TestDecompositionCount:
    """Which matrices one trial hands to numpy's decompositions; a count,
    so it does not depend on timing."""

    def test_each_matrix_decomposed_at_most_once(self, monkeypatch):
        cfg = base_cfg(dim0=8, dim1=12, ratio=0.5, conjugate=True, seed=21)
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
        report = run_trial(cfg)
        monkeypatch.undo()
        assert report.cross_method_deviation is not None  # the fixed point ran

        block, _ = generate_instance(cfg)
        X = Verification(block, seed=cfg.seed).angular.X
        n = block.n
        square = [(name, M.shape) for name, M in calls if M.shape == (n, n)]
        assert square == [("eigh", (n, n))]
        L = block.assemble_perturbed()
        assert any(name == "eigh" and np.array_equal(M, L) for name, M in calls)

        def times_decomposed(target):
            return sum(
                np.array_equal(M, target) or np.array_equal(M, target.T) for _, M in calls
            )

        for label, target in (
            ("A0", block.A0.entries), ("A1", block.A1.entries), ("B", block.B), ("X", X)
        ):
            assert times_decomposed(target) <= 1, label

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
            assert times_decomposed(target) + times_gram_decomposed(target) <= 1, label
        assert times_gram_decomposed(block.B) == 1  # ||B||, from its Gram matrix

        # The only SVD of a trial is the one of Y1, the lower block of the
        # in-gap eigenvectors, and the only SVD-based 2-norm is generation's.
        Y1 = Verification(block, seed=cfg.seed).partition.P0.basis[block.dim0 :]
        svds = [M for name, M in calls if name == "svd"]
        assert len(svds) == 1 and np.array_equal(svds[0], Y1)
        assert sum(name == "norm" for name, _ in calls) <= 1


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

    def test_rejects_bad_grid(self):
        with pytest.raises(ConfigInvalid):
            run_sweep(base_cfg(), trials=1, ratio_grid=[0.5, 2.0])

    def test_rejects_nan_grid(self):
        with pytest.raises(ConfigInvalid):
            run_sweep(base_cfg(), trials=1, ratio_grid=[0.5, float("nan")])

    def test_rejects_negative_trials(self):
        with pytest.raises(ConfigInvalid):
            run_sweep(base_cfg(), trials=-1, ratio_grid=[0.5])

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
        rows = list(csv.DictReader(p.open(newline="")))
        assert "method" not in rows[0]
        assert rows[0]["apriori"] != ""
        assert rows[1]["seed"] == "7"
        assert rows[1]["region"] == "failed:NoConvergence"
        assert all(rows[1][k] == "" for k in rows[1] if k not in ("seed", "region"))

    def test_unknown_format(self, tmp_path):
        records, summary = run_sweep(base_cfg(), trials=1, ratio_grid=[0.5])
        with pytest.raises(ConfigInvalid):
            write_reports(records, summary, tmp_path / "x", fmt="yaml")


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
        obj = json.loads(summary_to_json_line(summary))
        assert obj["summary"] is True
        assert obj["trials"] == 2

    def test_failure_record_stream(self, tmp_path):
        import json

        from tantheta.harness import failure_to_json_line

        rec = FailureRecord(7, "NoConvergence", 'iteration "stalled"\nat 3')
        obj = json.loads(failure_to_json_line(rec))
        assert obj["seed"] == 7
        assert obj["error"] == "NoConvergence"
        assert obj["message"] == 'iteration "stalled"\nat 3'

    @pytest.mark.parametrize(
        "message", ["tab\there", "carriage\rreturn", "nul\x00byte", "accent é"]
    )
    def test_failure_record_control_characters(self, message):
        import json

        from tantheta.harness import failure_to_json_line

        line = failure_to_json_line(FailureRecord(7, "NoConvergence", message))
        assert "\n" not in line
        assert json.loads(line)["message"] == message
