import json
import math

import numpy as np
import pytest

from tantheta import make_block_operator, save_instance
from tantheta.cli import main


class TestBound:
    def test_plain_output(self, capsys):
        assert main(["bound", "--D", "4", "--d", "1", "--v", "0.5"]) == 0
        out = capsys.readouterr().out
        assert "region: OMEGA1_0" in out
        assert "M2: -" in out  # not defined this deep inside the region

    def test_json_output(self, capsys):
        assert main(["bound", "--D", "4", "--d", "1", "--v", "0.5", "--json"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["M1"] == pytest.approx(math.sqrt(2.0) - 1.0, rel=1e-12)
        assert obj["M"] == obj["M1"]
        assert obj["M2"] is None
        assert obj["projection_bound"] < obj["M"]

    def test_out_of_domain_exits_2(self, capsys):
        assert main(["bound", "--D", "2", "--d", "1", "--v", "1.5"]) == 2
        assert "error:" in capsys.readouterr().err


class TestTrial:
    def test_json_trial(self, capsys):
        rc = main(
            ["trial", "--seed", "5", "--dim0", "2", "--dim1", "3",
             "--D", "4", "--d", "1", "--ratio", "0.5", "--json"]
        )
        assert rc == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["margin"] > 0.0
        assert obj["dims"] == [2, 3]
        assert "elapsed_ms" not in obj

    def test_plain_trial_reports_elapsed(self, capsys):
        rc = main(
            ["trial", "--seed", "5", "--dim0", "2", "--dim1", "3",
             "--D", "4", "--d", "1", "--ratio", "0.5"]
        )
        assert rc == 0
        assert "elapsed_ms:" in capsys.readouterr().out

    def test_json_trial_has_no_method_key(self, capsys):
        rc = main(
            ["trial", "--seed", "5", "--dim0", "2", "--dim1", "3",
             "--D", "4", "--d", "1", "--ratio", "0.5", "--json"]
        )
        assert rc == 0
        assert "method" not in json.loads(capsys.readouterr().out)

    def test_nan_ratio_exits_2(self, capsys):
        rc = main(
            ["trial", "--seed", "5", "--dim0", "2", "--dim1", "3",
             "--D", "4", "--d", "1", "--ratio", "nan"]
        )
        assert rc == 2

    def test_invalid_config_exits_2(self, capsys):
        rc = main(
            ["trial", "--seed", "5", "--dim0", "0", "--dim1", "3",
             "--D", "4", "--d", "1", "--ratio", "0.5"]
        )
        assert rc == 2


class TestSweep:
    def config(self, tmp_path, **overrides):
        raw = {
            "dim0": 2, "dim1": 3, "D": 4.0, "d": 1.0,
            "seed": 9, "trials": 2, "ratio_grid": [0.3, 1.0],
        }
        raw.update(overrides)
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(raw))
        return p

    def test_jsonl_sweep(self, tmp_path, capsys):
        cfg = self.config(tmp_path)
        out = tmp_path / "report.jsonl"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 5  # 4 trials + summary
        summary = json.loads(lines[-1])
        assert summary["summary"] is True
        assert summary["failures"] == 0
        assert "wrote 4 records" in capsys.readouterr().out

    def test_csv_sweep(self, tmp_path, capsys):
        cfg = self.config(tmp_path, trials=1)
        out = tmp_path / "report.csv"
        rc = main(["sweep", "--config", str(cfg), "--out", str(out),
                   "--format", "csv"])
        assert rc == 0
        assert out.read_text().splitlines()[0].startswith("seed,")

    def test_missing_key_exits_2(self, tmp_path, capsys):
        cfg = self.config(tmp_path)
        raw = json.loads(cfg.read_text())
        del raw["ratio_grid"]
        cfg.write_text(json.dumps(raw))
        rc = main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == 2

    @pytest.mark.parametrize(
        "overrides",
        [
            {"ratio_grid": [float("nan")]},
            {"ratio_grid": ["nan"]},
            {"seed": float("inf")},
            {"trials": 0},
            {"trials": -1},
            {"ratio_grid": []},
        ],
    )
    def test_nonfinite_or_vacuous_config_exits_2(self, tmp_path, capsys, overrides):
        cfg = self.config(tmp_path, **overrides)
        out = tmp_path / "report.jsonl"
        rc = main(["sweep", "--config", str(cfg), "--out", str(out)])
        assert rc == 2
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    def test_overflowing_seed_exits_2(self, tmp_path, capsys):
        cfg = self.config(tmp_path)
        cfg.write_text(cfg.read_text().replace('"seed": 9', '"seed": 1e400'))
        rc = main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "overrides",
        [
            {"conjugate": "false"},
            {"conjugate": 0},
            {"dim0": 2.9},
            {"dim1": "3"},
            {"trials": 1.5},
            {"trials": True},
            {"seed": 9.0},
            {"D": "4"},
            {"span": None},
            {"ratio_grid": [True]},
            {"ratio_grid": 0.5},
        ],
    )
    def test_mistyped_config_exits_2(self, tmp_path, capsys, overrides):
        cfg = self.config(tmp_path, **overrides)
        out = tmp_path / "report.jsonl"
        rc = main(["sweep", "--config", str(cfg), "--out", str(out)])
        assert rc == 2
        assert "must be a JSON" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag", [False, True])
    def test_conjugate_flag_reaches_the_sweep(self, tmp_path, capsys, monkeypatch, flag):
        import tantheta.cli as cli

        seen = []
        real = cli.run_sweep

        def spy(cfg, *args):
            seen.append(cfg)
            return real(cfg, *args)

        monkeypatch.setattr(cli, "run_sweep", spy)
        cfg = self.config(tmp_path, conjugate=flag, dim0=3, d=1, trials=1)
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
        assert seen[0].conjugate is flag
        assert (seen[0].dim0, seen[0].d, type(seen[0].d)) == (3, 1.0, float)

    def test_malformed_json_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{not json")
        rc = main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == 2


class TestExample:
    def test_rank1_inner(self, capsys):
        rc = main(["example", "rank1-inner", "--gamma", "2", "--a", "1",
                   "--v", "0.5", "--json"])
        assert rc == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["distance"] == pytest.approx(0.38268343236508984, abs=1e-12)
        assert abs(obj["distance_minus_closed_form"]) < 1e-12
        assert obj["margin"] >= -1e-12  # sharp instance: zero up to round-off

    def test_rank1_outer_attains_bound(self, capsys):
        rc = main(["example", "rank1-outer", "--gamma", "1", "--a", "0",
                   "--b", "1.2", "--json"])
        assert rc == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["distance"] == pytest.approx(obj["bound"], rel=1e-9)

    def test_circulant(self, capsys):
        rc = main(["example", "circulant", "--gamma", "2", "--a", "1",
                   "--b", "1.0", "--json"])
        assert rc == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["distance"] == pytest.approx(obj["closed_form"], abs=1e-10)

    def test_missing_parameter_exits_2(self, capsys):
        assert main(["example", "circulant", "--gamma", "2", "--a", "1"]) == 2


class TestCheckIdentities:
    def test_on_saved_instance(self, tmp_path, capsys):
        block = make_block_operator(
            np.diag([-1.0, 1.0]), np.diag([-2.0, 2.0]),
            np.array([[0.3, 0.4], [0.4, 0.3]]),
        )
        path = tmp_path / "instance.json"
        save_instance(block, path)
        rc = main(["check-identities", "--instance", str(path), "--json"])
        assert rc == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["max_residual"] <= 1e-8
        assert len(obj["per_pair"]) == 2

    def test_skips_distance_and_fixed_point(self, tmp_path, capsys, monkeypatch):
        from tantheta import harness

        def forbidden(*args, **kwargs):
            raise AssertionError("check-identities must not run this stage")

        monkeypatch.setattr(harness, "projection_distance", forbidden)
        monkeypatch.setattr(harness, "solve_riccati_fixed_point", forbidden)
        block = make_block_operator(
            np.diag([-1.0, 1.0]), np.diag([-2.0, 2.0]),
            np.array([[0.3, 0.4], [0.4, 0.3]]),
        )
        path = tmp_path / "instance.json"
        save_instance(block, path)
        assert main(["check-identities", "--instance", str(path)]) == 0

    def test_missing_file_exits_2(self, tmp_path, capsys):
        rc = main(["check-identities", "--instance", str(tmp_path / "nope.json")])
        assert rc == 2
