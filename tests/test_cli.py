import csv
import json
import math
import os
import re
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from tantheta import (
    BlockOperator, GenConfig, circulant_build, generate_instance, run_sweep, save_instance,
)
from tantheta.harness import REPORT_FIELDS
from tantheta.cli import main


class TestBound:
    def test_plain_output(self, capsys):
        assert main(["bound", "--D", "4", "--d", "1", "--v", "0.5"]) == 0
        out = capsys.readouterr().out
        assert "region: OMEGA1_0" in out
        assert "M2: -" in out  # not defined this deep inside the region
        assert "D: 4.0" in out.splitlines()

    def test_json_floats_render_like_trial(self, capsys):
        assert main(["bound", "--D", "4", "--d", "1", "--v", "0.5", "--json"]) == 0
        bound = capsys.readouterr().out
        assert main(["trial", "--seed", "5", "--dim0", "2", "--dim1", "3",
                     "--D", "4", "--d", "1", "--ratio", "0.5", "--json"]) == 0
        trial = capsys.readouterr().out
        assert '"D": 4.0' in bound and '"D": 4.0' in trial
        assert type(json.loads(trial)["D"]) is type(json.loads(bound)["D"]) is float

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

    @pytest.mark.parametrize("flag", ["--D", "--d", "--v"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("json_flag", [[], ["--json"]])
    def test_non_finite_input_exits_2(self, capsys, flag, value, json_flag):
        args = {"--D": "4", "--d": "1", "--v": "0.5", flag: value}
        assert main(["bound", *(x for kv in args.items() for x in kv), *json_flag]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "must be finite" in captured.err


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

    @pytest.mark.parametrize("flag", ["--dim0", "--dim1"])
    def test_dims_past_the_array_size_exit_2(self, capsys, flag):
        # numpy refuses such an array with ValueError, which main does not map.
        argv = ["trial", "--seed", "5", "--dim0", "2", "--dim1", "3",
                "--D", "4", "--d", "1", "--ratio", "0.5"]
        argv[argv.index(flag) + 1] = str(2**70)
        assert main(argv) == 2
        assert "past numpy's array size" in capsys.readouterr().err

    def test_overflowing_audit_exits_2(self, capsys):
        rc = main(
            ["trial", "--seed", "11", "--dim0", "3", "--dim1", "5", "--D", "4e154",
             "--d", "1e153", "--ratio", "1.2", "--conjugate", "--json"]
        )
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "identity residual nan is not finite" in captured.err


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

    def test_mistyped_base_with_empty_grid_names_the_field(self, tmp_path, capsys):
        cfg = self.config(tmp_path, D="4", ratio_grid=[])
        out = tmp_path / "report.jsonl"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 2
        assert "D must be a real number" in capsys.readouterr().err
        assert not out.exists()

    def test_overflowing_seed_exits_2(self, tmp_path, capsys):
        cfg = self.config(tmp_path)
        cfg.write_text(cfg.read_text().replace('"seed": 9', '"seed": 1e400'))
        rc = main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["D", "span"])
    def test_overflowing_float_exits_2(self, tmp_path, capsys, key):
        cfg = self.config(tmp_path, **{key: 2.5})
        cfg.write_text(cfg.read_text().replace(f'"{key}": 2.5', f'"{key}": 1e400'))
        out = tmp_path / "report.jsonl"
        rc = main(["sweep", "--config", str(cfg), "--out", str(out)])
        assert rc == 2
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("fmt", ["jsonl", "csv"])
    def test_floats_read_back_bit_identical(self, tmp_path, capsys, fmt):
        cfg = self.config(tmp_path, ratio_grid=[0.3, 1.5])
        out = tmp_path / f"report.{fmt}"
        assert main(["sweep", "--config", str(cfg), "--out", str(out), "--format", fmt]) == 0
        base = GenConfig(dim0=2, dim1=3, D=4.0, d=1.0, ratio=0.0, seed=9)
        records, _ = run_sweep(base, 2, [0.3, 1.5])
        if fmt == "jsonl":
            rows = [json.loads(line) for line in out.read_text().splitlines()]
        else:
            with out.open(newline="") as fh:
                rows = list(csv.DictReader(fh))
        for rec, row in zip(records, rows):
            for name in REPORT_FIELDS:
                value = getattr(rec, name)
                if isinstance(value, float):
                    cell = row[name] if fmt == "jsonl" else float(row[name])
                    assert type(cell) is float, name
                    assert struct.pack("d", cell) == struct.pack("d", value), name

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
        # GenConfig.validate checks each ratio_grid entry as the field `ratio`.
        ((key, value),) = overrides.items()
        name = "ratio" if key == "ratio_grid" and isinstance(value, list) else key
        err = capsys.readouterr().err
        assert re.search(rf"\b{name}\b", err), err
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
        assert (seen[0].dim0, seen[0].d) == (3, 1)

    @pytest.mark.parametrize("fmt", ["jsonl", "csv"])
    def test_integer_spellings_give_the_same_bytes(self, tmp_path, capsys, fmt):
        outputs = []
        for D, d, span, grid in ((4.0, 1.0, 1.0, [1.0, 0.0]), (4, 1, 1, [1, 0])):
            cfg = self.config(tmp_path, D=D, d=d, span=span, ratio_grid=grid)
            out = tmp_path / f"report-{type(D).__name__}.{fmt}"
            assert main(["sweep", "--config", str(cfg), "--out", str(out), "--format", fmt]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    def test_malformed_json_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{not json")
        rc = main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == 2

    @pytest.mark.parametrize("text", ["[1, 2]", "3", '"dim0"', "null"])
    def test_non_object_config_exits_2(self, tmp_path, capsys, text):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        out = tmp_path / "report.jsonl"
        rc = main(["sweep", "--config", str(cfg), "--out", str(out)])
        assert rc == 2
        assert "must be a JSON object" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key", ["conjugat", "ratio", "Dim0"])
    def test_unknown_key_exits_2(self, tmp_path, capsys, key):
        cfg = self.config(tmp_path, **{key: True})
        out = tmp_path / "report.jsonl"
        rc = main(["sweep", "--config", str(cfg), "--out", str(out)])
        assert rc == 2
        assert f"unknown config field {key!r}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key", ["dim0", "dim1", "D", "d", "trials", "ratio_grid"])
    def test_missing_key_is_named(self, tmp_path, capsys, key):
        cfg = self.config(tmp_path)
        raw = json.loads(cfg.read_text())
        del raw[key]
        cfg.write_text(json.dumps(raw))
        rc = main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert f"config field {key!r} is missing" in capsys.readouterr().err

    def test_optional_keys_take_their_defaults(self, tmp_path, capsys, monkeypatch):
        import tantheta.cli as cli

        seen = []
        real = cli.run_sweep

        def spy(cfg, *args):
            seen.append(cfg)
            return real(cfg, *args)

        monkeypatch.setattr(cli, "run_sweep", spy)
        cfg = self.config(tmp_path, trials=1)
        raw = json.loads(cfg.read_text())
        del raw["seed"]
        cfg.write_text(json.dumps(raw))
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
        assert (seen[0].span, seen[0].conjugate, seen[0].seed) == (1.0, False, 0)


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

    @pytest.mark.parametrize(
        "family, gamma, a, b", [("rank1-inner", "2", "1", "0.5"), ("rank1-outer", "2", "1", "1.8")]
    )
    def test_b_and_v_are_one_option(self, capsys, family, gamma, a, b):
        outputs = []
        for spelling in ("--b", "--v"):
            for extra in ([], ["--json"]):
                argv = ["example", family, "--gamma", gamma, "--a", a, spelling, b] + extra
                assert main(argv) == 0
                outputs.append(capsys.readouterr().out)
        assert outputs[:2] == outputs[2:]

    def test_missing_parameter_exits_2(self, capsys):
        assert main(["example", "circulant", "--gamma", "2", "--a", "1"]) == 2

    def test_rank1_outer_at_tiny_a(self, capsys):
        # h = (2 gamma^2 - b^2) / (2a) is 2.8e199 here: its square overflows.
        rc = main(["example", "rank1-outer", "--gamma", "1", "--a", "1e-200", "--b", "1.2",
                   "--json"])
        assert rc == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["distance"] == pytest.approx(obj["bound"], rel=1e-9)

    def test_maximizer_near_gamma_exits_0(self):
        # D/d = 1e8: its phi maximizer lies 1e-8 below gamma, and the
        # margin is -3.2e-9, above the failure threshold.
        src = Path(__file__).resolve().parents[1] / "src"
        done = subprocess.run(
            [sys.executable, "-m", "tantheta.cli", "example", "rank1-outer", "--gamma", "1",
             "--a", "0.99999998", "--b", "0.00019999999969756423"],
            capture_output=True, text=True, timeout=60, env=dict(os.environ, PYTHONPATH=str(src)),
        )
        assert done.returncode == 0, done.stderr
        assert "margin: -3.2" in done.stdout

    def test_gap_past_the_float_range_exits_2_under_warnings_as_errors(self):
        # D = 2e308 overflows: the partition's edge distances overflow too,
        # without a warning, and the bound rejects D = inf.
        src = Path(__file__).resolve().parents[1] / "src"
        done = subprocess.run(
            [sys.executable, "-W", "error", "-m", "tantheta.cli", "example", "rank1-inner",
             "--gamma", "1e308", "--a", "0", "--b", "1e307"],
            capture_output=True, text=True, timeout=60, env=dict(os.environ, PYTHONPATH=str(src)),
        )
        assert done.returncode == 2
        assert done.stderr.startswith("error: (D, d, v) = (inf, ") and "Traceback" not in done.stderr


class TestCheckIdentities:
    def test_on_saved_instance(self, tmp_path, capsys):
        block = BlockOperator(
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

    def test_skips_fixed_point(self, tmp_path, capsys, monkeypatch):
        from tantheta import harness

        def forbidden(*args, **kwargs):
            raise AssertionError("check-identities must not run this stage")

        monkeypatch.setattr(harness, "solve_riccati_fixed_point", forbidden)
        block = BlockOperator(
            np.diag([-1.0, 1.0]), np.diag([-2.0, 2.0]),
            np.array([[0.3, 0.4], [0.4, 0.3]]),
        )
        path = tmp_path / "instance.json"
        save_instance(block, path)
        assert main(["check-identities", "--instance", str(path)]) == 0

    def test_overflowing_residual_exits_2(self, tmp_path, capsys):
        block, _ = generate_instance(
            GenConfig(dim0=3, dim1=5, D=10.0, d=1.0, ratio=1.2, conjugate=True, seed=11)
        )
        A0, A1, B = (np.ldexp(M, 511) for M in (block.A0.entries, block.A1.entries, block.B))
        path = tmp_path / "instance.json"
        save_instance(BlockOperator(A0, A1, B), path)
        assert main(["check-identities", "--instance", str(path), "--json"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "is not finite" in captured.err

    def test_one_dimensional_block_exits_2(self, tmp_path, capsys):
        path = tmp_path / "instance.json"
        path.write_text(
            '{"dim0": 1, "dim1": 2, "A0": [0.5], "A1": [[-2, 0], [0, 2]], "B": [[0, 0.5]]}'
        )
        assert main(["check-identities", "--instance", str(path)]) == 2
        assert "error: SymMatrix must be 2-dimensional, got shape (1,)" in capsys.readouterr().err

    def test_missing_file_exits_2(self, tmp_path, capsys):
        rc = main(["check-identities", "--instance", str(tmp_path / "nope.json")])
        assert rc == 2

    @pytest.mark.parametrize(
        "seed, code", [("-1", 2), ("18446744073709551616", 2), ("18446744073709551615", 0)]
    )
    def test_seed_range(self, tmp_path, capsys, seed, code):
        block = BlockOperator(
            np.diag([-1.0, 1.0]), np.diag([-2.0, 2.0]),
            np.array([[0.3, 0.4], [0.4, 0.3]]),
        )
        path = tmp_path / "instance.json"
        save_instance(block, path)
        assert main(["check-identities", "--instance", str(path), "--seed", seed]) == code

    @pytest.mark.parametrize(
        "content",
        [
            b"\xff\xfe{}",
            b'{"dim0": 1e400, "dim1": 2, "A0": [[1.0]], "A1": [[-2, 0], [0, 2]], "B": [[0, 0.5]]}',
            b'{"dim0": true, "dim1": 2, "A0": [[1.0]], "A1": [[-2, 0], [0, 2]], "B": [[0, 0.5]]}',
            b'{"dim0": 1, "dim1": 2, "A0": {"shape": [1, 1], "f8le": "AAAA"},'
            b' "A1": [[-2, 0], [0, 2]], "B": [[0, 0.5]]}',
            b'{"dim0": 1, "dim1": 2, "A0": [["0.5"]], "A1": [[-2, 0], [0, 2]], "B": [[0, 0.5]]}',
            b'{"dim0": 1, "dim1": 2, "A0": [[1.0]], "A1": [[true, 0], [0, 2]], "B": [[0, 0.5]]}',
            b'{"dim0": 1, "dim1": 2, "A0": [[1.0]], "A1": [[-2, 0], [0, 2]], "B": [[null, 0.5]]}',
        ],
    )
    def test_malformed_instance_exits_2(self, tmp_path, capsys, content):
        path = tmp_path / "instance.json"
        path.write_bytes(content)
        assert main(["check-identities", "--instance", str(path)]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "block",
        [
            BlockOperator(
                np.diag([-1.0, 1.0]), np.diag([-2.0, 2.0]), np.array([[0.3, 0.4], [0.4, 0.3]])
            ),
            # a doubly degenerate singular value of X: the audit draws from the seed
            BlockOperator(np.zeros((2, 2)), np.diag([-1.0, 1.0]), 0.4 * np.eye(2)),
            circulant_build(2.0, 1.0, 0.3, 0.4),
            generate_instance(
                GenConfig(dim0=5, dim1=8, D=4.0, d=1.0, ratio=0.8, conjugate=True, seed=9)
            )[0],
        ],
        ids=["diagonal", "degenerate", "circulant", "generated"],
    )
    def test_output_identical_for_either_file_form(self, tmp_path, capsys, block):
        exact, nested = tmp_path / "exact.json", tmp_path / "nested.json"
        save_instance(block, exact)
        nested.write_text(json.dumps({
            "dim0": block.dim0, "dim1": block.dim1, "A0": block.A0.entries.tolist(),
            "A1": block.A1.entries.tolist(), "B": block.B.tolist(),
        }))
        assert "f8le" in exact.read_text() and "f8le" not in nested.read_text()
        for seed in ("0", "3"):
            for extra in ([], ["--json"]):
                outputs = []
                for path in (exact, nested):
                    argv = ["check-identities", "--instance", str(path), "--seed", seed]
                    assert main(argv + extra) == 0
                    outputs.append(capsys.readouterr().out)
                assert outputs[0] == outputs[1]


# Files past the JSON parser's limits: an integer of more than 4,300 digits
# (ValueError) and 100,000 nested arrays (RecursionError).
PAST_PARSER_LIMITS = {
    "long-integer": '{"dim0": 1, "dim1": 2, "A0": [[1' + "0" * 5000 + ']], '
                    '"A1": [[-2, 0], [0, 2]], "B": [[0, 0.5]]}',
    "deep-nesting": "[" * 100_000 + "]" * 100_000,
}


@pytest.mark.parametrize("name", PAST_PARSER_LIMITS)
@pytest.mark.parametrize("command", ["check-identities", "sweep"])
def test_file_past_the_parser_limits_exits_2(tmp_path, capsys, command, name):
    path = tmp_path / "file.json"
    path.write_text(PAST_PARSER_LIMITS[name])
    if command == "sweep":
        argv = ["sweep", "--config", str(path), "--out", str(tmp_path / "report.jsonl")]
    else:
        argv = ["check-identities", "--instance", str(path)]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: invalid JSON: ")


def test_untyped_error_propagates_out_of_main(tmp_path, monkeypatch):
    # main maps only TanThetaError and OSError to exit 2: any other error is
    # a defect, and must show as one.
    from tantheta import harness

    def broken(*args, **kwargs):
        raise ValueError("an untyped defect")

    monkeypatch.setattr(harness, "verify_lemma_identities", broken)
    path = tmp_path / "instance.json"
    save_instance(circulant_build(2.0, 1.0, 0.3, 0.4), path)
    with pytest.raises(ValueError, match="an untyped defect"):
        main(["check-identities", "--instance", str(path)])
