"""Self-test of the benchmark at tiny sizes (a few seconds):

    python3 -m pytest -q perfbench

It checks the metric names and units against BENCHMARK.json in both modes,
that the correctness checks fail a run, that call counts repeat between
traced runs, and that a directory without the sources makes the runner exit
non-zero without a result.
"""
import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import bench_env  # noqa: E402

bench_env.pin_threads()
bench_env.import_tantheta()

import bench_trace  # noqa: E402
import bench_workloads  # noqa: E402
import run  # noqa: E402
from tantheta import harness  # noqa: E402

SPEC = json.loads((bench_env.ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


@pytest.fixture(autouse=True)
def tiny(monkeypatch):
    monkeypatch.setattr(bench_workloads, "CAMPAIGN_GEOMETRIES",
                        bench_workloads.CAMPAIGN_GEOMETRIES[2:])
    monkeypatch.setattr(bench_workloads, "CAMPAIGN_REPEATS", 2)
    monkeypatch.setattr(bench_workloads, "ORACLE_SAMPLE", 4)
    monkeypatch.setattr(bench_workloads, "LARGE_TRIALS", ((3, 5, 0.5), (3, 5, 1.2), (6, 10, 0.5)))
    monkeypatch.setattr(bench_workloads, "AUDIT_FILES", ((3, 5, 0.8), (6, 10, 1.0)))
    monkeypatch.setattr(run, "SETUP_PROBES", 1)


def bench(capsys, workload, trace, seed=3):
    code = run.main(["--workload", workload, "--seed", str(seed), "--seconds", "0.01",
                     "--trace", str(trace)])
    out, err = capsys.readouterr()
    lines = out.strip().splitlines()
    return code, lines, json.loads(lines[-1]), err


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_reports_every_declared_metric(capsys, workload, trace):
    code, lines, result, _ = bench(capsys, workload, trace)
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert code == 0 and result["correct"] is True
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert [(n, m["unit"]) for n, m in result["metrics"].items()] == [
        (m["name"], m["unit"]) for m in declared
    ]
    for m in declared:  # each metric is printed by name with its unit
        assert any(line.startswith(f"{workload} {m['name']} ") and f" {m['unit']}" in line
                   for line in lines)
    if trace:
        assert result["metrics"]["linalg.eigh_calls"]["value"] > 0
        assert result["metrics"]["spectral.partition_ms"]["value"] > 0
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_counts_repeat_between_traced_runs(capsys):
    counts = []
    for _ in range(2):
        _, _, result, _ = bench(capsys, "campaign_small", 1)
        counts.append({n: m["value"] for n, m in result["metrics"].items()
                       if n.startswith("linalg.") or n.endswith("converged_frac")})
    assert counts[0] == counts[1]
    assert counts[0]["riccati.fixed_point_converged_frac"] > 0


def test_wrong_distance_fails_the_run(capsys, monkeypatch):
    distance = harness.projection_distance
    monkeypatch.setattr(harness, "projection_distance", lambda P, Q: distance(P, Q) + 1e-6)
    code, _, result, err = bench(capsys, "trial_large", 0)
    assert code == 1 and result["correct"] is False
    assert "!= oracle" in err


def test_campaign_checks_catch_bad_margin_and_bad_summary(tmp_path):
    workload = bench_workloads.CampaignSmall(5, tmp_path)
    rec = bench_trace.Recorder(False)
    with bench_trace.instrumented(rec):
        results = workload.run_pass(rec)
    assert workload.check(results) == []
    assert len(rec.items) == 2 * 2 * len(bench_workloads.RATIO_GRID)

    records, summary = results[0]
    bad = list(records)
    bad[0] = dataclasses.replace(records[0], margin=-1e-6)
    assert any("margin" in p for p in workload.check([(bad, summary)] + results[1:]))

    path = workload.paths[0]
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-2] + lines[-1:]) + "\n")  # one trial lost
    problems = workload.check(results)
    assert any("summary record" in p for p in problems)
    assert any("differs between passes" in p for p in problems)


def test_instance_audit_checks_against_oracle(tmp_path):
    workload = bench_workloads.InstanceAudit(5, tmp_path)
    rec = bench_trace.Recorder(False)
    with bench_trace.instrumented(rec):
        results = workload.run_pass(rec)
    assert workload.check(results) == []
    workload.oracle[0] += 1e-6
    assert any("oracle" in p for p in workload.check(results))


def test_without_sources_exits_nonzero_without_result(tmp_path):
    shutil.copy(bench_env.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
