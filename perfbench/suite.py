"""Run every workload of BENCHMARK.json and summarise the runs.

    python3 perfbench/suite.py                      # each workload once, seed 1
    python3 perfbench/suite.py --seeds 1 2 3 4 5 6 7 8 9 10 --trace \\
        --out perfbench/baseline.json               # the committed baseline

Each run is a separate `run.py` process, one after another. The suite prints
each run's metric lines, then per workload and end-to-end metric the median
over seeds and the spread (third minus first quartile, as a share of the
median) against a third of the metric's bound. With --trace it adds one
traced run per workload on the first seed. It exits 1 if any run failed a
correctness check or exited non-zero.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import bench_env

RUN = Path(__file__).resolve().parent / "run.py"


def run_once(workload: str, seed: int, seconds, trace: int):
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=bench_env.ROOT, capture_output=True, text=True,
                          timeout=900)
    lines = proc.stdout.strip().splitlines()
    for line in lines[:-1]:
        if not line.startswith(("machine ", "spans ")):
            print(f"  seed {seed}: {line}")
    sys.stderr.write(proc.stderr)
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    ok = proc.returncode == 0 and result is not None and result["correct"]
    return ok, result


def spread(values) -> dict:
    median = statistics.median(values)
    out = {"median": median, "values": values}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3, spread=(q3 - q1) / median if median else None)
    return out


def main(argv=None) -> int:
    with open(bench_env.ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", type=int, nargs="+", default=[1])
    p.add_argument("--trace", action="store_true", help="add one traced run per workload")
    p.add_argument("--out", help="write the summary as JSON to this file")
    args = p.parse_args(argv)

    all_ok = True
    seconds = spec["run_seconds"]
    summary = {"seconds": seconds, "seeds": args.seeds, "end_to_end": {}, "per_layer": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        print(f"{workload}:")
        values = {m["name"]: [] for m in spec["end_to_end"]}
        for seed in args.seeds:
            ok, result = run_once(workload, seed, seconds, 0)
            all_ok &= ok
            for name in values:
                if result is not None:
                    values[name].append(result["metrics"][name]["value"])
        table = summary["end_to_end"][workload] = {}
        for m in spec["end_to_end"]:
            if not values[m["name"]]:
                continue
            stats = table[m["name"]] = dict(spread(values[m["name"]]), unit=m["unit"])
            share = stats.get("spread")
            verdict = "" if share is None else (
                f"spread {share:.4f} ({'ok' if share < m['bound'] / 3 else 'over'} "
                f"bound/3 = {m['bound'] / 3:.4f})")
            print(f"{workload} {m['name']} median {stats['median']:.6g} {m['unit']}  {verdict}")
        if args.trace:
            ok, result = run_once(workload, args.seeds[0], seconds, 1)
            all_ok &= ok
            if result is not None:
                summary["per_layer"][workload] = {
                    name: entry["value"] for name, entry in result["metrics"].items()
                }
    if args.out:
        bench_env.pin_threads()
        summary["machine"] = bench_env.machine_facts()
        with open(args.out, "w") as fh:
            json.dump(summary, fh, indent=1)
            fh.write("\n")
    print("all runs correct" if all_ok else "SOME RUNS FAILED")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
