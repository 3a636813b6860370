"""Closed-loop benchmark of the tantheta verification pipeline.

    python3 perfbench/run.py --workload campaign_small --seed 1 --seconds 25 --trace 0

One caller runs the workload's passes back to back, each call starting when
the previous one returned, for --seconds seconds (at least MIN_PASSES
passes). It prints machine facts, every metric by name with its unit, and
as its last line one JSON object: {"correct", "attempted", "failed",
"metrics"}. Untraced (--trace 0) it reports the end-to-end metrics of
BENCHMARK.json; traced (--trace 1) it alternates untraced and traced passes
and reports the per-layer metrics. It exits 1 when a correctness check
fails and 2 when the checkout holds no runnable tantheta.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

import bench_env

# bench_trace and bench_workloads import numpy and tantheta, so they are
# imported inside functions, after main() has pinned the BLAS threads and
# put the checkout's src/ first on the path.

# Set-up samples per untraced run, spread over its measuring time so that
# they see the same changes in machine speed as the passes.
SETUP_PROBES = 8
MIN_PASSES = {False: 3, True: 2}  # per kind of pass: untraced, traced
# Items beyond the p99 needed before it is reported.
P99_TAIL = 10
SPAN_DIR = ".perfbench"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def load_spec() -> dict:
    with open(bench_env.ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def measure_setup() -> float:
    """Wall time of a fresh process that imports tantheta and warms up."""
    probe = os.path.join(os.path.dirname(os.path.abspath(__file__)), "setup_probe.py")
    start = time.perf_counter()
    # No timeout: with one, the wait polls at up to 50 ms intervals and the
    # measured time snaps to that grid.
    subprocess.run([sys.executable, probe], check=True,
                   cwd=bench_env.ROOT, stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


@dataclass
class Pass:
    wall_s: float
    rec: object
    problems: list


def run_pass(workload, traced: bool) -> Pass:
    from bench_trace import Recorder, instrumented

    rec = Recorder(traced)
    with instrumented(rec):
        start = time.perf_counter()
        outputs = workload.run_pass(rec)
        wall_s = time.perf_counter() - start
    return Pass(wall_s, rec, workload.check(outputs))


def percentile_with_tail(samples, q: float):
    """The q-quantile, or None when fewer than P99_TAIL samples lie beyond."""
    ordered = sorted(samples)
    value = ordered[min(len(ordered) - 1, int(q * len(ordered)))]
    beyond = sum(1 for s in ordered if s > value)
    return value if beyond >= P99_TAIL else None


def item_samples(passes) -> list:
    return [ms for p in passes for _, ms, _ in p.rec.items]


def end_to_end(setup, passes) -> tuple:
    """The metrics of BENCHMARK.json, name -> (value, note), and the ones
    only printed, name -> (value, unit, note)."""
    samples = item_samples(passes)
    attempted = len(samples)
    failed = sum(f for p in passes for _, _, f in p.rec.items)
    setup_s = statistics.median(setup)
    wall_s = statistics.median(p.wall_s for p in passes)
    p50 = statistics.median(samples)
    metrics = {
        "setup_s": (setup_s, f"median of {len(setup)} processes"),
        "wall_s": (wall_s, f"median of {len(passes)} passes"),
        "trial_ms_p50": (p50, f"n={attempted}"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, ""),
    }
    printed = {"failed_frac": (failed / attempted, "frac", f"{failed} of {attempted} items")}
    p99 = percentile_with_tail(samples, 0.99)
    if p99 is not None:
        printed["trial_ms_p99"] = (p99, "ms", f"n={attempted}")
    return metrics, printed


def per_layer(workload, plain, traced) -> tuple:
    """Per-layer metrics, name -> (value, note), from the traced passes,
    the untraced passes of the same run and the benchmark's own eigh on
    every item's L; and the problems found."""
    from bench_trace import ITEM, LINALG, self_times
    from bench_workloads import eigh_ms

    # A layer's self time in a pass over the pass's items, so that the layers
    # add up to the time per item even where items differ in size.
    per_item: dict = {}
    for p in traced:
        for name, ms in self_times(p.rec.spans).items():
            per_item.setdefault(name, []).append(ms / len(p.rec.items))
    metrics = {
        f"{name}_ms": (statistics.median(values),
                       f"self time per item, median of {len(values)} traced passes")
        for name, values in per_item.items() if name != ITEM
    }

    fixed = [s for p in traced for s in p.rec.spans if s[0] == "riccati.fixed_point"]
    converged = sum(s[5] is None for s in fixed)
    metrics["riccati.fixed_point_converged_frac"] = (
        converged / len(fixed) if fixed else 0.0, f"{converged} of {len(fixed)} attempts")

    calls, items = traced[0].rec.calls, len(traced[0].rec.items)
    for key, _ in LINALG:
        metrics[f"linalg.{key}_calls"] = (calls[key] / items,
                                          f"per item, {calls[key]} calls / {items} items")
    problems = []
    signatures = {
        (tuple(sorted(p.rec.calls.items())),
         sum(s[5] is None for s in p.rec.spans if s[0] == "riccati.fixed_point"))
        for p in traced
    }
    if len(signatures) != 1:
        problems.append(f"np.linalg call counts or fixed-point convergences differ "
                        f"between traced passes on the same inputs: {signatures}")

    floor = statistics.median(eigh_ms(block) for block in workload.blocks())
    metrics["spectral.eigh_floor_ms"] = (floor, "median over items of the median of 3")
    p50 = statistics.median(item_samples(plain))
    metrics["pipeline_over_floor"] = (p50 / floor, f"untraced trial_ms_p50 {p50:.6g} ms")
    plain_wall = statistics.median(p.wall_s for p in plain)
    traced_wall = statistics.median(p.wall_s for p in traced)
    metrics["trace.overhead_frac"] = (
        (traced_wall - plain_wall) / plain_wall,
        f"wall_s traced {traced_wall:.6g} s, untraced {plain_wall:.6g} s, "
        f"{len(traced)}/{len(plain)} passes")
    return metrics, problems


def write_spans(workload_name, seed, traced) -> str:
    """Write the traced passes' spans, one JSON object per line."""
    out_dir = bench_env.ROOT / SPAN_DIR
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"spans-{workload_name}-seed{seed}.jsonl"
    with open(path, "w") as fh:
        for number, p in enumerate(traced):
            origin = p.rec.spans[0][1] if p.rec.spans else 0.0
            for index, (name, start, end, parent, item, error) in enumerate(p.rec.spans):
                fh.write(json.dumps({
                    "pass": number, "span": index, "name": name, "parent": parent,
                    "item": item, "start_ms": (start - origin) * 1e3,
                    "end_ms": (end - origin) * 1e3, "error": error,
                }) + "\n")
    return str(path.relative_to(bench_env.ROOT))


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = load_spec()
    declared = spec["per_layer" if args.trace else "end_to_end"]
    bench_env.pin_threads()
    try:
        tantheta = bench_env.import_tantheta()
    except bench_env.SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    from bench_workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    print(f"machine {json.dumps(bench_env.machine_facts())}")

    setup = []
    bench_env.warm_up(tantheta)
    workdir = bench_env.ROOT / SPAN_DIR / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        kinds = (False, True) if args.trace else (False,)
        passes = {kind: [] for kind in kinds}

        def probe_until(count):
            while not args.trace and len(setup) < count:
                setup.append(measure_setup())

        begin = time.perf_counter()
        while time.perf_counter() < begin + args.seconds or any(
            len(passes[k]) < MIN_PASSES[k] for k in kinds
        ):
            elapsed = time.perf_counter() - begin
            probe_until(min(SETUP_PROBES, 1 + SETUP_PROBES * elapsed / args.seconds))
            for kind in kinds:
                passes[kind].append(run_pass(workload, kind))
        probe_until(SETUP_PROBES)
        problems = [msg for ps in passes.values() for p in ps for msg in p.problems]
        if args.trace:
            metrics, problems_found = per_layer(workload, passes[False], passes[True])
            problems += problems_found
            printed = {}
            print(f"spans {write_spans(args.workload, args.seed, passes[True])}")
        else:
            metrics, printed = end_to_end(setup, passes[False])
    finally:
        shutil.rmtree(workdir)

    # A stage the workload never calls took no time and made no call.
    result = {}
    for m in declared:
        value, note = metrics.get(m["name"], (0.0, "not run on this workload"))
        result[m["name"]] = {"value": float(value), "unit": m["unit"]}
        print(f"{args.workload} {m['name']} {value:.6g} {m['unit']}"
              + (f"  ({note})" if note else ""))
    for name, (value, unit, note) in printed.items():
        print(f"{args.workload} {name} {value:.6g} {unit}  ({note})")
    unknown = sorted(set(metrics) - set(result))
    if unknown:
        problems.append(f"metrics missing from BENCHMARK.json: {unknown}")
    for msg in problems:
        print(f"CHECK FAILED: {msg}", file=sys.stderr)
    measured = [p for ps in passes.values() for p in ps]
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(len(p.rec.items) for p in measured),
        "failed": sum(f for p in measured for _, _, f in p.rec.items),
        "metrics": result,
    }))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
