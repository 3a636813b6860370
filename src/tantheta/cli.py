"""Command-line interface: bound evaluation, single trials, sweep
campaigns, sharpness-example checks and the identity audit.

Exit codes: 0 all margins pass, 1 at least one bound violation,
2 invalid input or configuration.
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import MISSING, fields

from .bounds import (
    m_total,
    rank_one_build,
    rank_one_inner_expected,
    rank_one_outer_params,
    circulant_build,
    circulant_case_params,
)
from .errors import ConfigInvalid, TanThetaError
from .harness import (
    GenConfig,
    REPORT_FIELDS,
    Verification,
    margin_fails,
    run_sweep,
    run_trial,
    write_reports,
)
from .model import load_instance, read_json


def _emit(pairs, as_json: bool) -> None:
    """Print (key, value) pairs as one JSON object, or as `key: value`
    lines with None shown as `-`."""
    if as_json:
        print(json.dumps(dict(pairs)))
    else:
        for key, value in pairs:
            print(f"{key}: {'-' if value is None else value}")


def _bound_pairs(D: float, d: float, v: float):
    ev = m_total(D, d, v)
    return [
        (f.name, ev.region.name if f.name == "region" else getattr(ev, f.name))
        for f in fields(ev)
    ]


def cmd_bound(args) -> int:
    _emit(_bound_pairs(args.D, args.d, args.v), args.json)
    return 0


def cmd_trial(args) -> int:
    report = run_trial(GenConfig(**{f.name: getattr(args, f.name) for f in fields(GenConfig)}))
    names = REPORT_FIELDS if args.json else REPORT_FIELDS + ("elapsed_ms",)
    _emit([(name, getattr(report, name)) for name in names], args.json)
    return 1 if margin_fails(report.margin) else 0


# A sweep config holds GenConfig's fields but `ratio`, plus `trials` and
# `ratio_grid`; a field with a default may be left out.
_SWEEP_FIELDS = [f.name for f in fields(GenConfig) if f.name != "ratio"] + ["trials", "ratio_grid"]
_SWEEP_DEFAULTS = {f.name: f.default for f in fields(GenConfig) if f.default is not MISSING}


def _sweep_fields(raw) -> dict:
    """The fields of a sweep config, as given or defaulted; ConfigInvalid
    if it is not a JSON object, names an unknown field, lacks a required
    one or has a `ratio_grid` that is not a JSON array. GenConfig's
    construction and run_sweep decide the types and ranges of the rest."""
    if not isinstance(raw, dict):
        raise ConfigInvalid("a sweep config must be a JSON object")
    unknown = sorted(set(raw) - set(_SWEEP_FIELDS))
    if unknown:
        raise ConfigInvalid(
            f"unknown config field {unknown[0]!r}; the fields are {', '.join(_SWEEP_FIELDS)}"
        )
    missing = [key for key in _SWEEP_FIELDS if key not in raw and key not in _SWEEP_DEFAULTS]
    if missing:
        raise ConfigInvalid(f"config field {missing[0]!r} is missing")
    grid = raw["ratio_grid"]
    if not isinstance(grid, list):
        raise ConfigInvalid(f"config field 'ratio_grid' must be a JSON array, got {grid!r}")
    return {**_SWEEP_DEFAULTS, **raw}


def cmd_sweep(args) -> int:
    config = _sweep_fields(read_json(args.config))
    trials, ratio_grid = config.pop("trials"), config.pop("ratio_grid")
    records, summary = run_sweep(GenConfig(ratio=0.0, **config), trials, ratio_grid)
    if not records:
        raise ConfigInvalid("a sweep needs trials >= 1 and a non-empty ratio_grid")
    write_reports(records, summary, args.out, fmt=args.format)
    print(
        f"wrote {len(records)} records to {args.out} "
        f"(failures: {summary.failures}, min margin: "
        f"{'-' if summary.min_margin is None else summary.min_margin})"
    )
    # min_margin is None only when every trial failed.
    return 1 if summary.failures or margin_fails(summary.min_margin) else 0


def cmd_example(args) -> int:
    gamma, a, b = args.gamma, args.a, args.b
    if b is None:
        raise ConfigInvalid(f"{args.family} requires --b (the coupling norm ||B||)")
    if args.family == "rank1-inner":
        ver = Verification(rank_one_build(gamma, a, 0.0, b))
        expected = rank_one_inner_expected(ver.disposition.d, b)
    else:
        if args.family == "rank1-outer":
            _, _, b1, b2 = rank_one_outer_params(gamma, a, b)
            ver = Verification(rank_one_build(gamma, a, b1, b2))
        else:
            _, b1, b2 = circulant_case_params(gamma, a, b)
            ver = Verification(circulant_build(gamma, a, b1, b2))
        expected = m_total(ver.disposition.D, ver.disposition.d, b).projection_bound
    disp, distance = ver.disposition, ver.distance
    bound = ver.bound.projection_bound
    pairs = [
        ("family", args.family),
        ("D", disp.D),
        ("d", disp.d),
        ("v", ver.block.v_norm),
        ("distance", distance),
        ("closed_form", expected),
        ("bound", bound),
        ("distance_minus_closed_form", distance - expected),
        ("margin", bound - distance),
    ]
    _emit(pairs, args.json)
    return 1 if margin_fails(bound - distance) else 0


def cmd_check_identities(args) -> int:
    ver = Verification(load_instance(args.instance), seed=args.seed)
    ang, audit = ver.angular, ver.audit
    rows = list(zip(*(a.tolist() for a in (audit.lam, audit.id1, audit.id2, audit.id3))))
    keys = ("lambda", "id1_residual", "id2_residual", "id3_residual")
    pairs = [("x_norm", ang.norm), ("riccati_residual", ang.riccati_residual),
             ("max_residual", audit.max_residual),
             ("per_pair", [dict(zip(keys, row)) for row in rows])]
    if args.json:
        _emit(pairs, True)
    else:
        _emit(pairs[:2], False)
        for lam, id1, id2, id3 in rows:
            print(f"lambda {lam}: id1 {id1} id2 {id2} id3 {id3}")
        _emit(pairs[2:3], False)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tantheta",
        description="Spectral subspace rotation bounds and their verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bound", help="evaluate the bound at a point (D, d, v)")
    p.add_argument("--D", type=float, required=True)
    p.add_argument("--d", type=float, required=True)
    p.add_argument("--v", type=float, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("trial", help="run one random verification trial")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--dim0", type=int, required=True)
    p.add_argument("--dim1", type=int, required=True)
    p.add_argument("--D", type=float, required=True)
    p.add_argument("--d", type=float, required=True)
    p.add_argument("--ratio", type=float, required=True)
    p.add_argument("--span", type=float, default=1.0)
    p.add_argument("--conjugate", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_trial)

    p = sub.add_parser("sweep", help="run a batch campaign from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--format", choices=("jsonl", "csv"), default="jsonl")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("example", help="measure a sharpness family instance")
    p.add_argument("family", choices=("rank1-inner", "rank1-outer", "circulant"))
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--b", "--v", type=float, default=None, help="the coupling norm ||B||")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_example)

    p = sub.add_parser("check-identities", help="identity audit on an instance file")
    p.add_argument("--instance", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_check_identities)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (TanThetaError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
