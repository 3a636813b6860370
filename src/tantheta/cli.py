"""Command-line interface: bound evaluation, single trials, sweep
campaigns, sharpness-example checks and the identity audit.

Exit codes: 0 all margins pass, 1 at least one bound violation,
2 invalid input or configuration.
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields

from .bounds import m_total
from .errors import ConfigInvalid, TanThetaError
from .families import (
    rank_one_build,
    rank_one_inner_expected,
    rank_one_outer_params,
    circulant_build,
    circulant_case_params,
)
from .harness import (
    GenConfig,
    MARGIN_FAILURE_THRESHOLD,
    REPORT_FIELDS,
    Verification,
    format_float,
    report_to_json_line,
    run_sweep,
    run_trial,
    write_reports,
)
from .model import load_instance, read_json


def _print_kv(pairs) -> None:
    for key, value in pairs:
        if value is None:
            print(f"{key}: -")
        elif isinstance(value, float):
            print(f"{key}: {format_float(value)}")
        else:
            print(f"{key}: {value}")


def _bound_pairs(D: float, d: float, v: float):
    ev = m_total(D, d, v)
    return [
        (f.name, ev.region.name if f.name == "region" else getattr(ev, f.name))
        for f in fields(ev)
    ]


def _pairs_to_json(pairs) -> str:
    return json.dumps(dict(pairs))


def cmd_bound(args) -> int:
    pairs = _bound_pairs(args.D, args.d, args.v)
    if args.json:
        print(_pairs_to_json(pairs))
    else:
        _print_kv(pairs)
    return 0


def cmd_trial(args) -> int:
    cfg = GenConfig(
        dim0=args.dim0,
        dim1=args.dim1,
        D=args.D,
        d=args.d,
        ratio=args.ratio,
        span=args.span,
        conjugate=args.conjugate,
        seed=args.seed,
    )
    report = run_trial(cfg)
    if args.json:
        print(report_to_json_line(report))
    else:
        _print_kv(
            (name, getattr(report, name)) for name in REPORT_FIELDS + ("elapsed_ms",)
        )
    return 0 if report.margin >= MARGIN_FAILURE_THRESHOLD else 1


# Python type requested -> (JSON type name, accepted Python types). bool is
# a subclass of int, so JSON true/false is refused for the numeric kinds
# by a separate test.
_JSON_KINDS = {
    int: ("integer", (int,)),
    float: ("number", (int, float)),
    bool: ("boolean", (bool,)),
    list: ("array", (list,)),
}


def _typed(key: str, value, kind: type):
    """A sweep config value as `kind`, if its JSON type is the one `kind`
    stands for; ConfigInvalid otherwise, never a lossy coercion."""
    name, accepted = _JSON_KINDS[kind]
    if not isinstance(value, accepted) or (isinstance(value, bool) and kind is not bool):
        raise ConfigInvalid(f"config field {key!r} must be a JSON {name}, got {value!r}")
    return kind(value)


# The nine sweep config fields: the kind each must have and its default,
# None for a required field.
_SWEEP_FIELDS = {
    "dim0": (int, None), "dim1": (int, None), "D": (float, None), "d": (float, None),
    "trials": (int, None), "ratio_grid": (list, None),
    "span": (float, 1.0), "conjugate": (bool, False), "seed": (int, 0),
}


def _sweep_fields(raw) -> dict:
    """The typed fields of a sweep config; ConfigInvalid if it is not a
    JSON object, names an unknown field or lacks a required one."""
    if not isinstance(raw, dict):
        raise ConfigInvalid("a sweep config must be a JSON object")
    unknown = sorted(set(raw) - set(_SWEEP_FIELDS))
    if unknown:
        raise ConfigInvalid(
            f"unknown config field {unknown[0]!r}; the fields are {', '.join(_SWEEP_FIELDS)}"
        )
    fields = {}
    for key, (kind, default) in _SWEEP_FIELDS.items():
        if key not in raw and default is None:
            raise ConfigInvalid(f"config field {key!r} is missing")
        fields[key] = _typed(key, raw.get(key, default), kind)
    return fields


def cmd_sweep(args) -> int:
    fields = _sweep_fields(read_json(args.config))
    trials = fields.pop("trials")
    ratio_grid = [_typed("ratio_grid", r, float) for r in fields.pop("ratio_grid")]
    if trials < 1 or not ratio_grid:
        raise ConfigInvalid("a sweep needs trials >= 1 and a non-empty ratio_grid")
    cfg = GenConfig(ratio=0.0, **fields)
    cfg.validate()
    records, summary = run_sweep(cfg, trials, ratio_grid)
    write_reports(records, summary, args.out, fmt=args.format)
    print(
        f"wrote {len(records)} records to {args.out} "
        f"(failures: {summary.failures}, min margin: "
        f"{'-' if summary.min_margin is None else format_float(summary.min_margin)})"
    )
    violated = summary.min_margin is not None and summary.min_margin < MARGIN_FAILURE_THRESHOLD
    return 1 if violated or summary.failures > 0 else 0


def cmd_example(args) -> int:
    gamma, a = args.gamma, args.a
    if args.family == "rank1-inner":
        if args.v is None:
            raise TanThetaError("rank1-inner requires --v (the single coupling)")
        ver = Verification(rank_one_build(gamma, a, 0.0, args.v))
        expected = rank_one_inner_expected(ver.disposition.d, args.v)
    elif args.family == "rank1-outer":
        if args.b is None:
            raise TanThetaError("rank1-outer requires --b (total coupling norm)")
        _, _, b1, b2 = rank_one_outer_params(gamma, a, args.b)
        ver = Verification(rank_one_build(gamma, a, b1, b2))
        expected = m_total(ver.disposition.D, ver.disposition.d, args.b).projection_bound
    else:
        if args.b is None:
            raise TanThetaError("circulant requires --b (total coupling norm)")
        _, b1, b2 = circulant_case_params(gamma, a, args.b)
        ver = Verification(circulant_build(gamma, a, b1, b2))
        expected = m_total(ver.disposition.D, ver.disposition.d, args.b).projection_bound
    disp, distance = ver.disposition, ver.distance
    bound = ver.bound.projection_bound
    pairs = [
        ("family", args.family),
        ("D", disp.D),
        ("d", disp.d),
        ("v", ver.v),
        ("distance", distance),
        ("closed_form", expected),
        ("bound", bound),
        ("distance_minus_closed_form", distance - expected),
        ("margin", bound - distance),
    ]
    if args.json:
        print(_pairs_to_json(pairs))
    else:
        _print_kv(pairs)
    return 0 if bound - distance >= MARGIN_FAILURE_THRESHOLD else 1


def cmd_check_identities(args) -> int:
    ver = Verification(load_instance(args.instance), seed=args.seed)
    ang, audit = ver.angular, ver.audit
    if args.json:
        payload = {
            "x_norm": ang.norm,
            "riccati_residual": ang.riccati_residual,
            "max_residual": audit.max_residual,
            "per_pair": [
                {
                    "lambda": r.lam,
                    "id1_residual": r.id1_residual,
                    "id2_residual": r.id2_residual,
                    "id3_residual": r.id3_residual,
                }
                for r in audit.per_pair
            ],
        }
        print(json.dumps(payload))
    else:
        _print_kv([("x_norm", ang.norm), ("riccati_residual", ang.riccati_residual)])
        for r in audit.per_pair:
            print(
                f"lambda {format_float(r.lam)}: id1 {format_float(r.id1_residual)} "
                f"id2 {format_float(r.id2_residual)} id3 {format_float(r.id3_residual)}"
            )
        _print_kv([("max_residual", audit.max_residual)])
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
    p.add_argument("--b", type=float, default=None)
    p.add_argument("--v", type=float, default=None)
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
    except (
        TanThetaError, OSError, json.JSONDecodeError, KeyError, ValueError, OverflowError
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
