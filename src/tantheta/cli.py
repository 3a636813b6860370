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
    records, summary = run_sweep(GenConfig(ratio=0.0, **fields), trials, ratio_grid)
    write_reports(records, summary, args.out, fmt=args.format)
    print(
        f"wrote {len(records)} records to {args.out} "
        f"(failures: {summary.failures}, min margin: "
        f"{'-' if summary.min_margin is None else summary.min_margin})"
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
        ("v", ver.block.v_norm),
        ("distance", distance),
        ("closed_form", expected),
        ("bound", bound),
        ("distance_minus_closed_form", distance - expected),
        ("margin", bound - distance),
    ]
    _emit(pairs, args.json)
    return 0 if bound - distance >= MARGIN_FAILURE_THRESHOLD else 1


def cmd_check_identities(args) -> int:
    ver = Verification(load_instance(args.instance), seed=args.seed)
    ang, audit = ver.angular, ver.audit
    pairs = list(zip(*(a.tolist() for a in (audit.lam, audit.id1, audit.id2, audit.id3))))
    if args.json:
        payload = {
            "x_norm": ang.norm,
            "riccati_residual": ang.riccati_residual,
            "max_residual": audit.max_residual,
            "per_pair": [
                dict(zip(("lambda", "id1_residual", "id2_residual", "id3_residual"), pair))
                for pair in pairs
            ],
        }
        print(json.dumps(payload))
    else:
        _emit([("x_norm", ang.norm), ("riccati_residual", ang.riccati_residual)], False)
        for lam, id1, id2, id3 in pairs:
            print(f"lambda {lam}: id1 {id1} id2 {id2} id3 {id3}")
        _emit([("max_residual", audit.max_residual)], False)
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
