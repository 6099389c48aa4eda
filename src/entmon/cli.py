"""Command-line front end.

    entmon measure STATE_FILE MEASURE_ID [--base nats|bits] [--json] [--seed N]
    entmon verify [--config FILE] [--seed N] [--trials N] [--dims dAxdB ...]
                  [--measure ID ...] [--check ID ...] [--out PATH] [--json]

Exit codes: 0 success (verify: no failing verdicts), 1 verify found a
failing verdict, 2 parse/config error, 3 dimension or measure mismatch.
Stdout carries only the requested payload; progress goes to stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from .registry import MeasureError, evaluate_measure, unit_of
from .serialize import StateFormatError, load_state
from .states import DimensionMismatchError, StateValidationError
from .verify import (
    CHECK_IDS,
    DEFAULT_DIMS,
    DEFAULT_MEASURES,
    SweepConfig,
    run_sweep,
    summarize,
    write_reports_jsonl,
    write_summary_csv,
)

EXIT_OK = 0
EXIT_FAILURES = 1
EXIT_PARSE = 2
EXIT_MISMATCH = 3


def _log(msg: str) -> None:
    print(msg, file=sys.stderr)


def _convert_base(value: float, measure_id: str, base: str) -> float:
    if base == "bits" and unit_of(measure_id) == "nats":
        return value / math.log(2.0)
    return value


def cmd_measure(args) -> int:
    try:
        state = load_state(args.state_file)
    except (OSError, StateFormatError, StateValidationError, DimensionMismatchError) as exc:
        _log(f"error: {exc}")
        return EXIT_PARSE
    try:
        result = evaluate_measure(
            args.measure_id, state, rng=np.random.default_rng(args.seed)
        )
    except (MeasureError, DimensionMismatchError) as exc:
        _log(f"error: {exc}")
        return EXIT_MISMATCH
    value = _convert_base(result.value, args.measure_id, args.base)
    if args.json:
        payload = {
            "measure": args.measure_id,
            "value": value,
            "base": args.base,
            "dims": list(state.dims.factors),
            "diagnostics": result.diagnostics,
        }
        print(json.dumps(payload))
    else:
        print(repr(value))
    return EXIT_OK


def _parse_dims(raw: str) -> tuple[int, int]:
    parts = raw.lower().split("x")
    if len(parts) != 2:
        raise ValueError(f"dims must look like 2x3, got {raw!r}")
    return int(parts[0]), int(parts[1])


def _load_config(args) -> SweepConfig:
    fields = {}
    if args.config is not None:
        raw = json.loads(Path(args.config).read_text())
        if not isinstance(raw, dict):
            raise ValueError("config file must hold a JSON object")
        known = {"checks", "measures", "dims", "trials", "n_kraus", "seed",
                 "output_path", "tolerances"}
        unknown = set(raw) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        fields.update(raw)
        if "dims" in fields:
            fields["dims"] = tuple(tuple(d) for d in fields["dims"])
    if args.check:
        fields["checks"] = tuple(args.check)
    if args.measure:
        fields["measures"] = tuple(args.measure)
    if args.dims:
        fields["dims"] = tuple(_parse_dims(d) for d in args.dims)
    if args.trials is not None:
        fields["trials"] = args.trials
    if args.seed is not None:
        fields["seed"] = args.seed
    if args.out is not None:
        fields["output_path"] = args.out
    fields.setdefault("checks", CHECK_IDS)
    fields.setdefault("measures", DEFAULT_MEASURES)
    fields.setdefault("dims", DEFAULT_DIMS)
    return SweepConfig(**fields)


def cmd_verify(args) -> int:
    try:
        config = _load_config(args)
    except (OSError, ValueError, TypeError, json.JSONDecodeError) as exc:
        _log(f"config error: {exc}")
        return EXIT_PARSE
    _log(f"running checks {list(config.checks)} with seed {config.seed}, "
         f"trials {config.trials}")
    reports = run_sweep(config)
    jsonl_path = Path(config.output_path)
    csv_path = jsonl_path.with_suffix(".csv") if jsonl_path.suffix else \
        Path(str(jsonl_path) + ".csv")
    write_reports_jsonl(reports, jsonl_path)
    write_summary_csv(reports, csv_path)
    _log(f"wrote {len(reports)} reports to {jsonl_path} and summary to {csv_path}")
    failures = sum(1 for r in reports if r.verdict == "fail")
    rows = summarize(reports)
    if args.json:
        print(json.dumps({
            "reports": len(reports),
            "failures": failures,
            "skipped": sum(1 for r in reports if r.verdict == "skipped"),
            "summary": rows,
            "report_path": str(jsonl_path),
            "summary_path": str(csv_path),
        }))
    else:
        for row in rows:
            print(f"{row['check_id']:22s} {row['measure_id']:16s} "
                  f"{row['passes']}/{row['trials']} pass  "
                  f"gap[min={row['min_gap']:.3e} max={row['max_gap']:.3e}]")
    return EXIT_FAILURES if failures else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="entmon",
        description="Entanglement measures and strict-monotonicity verification "
                    "for small bipartite systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    m = sub.add_parser("measure", help="evaluate a measure on a state file")
    m.add_argument("state_file")
    m.add_argument("measure_id")
    m.add_argument("--base", choices=("nats", "bits"), default="nats")
    m.add_argument("--json", action="store_true")
    m.add_argument("--seed", type=int, default=0)
    m.set_defaults(func=cmd_measure)

    v = sub.add_parser("verify", help="run a verification sweep")
    v.add_argument("--config", help="JSON file with sweep settings")
    v.add_argument("--seed", type=int, default=None)
    v.add_argument("--trials", type=int, default=None)
    v.add_argument("--dims", action="append", metavar="dAxdB")
    v.add_argument("--measure", action="append", metavar="ID")
    v.add_argument("--check", action="append", metavar="ID", choices=CHECK_IDS)
    v.add_argument("--out", metavar="PATH", help="JSON-lines report path")
    v.add_argument("--json", action="store_true")
    v.set_defaults(func=cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
