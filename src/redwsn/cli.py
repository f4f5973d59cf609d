"""Command-line entry points.

`sim run <config-or-preset>` executes a scenario and prints or exports a
report; `sim presets` lists the built-in scenarios; `sim avail` prints the
availability table of the redundant-board model, and `avail` runs it.
Exit codes: 0 success, 1 configuration error, 2 runtime error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .ctmc import DEFAULT_FAILURE_RATE, DEFAULT_REPAIR_RATE, failure_probability_table
from .scenario import (
    PRESET_NAMES,
    ConfigError,
    report_to_csv,
    report_to_json,
    resolve_scenario,
    run_scenario,
)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_RUNTIME = 2


def _parse_seeds(raw: str) -> list[int]:
    try:
        return [int(part) for part in raw.split(",") if part.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad --seeds value: {raw!r}") from exc


def _cmd_run(args: argparse.Namespace) -> int:
    cfg, seeds = resolve_scenario(args.scenario), _parse_seeds(args.seeds)
    # A report with nowhere to go is refused before the run, not after it.
    if args.out:
        if os.path.isdir(args.out):
            raise ConfigError(f"--out {args.out}: is a directory")
        if not os.path.isdir(os.path.dirname(args.out) or "."):
            raise ConfigError(f"--out {args.out}: no such directory")
    report = run_scenario(cfg, seeds)
    payload = report_to_json(report) if args.format == "json" else report_to_csv(report)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(payload)
        print(f"wrote {args.format} report for {report.scenario!r} to {args.out}")
    else:
        sys.stdout.write(payload)
    return EXIT_OK


def _cmd_presets(_args: argparse.Namespace) -> int:
    for name in PRESET_NAMES:
        print(name)
    return EXIT_OK


def _cmd_avail(args: argparse.Namespace) -> int:
    try:
        rows = failure_probability_table(args.failure_rate, args.repair_rate, args.n_max)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if args.format == "json":
        print(json.dumps({str(n): p for n, p in rows}, indent=2, sort_keys=True))
    elif args.format == "csv":
        print("n_boards,failure_probability")
        for n, p in rows:
            print(f"{n},{p:.6e}")
    else:
        print(f"{'N':>3}  {'P(failure)':>12}")
        for n, p in rows:
            print(f"{n:>3}  {p:>12.4e}")
    return EXIT_OK


def _build_sim_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sim", description="Run redundancy-simulation scenarios."
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute a scenario by preset name or config path")
    run_p.add_argument("scenario", help="preset name (see `sim presets`) or config file path")
    run_p.add_argument("--seeds", default="1,2,3", help="comma-separated seed list (default: 1,2,3)")
    run_p.add_argument("--out", help="write report to this path instead of stdout")
    run_p.add_argument("--format", choices=("json", "csv"), default="json")
    run_p.set_defaults(func=_cmd_run)

    presets_p = sub.add_parser("presets", help="list built-in scenario presets")
    presets_p.set_defaults(func=_cmd_presets)

    avail_p = sub.add_parser(
        "avail",
        help="availability table of the N-board model",
        description="Steady-state failure probability of an N-board redundant component.",
    )
    avail_p.add_argument(
        "--lambda", dest="failure_rate", type=float, default=DEFAULT_FAILURE_RATE,
        help="per-board failure rate (per hour)",
    )
    avail_p.add_argument(
        "--mu", dest="repair_rate", type=float, default=DEFAULT_REPAIR_RATE,
        help="repair rate (per hour)",
    )
    avail_p.add_argument("--n-max", type=int, default=4, help="largest board count tabulated")
    avail_p.add_argument("--format", choices=("table", "csv", "json"), default="table")
    avail_p.set_defaults(func=_cmd_avail)
    return parser


def main_sim(argv: list[str] | None = None) -> int:
    try:
        args = _build_sim_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 after --help, and 2 after the usage for a bad flag.
        return EXIT_CONFIG if exc.code else EXIT_OK
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


def main_avail(argv: list[str] | None = None) -> int:
    """The `avail` script: `sim avail` with the same arguments."""
    return main_sim(["avail", *(sys.argv[1:] if argv is None else argv)])


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main_sim())
