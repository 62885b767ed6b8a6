"""Command-line entry point: run, validate, sweep, report.

Exit codes: 0 success, 1 configuration/validation problems or an event
log that does not read back, 2 a runtime invariant violation (the run
aborts rather than emitting corrupt metrics).
"""

from __future__ import annotations

import argparse
import copy
import json
import logging
import os
import sys
from typing import List, Optional

from .config import RunConfig, load_raw, parse_config, validate_config
from .errors import ConfigError, FedschedError, InvariantViolation, LogError
from .metrics import (
    build_report,
    read_event_log,
    static_info_of,
    write_event_log,
    write_pods_csv,
    write_series_csv,
    write_summary_json,
)
from .sim import Simulation

log = logging.getLogger("fedsched")

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_INVARIANT = 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fedsched",
        description="Simulate workload scheduling across federated container clusters.",
    )
    parser.add_argument(
        "--log-level", choices=["error", "warn", "info", "debug"], default="warn"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute a simulation and write metrics + event log")
    validate = sub.add_parser("validate", help="parse and validate a config, nothing else")
    sweep = sub.add_parser("sweep", help="run once per value of one swept parameter")
    report = sub.add_parser(
        "report", help="recompute the metrics of a run from its config and event log"
    )

    for p in (run, validate, sweep, report):
        p.add_argument("--config", required=True, help="path to the JSON config")
    for p in (run, sweep):
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--duration", default=None, help="override sim duration, e.g. '30m'")
    sweep.add_argument("--param", required=True, help="dotted config path, e.g. federation.election_timeout")
    sweep.add_argument("--values", required=True, help="comma-separated values for the parameter")
    report.add_argument("--log", required=True, help="path to the run's events.jsonl")
    report.add_argument("--out", required=True, help="output directory")
    return parser


def _resolve_seed(flag_seed: Optional[int]) -> Optional[int]:
    if flag_seed is not None:
        return flag_seed
    env = os.environ.get("FEDSCHED_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ConfigError(f"FEDSCHED_SEED must be an integer, got {env!r}")
    return None


def _apply_overrides(raw: dict, duration: Optional[str]) -> dict:
    if duration is not None:
        raw = copy.deepcopy(raw)
        raw.setdefault("sim", {})["duration"] = duration
    return raw


def _write_report(out_dir: str, report) -> None:
    os.makedirs(out_dir, exist_ok=True)
    write_pods_csv(os.path.join(out_dir, "pods.csv"), report)
    write_series_csv(os.path.join(out_dir, "timeseries.csv"), report)
    write_summary_json(os.path.join(out_dir, "summary.json"), report)


def _run_one(config: RunConfig, out_dir: Optional[str]) -> dict:
    sim = Simulation(config)
    report = sim.run()
    if out_dir is not None:
        _write_report(out_dir, report)
        write_event_log(os.path.join(out_dir, "events.jsonl"), sim.events)
    return report.summary()


def _coerce_value(text: str):
    lowered = text.lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    return text


def _set_dotted(raw: dict, dotted: str, value) -> None:
    """Set one config field by dotted path; an integer part indexes a list.

    Missing or non-object fields on the way become empty objects, but list
    elements are never created: a bad list index is a ConfigError.
    """
    parts = dotted.split(".")
    target = raw
    for depth, part in enumerate(parts):
        last = depth == len(parts) - 1
        if isinstance(target, list):
            if not part.isdecimal() or int(part) >= len(target):
                raise ConfigError(
                    f"no element {part!r} in a list of {len(target)}",
                    ".".join(parts[: depth + 1]),
                )
            key = int(part)
        elif isinstance(target, dict):
            key = part
            if not last and not isinstance(target.get(part), (dict, list)):
                target[part] = {}
        else:
            raise ConfigError(
                f"cannot set a field inside a {type(target).__name__}",
                ".".join(parts[:depth]),
            )
        if last:
            target[key] = value
        else:
            target = target[key]


def cmd_run(args) -> int:
    raw = _apply_overrides(load_raw(args.config), args.duration)
    config = validate_config(raw, base_seed=_resolve_seed(args.seed))
    summary = _run_one(config, args.out)
    print(json.dumps(summary, indent=2, sort_keys=True))
    return EXIT_OK


def cmd_validate(args) -> int:
    config = parse_config(args.config)
    print(
        f"ok: {len(config.clusters)} clusters, {len(config.graph.edges)} edges, "
        f"duration {config.duration_ms} ms, seed {config.seed}"
    )
    return EXIT_OK


def cmd_sweep(args) -> int:
    raw = _apply_overrides(load_raw(args.config), args.duration)
    seed = _resolve_seed(args.seed)
    values = [v.strip() for v in args.values.split(",") if v.strip()]
    if not values:
        raise ConfigError("sweep needs at least one value", "--values")
    for value in values:
        variant = copy.deepcopy(raw)
        _set_dotted(variant, args.param, _coerce_value(value))
        config = validate_config(variant, base_seed=seed)
        out_dir = None
        if args.out is not None:
            out_dir = os.path.join(args.out, f"{args.param}={value}")
        summary = _run_one(config, out_dir)
        line = {"param": args.param, "value": value, "summary": summary}
        print(json.dumps(line, sort_keys=True))
    return EXIT_OK


def cmd_report(args) -> int:
    static = static_info_of(parse_config(args.config))
    line = 0

    def numbered():
        nonlocal line
        for line, record in enumerate(read_event_log(args.log), 1):
            yield record

    try:
        report = build_report(numbered(), static)
    except (KeyError, IndexError, TypeError, ValueError, AttributeError,
            InvariantViolation) as exc:
        # A record the config's clusters or the records before it cannot
        # explain: a log of another config, or one edited by hand.
        raise LogError(
            f"record does not replay: {type(exc).__name__}: {exc}", f"{args.log}:{line}"
        ) from None
    _write_report(args.out, report)
    print(json.dumps(report.summary(), indent=2, sort_keys=True))
    return EXIT_OK


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level={"error": "ERROR", "warn": "WARNING", "info": "INFO", "debug": "DEBUG"}[
            args.log_level
        ]
    )
    commands = {
        "run": cmd_run, "validate": cmd_validate, "sweep": cmd_sweep, "report": cmd_report,
    }
    try:
        return commands[args.command](args)
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except (ConfigError, FedschedError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
