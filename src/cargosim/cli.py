"""Command line entry point.

Subcommands:
  run         one seeded mission; writes trajectory CSV + summary JSON
  montecarlo  N seeded missions in parallel; writes aggregate JSON
  metrics     localization accuracy report from a trajectory CSV
  plan        emit the coverage waypoints for a scenario as CSV

Exit codes: 0 mission completed (or command succeeded), 2 mission
aborted (a fault inside a mission tick, such as a non-finite estimate,
aborts it), 64 configuration error or an option out of range (such as a
negative --seed), 65 unreadable or malformed trajectory log (metrics),
70 fault while running outside a mission tick (any other invalid value).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from .config import ConfigError, load_config
from .mission import MissionConfig, MissionExecutive
from .runner import (DT, LogFormatError, metrics_from_log, montecarlo, run_mission,
                     write_log)
from .sim_world import ScenarioConfig, vehicle_knowledge

EXIT_OK = 0
EXIT_ABORTED = 2
EXIT_CONFIG = 64
EXIT_DATA = 65  # EX_DATAERR: the input log cannot be read or is malformed
EXIT_FAULT = 70  # EX_SOFTWARE: the run failed, not its configuration


def _load(args) -> tuple[ScenarioConfig, MissionConfig]:
    if args.scenario is not None:
        return load_config(args.scenario)
    return ScenarioConfig(), MissionConfig()


def _cmd_run(args) -> int:
    scenario, mission = _load(args)
    seed = scenario.seed if args.seed is None else args.seed
    summary, records = run_mission(scenario, mission, seed=seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_log(records, out / "trajectory.csv")
    _write_json(out / "summary.json", summary.to_dict())
    print(f"{summary.final_phase}: landing_error="
          f"{summary.landing_error:.3f} m, attach={summary.attach_success}, "
          f"t={summary.total_time:.1f} s")
    return EXIT_OK if summary.final_phase == "done" else EXIT_ABORTED


def _cmd_montecarlo(args) -> int:
    scenario, mission = _load(args)
    seed = scenario.seed if args.seed is None else args.seed
    agg = montecarlo(scenario, mission, runs=args.runs, seed_base=seed,
                     workers=args.workers)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "montecarlo.json", agg)
    print(f"{agg['completed']}/{agg['runs']} completed, "
          f"{100 * agg['landing_within_15cm_rate']:.0f}% landed within 0.15 m")
    return EXIT_OK if agg["completed"] == agg["runs"] else EXIT_ABORTED


def _write_json(path: Path, obj) -> None:
    """Strict JSON: a float that is not finite, such as the landing error
    of a run that never landed, is written as null."""
    with open(path, "w") as f:
        json.dump(_finite_or_null(obj), f, indent=2, allow_nan=False)
        f.write("\n")


def _finite_or_null(obj):
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _finite_or_null(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite_or_null(v) for v in obj]
    return obj


def _cmd_metrics(args) -> int:
    try:
        report = metrics_from_log(args.log)
    except (OSError, LogFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    json.dump(report, sys.stdout, indent=2)
    print()
    return EXIT_OK


def _cmd_plan(args) -> int:
    scenario, mission = _load(args)
    executive = MissionExecutive(mission, vehicle_knowledge(scenario), DT)
    executive.plan()
    z = float(executive.search_altitude)
    lines = ["x_m,y_m,z_m,yaw_rad"]
    for x, y, yaw in executive.waypoints:
        lines.append(f"{float(x)!r},{float(y)!r},{z!r},{float(yaw)!r}")
    text = "\n".join(lines) + "\n"
    if args.out is not None:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="cargosim", description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute one seeded mission")
    run.add_argument("--scenario", help="scenario JSON file (defaults built in)")
    run.add_argument("--seed", type=int, help="default: the scenario's seed")
    run.add_argument("--out", default="out", help="output directory")
    run.set_defaults(func=_cmd_run)

    mc = sub.add_parser("montecarlo", help="many seeded missions, aggregated")
    mc.add_argument("--scenario")
    mc.add_argument("--seed", type=int,
                    help="base seed, run i uses seed+i; default: the scenario's seed")
    mc.add_argument("--runs", type=int, default=100)
    mc.add_argument("--workers", type=int, default=4)
    mc.add_argument("--out", default="out")
    mc.set_defaults(func=_cmd_montecarlo)

    met = sub.add_parser("metrics", help="accuracy report from a trajectory CSV")
    met.add_argument("log", help="trajectory.csv from a run")
    met.set_defaults(func=_cmd_metrics)

    plan = sub.add_parser("plan", help="coverage waypoints as CSV")
    plan.add_argument("--scenario")
    plan.add_argument("--out", help="write CSV here instead of stdout")
    plan.set_defaults(func=_cmd_plan)
    return p


# the least value of each integer option
_LOWEST = {"seed": 0, "runs": 1, "workers": 1}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    for name, lowest in _LOWEST.items():
        value = getattr(args, name, None)
        if value is not None and value < lowest:
            print(f"error: --{name} must be at least {lowest}, got {value}",
                  file=sys.stderr)
            return EXIT_CONFIG
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAULT


if __name__ == "__main__":
    sys.exit(main())
