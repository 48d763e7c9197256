"""The benchmark's workloads, set-up and traced run.

Mission seeds come from the 120 seeds 0-119 whose outcomes the README's
survey lists (the 100-run acceptance block and 20 more).  One of them,
``FAULT_SEED``, touches down off the cargo's top face and so fails its
checks every time; it is flown in every mission round and every
Monte-Carlo block, on inputs that do not depend on the workload seed, so
the failed share is the same in every run.  The other missions are drawn
from the remaining surveyed seeds by the workload seed.  A run repeats
the same round of missions until ``--seconds`` have passed, so the host's
speed decides how often the round runs, never which missions fly.  All
missions fly the default competition-replica scenario at the runner's
default ``dt = 0.02``.
"""

from __future__ import annotations

import os
import random
import resource
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from cargosim import runner
from cargosim.mission import MissionConfig
from cargosim.sim_world import ScenarioConfig

import checks
from tracer import TIMED, Tracer, span_cost_ns

SURVEYED = range(120)  # the seeds of the README's survey
FAULT_SEED = 93  # touches down beside the cargo, yet reports done
MISSION_DRAWN = 2  # drawn missions per mission round, besides FAULT_SEED
SETUPS = 3  # set-up repetitions per run; setup_s is their median
WARMUP_SIM_S = 20.0  # simulated length of the warm-up mission
DT = 0.02  # run_mission's default tick, which montecarlo also uses
OUT = Path(__file__).resolve().parent / "out"


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def drawn_seeds(workload: str, seed: int, count: int) -> list[int]:
    """`count` surveyed seeds other than FAULT_SEED, drawn by the seed."""
    pool = [s for s in SURVEYED if s != FAULT_SEED]
    return random.Random(f"{workload}-{seed}").sample(pool, count)


def mission_round(seed: int) -> list[int]:
    return drawn_seeds("mission", seed, MISSION_DRAWN) + [FAULT_SEED]


def montecarlo_block(seed: int, batch: int) -> list[int]:
    """`batch` consecutive seeds that hold FAULT_SEED, placed by the seed."""
    start = FAULT_SEED - seed % batch
    return list(range(start, start + batch))


@dataclass
class Outcome:
    """What one run measured, checked and counted."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)  # failed operations
    errors: list[str] = field(default_factory=list)  # failed whole-run checks
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    info: dict = field(default_factory=dict)

    def count(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{label}: {p}" for p in problems)


@dataclass
class Context:
    scenario: ScenarioConfig
    mission: MissionConfig
    trajectories: list[tuple[runner.RunSummary, list[list]]]


def setup_once(workload: str, seed: int, index: int) -> Context:
    """Configs, a short warm-up mission and, for log_replay, one trajectory."""
    scenario, mission = ScenarioConfig(), MissionConfig()
    warmup, *replayed = drawn_seeds(workload, seed, 1 + SETUPS)
    runner.run_mission(scenario, mission, seed=warmup, max_time=WARMUP_SIM_S)
    trajectories = []
    if workload == "log_replay":
        trajectories.append(runner.run_mission(scenario, mission,
                                               seed=replayed[index]))
    return Context(scenario, mission, trajectories)


def setup(workload: str, seed: int, repeats: int) -> tuple[Context, list[float]]:
    times, contexts = [], []
    for index in range(repeats):
        t0 = perf_counter()
        contexts.append(setup_once(workload, seed, index))
        times.append(perf_counter() - t0)
    ctx = contexts[0]
    ctx.trajectories = [t for c in contexts for t in c.trajectories]
    return ctx, times


def _peak_rss_mb(children: int = 0) -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children * child) / 1024.0  # ru_maxrss is in KiB on Linux


def _cargo(ctx: Context):
    return ctx.scenario.cargoes[0]


def run_mission_workload(ctx: Context, seed: int, seconds: float) -> Outcome:
    """Rounds of serial run_mission calls, at least two and until `seconds`
    have passed; every mission must repeat its first flight exactly."""
    out = Outcome()
    seeds = mission_round(seed)
    times, ticks, summaries, first = [], [], [], {}
    t_start = perf_counter()
    while len(times) < 2 * len(seeds) or perf_counter() - t_start < seconds:
        for s in seeds:
            t0 = perf_counter()
            summary, records = runner.run_mission(ctx.scenario, ctx.mission,
                                                  seed=s)
            times.append(perf_counter() - t0)
            ticks.append(len(records))
            summaries.append(summary.to_dict())
            out.count(f"seed {s}", checks.check_mission(
                summaries[-1], records, runner.LOG_COLUMNS, _cargo(ctx)))
            if s not in first:
                first[s] = (summaries[-1], records)
            elif not (checks.identical(summaries[-1], first[s][0])
                      and checks.identical(records, first[s][1])):
                out.errors.append(f"seed {s} flown twice gave different "
                                  "records")
    out.metrics = {
        "mission_s": (statistics.median(times), "s"),
        "tick_us": (1e6 * sum(times) / sum(ticks), "us"),
        "sim_mission_s": (checks.sim_mission_s(summaries), "s"),
        "peak_rss_mb": (_peak_rss_mb(), "MB"),
    }
    out.info = {"mission_seeds": seeds, "rounds": len(times) // len(seeds),
                "ticks": sum(ticks)}
    return out


def run_montecarlo_workload(ctx: Context, seed: int, seconds: float,
                            batch: int | None = None) -> Outcome:
    """runner.montecarlo over one seed block at workers = nproc, repeated
    until `seconds` have passed."""
    out = Outcome()
    workers = nproc()
    seeds = montecarlo_block(seed, batch or 4 * workers)
    walls, summaries = [], []
    ticks = 0
    t_start = perf_counter()
    while not walls or perf_counter() - t_start < seconds:
        t0 = perf_counter()
        agg = runner.montecarlo(ctx.scenario, ctx.mission, runs=len(seeds),
                                seed_base=seeds[0], workers=workers)
        walls.append(perf_counter() - t0)
        out.errors.extend(checks.check_aggregate(agg, seeds))
        for s in agg["summaries"]:
            out.count(f"seed {s['seed']}", checks.check_summary(s, _cargo(ctx)))
            ticks += round(s["total_time"] / DT)
        summaries.extend(agg["summaries"])
    serial, _ = runner.run_mission(ctx.scenario, ctx.mission,
                                   seed=summaries[0]["seed"])
    if not checks.identical(serial.to_dict(), summaries[0]):
        out.errors.append(f"seed {summaries[0]['seed']}: pooled summary "
                          "differs from a serial run")
    out.metrics = {
        "mission_s": (statistics.median(w / len(seeds) for w in walls), "s"),
        "tick_us": (1e6 * sum(walls) / ticks, "us"),
        "sim_mission_s": (checks.sim_mission_s(summaries), "s"),
        "peak_rss_mb": (_peak_rss_mb(children=workers), "MB"),
    }
    out.info = {"mission_seeds": seeds, "batches": len(walls),
                "workers": workers,
                "mc_runs_per_s": len(summaries) / sum(walls),
                "landing_within_15cm_share":
                    checks.within_gate_share(summaries[:len(seeds)])}
    return out


def run_log_replay_workload(ctx: Context, seed: int, seconds: float) -> Outcome:
    """Rounds of write_log then metrics_from_log over the set-up
    trajectories until `seconds` have passed."""
    out = Outcome()
    OUT.mkdir(exist_ok=True)
    path = OUT / f"replay-{os.getpid()}.csv"
    columns = runner.LOG_COLUMNS
    expected = [checks.log_report(records, columns)
                for _, records in ctx.trajectories]
    op_times, per_row, write_s, analyze_s = [], [], 0.0, 0.0
    rows = 0
    written = [None] * len(ctx.trajectories)  # bytes of a verified write
    t_start = perf_counter()
    try:
        while not op_times or perf_counter() - t_start < seconds:
            for k, ((summary, records), want) in enumerate(zip(
                    ctx.trajectories, expected)):
                t0 = perf_counter()
                runner.write_log(records, path)
                t1 = perf_counter()
                report = runner.metrics_from_log(path)
                t2 = perf_counter()
                op_times.append(t2 - t0)
                per_row.append((t2 - t0) / len(records))
                write_s += t1 - t0
                analyze_s += t2 - t1
                rows += len(records)
                # a file equal to one that read back value for value reads
                # back the same; anything else is checked value by value
                problems = ([] if path.read_bytes() == written[k] else
                            checks.check_readback(path, records, columns))
                if not problems and written[k] is None:
                    written[k] = path.read_bytes()
                out.count(f"replay of {summary.seed}",
                          problems + checks.check_log_report(report, want))
    finally:
        path.unlink(missing_ok=True)
    out.metrics = {
        "mission_s": (statistics.median(op_times), "s"),
        "tick_us": (1e6 * statistics.median(per_row), "us"),
        "sim_mission_s": (checks.sim_mission_s(
            [summary.to_dict() for summary, _ in ctx.trajectories]), "s"),
        "peak_rss_mb": (_peak_rss_mb(), "MB"),
    }
    out.info = {"mission_seeds": [summary.seed for summary, _ in
                                  ctx.trajectories],
                "replays": len(op_times), "rows": rows,
                "log_write_rows_per_s": rows / write_s,
                "analyze_rows_per_s": rows / analyze_s}
    return out


# --- traced run --------------------------------------------------------

LAYER_NAMES = [name for _, _, name in TIMED
               if name not in ("runner.run_mission", "runner.write_log",
                               "runner.read_log", "runner.metrics_from_log")]
LOG_LAYERS = ["runner.write_log", "runner.read_log", "runner.metrics_from_log"]
CALLS_NAME = {"qr_localization.estimate_pose": "qr_localization.fix"}


def traced_metric_names() -> list[str]:
    """Every per-layer metric the traced run reports, in order."""
    names = []
    for layer in LAYER_NAMES:
        names.append(f"{layer}_us")
        names.append(f"{CALLS_NAME.get(layer, layer)}_calls_per_tick")
    names += ["runner.glue_us"] + [f"{n}_us_per_row" for n in LOG_LAYERS]
    names += ["hybrid_localizer.switches_per_mission",
              "perception.smooth_accept_ratio",
              "planner.plan_coverage_calls_per_mission",
              "runner.mc_parallel_efficiency", "traced_tick_us",
              "trace_overhead_us"]
    return names


def run_traced(ctx: Context, workload: str, seed: int) -> Outcome:
    """Per-layer self times from traced missions plus pool efficiency.

    The Monte-Carlo parallel efficiency is measured untraced on
    ``montecarlo_block(seed, 2 * nproc)``.  The workload's first nproc
    drawn mission seeds then run once untraced and once traced, and the
    traced records must equal the untraced ones; the traced records are
    then written and analysed under the tracer for the log-row figures.
    The tracing overhead is the wrapper's calibrated cost per call times
    the wrapped calls per tick: the host's speed drifts by more than the
    overhead between two runs of one mission, so their difference would
    measure the drift.
    """
    out = Outcome()
    workers = nproc()
    block = montecarlo_block(seed, 2 * workers)

    t0 = perf_counter()
    runner.montecarlo(ctx.scenario, ctx.mission, runs=len(block),
                      seed_base=block[0], workers=1)
    t1 = perf_counter()
    runner.montecarlo(ctx.scenario, ctx.mission, runs=len(block),
                      seed_base=block[0], workers=workers)
    t2 = perf_counter()
    efficiency = (t1 - t0) / (workers * (t2 - t1))

    ticks, missions, switches = 0, 0, 0
    OUT.mkdir(exist_ok=True)
    path = OUT / f"traced-{os.getpid()}.csv"
    tracer = Tracer()
    rows = 0
    try:
        for s in drawn_seeds(workload, seed, workers):
            summary, records = runner.run_mission(ctx.scenario, ctx.mission,
                                                  seed=s)
            with tracer:
                traced, traced_records = runner.run_mission(
                    ctx.scenario, ctx.mission, seed=s)
            if not (checks.identical(traced.to_dict(), summary.to_dict())
                    and checks.identical(traced_records, records)):
                out.errors.append(f"seed {s}: tracing changed the mission")
            out.count(f"seed {s}", checks.check_mission(
                traced.to_dict(), traced_records, runner.LOG_COLUMNS,
                _cargo(ctx)))
            ticks += len(records)
            missions += 1
            switches += traced.source_switches
            with tracer:
                runner.write_log(traced_records, path)
                runner.metrics_from_log(path)
            rows += len(traced_records)
    finally:
        path.unlink(missing_ok=True)

    self_ns, calls = tracer.summary()
    traced_ns = sum(end - start for name, start, end, _ in tracer.spans
                    if name == "runner.run_mission")
    m = {}
    for layer in LAYER_NAMES:
        m[f"{layer}_us"] = (self_ns.get(layer, 0) / ticks / 1e3, "us")
        m[f"{CALLS_NAME.get(layer, layer)}_calls_per_tick"] = (
            calls[layer] / ticks, "count")
    m["runner.glue_us"] = (self_ns.get("runner.run_mission", 0) / ticks / 1e3,
                           "us")
    for layer in LOG_LAYERS:
        m[f"{layer}_us_per_row"] = (self_ns.get(layer, 0) / rows / 1e3, "us")
    smooth_calls = calls["perception.smooth_track"]
    m["hybrid_localizer.switches_per_mission"] = (switches / missions, "count")
    m["perception.smooth_accept_ratio"] = (
        tracer.smooth_accepted / smooth_calls if smooth_calls else 0.0, "ratio")
    m["planner.plan_coverage_calls_per_mission"] = (
        calls["planner.plan_coverage"] / missions, "count")
    m["runner.mc_parallel_efficiency"] = (efficiency, "ratio")
    m["traced_tick_us"] = (traced_ns / ticks / 1e3, "us")
    mission_spans = sum(n for name, n in calls.items()
                        if name not in LOG_LAYERS)
    m["trace_overhead_us"] = (mission_spans / ticks * span_cost_ns() / 1e3,
                              "us")
    out.metrics = m

    spans_path = OUT / f"spans-{workload}-{seed}.csv"
    tracer.write(spans_path)
    out.info = {"traced_missions": missions, "ticks": ticks, "log_rows": rows,
                "absent": tracer.absent, "spans": len(tracer.spans),
                "spans_file": str(spans_path.relative_to(OUT.parent.parent)),
                "efficiency_seeds": block, "workers": workers}
    return out


WORKLOADS = {
    "mission": run_mission_workload,
    "montecarlo": run_montecarlo_workload,
    "log_replay": run_log_replay_workload,
}
