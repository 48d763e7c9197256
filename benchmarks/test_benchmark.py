"""Fast tests of the benchmark itself: each workload at minimal size, each
output check against a corrupted output, and tracing against no tracing.

    python3 -m pytest benchmarks/test_benchmark.py
"""

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from cargosim import runner  # noqa: E402
from cargosim.mission import MissionConfig  # noqa: E402
from cargosim.sim_world import ScenarioConfig  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, span_cost_ns  # noqa: E402

COLUMNS = runner.LOG_COLUMNS
CARGO = ScenarioConfig().cargoes[0]


@pytest.fixture(scope="module")
def mission():
    summary, records = runner.run_mission(ScenarioConfig(), MissionConfig(),
                                          seed=1)
    return summary.to_dict(), records


@pytest.fixture(scope="module")
def aggregate():
    return runner.montecarlo(ScenarioConfig(), MissionConfig(), runs=2,
                             seed_base=1, workers=1)


def _assert_clean(out):
    assert out.attempted >= 1
    assert out.failed == 0, out.problems
    assert out.errors == []


def _assert_only_the_fault_seed_failed(out, flights):
    """FAULT_SEED touches down off the cargo top; nothing else may fail."""
    assert out.errors == []
    assert out.failed == flights == len(out.problems)
    for problem in out.problems:
        assert problem.startswith(f"seed {workloads.FAULT_SEED}: ")
        assert "off its top face" in problem


def test_mission_workload_minimal(monkeypatch):
    monkeypatch.setattr(workloads, "MISSION_DRAWN", 0)  # FAULT_SEED alone
    ctx, times = workloads.setup("mission", 0, 1)
    out = workloads.run_mission_workload(ctx, 0, seconds=0)
    _assert_only_the_fault_seed_failed(out, flights=2)
    assert out.info["rounds"] == 2 and len(times) == 1
    assert out.attempted == 2
    assert set(out.metrics) == {"mission_s", "tick_us", "sim_mission_s",
                                "peak_rss_mb"}


def test_montecarlo_workload_minimal():
    ctx, _ = workloads.setup("montecarlo", 0, 1)
    out = workloads.run_montecarlo_workload(ctx, 0, seconds=0, batch=2)
    _assert_only_the_fault_seed_failed(out, flights=1)
    assert out.attempted == 2


def test_seeds_follow_the_workload_seed_only():
    assert workloads.mission_round(5) == workloads.mission_round(5)
    assert workloads.mission_round(5) != workloads.mission_round(6)
    for seed in range(20):
        drawn = workloads.drawn_seeds("mission", seed, 4)
        assert workloads.FAULT_SEED not in drawn
        assert set(drawn) <= set(workloads.SURVEYED)
        block = workloads.montecarlo_block(seed, 8)
        assert workloads.FAULT_SEED in block and len(set(block)) == 8


def test_log_replay_workload_minimal():
    ctx, _ = workloads.setup("log_replay", 0, 1)
    assert len(ctx.trajectories) == 1
    out = workloads.run_log_replay_workload(ctx, 0, seconds=0)
    _assert_clean(out)
    assert out.info["rows"] == len(ctx.trajectories[0][1])


def test_mission_checks_pass_and_catch_a_perturbed_rmse(mission):
    summary, records = mission
    assert checks.check_mission(summary, records, COLUMNS, CARGO) == []
    bad = copy.deepcopy(summary)
    bad["rmse"]["uwb"][0] *= 1.0 + 1e-6
    assert checks.check_mission(bad, records, COLUMNS, CARGO)


def test_mission_checks_catch_a_touchdown_off_the_cargo_top(mission):
    summary, _ = mission
    bad = copy.deepcopy(summary)
    bad["landing_error"] = 0.6 * CARGO.top_diagonal
    assert checks.check_summary(summary, CARGO) == []
    assert checks.check_summary(bad, CARGO)


def test_mission_checks_catch_a_landing_error_off_the_log(mission):
    summary, records = mission
    bad = copy.deepcopy(summary)
    bad["landing_error"] += 2 * checks.MATCH_M
    assert checks.check_mission(bad, records, COLUMNS, CARGO)


def test_readback_catches_a_dropped_row(tmp_path, mission):
    _, records = mission
    path = tmp_path / "log.csv"
    runner.write_log(records, path)
    assert checks.check_readback(path, records, COLUMNS) == []
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:100] + lines[101:]))
    assert checks.check_readback(path, records, COLUMNS)


def test_log_report_matches_and_catches_a_dropped_record(tmp_path, mission):
    _, records = mission
    path = tmp_path / "log.csv"
    runner.write_log(records, path)
    report = runner.metrics_from_log(path)
    assert checks.check_log_report(report, checks.log_report(records, COLUMNS)) == []
    source = COLUMNS.index("source")
    qr_row = next(k for k, row in enumerate(records) if row[source] == "qr")
    fewer = records[:qr_row] + records[qr_row + 1:]
    assert checks.check_log_report(report, checks.log_report(fewer, COLUMNS))


@pytest.mark.parametrize("corrupt", [
    lambda a: a.update(completed=a["completed"] - 1),
    lambda a: a.update(landing_within_15cm_rate=a["landing_within_15cm_rate"] - 0.5),
    lambda a: a["landing_error_quantiles"].update({"0.5": 1.0}),
    lambda a: a["summaries"].reverse(),
])
def test_aggregate_check_catches_a_wrong_aggregate(aggregate, corrupt):
    assert checks.check_aggregate(aggregate, [1, 2]) == []
    bad = copy.deepcopy(aggregate)
    corrupt(bad)
    assert checks.check_aggregate(bad, [1, 2])


def test_tracing_leaves_records_identical_and_times_add_up():
    args = (ScenarioConfig(), MissionConfig())
    plain = runner.run_mission(*args, seed=3, max_time=20.0)
    with Tracer() as tracer:
        traced = runner.run_mission(*args, seed=3, max_time=20.0)
    assert checks.identical(traced[1], plain[1])
    assert checks.identical(traced[0].to_dict(), plain[0].to_dict())
    assert tracer.absent == []
    assert runner.run_mission.__name__ == "run_mission"
    assert not hasattr(runner.run_mission, "__wrapped__")  # restored
    self_ns, calls = tracer.summary()
    (root,) = [s for s in tracer.spans if s[0] == "runner.run_mission"]
    assert sum(self_ns.values()) == root[2] - root[1]
    assert calls["sim_world.step"] == len(plain[1])
    assert calls["control.pid_step"] > 0  # imported by name into runner


def test_missing_target_is_reported_absent(monkeypatch):
    from cargosim import hybrid_localizer
    monkeypatch.delattr(hybrid_localizer, "arbitrate")
    with Tracer() as tracer:
        pass
    assert tracer.absent == ["hybrid_localizer.arbitrate"]


def test_benchmark_json_lists_every_traced_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == \
        workloads.traced_metric_names()


def test_span_cost_is_a_plausible_per_call_cost():
    assert 0.0 < span_cost_ns(calls=2_000, blocks=3) < 50_000.0


def test_run_without_the_package_exits_nonzero_and_prints_no_result(tmp_path):
    (tmp_path / "benchmarks").mkdir()
    shutil.copy(HERE / "run.py", tmp_path / "benchmarks" / "run.py")
    done = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "mission",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
