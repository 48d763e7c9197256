import csv
import gc
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from collections import deque
from dataclasses import replace

import numpy as np
import pytest

from cargosim import runner, uwb_localization
from cargosim.control import PHASE_GAINS
from cargosim.mission import STOP, MissionConfig, TickCommand
from cargosim.runner import (LOG_COLUMNS, LOG_SCHEMA, Command, Flight,
                             LogFormatError, RunSummary, metrics_from_log,
                             montecarlo, read_log, run_mission, write_log)
from cargosim.sim_world import CargoSpec, ScenarioConfig, SimWorld

from conftest import calm_scenario


@pytest.fixture(scope="module")
def noiseless_run():
    summary, records = run_mission(calm_scenario(platform_roll_amp=math.radians(8.0),
                                                 platform_pitch_amp=math.radians(10.0)),
                                   MissionConfig(), seed=3)
    return summary, records


def test_noiseless_mission_completes(noiseless_run):
    summary, records = noiseless_run
    assert summary.final_phase == "done"
    assert summary.abort_reason is None
    assert summary.attach_success
    assert summary.landing_error <= 0.02
    assert records


def test_phase_durations_cover_total_time(noiseless_run):
    summary, _ = noiseless_run
    assert summary.phase_durations
    assert all(v >= 0 for v in summary.phase_durations.values())
    assert sum(summary.phase_durations.values()) == pytest.approx(
        summary.total_time, abs=0.1)


def test_records_follow_schema(noiseless_run):
    _, records = noiseless_run
    for row in records:
        assert len(row) == len(LOG_COLUMNS)
    phases = [row[1] for row in records]
    # phase order never goes backwards through the nominal sequence
    order = {"takeoff": 0, "search": 1, "land": 2, "adsorb": 3, "return": 4,
             "done": 5}
    ranks = [order[p] for p in phases]
    assert ranks == sorted(ranks)


def test_log_roundtrip(tmp_path, noiseless_run):
    _, records = noiseless_run
    path = tmp_path / "trajectory.csv"
    write_log(records, path)
    header, rows = read_log(path)
    rows = list(rows)
    assert header == LOG_COLUMNS
    assert len(rows) == len(records)
    # floats survive the text roundtrip exactly
    assert float(rows[10][2]) == records[10][2]


def _reference_write_log(records, path):
    """The writer the one-pass ``write_log`` must match byte for byte."""
    def fmt(v):
        if isinstance(v, float):
            return repr(float(v))
        return v

    with open(path, "w", newline="") as f:
        f.write(f"# {LOG_SCHEMA}\n")
        writer = csv.writer(f)
        writer.writerow(LOG_COLUMNS)
        for row in records:
            writer.writerow([fmt(v) for v in row])


EDGE_ROWS = [
    ["a,b", 'say "hi"', "x\r\ny", "x\ny", "x\rz", '"', ","],
    ["a,b"], ['say "hi"'], ["x\r\ny"], ["x\ny"], ["x\rz"], ['"'], [0.5, ","],
    [1.0, "", 2.0, "", ""],
    [""],
    [None],
    ["", ""],
    [],
    [None, 1.5, None, "src", None],
    [np.float64(0.1), np.float32(0.1), np.float64(1e16), np.float32(-2.5e-8),
     np.float64(-0.0)],
    [float("nan"), float("inf"), -float("inf"), -0.0, 1e16, 1e-7, 1e-5,
     123456789.125, 2.0 ** -1074, np.float64("nan")],
    [0, -3, 10 ** 20, True, False, np.int64(7), np.bool_(True)],
    [" lead", "trail ", "tab\there", "semi;colon", "phase:land->adsorb"],
    [0.02, "search", 1.0, 2.0, 3.0, "uwb,qr", 100.0, ""],
]


@pytest.mark.parametrize("row", EDGE_ROWS, ids=range(len(EDGE_ROWS)))
def test_write_log_matches_the_csv_writer_on_edge_rows(tmp_path, row):
    fast, reference = tmp_path / "fast.csv", tmp_path / "reference.csv"
    write_log([row, [0.5, "land"], row], fast)
    _reference_write_log([row, [0.5, "land"], row], reference)
    assert fast.read_bytes() == reference.read_bytes()


def test_write_log_matches_the_csv_writer_on_a_mission(tmp_path,
                                                       noiseless_run):
    _, records = noiseless_run
    fast, reference = tmp_path / "fast.csv", tmp_path / "reference.csv"
    write_log(records, fast)
    _reference_write_log(records, reference)
    assert fast.read_bytes() == reference.read_bytes()


def test_written_floats_read_back_exactly(tmp_path, noiseless_run):
    _, records = noiseless_run
    rng = np.random.default_rng(7)
    extra = (rng.standard_normal((50, 6)) *
             10.0 ** rng.integers(-300, 300, (50, 6))).tolist()
    extra.append([float("nan"), float("inf"), -float("inf"), -0.0, 1e16, 1e-7])
    path = tmp_path / "trajectory.csv"
    write_log(records + extra, path)
    header, rows = read_log(path)
    rows = list(rows)
    assert header == LOG_COLUMNS
    assert len(rows) == len(records) + len(extra)
    for want_row, got_row in zip(records + extra, rows):
        for want, got in zip(want_row, got_row):
            if isinstance(want, float):
                assert np.float64(float(got)).tobytes() == \
                    np.float64(want).tobytes() or (math.isnan(want) and
                                                   math.isnan(float(got)))
            else:
                assert got == want


def test_read_log_refuses_unknown_schema(tmp_path):
    p = tmp_path / "weird.csv"
    p.write_text("# cargosim-log-v999\nt\n0.0\n")
    with pytest.raises(ValueError, match="unknown log schema"):
        read_log(p)


def test_read_log_names_the_file_of_a_bad_log(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text(f"# {LOG_SCHEMA}\n")
    with pytest.raises(LogFormatError, match="empty.csv: no header line"):
        read_log(empty)
    binary = tmp_path / "binary.csv"
    binary.write_bytes(b"\xff\xfe\x00\x01")
    with pytest.raises(LogFormatError, match="binary.csv"):
        read_log(binary)


def _mission_log(tmp_path, noiseless_run, name="trajectory.csv"):
    path = tmp_path / name
    write_log(noiseless_run[1][:50], path)
    return path


def test_metrics_names_the_row_of_a_short_row(tmp_path, noiseless_run):
    path = _mission_log(tmp_path, noiseless_run)
    lines = path.read_text().splitlines(keepends=True)
    lines[8] = ",".join(lines[8].split(",")[:5]) + "\r\n"  # data row 7
    path.write_text("".join(lines))
    with pytest.raises(LogFormatError,
                       match="trajectory.csv: row 7 has 5 fields, the header 20"):
        metrics_from_log(path)


def test_metrics_names_a_missing_column(tmp_path):
    path = tmp_path / "nosource.csv"
    path.write_text(f"# {LOG_SCHEMA}\ntrue_x,true_y,true_z,est_x,est_y,est_z\r\n"
                    "0.0,0.0,0.0,0.0,0.0,0.0\r\n")
    with pytest.raises(LogFormatError, match="nosource.csv: no source column"):
        metrics_from_log(path)


def test_metrics_names_the_row_of_a_cell_that_is_not_a_number(tmp_path,
                                                              noiseless_run):
    path = _mission_log(tmp_path, noiseless_run)
    lines = path.read_text().splitlines(keepends=True)
    lines[4] = lines[4].replace(",", ",x", 3)  # data row 3
    path.write_text("".join(lines))
    with pytest.raises(LogFormatError, match="row 3"):
        metrics_from_log(path)


def test_metrics_names_the_row_of_a_marker_fix_at_no_finite_height(tmp_path):
    row = [0.0, "land", 0.0, 0.0, float("inf"), 0.0,
           0.01, 0.0, 1.0, 0.0, "qr",
           0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 100.0, ""]
    path = tmp_path / "log.csv"
    write_log([row[:10] + ["uwb"] + row[11:], row], path)
    with pytest.raises(LogFormatError, match="row 2: marker fix at height inf"):
        metrics_from_log(path)


def _reference_metrics_from_log(path) -> dict:
    """The numpy analyser the one-pass ``metrics_from_log`` replaced."""
    header, rows = read_log(path)
    idx = {name: k for k, name in enumerate(header)}
    by_source: dict[str, list] = {}
    qr_by_bucket: dict[int, list] = {}
    for row in rows:
        truth = np.array([float(row[idx["true_x"]]), float(row[idx["true_y"]]),
                          float(row[idx["true_z"]])])
        est = np.array([float(row[idx["est_x"]]), float(row[idx["est_y"]]),
                        float(row[idx["est_z"]])])
        source = row[idx["source"]]
        err = est - truth
        by_source.setdefault(source, []).append(err)
        if source == "qr":
            bucket = int(truth[2] // 1.0)
            qr_by_bucket.setdefault(bucket, []).append(float(np.linalg.norm(err)))
    out = {"rmse": {}, "qr_error_by_height": {}}
    for source, errs in by_source.items():
        arr = np.array(errs)
        out["rmse"][source] = list(np.sqrt(np.mean(arr * arr, axis=0)))
    for bucket in sorted(qr_by_bucket):
        vals = qr_by_bucket[bucket]
        out["qr_error_by_height"][f"{bucket}m-{bucket + 1}m"] = {
            "median": float(np.median(vals)), "count": len(vals)}
    return out


def test_metrics_match_the_numpy_reference(tmp_path, noiseless_run):
    path = tmp_path / "trajectory.csv"
    write_log(noiseless_run[1], path)
    got, want = metrics_from_log(path), _reference_metrics_from_log(path)
    assert list(got["rmse"]) == list(want["rmse"]) == ["uwb", "qr"]
    for source, rmse in want["rmse"].items():
        assert got["rmse"][source] == rmse, source
    assert list(got["qr_error_by_height"]) == list(want["qr_error_by_height"])
    assert len(want["qr_error_by_height"]) >= 3
    for bucket, w in want["qr_error_by_height"].items():
        g = got["qr_error_by_height"][bucket]
        assert g["count"] == w["count"], bucket
        assert g["median"] == pytest.approx(w["median"], rel=1e-14, abs=0), bucket


def test_metrics_of_quoted_events_match_the_numpy_reference(tmp_path,
                                                            noiseless_run):
    records = [list(row) for row in noiseless_run[1][:200]]
    for row in records[::7]:
        row[-1] = 'a,b;say "hi"\r\nnext'
    path = tmp_path / "trajectory.csv"
    write_log(records, path)
    assert b'"a,b;say ""hi""\r\nnext"' in path.read_bytes()
    got, want = metrics_from_log(path), _reference_metrics_from_log(path)
    assert got["rmse"] == want["rmse"]
    assert list(got["qr_error_by_height"]) == list(want["qr_error_by_height"])
    for bucket, w in want["qr_error_by_height"].items():
        assert got["qr_error_by_height"][bucket] == {
            "median": pytest.approx(w["median"], rel=1e-14, abs=0),
            "count": w["count"]}


def test_metrics_from_log_holds_one_row_at_a_time(tmp_path):
    _, records = run_mission(ScenarioConfig(), MissionConfig(), seed=1)
    path = tmp_path / "trajectory.csv"
    write_log(records * 5, path)
    assert len(records) * 5 >= 30_000
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        metrics_from_log(path)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < 2e6  # holding every row as strings took 47.6 MB


def _with_bad_utf8_midway(tmp_path, noiseless_run):
    path = tmp_path / "trajectory.csv"
    write_log(noiseless_run[1], path)
    lines = path.read_bytes().splitlines(keepends=True)
    middle = len(lines) // 2
    lines[middle] = lines[middle][:-2] + b"\xff\r\n"  # into its events cell
    path.write_bytes(b"".join(lines))
    return path


def test_a_mid_file_decode_error_names_the_file(tmp_path, noiseless_run):
    path = _with_bad_utf8_midway(tmp_path, noiseless_run)
    header, rows = read_log(path)  # the header reads; the bad bytes come later
    assert header == LOG_COLUMNS
    with pytest.raises(LogFormatError, match="trajectory.csv: .*utf-8"):
        for _ in rows:
            pass
    with pytest.raises(LogFormatError, match="trajectory.csv: .*utf-8"):
        metrics_from_log(path)


def test_a_consumer_that_stops_at_a_bad_row_leaves_no_open_file(
        tmp_path, noiseless_run, monkeypatch):
    path = _mission_log(tmp_path, noiseless_run)
    lines = path.read_text().splitlines(keepends=True)
    lines[8] = "0.1,land\r\n"  # data row 7
    path.write_text("".join(lines))
    opened, unraisable = [], []

    def tracked_open(*args, **kwargs):
        opened.append(open(*args, **kwargs))
        return opened[-1]

    monkeypatch.setattr(runner, "open", tracked_open, raising=False)
    monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
    with warnings.catch_warnings():
        warnings.simplefilter("error", ResourceWarning)
        with pytest.raises(LogFormatError, match="row 7") as exc:
            metrics_from_log(path)
        assert exc.value.__traceback__ is not None  # its frames are still held
        assert len(opened) == 1 and opened[0].closed
        header, rows = read_log(path)  # a reader that drops the rows unread
        del header, rows
        assert len(opened) == 2 and opened[1].closed
        del exc
        opened.clear()  # an unclosed file would warn as it is freed
        gc.collect()
    assert unraisable == []


def test_importing_cargosim_does_not_load_multiprocessing():
    code = ("import sys, cargosim, cargosim.cli; "
            "print('multiprocessing' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert out.stdout.strip() == "False"


def test_metrics_known_bias(tmp_path):
    # a constant 0.1 m offset on x must come back as exactly 0.1 RMSE
    rows = []
    for k in range(50):
        t = k * 0.02
        rows.append([t, "search", 1.0, 2.0, 3.0, 0.0,
                     1.1, 2.0, 3.0, 0.0, "uwb",
                     0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 100.0, ""])
    path = tmp_path / "log.csv"
    write_log(rows, path)
    report = metrics_from_log(path)
    assert report["rmse"]["uwb"][0] == pytest.approx(0.1, abs=1e-12)
    assert report["rmse"]["uwb"][1] == pytest.approx(0.0, abs=1e-12)


def test_metrics_buckets_marker_errors_by_height(tmp_path):
    rows = []
    for z, err in ((0.5, 0.01), (1.5, 0.05), (1.6, 0.07)):
        rows.append([0.0, "land", 0.0, 0.0, z, 0.0,
                     err, 0.0, z, 0.0, "qr",
                     0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 100.0, ""])
    path = tmp_path / "log.csv"
    write_log(rows, path)
    report = metrics_from_log(path)
    buckets = report["qr_error_by_height"]
    assert buckets["0m-1m"]["median"] == pytest.approx(0.01)
    assert buckets["1m-2m"]["median"] == pytest.approx(0.06)
    assert buckets["1m-2m"]["count"] == 2


def _held(value, seen):
    """`value` and everything it holds, through containers and attributes."""
    if id(value) in seen:
        return
    seen.add(id(value))
    yield value
    if isinstance(value, dict):
        inner = [*value.keys(), *value.values()]
    elif isinstance(value, (list, tuple, set, deque)):
        inner = value
    else:
        inner = getattr(value, "__dict__", {}).values()
    for item in inner:
        yield from _held(item, seen)


def test_no_autonomy_stage_holds_the_scenario_or_the_cargo():
    # the localization, the cargo perception and the executive are built
    # from what the vehicle knows; only the world and the recorder hold the
    # truth
    flight = Flight(ScenarioConfig(seed=0), MissionConfig(), 0.02, False)
    flight.fly(runner.MAX_TIME)
    assert flight.executive.stage == "done"
    truth = (ScenarioConfig, CargoSpec)
    for stage in (flight.localizer, flight.perception, flight.executive):
        held = [v for v in _held(stage, set()) if isinstance(v, truth)]
        assert not held, (type(stage).__name__, held)
    # the scan would find them: the world holds both, inside its config
    assert {type(v) for v in _held([{"world": flight.world}], set())} >= set(truth)


def test_geofence_exclusion_aborts():
    mission = MissionConfig(geofence=(-6.0, 5.0, -8.0, 8.0))  # deck outside
    summary, _ = run_mission(calm_scenario(), mission, seed=1, max_time=120.0)
    assert summary.final_phase == "aborted"
    assert summary.abort_reason == "geofence"


def test_seed_93_lands_again_and_carries_the_cargo_from_its_top_face():
    # its first touchdown is 0.238 m off the cargo centre, beside the top
    # face: that adsorption fails its thrust check, and the second
    # touchdown, on the top face, carries the cargo
    scenario = ScenarioConfig()
    summary, records = run_mission(scenario, MissionConfig(), seed=93)
    assert summary.final_phase == "done" and summary.attach_success
    assert summary.landing_error == pytest.approx(0.2384, abs=1e-4)  # the first
    x, y, events = (LOG_COLUMNS.index(k) for k in ("true_x", "true_y", "events"))
    touchdowns = [math.dist((row[x], row[y]), scenario.cargoes[0].position[:2])
                  for row in records if "phase:land->adsorb" in row[events]]
    assert len(touchdowns) == 2
    assert touchdowns[0] == summary.landing_error
    assert touchdowns[-1] <= scenario.cargoes[0].top_diagonal / 2.0


FAILED_ADSORPTION = MissionConfig(adsorb_success_prob=0.0)


@pytest.fixture(scope="module")
def failed_adsorption_run():
    return run_mission(ScenarioConfig(), FAILED_ADSORPTION, seed=0)


def test_failed_adsorption_retries_then_aborts(failed_adsorption_run):
    mission = FAILED_ADSORPTION
    summary, records = failed_adsorption_run
    events = [e for row in records for e in row[-1].split(";")]
    assert summary.final_phase == "aborted"
    assert summary.abort_reason == "attach_retries_exhausted"
    assert summary.attach_success is False
    assert events.count("adsorb_complete") == mission.max_attach_attempts == 3
    assert events.count("attach_failed") == 3
    assert "attach_ok" not in events


@pytest.mark.parametrize("run", ["noiseless_run", "failed_adsorption_run"])
def test_a_row_that_changes_the_phase_logs_the_new_phase(run, request):
    _, records = request.getfixturevalue(run)
    phase, events = LOG_COLUMNS.index("phase"), LOG_COLUMNS.index("events")
    changes = [(row[phase], e.split("->")[1]) for row in records
               for e in row[events].split(";") if e.startswith("phase:")]
    assert len(changes) >= 5
    for logged, entered in changes:
        assert logged == entered


def test_mission_still_flying_at_max_time_is_a_timeout():
    summary, records = run_mission(ScenarioConfig(), MissionConfig(), seed=0,
                                   max_time=2.0)
    assert summary.final_phase == "aborted"
    assert summary.abort_reason == "timeout"
    assert len(records) == 100
    assert records[-1][1] == "takeoff"


def test_a_step_the_world_cannot_take_raises_before_the_first_tick():
    with pytest.raises(ValueError, match=r"dt must be in \(0, 0.1\], got 0.2"):
        run_mission(ScenarioConfig(), MissionConfig(), seed=0, dt=0.2)
    for dt in (0.1, 0.05):
        summary, records = run_mission(ScenarioConfig(), MissionConfig(),
                                       seed=0, max_time=2.0, dt=dt)
        assert summary.abort_reason == "timeout", dt
        assert len(records) == round(2.0 / dt)


def test_summary_serializes_to_json():
    s = RunSummary(final_phase="done", landing_error=0.01, seed=4)
    text = json.dumps(s.to_dict())
    assert json.loads(text)["seed"] == 4


def test_montecarlo_single_run_matches_direct():
    scenario = calm_scenario()
    mission = MissionConfig()
    agg = montecarlo(scenario, mission, runs=1, seed_base=6, workers=1)
    direct, _ = run_mission(scenario, mission, seed=6)
    assert agg["runs"] == 1
    assert agg["summaries"][0] == direct.to_dict()
    assert agg["completed"] == (1 if direct.final_phase == "done" else 0)


def test_montecarlo_validates_runs():
    with pytest.raises(ValueError):
        montecarlo(ScenarioConfig(), MissionConfig(), runs=0)


def test_montecarlo_validates_workers():
    with pytest.raises(ValueError, match="at least one worker"):
        montecarlo(ScenarioConfig(), MissionConfig(), runs=2, workers=0)


@pytest.mark.parametrize("fence", [0.05, 0.1])
def test_montecarlo_groups_fly_each_seed_as_run_mission_does(fence):
    # a geofence this close round the start aborts each flight at its own
    # tick, while the other flights of its worker fly on; 0.05 m ends some
    # flights on their first tick, before any filter step
    scenario = ScenarioConfig()
    x, y, _ = scenario.uav_start
    mission = MissionConfig(geofence=(x - fence, x + fence, y - fence, y + fence))
    alone = [run_mission(scenario, mission, seed=s)[0].to_dict()
             for s in range(5)]
    assert len({s["total_time"] for s in alone}) >= 2
    aggregates = set()
    # one seed per task: seven workers for five runs start five processes,
    # and the pool hands every summary back in seed order
    for workers in (1, 2, 3, 7):
        agg = montecarlo(scenario, mission, runs=5, seed_base=0,
                         workers=workers)
        assert [json.dumps(s) for s in agg["summaries"]] == \
            [json.dumps(s) for s in alone], workers
        aggregates.add(json.dumps(agg, sort_keys=True))
    assert len(aggregates) == 1


def test_each_label_filter_makes_one_predict_and_update_per_tick(monkeypatch):
    calls = dict.fromkeys(["predict_label", "update_label", "ekf_predict",
                           "ekf_update"], 0)

    def counted(name):
        original = getattr(uwb_localization, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(uwb_localization, name, counted(name))
    _, records = run_mission(ScenarioConfig(), MissionConfig(), seed=0,
                             max_time=1.0)
    assert len(records) == 50
    # the first tick starts both filters from the ranges alone; each tick
    # after it runs both labels through one ekf_predict and one ekf_update
    assert calls == {"predict_label": 98, "update_label": 98,
                     "ekf_predict": 49, "ekf_update": 49}


FAULTY_SEED = 1


@pytest.fixture
def nan_roll_from_one_second(monkeypatch):
    """Seed FAULTY_SEED's IMU reads a NaN roll from t = 1 s on."""
    original = SimWorld.sense_imu

    def sense_imu(self, state):
        a_body, roll, pitch = original(self, state)
        if self.cfg.seed == FAULTY_SEED and state.t >= 1.0:
            roll = math.nan
        return a_body, roll, pitch
    monkeypatch.setattr(SimWorld, "sense_imu", sense_imu)


def test_a_fault_inside_a_tick_aborts_the_flight(nan_roll_from_one_second,
                                                 tmp_path):
    summary, records = run_mission(ScenarioConfig(), MissionConfig(),
                                   seed=FAULTY_SEED)
    assert summary.final_phase == "aborted"
    assert summary.abort_reason == "estimator_fault"
    assert summary.total_time == pytest.approx(1.0)
    assert len(records) == 51  # 50 ticks, then the one that raised
    last = dict(zip(LOG_COLUMNS, records[-1]))
    assert last["t"] == pytest.approx(summary.total_time)
    assert last["phase"] == "aborted" and last["source"] == ""
    fault, transition = last["events"].split(";")
    assert fault.startswith("estimator_fault:ValueError: ")
    assert transition == "phase:takeoff->aborted"
    path = tmp_path / "trajectory.csv"
    write_log(records, path)
    rmse = metrics_from_log(path)["rmse"]  # the fault's row has no estimate
    assert "" not in rmse and np.isfinite(list(rmse.values())).all()


def test_a_range_that_is_not_finite_is_left_out_of_the_flight(monkeypatch):
    original = SimWorld.sense_uwb

    def sense_uwb(self, state):  # label 0's range to anchor 0 is lost at 1 s
        ranges = original(self, state)
        if state.t >= 1.0:
            ranges[0][0] = math.nan
        return ranges
    monkeypatch.setattr(SimWorld, "sense_uwb", sense_uwb)
    summary, _ = run_mission(ScenarioConfig(), MissionConfig(), seed=FAULTY_SEED)
    assert (summary.final_phase, summary.abort_reason) == ("done", None)
    assert summary.landing_error <= 0.15


def test_a_label_that_takes_no_range_is_logged_degraded(monkeypatch):
    original = SimWorld.sense_uwb

    def sense_uwb(self, state):  # every range of label 0 is lost at 1 s
        ranges = original(self, state)
        if state.t >= 1.0:
            ranges[0] = [math.nan] * len(ranges[0])
        return ranges
    monkeypatch.setattr(SimWorld, "sense_uwb", sense_uwb)
    _, records = run_mission(ScenarioConfig(), MissionConfig(), seed=FAULTY_SEED,
                             max_time=2.0)
    t, events = LOG_COLUMNS.index("t"), LOG_COLUMNS.index("events")
    marked = [row for row in records if "uwb_degraded" in row[events]]
    # the tick that senses at t = 1 s is logged at t = 1 s
    assert marked[0][t] == pytest.approx(1.00)
    assert marked[0][events] == "uwb_degraded:0"
    assert [row[t] for row in marked] == [row[t] for row in records[50:]]
    assert all(row[events].split(";")[0] == "uwb_degraded:0" for row in marked)


def _steps(monkeypatch) -> list:
    """(state, next state) of every SimWorld.step call from here on."""
    steps, original = [], SimWorld.step

    def step(self, state, cmd, dt):
        steps.append((state, original(self, state, cmd, dt)))
        return steps[-1][1]
    monkeypatch.setattr(SimWorld, "step", step)
    return steps


def test_a_row_describes_the_instant_its_tick_sensed(monkeypatch,
                                                     nan_roll_from_one_second):
    # each row's time, truth and rotor telemetry are those of the state the
    # tick sensed and the world stepped from
    steps = _steps(monkeypatch)
    _, records = run_mission(ScenarioConfig(), MissionConfig(), seed=0)
    columns = [LOG_COLUMNS.index(name) for name in (
        "t", "true_x", "true_y", "true_z", "true_yaw", "rotor_sum_sq")]
    assert [[row[k] for k in columns] for row in records] == [
        [round(s.t, 6), *s.uav_pos, s.uav_euler.yaw, s.rotor_sum_sq]
        for s, _ in steps]
    # a fault row is the instant after the last tick that stepped
    _, records = run_mission(ScenarioConfig(), MissionConfig(), seed=FAULTY_SEED)
    t = LOG_COLUMNS.index("t")
    assert records[-1][t] - records[-2][t] == pytest.approx(runner.DT)


def test_a_grounded_vehicle_is_at_rest_from_its_touchdown_tick(monkeypatch):
    # the step that grounds the vehicle leaves it still and level, so the
    # next tick's IMU reads no acceleration
    steps = _steps(monkeypatch)
    run_mission(ScenarioConfig(), MissionConfig(), seed=0)
    touchdowns = [after for before, after in steps
                  if after.on_ground and not before.on_ground]
    assert len(touchdowns) >= 2  # on the cargo, then back on the pad
    world = SimWorld(ScenarioConfig())
    for state in touchdowns:
        assert state.uav_vel == state.uav_acc == (0.0, 0.0, 0.0)
        assert world.sense_imu(state) == ((0.0, 0.0, 0.0), 0.0, 0.0)


def test_a_hover_effort_past_the_float_range_is_a_sensor_fault():
    # the rotor speeds of a 1e308 kg vehicle square to infinity, so the
    # attachment check has no finite hover effort to compare against
    summary, records = run_mission(ScenarioConfig(uav_mass=1e308),
                                   MissionConfig(), seed=FAULTY_SEED)
    assert (summary.final_phase, summary.abort_reason) == ("aborted", "sensor_fault")
    assert records[-1][LOG_COLUMNS.index("events")].startswith(
        "sensor_fault:SensorFault: pre-adhesion hover window")


def test_a_first_epoch_that_locates_no_label_aborts_with_sensor_fault():
    # ranges near 1e307 m square past the float range in the solve
    summary, records = run_mission(ScenarioConfig(uav_start=(1e307, 0.0, 0.0)),
                                   MissionConfig())
    assert (summary.final_phase, summary.abort_reason) == ("aborted", "sensor_fault")
    last = dict(zip(LOG_COLUMNS, records[-1]))
    assert len(records) == 1 and last["source"] == ""
    assert last["events"].startswith("sensor_fault:SensorFault: ")


def test_montecarlo_keeps_every_other_summary_when_a_seed_faults(
        nan_roll_from_one_second):
    # the pool's workers are forked, so they inherit the fault
    scenario = ScenarioConfig()
    x, y, _ = scenario.uav_start
    mission = MissionConfig(geofence=(x - 0.1, x + 0.1, y - 0.1, y + 0.1))
    agg = montecarlo(scenario, mission, runs=4, seed_base=0, workers=2)
    faulted = agg["summaries"][FAULTY_SEED]
    assert (faulted["final_phase"], faulted["abort_reason"]) == \
        ("aborted", "estimator_fault")
    for seed, summary in enumerate(agg["summaries"]):
        if seed != FAULTY_SEED:
            alone = run_mission(scenario, mission, seed=seed)[0].to_dict()
            assert json.dumps(summary) == json.dumps(alone)


LAND = PHASE_GAINS["land"]
ERROR = (0.1, -0.2, 0.05, 0.02)  # body-frame (x, y, z, yaw) error


def _pid_after_open_loop(gains):
    """The third tick's output of error(land) -> velocity -> error(gains)."""
    command = Command(0.02)
    command.step(TickCommand(LAND, error=(0.0, 0.0, 0.0, 0.0)), 0.0)
    command.step(TickCommand(velocity=STOP), 0.02)
    return command.step(TickCommand(gains, error=ERROR), 0.04)


def _pid_after(gains, first=None):
    """The same error under `gains` after only the first PID tick of
    `first`, or from a fresh controller when `first` is None."""
    command = Command(0.02)
    if first is not None:
        command.step(TickCommand(first, error=(0.0, 0.0, 0.0, 0.0)), 0.0)
    return command.step(TickCommand(gains, error=ERROR), 0.04)


def test_an_open_loop_velocity_keeps_the_derivative_of_unchanged_gains():
    kept = _pid_after_open_loop(LAND)
    assert kept == _pid_after(LAND, first=LAND)
    assert kept != _pid_after(LAND)  # the derivative acts


def test_new_gains_after_an_open_loop_velocity_restart_the_derivative():
    # return's gains with land's derivative, so that a restart shows
    returning = replace(PHASE_GAINS["return"], kd=LAND.kd)
    restarted = _pid_after_open_loop(returning)
    assert restarted == _pid_after(returning)
    assert restarted != _pid_after(returning, first=returning)


def test_an_open_loop_velocity_leaves_the_controller_unchanged():
    def snapshot(command):
        return command.gains, [(list(ch.window), ch.window_sum, ch.prev_error,
                                ch.prev_raw, ch.has_prev)
                               for ch in command.ctrl.channels]
    command = Command(0.02)
    command.step(TickCommand(LAND, error=ERROR), 0.0)
    before, ctrl = snapshot(command), command.ctrl
    assert command.step(TickCommand(velocity=(0.1, 0.0, -0.2, 0.0)), 0.02) == \
        (0.1, 0.0, -0.2, 0.0)
    assert command.ctrl is ctrl and snapshot(command) == before
