import json

from cargosim import cli
from cargosim.runner import write_log


def _scenario_file(tmp_path, payload=None):
    p = tmp_path / "scenario.json"
    p.write_text(json.dumps(payload if payload is not None else {}))
    return str(p)


def _calm_payload():
    return {"scenario": {
        "qr_image_noise": 0.0, "qr_yaw_noise_deg": 0.0, "qr_dropout": 0.0,
        "det_pos_noise": 0.0, "det_yaw_noise_deg": 0.0, "det_dropout": 0.0,
        "wind_mean": [0.0, 0.0], "wind_sigma": 0.0, "sigma_uwb": 0.0,
        "rotor_noise": 0.0,
    }}


def test_run_writes_outputs_and_exits_zero(tmp_path, capsys):
    scenario = _scenario_file(tmp_path, _calm_payload())
    out = tmp_path / "out"
    rc = cli.main(["run", "--scenario", scenario, "--seed", "3",
                   "--out", str(out)])
    assert rc == cli.EXIT_OK
    summary = json.loads((out / "summary.json").read_text())
    assert summary["final_phase"] == "done"
    assert (out / "trajectory.csv").exists()
    assert "landing_error" in capsys.readouterr().out


def test_run_determinism_byte_identical(tmp_path):
    scenario = _scenario_file(tmp_path, _calm_payload())
    blobs = []
    for name in ("a", "b"):
        out = tmp_path / name
        cli.main(["run", "--scenario", scenario, "--seed", "9",
                  "--out", str(out)])
        blobs.append((out / "trajectory.csv").read_bytes())
    assert blobs[0] == blobs[1]


def test_metrics_reads_run_output(tmp_path, capsys):
    scenario = _scenario_file(tmp_path, _calm_payload())
    out = tmp_path / "out"
    cli.main(["run", "--scenario", scenario, "--seed", "3", "--out", str(out)])
    capsys.readouterr()
    rc = cli.main(["metrics", str(out / "trajectory.csv")])
    assert rc == cli.EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert "rmse" in report and "uwb" in report["rmse"]


def _assert_data_error(rc, capsys, *needles):
    assert rc == cli.EXIT_DATA == 65
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert "Traceback" not in captured.err
    for needle in needles:
        assert needle in captured.err


def test_metrics_of_a_missing_log_is_a_data_error(tmp_path, capsys):
    missing = tmp_path / "nowhere.csv"
    _assert_data_error(cli.main(["metrics", str(missing)]), capsys,
                       str(missing))


def _valid_log(tmp_path):
    path = tmp_path / "trajectory.csv"
    row = [0.02, "search", 1.0, 2.0, 3.0, 0.0, 1.1, 2.0, 3.0, 0.0, "uwb",
           0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 100.0, ""]
    write_log([row] * 5, path)
    return path


def test_metrics_of_a_log_with_a_short_row_is_a_data_error(tmp_path, capsys):
    path = _valid_log(tmp_path)
    lines = path.read_text().splitlines(keepends=True)
    lines[5] = "0.08,search,1.0\r\n"  # data row 4
    path.write_text("".join(lines))
    _assert_data_error(cli.main(["metrics", str(path)]), capsys,
                       str(path), "row 4")


def test_metrics_of_a_log_without_a_needed_column_is_a_data_error(tmp_path,
                                                                   capsys):
    path = _valid_log(tmp_path)
    text = path.read_text().replace("est_z", "est_w", 1)
    path.write_text(text)
    _assert_data_error(cli.main(["metrics", str(path)]), capsys,
                       str(path), "est_z")


def test_plan_emits_replica_waypoint(tmp_path, capsys):
    rc = cli.main(["plan", "--scenario", _scenario_file(tmp_path)])
    assert rc == cli.EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "x_m,y_m,z_m,yaw_rad"
    assert lines[1:] == ["8.0,0.0,6.0,0.0"]


def test_plan_writes_file(tmp_path):
    dest = tmp_path / "plan.csv"
    rc = cli.main(["plan", "--scenario", _scenario_file(tmp_path),
                   "--out", str(dest)])
    assert rc == cli.EXIT_OK
    assert dest.read_text().startswith("x_m,y_m,z_m,yaw_rad")


def test_config_error_exit_code(tmp_path, capsys):
    scenario = _scenario_file(tmp_path, {"scenario": {"bogus": 1}})
    rc = cli.main(["run", "--scenario", scenario])
    assert rc == cli.EXIT_CONFIG
    assert "scenario.bogus" in capsys.readouterr().err


def test_removed_platform_size_field_is_a_config_error(tmp_path, capsys):
    scenario = _scenario_file(tmp_path, {"scenario": {"platform_size": [3.5, 4.8]}})
    rc = cli.main(["run", "--scenario", scenario])
    assert rc == cli.EXIT_CONFIG
    assert "scenario.platform_size" in capsys.readouterr().err


def test_scenario_without_a_cargo_is_a_config_error(tmp_path, capsys):
    scenario = _scenario_file(tmp_path, {"scenario": {"cargoes": []}})
    rc = cli.main(["run", "--scenario", scenario, "--out", str(tmp_path / "out")])
    assert rc == cli.EXIT_CONFIG == 64
    captured = capsys.readouterr()
    assert captured.err.startswith("configuration error: ")
    assert "cargoes" in captured.err
    assert "Traceback" not in captured.out + captured.err
    assert not (tmp_path / "out").exists()


def test_bad_scenario_file_is_a_config_error(tmp_path, capsys):
    scenario = tmp_path / "scenario.json"
    scenario.write_text("{not json")
    rc = cli.main(["run", "--scenario", str(scenario)])
    assert rc == cli.EXIT_CONFIG
    assert "configuration error" in capsys.readouterr().err


def test_fault_while_running_is_not_a_config_error(tmp_path, capsys,
                                                   monkeypatch):
    def faulty_mission(*args, **kwargs):
        raise ValueError("pose estimate must be finite")

    monkeypatch.setattr(cli, "run_mission", faulty_mission)
    rc = cli.main(["run", "--out", str(tmp_path / "out")])
    assert rc == cli.EXIT_FAULT == 70
    err = capsys.readouterr().err
    assert err.startswith("error: pose estimate must be finite")
    assert "configuration" not in err


def test_aborted_mission_exit_code(tmp_path, capsys):
    payload = _calm_payload()
    payload["mission"] = {"geofence": [-6.0, 5.0, -8.0, 8.0]}
    scenario = _scenario_file(tmp_path, payload)
    rc = cli.main(["run", "--scenario", scenario, "--out",
                   str(tmp_path / "out")])
    assert rc == cli.EXIT_ABORTED


def _reject_constant(name):
    raise AssertionError(f"{name} is not strict JSON")


def test_run_that_never_lands_writes_strict_json(tmp_path, capsys):
    scenario = _scenario_file(tmp_path, {"mission": {"geofence": [0, 2, 1, 3]}})
    out = tmp_path / "out"
    rc = cli.main(["run", "--scenario", scenario, "--out", str(out)])
    assert rc == cli.EXIT_ABORTED
    summary = json.loads((out / "summary.json").read_text(),
                         parse_constant=_reject_constant)
    assert summary["landing_error"] is None


def test_montecarlo_subcommand(tmp_path, capsys):
    scenario = _scenario_file(tmp_path, _calm_payload())
    out = tmp_path / "mc"
    rc = cli.main(["montecarlo", "--scenario", scenario, "--runs", "2",
                   "--workers", "1", "--seed", "3", "--out", str(out)])
    assert rc == cli.EXIT_OK
    agg = json.loads((out / "montecarlo.json").read_text())
    assert agg["runs"] == 2
    assert agg["completed"] == 2
    json.loads((out / "montecarlo.json").read_text(),
               parse_constant=_reject_constant)
