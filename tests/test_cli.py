import json

import pytest

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


def test_metrics_of_a_log_with_bad_utf8_midway_is_a_data_error(tmp_path,
                                                                capsys):
    path = _valid_log(tmp_path)
    row = path.read_bytes().splitlines(keepends=True)[-1]
    path.write_bytes(path.read_bytes() + row * 2000 + b"\xff" + row * 2000)
    _assert_data_error(cli.main(["metrics", str(path)]), capsys,
                       str(path), "utf-8")


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


def test_plan_names_a_ragged_anchor(tmp_path, capsys):
    scenario = _scenario_file(tmp_path, {"scenario": {
        "anchors": [[1, 2, 3], [4, 5], [6, 7, 8]]}})
    rc = cli.main(["plan", "--scenario", scenario])
    assert rc == cli.EXIT_CONFIG == 64
    assert capsys.readouterr().err == ("configuration error: scenario: "
                                       "anchors[1] must hold 3 coordinates, "
                                       "got (4.0, 5.0)\n")


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


@pytest.mark.parametrize("mission, needle", [
    ({"search_altitude": 2.0}, "min_search_altitude"),
    ({"bounce_clearance": 0.6}, "mission.bounce_clearance"),
])
def test_bad_mission_value_is_a_config_error(tmp_path, capsys, mission, needle):
    scenario = _scenario_file(tmp_path, {"mission": mission})
    rc = cli.main(["run", "--scenario", scenario, "--seed", "0",
                   "--out", str(tmp_path / "out")])
    assert rc == cli.EXIT_CONFIG == 64
    captured = capsys.readouterr()
    assert captured.err.startswith("configuration error: ")
    assert needle in captured.err
    assert "Traceback" not in captured.out + captured.err


OUT_OF_RANGE = [
    ("scenario", "qr_focal", -0.0036, "qr_focal must be > 0, got -0.0036"),
    ("scenario", "det_focal", -0.0027, "det_focal must be > 0, got -0.0027"),
    ("scenario", "qr_dropout", 2.0, "qr_dropout must be in [0, 1], got 2.0"),
    ("scenario", "det_dropout", -0.5, "det_dropout must be in [0, 1], got -0.5"),
    ("scenario", "sigma_uwb", -0.1, "sigma_uwb must be >= 0, got -0.1"),
    ("scenario", "occlusion_radius", -1.0, "occlusion_radius must be >= 0, got -1.0"),
    ("scenario", "seed", -1, "seed must be an integer >= 0, got -1"),
    # 1e999 reads as infinity; the anchor check, not a field range, refuses it
    ("scenario", "anchors", [[0, 0, 10 ** 999], [1, 0, 0], [0, 1, 0]],
     "anchors must be finite"),
    ("mission", "max_attach_attempts", 0,
     "max_attach_attempts must be an integer >= 1, got 0"),
    ("mission", "adsorb_success_prob", 2.0, "adsorb_success_prob must be in [0, 1], got 2.0"),
    ("mission", "return_altitude", -1.0, "return_altitude must be > 0, got -1.0"),
    ("mission", "geofence", [14, -6, -8, 8], "geofence must hold xmin < xmax "
     "and ymin < ymax, got (14.0, -6.0, -8.0, 8.0)"),
]


@pytest.mark.parametrize("section, key, value, message", OUT_OF_RANGE,
                         ids=[f"{section}.{key}" for section, key, *_ in OUT_OF_RANGE])
def test_out_of_range_value_is_a_config_error(tmp_path, capsys, section, key, value,
                                              message):
    scenario = _scenario_file(tmp_path, {section: {key: value}})
    out = tmp_path / "out"
    rc = cli.main(["run", "--scenario", scenario, "--seed", "0", "--out", str(out)])
    assert rc == cli.EXIT_CONFIG == 64
    captured = capsys.readouterr()
    assert captured.err == f"configuration error: {section}: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("argv, seeds", [
    (["run"], [5]),
    (["run", "--seed", "2"], [2]),
    (["montecarlo", "--runs", "2", "--workers", "1"], [5, 6]),
    (["montecarlo", "--runs", "2", "--workers", "1", "--seed", "2"], [2, 3]),
])
def test_seed_defaults_to_the_scenario_seed(tmp_path, capsys, argv, seeds):
    # the fence excludes the pad, so each mission aborts at once
    scenario = _scenario_file(tmp_path, {"scenario": {"seed": 5},
                                         "mission": {"geofence": [0, 2, 1, 3]}})
    out = tmp_path / "out"
    rc = cli.main([*argv, "--scenario", scenario, "--out", str(out)])
    assert rc == cli.EXIT_ABORTED
    if argv[0] == "run":
        flown = [json.loads((out / "summary.json").read_text())["seed"]]
    else:
        agg = json.loads((out / "montecarlo.json").read_text())
        flown = [s["seed"] for s in agg["summaries"]]
    assert flown == seeds


MARKER = {"label": 1, "diagonal": 0.3, "panel_xy": [1.0, 2.0]}
CARGO = {"position": [8.0, 0.0, 1.1], "mass": 0.89, "top_diagonal": 0.372}

# (file, dotted key, holder): the error names the key, as `<key>: ...`;
# where the type's own check refuses the value, the error names the object
# that holds the key instead, as `<holder>: <field name> ...`
MALFORMED = [
    ({"scenario": {"wind_mean": 5}}, "scenario.wind_mean", None),
    ({"scenario": {"deck_center": ["a", 0]}}, "scenario.deck_center", None),
    ({"scenario": {"platform_roll_amp_deg": "x"}}, "scenario.platform_roll_amp_deg", None),
    ({"scenario": {"cargoes": [{**CARGO, "yaw": 45}]}}, "scenario.cargoes[0].yaw", None),
    ({"mission": {"gains": {"land": 3}}}, "mission.gains.land", None),
    ({"scenario": {"qr_markers": [{**MARKER, "label": 1.7}]}},
     "scenario.qr_markers[0].label", "scenario.qr_markers[0]"),
    ({"scenario": {"qr_markers": [MARKER, {**MARKER, "label": True}]}},
     "scenario.qr_markers[1].label", "scenario.qr_markers[1]"),
    ({"scenario": {"qr_markers": [{**MARKER, "bogus": 1}]}},
     "scenario.qr_markers[0].bogus", None),
    ({"scenario": {"qr_markers": [{**MARKER, "panel_xy": [1, 2, 3]}]}},
     "scenario.qr_markers[0].panel_xy", "scenario.qr_markers[0]"),
    ({"scenario": {"qr_markers": [MARKER, {**MARKER, "panel_xy": "12"}]}},
     "scenario.qr_markers[1].panel_xy", None),
    ({"scenario": {"cargoes": [{**CARGO, "mass": "0.89"}]}}, "scenario.cargoes[0].mass",
     None),
    ({"scenario": {"tilt_limit_deg": "15"}}, "scenario.tilt_limit_deg", None),
    pytest.param({"scenario": {"tilt_limit_deg": True}}, "scenario.tilt_limit_deg", None,
                 id="scenario.tilt_limit_deg-true"),
    pytest.param({"scenario": {"wind_mean": [True, 2]}}, "scenario.wind_mean", None,
                 id="scenario.wind_mean-bool"),
    pytest.param({"scenario": {"qr_markers": {"label": 1}}}, "scenario.qr_markers", None,
                 id="scenario.qr_markers-object"),
    ({"mission": {"gains": {"land": {"kp": 0.3, "kd": 0.05}}}}, "mission.gains.land.ki",
     None),
    # an integer past the float range reads as infinity, which sigma_uwb's range refuses
    ({"scenario": {"sigma_uwb": 10 ** 400}}, "scenario.sigma_uwb", "scenario"),
]


@pytest.mark.parametrize("payload, key, holder", MALFORMED,
                         ids=[p.id if hasattr(p, "id") else p[1] for p in MALFORMED])
def test_malformed_value_is_a_config_error_naming_its_field(tmp_path, capsys,
                                                            payload, key, holder):
    rc = cli.main(["plan", "--scenario", _scenario_file(tmp_path, payload)])
    assert rc == cli.EXIT_CONFIG == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    if holder is None:
        assert captured.err.startswith(f"configuration error: {key}: ")
    else:
        name = key.removeprefix(f"{holder}.")
        assert captured.err.startswith(f"configuration error: {holder}: {name} ")
    assert "Traceback" not in captured.err


def test_scenario_without_a_cargo_is_a_config_error(tmp_path, capsys):
    scenario = _scenario_file(tmp_path, {"scenario": {"cargoes": []}})
    rc = cli.main(["run", "--scenario", scenario, "--out", str(tmp_path / "out")])
    assert rc == cli.EXIT_CONFIG == 64
    captured = capsys.readouterr()
    assert captured.err.startswith("configuration error: ")
    assert "cargoes" in captured.err
    assert "Traceback" not in captured.out + captured.err
    assert not (tmp_path / "out").exists()


def test_repeated_marker_label_is_a_config_error(tmp_path, capsys):
    # the marker fix looks each sighting up by its label, so a second
    # marker under a label would solve the first one's sightings wrongly
    other = {**MARKER, "panel_xy": [1.35, 2.35]}
    scenario = _scenario_file(tmp_path, {"scenario": {"qr_markers": [MARKER, other]}})
    rc = cli.main(["run", "--scenario", scenario, "--out", str(tmp_path / "out")])
    assert rc == cli.EXIT_CONFIG == 64
    captured = capsys.readouterr()
    assert captured.err == ("configuration error: scenario: qr_markers must hold "
                            "distinct labels, got [1, 1]\n")
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


@pytest.mark.parametrize("argv, option", [
    (["run", "--seed", "-1"], "--seed"),
    (["montecarlo", "--seed", "-3"], "--seed"),
    (["montecarlo", "--runs", "0"], "--runs"),
    (["montecarlo", "--runs", "-1"], "--runs"),
    (["montecarlo", "--workers", "0"], "--workers"),
    (["montecarlo", "--workers", "-2"], "--workers"),
])
def test_option_out_of_range_is_a_usage_error(tmp_path, capsys, argv, option):
    out = tmp_path / "out"
    rc = cli.main([*argv, "--out", str(out)])
    assert rc == cli.EXIT_CONFIG == 64
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {option} must be at least ")
    assert "Traceback" not in captured.out + captured.err
    assert not out.exists()
