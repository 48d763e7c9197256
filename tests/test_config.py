import ast
import dataclasses
import json
import math
import pickle
import re
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

import cargosim
from cargosim.config import ConfigError, load_config
from cargosim.control import PidGains
from cargosim.frames import field_shapes
from cargosim.mission import MissionConfig
from cargosim.qr_localization import QrMarker
from cargosim.runner import run_mission
from cargosim.sim_world import CargoSpec, ScenarioConfig


def _write(tmp_path, payload):
    p = tmp_path / "scenario.json"
    p.write_text(json.dumps(payload))
    return p


def test_empty_file_gives_defaults(tmp_path):
    scenario, mission = load_config(_write(tmp_path, {}))
    assert scenario == ScenarioConfig()
    assert mission == MissionConfig()


def test_degrees_converted_to_radians(tmp_path):
    path = _write(tmp_path, {"scenario": {
        "platform_roll_amp_deg": 8.0, "platform_pitch_amp_deg": 10.0,
        "deck_yaw_deg": 90.0}})
    scenario, _ = load_config(path)
    assert scenario.platform_roll_amp == pytest.approx(math.radians(8.0))
    assert scenario.platform_pitch_amp == pytest.approx(math.radians(10.0))
    assert scenario.deck_yaw == pytest.approx(math.pi / 2)


def test_unknown_scenario_field_reports_path(tmp_path):
    with pytest.raises(ConfigError) as exc:
        load_config(_write(tmp_path, {"scenario": {"bogus": 1}}))
    assert exc.value.path == "scenario.bogus"


def test_angle_field_requires_deg_suffix(tmp_path):
    with pytest.raises(ConfigError, match="degrees"):
        load_config(_write(tmp_path, {"scenario": {"deck_yaw": 0.5}}))


def test_deg_suffix_on_non_angle_rejected(tmp_path):
    with pytest.raises(ConfigError, match="not an angle"):
        load_config(_write(tmp_path, {"scenario": {"deck_height_deg": 1.0}}))


def test_markers_and_cargoes_parse(tmp_path):
    path = _write(tmp_path, {"scenario": {
        "qr_markers": [{"label": 7, "diagonal": 0.25, "panel_xy": [0.1, -0.2]}],
        "cargoes": [{"position": [8, 0, 1.1], "mass": 0.9,
                     "top_diagonal": 0.4, "yaw_deg": 45.0}],
    }})
    scenario, _ = load_config(path)
    assert scenario.qr_markers[0].label == 7
    assert scenario.cargoes[0].yaw == pytest.approx(math.pi / 4)


@pytest.mark.parametrize("count", [0, 2])
def test_scenario_must_hold_exactly_one_cargo(tmp_path, count):
    cargo = {"position": [8.0, 0.0, 1.10], "mass": 0.89, "top_diagonal": 0.372}
    path = _write(tmp_path, {"scenario": {"cargoes": [cargo] * count}})
    with pytest.raises(ConfigError, match="cargoes must hold exactly one"):
        load_config(path)
    with pytest.raises(ValueError, match=f"got {count}"):
        ScenarioConfig(cargoes=ScenarioConfig().cargoes * count)


def test_marker_missing_field_reports_index(tmp_path):
    with pytest.raises(ConfigError) as exc:
        load_config(_write(tmp_path, {"scenario": {
            "qr_markers": [{"label": 1, "diagonal": 0.25},
                           {"label": 2, "panel_xy": [0, 0]}]}}))
    assert "qr_markers[0]" in exc.value.path


def test_mission_gains_merge_defaults(tmp_path):
    path = _write(tmp_path, {"mission": {
        "gains": {"search": {"kp": 0.9, "ki": 0.0, "kd": 0.1}}}})
    _, mission = load_config(path)
    assert mission.gains["search"].kp == 0.9
    # untouched phases keep their defaults
    assert mission.gains["land"] == MissionConfig().gains["land"]


def test_geofence_shape_checked(tmp_path):
    with pytest.raises(ConfigError, match="geofence must be a tuple of 4 values"):
        load_config(_write(tmp_path, {"mission": {"geofence": [0, 1, 2]}}))


def test_unknown_mission_field(tmp_path):
    with pytest.raises(ConfigError) as exc:
        load_config(_write(tmp_path, {"mission": {"speed": 2}}))
    assert exc.value.path == "mission.speed"


def test_unknown_section_rejected(tmp_path):
    with pytest.raises(ConfigError):
        load_config(_write(tmp_path, {"vehicle": {}}))


def test_invalid_json_reported(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    with pytest.raises(ConfigError, match="invalid JSON"):
        load_config(p)


def test_missing_file_reported(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "absent.json")


def test_invalid_value_propagates_as_config_error(tmp_path):
    with pytest.raises(ConfigError):
        load_config(_write(tmp_path, {"scenario": {"label_baseline": -1.0}}))


@pytest.mark.parametrize("width", [2, 4])
def test_anchors_need_three_coordinates(tmp_path, width):
    anchors = [[float(k), float(k % 2)] + [1.0] * (width - 2) for k in range(4)]
    with pytest.raises(ConfigError, match="3 coordinates") as exc:
        load_config(_write(tmp_path, {"scenario": {"anchors": anchors}}))
    assert exc.value.path == "scenario"


@pytest.mark.parametrize("anchors, message", [
    ([[1, 2, 3], [4, 5], [6, 7, 8]], "anchors[1] must hold 3 coordinates, got [4, 5]"),
    ([[1, 2, 3], [4, 5, 6], [6, 7, 8, 9], [0, 0, 1]],
     "anchors[2] must hold 3 coordinates, got [6, 7, 8, 9]"),
    ([[0, 0, 0], 1.0, [0, 1, 0]], "anchors[1] must hold 3 coordinates, got 1.0"),
    (5, "anchors must be a sequence of rows, got 5"),
])
def test_a_malformed_anchors_value_is_named(anchors, message):
    with pytest.raises(ValueError) as exc:
        ScenarioConfig(anchors=anchors)
    assert str(exc.value) == message


@pytest.mark.parametrize("name", ["trim_tau", "wind_tau", "vel_time_constant",
                                  "platform_roll_period",
                                  "platform_pitch_period"])
def test_time_constants_must_be_positive(tmp_path, name):
    for value in (0.0, -1.0, math.nan):
        with pytest.raises(ConfigError, match=f"{name} must be > 0"):
            load_config(_write(tmp_path, {"scenario": {name: value}}))


@pytest.mark.parametrize("search_altitude", [2.0, 2.5])
def test_search_altitude_below_the_floor_is_rejected(tmp_path, search_altitude):
    # the first descent would climb to the 3 m floor and coarsen the grid
    with pytest.raises(ConfigError, match="min_search_altitude") as exc:
        load_config(_write(tmp_path, {"mission": {
            "search_altitude": search_altitude}}))
    assert exc.value.path == "mission"


# mission thresholds that are module constants of cargosim.mission
DELETED_MISSION_KEYS = [
    "descent_step", "waypoint_switch_radius", "blind_horizontal_threshold",
    "blind_hold_time", "pre_blind_height", "blind_descent_speed",
    "verify_height", "lock_cone_ratio", "descent_cone_ratio",
    "descent_cone_slack", "reacquire_time", "bounce_clearance",
    "vertical_limit",
]


@pytest.mark.parametrize("name", DELETED_MISSION_KEYS)
def test_deleted_mission_key_is_rejected(tmp_path, name):
    with pytest.raises(ConfigError, match="unknown field") as exc:
        load_config(_write(tmp_path, {"mission": {name: 0.5}}))
    assert exc.value.path == f"mission.{name}"


# one valid instance of each config type, with the optional occlusion
# centre set so that its elements are checked too
CONFIGS = [ScenarioConfig(occlusion_center=(8.0, 0.0, 1.5)), MissionConfig(),
           CargoSpec(position=(8.0, 0.0, 1.1), mass=0.9, top_diagonal=0.4),
           QrMarker(label=1, diagonal=0.3, panel_xy=(1.0, 2.0)),
           PidGains(kp=0.5, ki=0.1, kd=0.2)]


@pytest.mark.parametrize("config", CONFIGS, ids=lambda c: type(c).__name__)
def test_every_config_compares_equal_to_itself(config):
    # == is exact on every field; montecarlo pickles the scenario to its workers
    assert config == dataclasses.replace(config)
    assert pickle.loads(pickle.dumps(config)) == config


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) or (
        isinstance(value, tuple) and value != ()
        and all(isinstance(v, (int, float)) for v in value))


def test_every_number_of_a_config_has_a_range():
    # a new numeric field is covered by the tests below once it has a range
    missing = [f"{type(config).__name__}.{f.name}" for config in CONFIGS
               for f in dataclasses.fields(config)
               if _is_number(getattr(config, f.name)) and "range" not in f.metadata]
    assert missing == []


def _ranged_numbers():
    """(config, field, tuple index or None, range) for every number, or
    number in a tuple field, that carries a range in its field metadata."""
    for config in CONFIGS:
        for f in dataclasses.fields(config):
            if "range" not in f.metadata:
                continue
            value, valid = getattr(config, f.name), f.metadata["range"]
            name = f"{type(config).__name__}.{f.name}"
            if isinstance(value, tuple):
                yield from (pytest.param(config, f.name, k, valid, id=f"{name}[{k}]")
                            for k in range(len(value)))
            else:
                yield pytest.param(config, f.name, None, valid, id=name)


def _replaced(config, name, index, v):
    old = getattr(config, name)
    value = v if index is None else (*old[:index], v, *old[index + 1:])
    return dataclasses.replace(config, **{name: value})


def _error(name, valid, value=None):
    got = "" if value is None else re.escape(repr(value)) + "$"
    return f"^{name} must be {re.escape(valid.text)}, got {got}"


@pytest.mark.parametrize("config, name, index, valid", _ranged_numbers())
def test_non_finite_config_value_names_its_field(config, name, index, valid):
    # an int past the float range has no finite float value either
    huge = () if valid.integer else (10 ** 400, -10 ** 400)
    for bad in (math.nan, math.inf, -math.inf, *huge):
        with pytest.raises(ValueError, match=_error(name, valid)):
            _replaced(config, name, index, bad)


def _past_each_bound():
    """The first value outside each finite bound of every range."""
    for param in _ranged_numbers():
        valid = param.values[-1]
        for side, bound, is_open, step in (("low", valid.low, valid.low_open, -1),
                                           ("high", valid.high, valid.high_open, 1)):
            if not math.isfinite(bound):
                continue
            if is_open:
                value = bound
            elif valid.integer:
                value = bound + step
            else:
                value = math.nextafter(bound, step * math.inf)
            yield pytest.param(*param.values, value, id=f"{param.id}-{side}")


@pytest.mark.parametrize("config, name, index, valid, value", _past_each_bound())
def test_value_past_a_bound_names_its_field_and_range(config, name, index, valid,
                                                      value):
    with pytest.raises(ValueError, match=_error(name, valid, value)):
        _replaced(config, name, index, value)


def _in_range(valid):
    if valid.integer:
        return st.integers(min_value=valid.low)
    finite = {key: bound for key, bound in (("min_value", valid.low),
                                            ("max_value", valid.high))
              if math.isfinite(bound)}
    return st.floats(**finite, exclude_min=valid.low_open, exclude_max=valid.high_open,
                     allow_nan=False, allow_infinity=False)


# the named reasons an in-range flight may abort for; not estimator_fault,
# which is a tick that raised (see runner.Flight.fly)
REASONS = {"geofence", "no_pre_hover_window", "attach_retries_exhausted", "timeout",
           "sensor_fault"}


@pytest.mark.parametrize("config", CONFIGS, ids=lambda c: type(c).__name__)
@settings(max_examples=100, deadline=None, derandomize=True)
@given(data=st.data())
def test_in_range_values_build_every_config(config, data):
    kwargs = {}
    for f in dataclasses.fields(config):
        if "range" in f.metadata:
            value, number = getattr(config, f.name), _in_range(f.metadata["range"])
            kwargs[f.name] = (tuple(data.draw(number) for _ in value)
                              if isinstance(value, tuple) else data.draw(number))
    if isinstance(config, MissionConfig):  # its two cross-field rules
        kwargs["min_search_altitude"], kwargs["search_altitude"] = sorted(
            (kwargs["min_search_altitude"], kwargs["search_altitude"]))
        xmin, xmax, ymin, ymax = kwargs["geofence"]
        assume(xmin != xmax and ymin != ymax)
        kwargs["geofence"] = (*sorted((xmin, xmax)), *sorted((ymin, ymax)))
    built = dataclasses.replace(config, **kwargs)
    if isinstance(built, ScenarioConfig):  # an in-range scenario flies to a named end
        summary, _ = run_mission(built, MissionConfig(), max_time=5.0)
        assert (summary.final_phase, summary.abort_reason) in (
            {("done", None)} | {("aborted", reason) for reason in REASONS})


def _fixed_tuples():
    """(config, field, length) for every fixed-length tuple field of the
    config types, as their annotations give it."""
    for config in CONFIGS:
        for name, (_, length) in field_shapes(type(config)).items():
            if length is not None:
                yield pytest.param(config, name, length,
                                   id=f"{type(config).__name__}.{name}")


FIXED_TUPLES = list(_fixed_tuples())


@pytest.mark.parametrize("config, name, length", FIXED_TUPLES)
def test_vector_of_the_wrong_length_names_its_field(config, name, length):
    value = getattr(config, name)
    assert len(value) == length
    for wrong in (value[:-1], value + value[-1:]):
        with pytest.raises(ValueError, match=re.escape(
                f"{name} must be a tuple of {length} values, got {wrong!r}")):
            dataclasses.replace(config, **{name: wrong})


def _in_degrees(f) -> bool:
    return f.metadata.get("range") is not None and f.metadata["range"].unit == "deg"


def _dump(config) -> dict:
    """`config` as the JSON object that load_config reads: angles in degrees
    under <name>_deg, tuples and arrays as lists, dataclasses as objects."""
    out = {}
    for f in dataclasses.fields(config):
        value = getattr(config, f.name)
        if _in_degrees(f):
            out[f"{f.name}_deg"] = math.degrees(value)
        else:
            out[f.name] = _json(value)
    return out


def _json(value):
    if dataclasses.is_dataclass(value):
        return _dump(value)
    if isinstance(value, dict):
        return {k: _json(v) for k, v in value.items()}
    if isinstance(value, (tuple, list)):
        return [_json(v) for v in value]
    return value


def test_every_field_round_trips_through_json(tmp_path):
    scenario = ScenarioConfig(occlusion_center=(8.0, 0.0, 1.5))
    path = _write(tmp_path, {"scenario": _dump(scenario), "mission": _dump(MissionConfig())})
    loaded, mission = load_config(path)
    assert mission == MissionConfig()
    for f in dataclasses.fields(scenario):
        want, got = getattr(scenario, f.name), getattr(loaded, f.name)
        if _in_degrees(f):
            assert got == pytest.approx(want, rel=0, abs=1e-12), f.name
        else:
            assert got == want, f.name


def test_readme_example_loads(tmp_path):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    text = re.search(r"## Scenario files.*?```json\n(.*?)```", readme, re.S).group(1)
    path = tmp_path / "example.json"
    path.write_text(text)
    scenario, mission = load_config(path)
    example = json.loads(text)
    dumped = {"scenario": _dump(scenario), "mission": _dump(mission)}
    for section, values in example.items():
        for key, value in values.items():
            if isinstance(value, (int, float)):
                assert dumped[section][key] == pytest.approx(value, rel=1e-12), key
    assert mission.gains["search"] == PidGains(**example["mission"]["gains"]["search"])
    assert mission.gains["land"] == MissionConfig().gains["land"]


def _attributes_read_outside(class_name: str) -> set[str]:
    """Every attribute name loaded anywhere in the package's source, except
    inside the class called class_name."""
    reads: set[str] = set()

    class Reads(ast.NodeVisitor):
        def visit_ClassDef(self, node):
            if node.name != class_name:
                self.generic_visit(node)

        def visit_Attribute(self, node):
            if isinstance(node.ctx, ast.Load):
                reads.add(node.attr)
            self.generic_visit(node)

    for path in sorted(Path(cargosim.__file__).parent.glob("*.py")):
        Reads().visit(ast.parse(path.read_text(), filename=str(path)))
    return reads


@pytest.mark.parametrize("cls", [ScenarioConfig, MissionConfig],
                         ids=lambda cls: cls.__name__)
def test_every_config_field_is_read(cls):
    # a knob that is parsed but never read only looks configurable; the
    # check goes by attribute name, whatever object it is read from
    reads = _attributes_read_outside(cls.__name__)
    unread = [f.name for f in dataclasses.fields(cls) if f.name not in reads]
    assert unread == []
