import ast
import dataclasses
import json
import math
from pathlib import Path

import pytest

import cargosim
from cargosim.config import ConfigError, load_config
from cargosim.mission import MissionConfig
from cargosim.sim_world import ScenarioConfig


def _write(tmp_path, payload):
    p = tmp_path / "scenario.json"
    p.write_text(json.dumps(payload))
    return p


def test_empty_file_gives_defaults(tmp_path):
    import numpy as np
    scenario, mission = load_config(_write(tmp_path, {}))
    defaults = ScenarioConfig()
    assert np.array_equal(scenario.anchors, defaults.anchors)
    assert scenario.sigma_uwb == defaults.sigma_uwb
    assert scenario.qr_markers == defaults.qr_markers
    assert scenario.cargoes == defaults.cargoes
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
    with pytest.raises(ConfigError, match="xmin"):
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
