"""Scenario and mission configuration as JSON.

The on-disk schema stores all angles in degrees (keys carry a `_deg`
suffix); loading converts to the radians used internally.  Any problem
is reported as a :class:`ConfigError` carrying the dotted path of the
offending field so the command line can point at it directly.
"""

from __future__ import annotations

import dataclasses
import json
import math

from .control import PidGains
from .mission import MissionConfig
from .qr_localization import QrMarker
from .sim_world import CargoSpec, ScenarioConfig


class ConfigError(ValueError):
    """Invalid configuration; `path` names the field, dotted."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


def _field_names(cls) -> set[str]:
    return {f.name for f in dataclasses.fields(cls)}


def _parse_scenario(raw: dict) -> ScenarioConfig:
    known = _field_names(ScenarioConfig)
    degrees = {f.name for f in dataclasses.fields(ScenarioConfig)
               if "range" in f.metadata and f.metadata["range"].unit == "deg"}
    kwargs = {}
    for key, value in raw.items():
        name = key[:-4] if key.endswith("_deg") else key
        if name not in known:
            raise ConfigError(f"scenario.{key}", "unknown field")
        if key.endswith("_deg"):
            if name not in degrees:
                raise ConfigError(f"scenario.{key}", "field is not an angle")
            kwargs[name] = math.radians(float(value))
        elif name in degrees:
            raise ConfigError(f"scenario.{key}",
                              f"angle fields use degrees; write {key}_deg")
        elif name == "qr_markers":
            kwargs[name] = [_parse_marker(m, f"scenario.qr_markers[{i}]")
                            for i, m in enumerate(value)]
        elif name == "cargoes":
            kwargs[name] = tuple(_parse_cargo(c, f"scenario.cargoes[{i}]")
                                 for i, c in enumerate(value))
        elif name in ("deck_center", "deck_size", "uav_start", "wind_mean"):
            kwargs[name] = tuple(float(v) for v in value)
        elif name == "occlusion_center":
            kwargs[name] = None if value is None else tuple(float(v) for v in value)
        else:
            kwargs[name] = value
    try:
        return ScenarioConfig(**kwargs)
    except (ValueError, TypeError) as exc:
        raise ConfigError("scenario", str(exc)) from exc


def _parse_marker(raw: dict, path: str) -> QrMarker:
    try:
        return QrMarker(label=int(raw["label"]), diagonal=float(raw["diagonal"]),
                        panel_xy=tuple(float(v) for v in raw["panel_xy"]))
    except KeyError as exc:
        raise ConfigError(path, f"missing field {exc}") from exc
    except (ValueError, TypeError) as exc:
        raise ConfigError(path, str(exc)) from exc


def _parse_cargo(raw: dict, path: str) -> CargoSpec:
    try:
        return CargoSpec(position=tuple(float(v) for v in raw["position"]),
                         mass=float(raw["mass"]),
                         top_diagonal=float(raw["top_diagonal"]),
                         yaw=math.radians(float(raw.get("yaw_deg", 0.0))))
    except KeyError as exc:
        raise ConfigError(path, f"missing field {exc}") from exc
    except (ValueError, TypeError) as exc:
        raise ConfigError(path, str(exc)) from exc


def _parse_mission(raw: dict) -> MissionConfig:
    known = _field_names(MissionConfig)
    kwargs = {}
    for key, value in raw.items():
        if key not in known:
            raise ConfigError(f"mission.{key}", "unknown field")
        if key == "geofence":
            if len(value) != 4:
                raise ConfigError("mission.geofence",
                                  "expected [xmin, xmax, ymin, ymax]")
            kwargs[key] = tuple(float(v) for v in value)
        elif key == "gains":
            gains = {}
            for phase, g in value.items():
                try:
                    gains[phase] = PidGains(**{k: float(v) for k, v in g.items()})
                except (ValueError, TypeError) as exc:
                    raise ConfigError(f"mission.gains.{phase}", str(exc)) from exc
            base = MissionConfig().gains
            base.update(gains)
            kwargs[key] = base
        else:
            kwargs[key] = value
    try:
        return MissionConfig(**kwargs)
    except (ValueError, TypeError) as exc:
        raise ConfigError("mission", str(exc)) from exc


def load_config(path) -> tuple[ScenarioConfig, MissionConfig]:
    """Read a scenario file; missing sections fall back to defaults."""
    try:
        with open(path) as f:
            raw = json.load(f)
    except OSError as exc:
        raise ConfigError(str(path), str(exc)) from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(str(path), f"invalid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(str(path), "top level must be an object")
    for key in raw:
        if key not in ("scenario", "mission"):
            raise ConfigError(key, "unknown section (expected scenario/mission)")
    scenario = _parse_scenario(raw.get("scenario", {}))
    mission = _parse_mission(raw.get("mission", {}))
    return scenario, mission
