"""Scenario and mission configuration as JSON.

The on-disk schema stores all angles in degrees (keys carry a `_deg`
suffix); loading converts to the radians used internally.  Any problem
is reported as a :class:`ConfigError` carrying the dotted path of the
offending field so the command line can point at it directly.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import math

from .control import PHASE_GAINS, PidGains
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


@contextlib.contextmanager
def _field(path: str):
    """Report a missing key or a bad value inside as a ConfigError at `path`."""
    try:
        yield
    except ConfigError:
        raise
    except KeyError as exc:
        raise ConfigError(path, f"missing field {exc}") from exc
    except (ValueError, TypeError) as exc:
        raise ConfigError(path, str(exc)) from exc


_VECTORS = {"deck_center": 2, "deck_size": 2, "uav_start": 3, "wind_mean": 2,
            "occlusion_center": 3}  # the scenario's vectors and their lengths


def _numbers(value, n: int, what: str = "") -> tuple[float, ...]:
    if not isinstance(value, list) or len(value) != n:
        raise ValueError(f"expected {what or f'a list of {n} numbers'}, got {value!r}")
    return tuple(float(v) for v in value)


def _parse_scenario(raw: dict) -> ScenarioConfig:
    known = _field_names(ScenarioConfig)
    degrees = {f.name for f in dataclasses.fields(ScenarioConfig)
               if "range" in f.metadata and f.metadata["range"].unit == "deg"}
    kwargs = {}
    for key, value in raw.items():
        name = key[:-4] if key.endswith("_deg") else key
        if name not in known:
            raise ConfigError(f"scenario.{key}", "unknown field")
        if key.endswith("_deg") and name not in degrees:
            raise ConfigError(f"scenario.{key}", "field is not an angle")
        if name in degrees and not key.endswith("_deg"):
            raise ConfigError(f"scenario.{key}",
                              f"angle fields use degrees; write {key}_deg")
        with _field(f"scenario.{key}"):
            if name in degrees:
                value = math.radians(float(value))
            elif name == "qr_markers":
                value = [_parse_marker(m, f"scenario.qr_markers[{i}]")
                         for i, m in enumerate(value)]
            elif name == "cargoes":
                value = tuple(_parse_cargo(c, f"scenario.cargoes[{i}]")
                              for i, c in enumerate(value))
            elif name in _VECTORS and value is not None:
                value = _numbers(value, _VECTORS[name])
        kwargs[name] = value
    with _field("scenario"):
        return ScenarioConfig(**kwargs)


def _parse_marker(raw: dict, path: str) -> QrMarker:
    with _field(path):
        return QrMarker(label=int(raw["label"]), diagonal=float(raw["diagonal"]),
                        panel_xy=tuple(float(v) for v in raw["panel_xy"]))


def _parse_cargo(raw: dict, path: str) -> CargoSpec:
    for key in raw if isinstance(raw, dict) else ():
        if key not in ("position", "mass", "top_diagonal", "yaw_deg"):
            raise ConfigError(f"{path}.{key}", "unknown field" + (
                "; angle fields use degrees, write yaw_deg" if key == "yaw" else ""))
    with _field(path):
        return CargoSpec(position=_numbers(raw["position"], 3),
                         mass=float(raw["mass"]),
                         top_diagonal=float(raw["top_diagonal"]),
                         yaw=math.radians(float(raw.get("yaw_deg", 0.0))))


def _parse_gains(raw) -> dict:
    """The default phase gains, with those of `raw` in their place."""
    if not isinstance(raw, dict):
        raise ConfigError("mission.gains", f"expected an object, got {raw!r}")
    gains = dict(PHASE_GAINS)
    for phase, g in raw.items():
        path = f"mission.gains.{phase}"
        if phase not in PHASE_GAINS or not isinstance(g, dict):
            raise ConfigError(path, f"expected an object of gains for one of "
                              f"{', '.join(PHASE_GAINS)}, got {g!r}")
        with _field(path):
            gains[phase] = PidGains(**{k: float(v) for k, v in g.items()})
    return gains


def _parse_mission(raw: dict) -> MissionConfig:
    known = _field_names(MissionConfig)
    kwargs = {}
    for key, value in raw.items():
        if key not in known:
            raise ConfigError(f"mission.{key}", "unknown field")
        with _field(f"mission.{key}"):
            if key == "geofence":
                value = _numbers(value, 4, "[xmin, xmax, ymin, ymax]")
            elif key == "gains":
                value = _parse_gains(value)
        kwargs[key] = value
    with _field("mission"):
        return MissionConfig(**kwargs)


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
