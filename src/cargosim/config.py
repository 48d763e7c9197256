"""Scenario and mission configuration as JSON.

The config dataclasses are the schema: an object builds a dataclass, a
list builds a list or tuple field, and a float field takes a JSON number
only.  An angle field (its `Range.unit` is "deg") is keyed `<name>_deg`
and given in degrees; loading converts it to radians.  A dict field
takes the keys of its default, and an entry given replaces its default.
The dataclasses check every value (:class:`frames.Ranged`); any problem
is a :class:`ConfigError` naming the dotted path of its key.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import sys
import typing

from .frames import field_shapes
from .mission import MissionConfig
from .sim_world import ScenarioConfig

SECTIONS = {"scenario": ScenarioConfig, "mission": MissionConfig}


class ConfigError(ValueError):
    """Invalid configuration; `path` names the field, dotted."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


@functools.cache
def _schema(cls) -> dict:
    """Each JSON key of the dataclass `cls`: (field, type, in degrees)."""
    schema = {}
    for f in dataclasses.fields(cls):
        degrees = getattr(f.metadata.get("range"), "unit", None) == "deg"
        key = f"{f.name}_deg" if degrees else f.name
        schema[key] = (f, field_shapes(cls)[f.name][0], degrees)
    return schema


def _build(cls, raw, path: str):
    """The dataclass `cls` from the JSON object `raw` found at `path`."""
    if not isinstance(raw, dict):
        raise ConfigError(path, f"expected an object, got {raw!r}")
    schema, kwargs = _schema(cls), {}
    for key, value in raw.items():
        if key + "_deg" in schema:
            raise ConfigError(f"{path}.{key}", f"angle fields use degrees; write {key}_deg")
        if key not in schema:
            known = key.removesuffix("_deg") in schema
            raise ConfigError(f"{path}.{key}", "field is not an angle" if known else "unknown field")
        f, hint, degrees = schema[key]
        if value is not None or f.default is not None:  # null only where it is the default
            value = _value(hint, value, f"{path}.{key}", f)
        kwargs[f.name] = math.radians(value) if degrees else value
    for key, (f, _, _) in schema.items():
        if f.name not in kwargs and f.default is f.default_factory is dataclasses.MISSING:
            raise ConfigError(f"{path}.{key}", "missing field")
    try:
        return cls(**kwargs)
    except (ValueError, TypeError) as exc:
        raise ConfigError(path, str(exc)) from exc


def _value(hint, raw, path: str, f=None):
    """The JSON value `raw` as the annotation `hint` takes it."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if dataclasses.is_dataclass(hint):
        return _build(hint, raw, path)
    if origin in (list, tuple):
        if not isinstance(raw, list):
            raise ConfigError(path, f"expected a list, got {raw!r}")
        nested = dataclasses.is_dataclass(args[0])  # a bad number is reported at its vector
        return origin(_value(args[0], v, f"{path}[{i}]" if nested else path)
                      for i, v in enumerate(raw))
    if origin is dict:
        default = f.default_factory()
        if not isinstance(raw, dict):
            raise ConfigError(path, f"expected an object, got {raw!r}")
        for key in raw:
            if key not in default:
                raise ConfigError(f"{path}.{key}", f"expected one of {', '.join(default)}")
        return default | {k: _value(args[1], v, f"{path}.{k}") for k, v in raw.items()}
    if hint is float:
        if isinstance(raw, bool) or not isinstance(raw, (int, float)):
            raise ConfigError(path, f"expected a number, got {raw!r}")
        if abs(raw) > sys.float_info.max:  # an integer past the float range, as 1e999 is
            raw = math.inf if raw > 0 else -math.inf
        return float(raw)
    return raw


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
        if key not in SECTIONS:
            raise ConfigError(key, "unknown section (expected scenario/mission)")
    return tuple(_build(cls, raw.get(key, {}), key) for key, cls in SECTIONS.items())
