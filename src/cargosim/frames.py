"""Rotation algebra, the pinhole camera model and the config field checks.

Attitude convention used throughout the package: intrinsic ZYX
(yaw-pitch-roll), body-to-world, i.e.

    R = Rz(psi) @ Ry(theta) @ Rx(phi)

With this convention the second column of R equals

    [ S_phi S_theta C_psi - C_phi S_psi,
      S_phi S_theta S_psi + C_phi C_psi,
      S_phi C_theta ]

which is exactly the direction of a body-fixed +y baseline expressed in
the world frame -- the relation the dual-label heading recovery relies on.
"""

from __future__ import annotations

import math
import sys
from dataclasses import MISSING, dataclass, field, fields, replace
from functools import cache, reduce
from numbers import Integral, Real
from operator import add
from typing import get_args, get_origin, get_type_hints

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class Range:
    """The valid values of a config field: finite numbers within the float
    range (ints only when `integer`) between low and high, each bound open
    or closed.  Calling a range makes the field that carries it:
    ``qr_focal: float = POSITIVE(0.0036)``."""

    text: str  # as the error message states it
    low: float = -math.inf
    high: float = math.inf
    low_open: bool = False
    high_open: bool = False
    integer: bool = False
    unit: str | None = None  # "deg": an angle, JSON key <name>_deg in degrees

    def __contains__(self, v) -> bool:
        if not isinstance(v, Integral if self.integer else Real) or isinstance(v, bool):
            return False
        return ((self.low < v if self.low_open else self.low <= v)
                and (v < self.high if self.high_open else v <= self.high)
                and (self.integer or abs(v) <= sys.float_info.max))

    def __call__(self, default=MISSING):
        return field(default=default, metadata={"range": self})


FINITE = Range("finite")
POSITIVE = Range("> 0", low=0.0, low_open=True)
NON_NEGATIVE = Range(">= 0", low=0.0)
PROBABILITY = Range("in [0, 1]", 0.0, 1.0)
FRACTION = Range("in (0, 1)", 0.0, 1.0, True, True)
NATURAL = Range("an integer >= 0", low=0, integer=True)
COUNT = Range("an integer >= 1", low=1, integer=True)
ANGLE = replace(FINITE, unit="deg")
SPREAD = replace(NON_NEGATIVE, unit="deg")
TILT = Range("in [0, pi/2)", 0.0, math.pi / 2, high_open=True, unit="deg")
FIELD_OF_VIEW = Range("in (0, pi)", 0.0, math.pi, True, True, unit="deg")


@cache
def field_shapes(cls) -> dict:
    """{name: (type, length)} of each field of the dataclass `cls`: its
    resolved annotation without any ``| None``, and n where that is
    tuple[X1, ..., Xn] (else None).  Resolving annotations costs far more
    than a config check, so it is done once per class."""
    hints, shapes = get_type_hints(cls), {}
    for f in fields(cls):
        hint = hints[f.name]
        if type(None) in get_args(hint):  # X | None
            hint = get_args(hint)[0]
        args = get_args(hint)
        fixed = get_origin(hint) is tuple and ... not in args
        shapes[f.name] = (hint, len(args) if fixed else None)
    return shapes


@cache
def _checks(cls) -> tuple:
    """(name, range, tuple length, None allowed) of each field of `cls` that
    has a range (see field_shapes)."""
    return tuple((f.name, f.metadata["range"], field_shapes(cls)[f.name][1],
                  f.default is None) for f in fields(cls) if "range" in f.metadata)


class Ranged:
    """Base of the config dataclasses: construction checks every field that
    has a range in its metadata, a tuple for its annotated length and then
    element by element; None passes only where it is the default."""

    def __post_init__(self):
        for name, valid, length, optional in _checks(type(self)):
            value = getattr(self, name)
            if value is None and optional:
                continue
            if length and not (isinstance(value, tuple) and len(value) == length):
                raise ValueError(f"{name} must be a tuple of {length} values, "
                                 f"got {value!r}")
            for v in value if length else (value,):
                if v not in valid:
                    raise ValueError(f"{name} must be {valid.text}, got {v!r}")


def wrap_angle(a: float) -> float:
    """Wrap an angle to (-pi, pi]."""
    if -math.pi < a <= math.pi:  # fmod would return it unchanged
        return a
    if not math.isfinite(a):
        raise ValueError(f"angle must be finite, got {a!r}")
    a = math.fmod(a, TWO_PI)
    if a <= -math.pi:
        a += TWO_PI
    elif a > math.pi:
        a -= TWO_PI
    return a


@dataclass(frozen=True)
class EulerAngles:
    """ZYX Euler angles (roll phi, pitch theta, yaw psi), radians.

    roll, yaw in (-pi, pi]; pitch in (-pi/2, pi/2).  Two are built every
    tick, so one dict update sets the four frozen fields.
    """

    roll: float
    pitch: float
    yaw: float
    # body-to-world rotation as three rows of floats (see rotation_rows),
    # built once with the frozen angles and shared by every user
    rows: tuple = field(init=False, repr=False, compare=False)

    def __init__(self, roll: float, pitch: float, yaw: float):
        if not (-math.pi < roll <= math.pi):
            raise ValueError(f"roll {roll} outside (-pi, pi]")
        if not (-math.pi / 2 < pitch < math.pi / 2):
            raise ValueError(f"pitch {pitch} outside (-pi/2, pi/2)")
        if not (-math.pi < yaw <= math.pi):
            raise ValueError(f"yaw {yaw} outside (-pi, pi]")
        vars(self).update(roll=roll, pitch=pitch, yaw=yaw,
                          rows=rotation_rows(roll, pitch, yaw))


def rotation_rows(roll: float, pitch: float, yaw: float,
                  ) -> tuple[tuple[float, float, float], ...]:
    """Rz(yaw) @ Ry(pitch) @ Rx(roll) as three rows of Python floats."""
    cf, sf = math.cos(roll), math.sin(roll)
    ct, st = math.cos(pitch), math.sin(pitch)
    cp, sp = math.cos(yaw), math.sin(yaw)
    return ((cp * ct, cp * st * sf - sp * cf, cp * st * cf + sp * sf),
            (sp * ct, sp * st * sf + cp * cf, sp * st * cf - cp * sf),
            (-st, ct * sf, ct * cf))


def rotate(R, v) -> tuple[float, float, float]:
    """R @ v in Python floats, R given as three rows (see rotation_rows).

    Cheaper than numpy for one small vector, but summed in another order
    than numpy's matmul, so the last bit can differ from ``R @ v``.
    """
    x, y, z = v
    (a, b, c), (d, e, f), (g, h, i) = R
    return (a * x + b * y + c * z, d * x + e * y + f * z, g * x + h * y + i * z)


def rotate_t(R, v) -> tuple[float, float, float]:
    """R.T @ v in Python floats, R given as three rows, as in :func:`rotate`."""
    x, y, z = v
    (a, b, c), (d, e, f), (g, h, i) = R
    return (a * x + d * y + g * z, b * x + e * y + h * z, c * x + f * y + i * z)


def project(point, focal: float, diagonal: float) -> tuple[float, float, float]:
    """Pinhole image (cx, cy, d) of an object of diagonal D centred at the
    camera-frame point (x, y, z): d = -f D / (z + f), c = (x, y) d / D."""
    x, y, z = point
    d = -focal * diagonal / (z + focal)
    return (x * d / diagonal, y * d / diagonal, d)


def unproject(center, image_diagonal, focal, diagonal) -> tuple[float, float, float]:
    """Camera-frame centre of an object of diagonal D from its image centre
    and diagonal d': z = -f D / d' - f, (x, y) = c D / d' (see :func:`project`)."""
    scale = diagonal / image_diagonal
    return (center[0] * scale, center[1] * scale, -focal * scale - focal)


def mean_rows(rows) -> tuple[float, ...]:
    """``np.mean(rows, axis=0)`` of a few short rows in Python floats: the
    same sequential sum from the first row, then the same division."""
    n = len(rows)
    return tuple([reduce(add, column) / n for column in zip(*rows)])
