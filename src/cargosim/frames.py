"""Euler-angle / rotation-matrix algebra shared by every other module.

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
from dataclasses import dataclass, field

import numpy as np

TWO_PI = 2.0 * math.pi


def wrap_angle(a: float) -> float:
    """Wrap an angle to (-pi, pi]."""
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

    roll, yaw in (-pi, pi]; pitch in (-pi/2, pi/2).
    """

    roll: float
    pitch: float
    yaw: float
    # body-to-world rotation as three rows of floats (see rotation_rows),
    # built once with the frozen angles and shared by every user
    rows: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not (-math.pi < self.roll <= math.pi):
            raise ValueError(f"roll {self.roll} outside (-pi, pi]")
        if not (-math.pi / 2 < self.pitch < math.pi / 2):
            raise ValueError(f"pitch {self.pitch} outside (-pi/2, pi/2)")
        if not (-math.pi < self.yaw <= math.pi):
            raise ValueError(f"yaw {self.yaw} outside (-pi, pi]")
        object.__setattr__(self, "rows",
                           rotation_rows(self.roll, self.pitch, self.yaw))

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.roll, self.pitch, self.yaw)


def rotation_rows(roll: float, pitch: float, yaw: float,
                  ) -> tuple[tuple[float, float, float], ...]:
    """Rz(yaw) @ Ry(pitch) @ Rx(roll) as three rows of Python floats."""
    cf, sf = math.cos(roll), math.sin(roll)
    ct, st = math.cos(pitch), math.sin(pitch)
    cp, sp = math.cos(yaw), math.sin(yaw)
    return ((cp * ct, cp * st * sf - sp * cf, cp * st * cf + sp * sf),
            (sp * ct, sp * st * sf + cp * cf, sp * st * cf - cp * sf),
            (-st, ct * sf, ct * cf))


def rotation_from_rpy(roll: float, pitch: float, yaw: float) -> np.ndarray:
    """Rz(yaw) @ Ry(pitch) @ Rx(roll) as a (3, 3) array."""
    return np.array(rotation_rows(roll, pitch, yaw))


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


def mean_rows(rows) -> tuple[float, ...]:
    """``np.mean(rows, axis=0)`` of a few short rows in Python floats: the
    same sequential sum from the first row, then the same division."""
    it = iter(rows)
    sums = list(next(it))
    for row in it:
        sums = [s + v for s, v in zip(sums, row)]
    return tuple([s / len(rows) for s in sums])
