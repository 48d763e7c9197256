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

import enum
import math
from dataclasses import dataclass, field

import numpy as np

TWO_PI = 2.0 * math.pi


class FrameId(enum.Enum):
    """Coordinate frames of the transport scenario.

    The UWB-anchor and QR-panel frames are aligned with the platform
    frame, and the label/camera frames are aligned with the UAV body
    frame (their fixed mounting transforms are folded in).
    """

    WORLD = "F_w"
    PLATFORM = "F_a"
    UWB_ANCHOR = "F_a_u"
    QR_PANEL = "F_a_q"
    BODY = "F_b"
    UWB_LABEL = "F_b_u"
    QR_CAMERA = "F_b_q"
    DETECTION_CAMERA = "F_b_d"
    CARGO = "F_c"
    DECK = "F_d"


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


def wrap_angles(a: np.ndarray) -> np.ndarray:
    """Vectorized :func:`wrap_angle` (result in (-pi, pi])."""
    a = np.asarray(a, dtype=float)
    out = np.remainder(a + math.pi, TWO_PI) - math.pi
    # remainder maps exact multiples of 2*pi to -pi; fold onto +pi
    out = np.where(out == -math.pi, math.pi, out)
    return out


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


def rotation_from_euler(e: EulerAngles) -> np.ndarray:
    """Body-to-world rotation matrix for ZYX Euler angles."""
    return rotation_from_rpy(e.roll, e.pitch, e.yaw)


def rotation_rows(roll: float, pitch: float, yaw: float,
                  ) -> tuple[tuple[float, float, float], ...]:
    """Rz(yaw) @ Ry(pitch) @ Rx(roll) as three rows of Python floats."""
    cf, sf = math.cos(roll), math.sin(roll)
    ct, st = math.cos(pitch), math.sin(pitch)
    cp, sp = math.cos(yaw), math.sin(yaw)
    return ((cp * ct, cp * st * sf - sp * cf, cp * st * cf + sp * sf),
            (sp * ct, sp * st * sf + cp * cf, sp * st * cf - cp * sf),
            (-st, ct * sf, ct * cf))


def rotation_from_rpy(roll, pitch, yaw) -> np.ndarray:
    """Rz(yaw) @ Ry(pitch) @ Rx(roll), broadcastable over array inputs.

    Scalar inputs give a (3, 3) matrix; array inputs of shape S give
    (S..., 3, 3).
    """
    if isinstance(roll, float) and isinstance(pitch, float) and \
            isinstance(yaw, float):
        return np.array(rotation_rows(roll, pitch, yaw))
    roll = np.asarray(roll, dtype=float)
    pitch = np.asarray(pitch, dtype=float)
    yaw = np.asarray(yaw, dtype=float)
    cf, sf = np.cos(roll), np.sin(roll)
    ct, st = np.cos(pitch), np.sin(pitch)
    cp, sp = np.cos(yaw), np.sin(yaw)
    shape = np.broadcast_shapes(roll.shape, pitch.shape, yaw.shape)
    R = np.empty(shape + (3, 3))
    R[..., 0, 0] = cp * ct
    R[..., 0, 1] = cp * st * sf - sp * cf
    R[..., 0, 2] = cp * st * cf + sp * sf
    R[..., 1, 0] = sp * ct
    R[..., 1, 1] = sp * st * sf + cp * cf
    R[..., 1, 2] = sp * st * cf - cp * sf
    R[..., 2, 0] = -st
    R[..., 2, 1] = ct * sf
    R[..., 2, 2] = ct * cf
    return R


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


def mean_rows(rows) -> list[float]:
    """``np.mean(rows, axis=0)`` of a few short rows in Python floats: the
    same sequential sum from the first row, then the same division."""
    it = iter(rows)
    sums = list(next(it))
    for row in it:
        sums = [s + v for s, v in zip(sums, row)]
    return [s / len(rows) for s in sums]


def euler_from_rotation(R: np.ndarray) -> EulerAngles:
    """Recover ZYX Euler angles from a body-to-world rotation matrix.

    At gimbal lock (|pitch| = pi/2) roll is resolved to 0 and the
    remaining rotation is folded into yaw; platform oscillations in this
    artifact never approach +-90 deg pitch.
    """
    st = -R[2, 0]
    st = min(1.0, max(-1.0, st))
    pitch = math.asin(st)
    if abs(st) > 1.0 - 1e-12:
        # gimbal lock: R[0,1], R[1,1] depend on (yaw -+ roll) only
        roll = 0.0
        yaw = math.atan2(-R[0, 1], R[1, 1])
    else:
        roll = math.atan2(R[2, 1], R[2, 2])
        yaw = math.atan2(R[1, 0], R[0, 0])
    return EulerAngles(wrap_angle(roll), pitch, wrap_angle(yaw))


def yaw_rotation(yaw: float) -> np.ndarray:
    """Rotation about the vertical axis only."""
    return rotation_from_rpy(0.0, 0.0, yaw)


def transform_point(R: np.ndarray, t: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Apply the rigid transform (R, t): returns R @ p + t."""
    return R @ np.asarray(p, dtype=float) + np.asarray(t, dtype=float)


def assert_rotation(R: np.ndarray, tol: float = 1e-12) -> None:
    """Raise if R is not orthonormal with determinant +1 (tolerance tol)."""
    if R.shape != (3, 3):
        raise ValueError(f"rotation must be 3x3, got {R.shape}")
    if not np.allclose(R.T @ R, np.eye(3), atol=tol):
        raise ValueError("matrix is not orthonormal")
    if abs(np.linalg.det(R) - 1.0) > tol:
        raise ValueError("matrix determinant is not +1")
