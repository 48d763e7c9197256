"""UAV pose recovery from decoded marker-panel observations.

The downward camera sees square coded markers fixed on the platform
panel.  Each decoded marker gives an image-plane center, diagonal and
in-image yaw; similar triangles, with the camera's focal length that
the caller holds, invert the projection into camera-frame marker
coordinates, and the known panel layout plus the platform attitude carry
those into a world-frame UAV position and yaw.  Multiple markers are
combined by averaging (circular mean for yaw).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .frames import (FINITE, NATURAL, POSITIVE, EulerAngles, Ranged, mean_rows, rotate,
                     rotation_rows, unproject, wrap_angle)


@dataclass(frozen=True)
class QrMarker(Ranged):
    """A square marker on the platform panel.

    panel_xy is the marker center in the panel frame (aligned with the
    platform frame); diagonal is the physical diagonal length in meters.
    """

    label: int = NATURAL()
    diagonal: float = POSITIVE()
    panel_xy: tuple[float, float] = FINITE()


class QrObservation(NamedTuple):
    """One decoded marker in the image plane.

    image_center and image_diagonal are in image-plane units (the
    physical units of the camera's focal length); image_yaw is the
    marker's yaw in the image frame, which differs from the camera frame
    by pi.  `SimWorld.sense_qr`, which makes every sighting and alone
    checks it, gives a marker's label, a positive diagonal and a finite
    centre and yaw in (-pi, pi].
    """

    label: int
    image_diagonal: float
    image_center: tuple[float, float]
    image_yaw: float


@dataclass(frozen=True)
class PoseEstimate:
    """World-frame position, an (x, y, z) tuple of floats, and yaw with
    its originating source."""

    position: tuple[float, float, float]
    yaw: float
    source: str  # "qr" or "uwb"

    def __init__(self, position, yaw: float, source: str):
        # built two or three times a tick: one dict update sets the fields
        if not (type(position) is tuple and len(position) == 3
                and all(map(math.isfinite, position)) and math.isfinite(yaw)):
            raise ValueError("pose estimate must be a finite (x, y, z) tuple and yaw")
        vars(self).update(position=position, yaw=yaw, source=source)


def marker_camera_coords(obs: QrObservation, marker: QrMarker, focal_length: float,
                         ) -> tuple[float, float, float]:
    """Camera-frame coordinates of a marker center from its image geometry
    (:func:`frames.unproject`); z is always negative (marker below the camera).
    `marker` is the one that `obs` sighted (see :func:`estimate_pose`)."""
    return unproject(obs.image_center, obs.image_diagonal, focal_length,
                     marker.diagonal)


def estimate_pose(
    observations: list[QrObservation],
    markers: dict[int, QrMarker],
    focal_length: float,
    platform_attitude: EulerAngles,
    uav_roll_pitch: tuple[float, float],
) -> PoseEstimate | None:
    """Average per-marker UAV pose solutions into one world-frame estimate.

    For each marker i the UAV position is

        p_i = R_platform @ [qx_i, qy_i, 0] - R_body @ m_cam_i

    with R_body built from the IMU roll/pitch and the per-marker yaw
    solution psi_i = platform_yaw - (image_yaw + pi).  Unknown labels are
    skipped; an empty (or fully skipped) input has no fix, and gives None.
    """
    R_a_w = platform_attitude.rows
    phi, theta = uav_roll_pitch

    positions = []
    yaws = []
    for obs in observations:
        marker = markers.get(obs.label)
        if marker is None:
            continue
        cam = marker_camera_coords(obs, marker, focal_length)
        psi_i = wrap_angle(platform_attitude.yaw - (obs.image_yaw + math.pi))
        px, py, pz = rotate(R_a_w, (marker.panel_xy[0], marker.panel_xy[1], 0.0))
        bx, by, bz = rotate(rotation_rows(phi, theta, psi_i), cam)
        positions.append((px - bx, py - by, pz - bz))
        yaws.append(psi_i)
    if not positions:
        return None

    n = len(yaws)
    yaw = math.atan2(sum(map(math.sin, yaws)) / n, sum(map(math.cos, yaws)) / n)
    return PoseEstimate(position=mean_rows(positions),
                        yaw=wrap_angle(yaw), source="qr")
