"""UAV pose recovery from decoded marker-panel observations.

The downward camera sees square coded markers fixed on the platform
panel.  Each decoded marker gives an image-plane center, diagonal and
in-image yaw; similar triangles invert the projection into camera-frame
marker coordinates, and the known panel layout plus the platform
attitude carry those into a world-frame UAV position and yaw.  Multiple
markers are combined by averaging (circular mean for yaw).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .frames import EulerAngles, mean_rows, rotate, rotation_rows, wrap_angle


@dataclass(frozen=True)
class QrMarker:
    """A square marker on the platform panel.

    panel_xy is the marker center in the panel frame (aligned with the
    platform frame); diagonal is the physical diagonal length in meters.
    """

    label: int
    diagonal: float
    panel_xy: tuple[float, float]

    def __post_init__(self):
        if self.diagonal <= 0:
            raise ValueError(f"marker diagonal must be > 0, got {self.diagonal}")


@dataclass(frozen=True)
class QrObservation:
    """One decoded marker in the image plane.

    image_center and image_diagonal are in image-plane units (same
    physical units as focal_length); image_yaw is the marker's yaw in
    the image frame, which differs from the camera frame by pi.
    """

    label: int
    image_diagonal: float
    image_center: tuple[float, float]
    image_yaw: float
    focal_length: float

    def __post_init__(self):
        if self.image_diagonal <= 0:
            raise ValueError("image diagonal must be > 0")
        if self.focal_length <= 0:
            raise ValueError("focal length must be > 0")


@dataclass(frozen=True)
class PoseEstimate:
    """World-frame position, an (x, y, z) tuple of floats, and yaw with
    its originating source."""

    position: tuple[float, float, float]
    yaw: float
    source: str  # "qr" or "uwb"
    timestamp: float

    def __post_init__(self):
        if not (all(map(math.isfinite, self.position))
                and math.isfinite(self.yaw)):
            raise ValueError("pose estimate must be finite")


def marker_camera_coords(obs: QrObservation, marker: QrMarker,
                         ) -> tuple[float, float, float]:
    """Camera-frame coordinates of a marker center from its image geometry.

    Inverts the similar-triangles projection:

        z = -f * d / d' - f
        x = cx' * d / d',   y = cy' * d / d'

    where d is the physical diagonal, d' the image diagonal and f the
    focal length.  z is always negative (marker below the camera).
    """
    if obs.label != marker.label:
        raise ValueError(f"label mismatch: observation {obs.label} vs marker {marker.label}")
    scale = marker.diagonal / obs.image_diagonal
    z = -obs.focal_length * scale - obs.focal_length
    x = obs.image_center[0] * scale
    y = obs.image_center[1] * scale
    return (x, y, z)


class NoFix(Exception):
    """Raised when no usable observation is available this epoch."""


def estimate_pose(
    observations: list[QrObservation],
    markers: dict[int, QrMarker],
    platform_attitude: EulerAngles,
    uav_roll_pitch: tuple[float, float],
    timestamp: float = 0.0,
) -> PoseEstimate:
    """Average per-marker UAV pose solutions into one world-frame estimate.

    For each marker i the UAV position is

        p_i = R_platform @ [qx_i, qy_i, 0] - R_body @ m_cam_i

    with R_body built from the IMU roll/pitch and the per-marker yaw
    solution psi_i = platform_yaw - (image_yaw + pi).  Unknown labels are
    skipped; an empty (or fully skipped) input raises :class:`NoFix`.
    """
    if not observations:
        raise NoFix("no marker observations")
    R_a_w = platform_attitude.rows
    phi, theta = uav_roll_pitch

    positions = []
    yaws = []
    for obs in observations:
        marker = markers.get(obs.label)
        if marker is None:
            continue
        cam = marker_camera_coords(obs, marker)
        psi_i = wrap_angle(platform_attitude.yaw - (obs.image_yaw + math.pi))
        px, py, pz = rotate(R_a_w, (marker.panel_xy[0], marker.panel_xy[1], 0.0))
        bx, by, bz = rotate(rotation_rows(phi, theta, psi_i), cam)
        positions.append((px - bx, py - by, pz - bz))
        yaws.append(psi_i)
    if not positions:
        raise NoFix("all observations had unknown labels")

    yaw = math.atan2(
        sum(math.sin(y) for y in yaws) / len(yaws),
        sum(math.cos(y) for y in yaws) / len(yaws),
    )
    return PoseEstimate(position=mean_rows(positions),
                        yaw=wrap_angle(yaw), source="qr", timestamp=timestamp)
