"""Shared fixtures and forward-model oracles used across the test suite."""

import math
from dataclasses import replace

import numpy as np
import pytest

from cargosim.frames import EulerAngles, wrap_angle
from cargosim.qr_localization import QrObservation
from cargosim.sim_world import ScenarioConfig


def calm_scenario(**overrides) -> ScenarioConfig:
    """Default scenario with every noise source and the wind switched off."""
    base = dict(
        qr_image_noise=0.0, qr_yaw_noise=0.0, qr_dropout=0.0,
        det_pos_noise=0.0, det_yaw_noise=0.0, det_dropout=0.0,
        wind_mean=(0.0, 0.0), wind_sigma=0.0, sigma_uwb=0.0,
        rotor_noise=0.0,
        platform_roll_amp=0.0, platform_pitch_amp=0.0,
    )
    base.update(overrides)
    return ScenarioConfig(**base)


def reference_rotation(roll: float, pitch: float, yaw: float) -> np.ndarray:
    """Rz(yaw) @ Ry(pitch) @ Rx(roll) from the three elementary rotations,
    an oracle apart from ``frames.rotation_rows``."""
    cf, sf = math.cos(roll), math.sin(roll)
    ct, st = math.cos(pitch), math.sin(pitch)
    cp, sp = math.cos(yaw), math.sin(yaw)
    Rx = np.array([[1.0, 0.0, 0.0], [0.0, cf, -sf], [0.0, sf, cf]])
    Ry = np.array([[ct, 0.0, st], [0.0, 1.0, 0.0], [-st, 0.0, ct]])
    Rz = np.array([[cp, -sp, 0.0], [sp, cp, 0.0], [0.0, 0.0, 1.0]])
    return Rz @ Ry @ Rx


def project_marker(marker, uav_pos, uav_euler: EulerAngles,
                   platform_attitude: EulerAngles, focal: float) -> QrObservation:
    """Independent noiseless pinhole projection of one panel marker.

    Written directly from the geometry (marker world position through the
    camera rotation, similar-triangles scaling) so the estimator tests do
    not reuse the code under test.
    """
    p, u = platform_attitude, uav_euler
    R_a_w = reference_rotation(p.roll, p.pitch, p.yaw)
    R_w_b = reference_rotation(u.roll, u.pitch, u.yaw).T
    panel = np.array([marker.panel_xy[0], marker.panel_xy[1], 0.0])
    cam = R_w_b @ (R_a_w @ panel - np.asarray(uav_pos, dtype=float))
    assert cam[2] < -focal, "marker must be below the camera"
    d_img = -focal * marker.diagonal / (cam[2] + focal)
    scale = d_img / marker.diagonal
    image_yaw = wrap_angle(platform_attitude.yaw - uav_euler.yaw - math.pi)
    return QrObservation(label=marker.label, image_diagonal=d_img,
                         image_center=(cam[0] * scale, cam[1] * scale),
                         image_yaw=image_yaw)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
