import math

import numpy as np
import pytest

from cargosim.frames import EulerAngles, wrap_angle
from cargosim.qr_localization import (QrMarker, QrObservation, estimate_pose,
                                      marker_camera_coords)

from conftest import project_marker, reference_rotation

FOCAL = 0.0036


def _obs(**kw):
    defaults = dict(label=1, image_diagonal=0.005, image_center=(0.0, 0.0),
                    image_yaw=0.0)
    defaults.update(kw)
    return QrObservation(**defaults)


def test_camera_coords_worked_example():
    # f=0.01, d=0.5, d'=0.005 puts the marker 1.01 m below the lens plane
    obs = _obs()
    marker = QrMarker(label=1, diagonal=0.5, panel_xy=(0.0, 0.0))
    np.testing.assert_allclose(marker_camera_coords(obs, marker, 0.01),
                               [0.0, 0.0, -1.01], atol=1e-15)


def test_camera_coords_one_meter_above():
    # at z = -1 the image diagonal must be f d / (1 - f); inverting it
    # recovers exactly -1
    f, d = 0.01, 0.5
    d_img = f * d / (1.0 - f)
    obs = _obs(image_diagonal=d_img)
    marker = QrMarker(label=1, diagonal=d, panel_xy=(0.0, 0.0))
    cam = marker_camera_coords(obs, marker, f)
    assert cam[2] == pytest.approx(-1.0, abs=1e-12)


def test_camera_coords_boresight_is_centered():
    marker = QrMarker(label=1, diagonal=0.3, panel_xy=(0.0, 0.0))
    for d_img in (0.002, 0.0007):
        cam = marker_camera_coords(_obs(image_diagonal=d_img), marker, 0.01)
        assert cam[0] == 0.0 and cam[1] == 0.0


def test_projection_roundtrip_against_oracle(rng):
    marker = QrMarker(label=3, diagonal=0.30, panel_xy=(0.4, -0.2))
    for _ in range(200):
        platform = EulerAngles(rng.uniform(-0.14, 0.14),
                               rng.uniform(-0.17, 0.17),
                               rng.uniform(-math.pi, math.pi))
        uav = EulerAngles(rng.uniform(-0.1, 0.1), rng.uniform(-0.1, 0.1),
                          rng.uniform(-math.pi, math.pi))
        pos = np.array([rng.uniform(-0.3, 0.9), rng.uniform(-0.7, 0.3),
                        rng.uniform(0.5, 5.0)])
        obs = project_marker(marker, pos, uav, platform, FOCAL)
        cam = marker_camera_coords(obs, marker, FOCAL)
        # reproject independently for the truth value
        panel = np.array([marker.panel_xy[0], marker.panel_xy[1], 0.0])
        R_a_w = reference_rotation(platform.roll, platform.pitch, platform.yaw)
        truth = reference_rotation(uav.roll, uav.pitch, uav.yaw).T @ (R_a_w @ panel - pos)
        np.testing.assert_allclose(cam, truth, atol=1e-9)


def test_estimate_pose_level_two_meters():
    # level platform and vehicle, camera 2 m above a marker at the panel
    # origin: position is pure height, yaw zero
    marker = QrMarker(label=1, diagonal=0.5, panel_xy=(0.0, 0.0))
    uav = EulerAngles(0.0, 0.0, 0.0)
    platform = EulerAngles(0.0, 0.0, 0.0)
    obs = project_marker(marker, [0.0, 0.0, 2.0], uav, platform, FOCAL)
    est = estimate_pose([obs], {1: marker}, FOCAL, platform, (0.0, 0.0))
    np.testing.assert_allclose(est.position, [0.0, 0.0, 2.0], atol=1e-12)
    assert est.yaw == pytest.approx(0.0, abs=1e-12)
    assert est.source == "qr"


def test_estimate_pose_averages_markers():
    markers = {1: QrMarker(label=1, diagonal=0.5, panel_xy=(1.0, 0.0)),
               2: QrMarker(label=2, diagonal=0.3, panel_xy=(-1.0, 0.0))}
    uav = EulerAngles(0.0, 0.0, 0.3)
    platform = EulerAngles(0.05, -0.06, 0.0)
    pos = np.array([0.2, -0.1, 3.0])
    obs = [project_marker(m, pos, uav, platform, FOCAL)
           for m in markers.values()]
    est = estimate_pose(obs, markers, FOCAL, platform, (0.0, 0.0))
    np.testing.assert_allclose(est.position, pos, atol=1e-9)
    assert abs(wrap_angle(est.yaw - 0.3)) < 1e-9


def test_estimate_pose_yaw_circular_mean_near_pi():
    # two per-marker yaw solutions straddling +-pi must average to pi,
    # not to zero as an arithmetic mean would
    marker1 = QrMarker(label=1, diagonal=0.5, panel_xy=(0.5, 0.0))
    marker2 = QrMarker(label=2, diagonal=0.5, panel_xy=(-0.5, 0.0))
    platform = EulerAngles(0.0, 0.0, 0.0)
    pos = [0.0, 0.0, 2.0]
    eps = 0.01
    obs1 = project_marker(marker1, pos, EulerAngles(0.0, 0.0, math.pi - eps),
                          platform, FOCAL)
    obs2 = project_marker(marker2, pos, EulerAngles(0.0, 0.0, -math.pi + eps),
                          platform, FOCAL)
    est = estimate_pose([obs1, obs2], {1: marker1, 2: marker2}, FOCAL, platform,
                        (0.0, 0.0))
    assert abs(wrap_angle(est.yaw - math.pi)) < 1e-9


def test_no_observations_raises():
    # no observation is no fix
    assert estimate_pose([], {}, FOCAL, EulerAngles(0.0, 0.0, 0.0), (0.0, 0.0)) is None


def test_unknown_labels_raise():
    marker = QrMarker(label=1, diagonal=0.5, panel_xy=(0.0, 0.0))
    obs = project_marker(marker, [0.0, 0.0, 2.0], EulerAngles(0.0, 0.0, 0.0),
                         EulerAngles(0.0, 0.0, 0.0), FOCAL)
    # an observation of no known marker is no fix
    assert estimate_pose([obs], {9: QrMarker(label=9, diagonal=0.5,
                                             panel_xy=(0.0, 0.0))},
                         FOCAL, EulerAngles(0.0, 0.0, 0.0), (0.0, 0.0)) is None


def test_the_focal_length_comes_from_the_caller():
    # a sighting is image geometry alone; the camera's focal length is the
    # caller's, and the inversion scales with it
    assert "focal_length" not in QrObservation._fields
    marker = QrMarker(label=1, diagonal=0.5, panel_xy=(0.0, 0.0))
    assert marker_camera_coords(_obs(), marker, 0.01)[2] == pytest.approx(-1.01)
    assert marker_camera_coords(_obs(), marker, 0.02)[2] == pytest.approx(-2.02)
    level = EulerAngles(0.0, 0.0, 0.0)
    obs = project_marker(marker, [0.0, 0.0, 2.0], level, level, FOCAL)
    for focal, height in ((FOCAL, 2.0), (2 * FOCAL, 4.0)):
        est = estimate_pose([obs], {1: marker}, focal, level, (0.0, 0.0))
        np.testing.assert_allclose(est.position, [0.0, 0.0, height], atol=1e-12)


def test_observation_validation():
    with pytest.raises(ValueError):
        QrMarker(label=1, diagonal=-0.1, panel_xy=(0.0, 0.0))
