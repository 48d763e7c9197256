"""The vectors handed from stage to stage are tuples of Python floats.

The world state, the IMU acceleration, every pose estimate, the cargo
track and the coverage waypoints cross a stage boundary each tick; a
numpy array or a numpy scalar there means one stage wraps what the next
must unwrap.
"""

import math

import numpy as np
import pytest

from cargosim.frames import rotation_rows
from cargosim.hybrid_localizer import HybridState, arbitrate
from cargosim.perception import CargoTrack, smooth_track
from cargosim.planner import plan_coverage
from cargosim.qr_localization import PoseEstimate, estimate_pose
from cargosim.sim_world import ScenarioConfig, SimWorld
from cargosim.uwb_localization import fuse_labels, initial_state

from conftest import calm_scenario


def _assert_floats(v, n):
    assert type(v) is tuple and len(v) == n, v
    assert all(type(x) is float for x in v), [type(x) for x in v]


def _assert_state(state):
    for name, n in (("uav_pos", 3), ("uav_vel", 3), ("uav_acc", 3),
                    ("wind_vel", 2), ("wind_trim", 2)):
        _assert_floats(getattr(state, name), n)


def test_world_vectors_are_float_tuples():
    world = SimWorld(ScenarioConfig(seed=4))
    state = world.initial_state()
    _assert_state(state)
    flying = world.step(state, (0.5, -0.2, 0.4, 0.1), 0.02)
    _assert_state(flying)
    a_body, _, _ = world.sense_imu(flying)
    _assert_floats(a_body, 3)
    grounded = world.touch_down(state, 0.0)  # at rest on the pad
    assert grounded.on_ground
    _assert_state(grounded)
    _assert_state(world.step(grounded, (0.0, 0.0, -0.1, 0.0), 0.02))


def test_pose_estimates_are_float_tuples():
    cfg = calm_scenario(uav_start=(1.0, 2.0, 2.5),
                        platform_roll_amp=math.radians(8.0))
    world = SimWorld(cfg)
    state = world.step(world.initial_state(), (0.0, 0.0, 0.0, 0.0), 0.02)
    obs = world.sense_qr(state)
    assert obs
    qr = estimate_pose(obs, {m.label: m for m in cfg.qr_markers},
                       state.platform_attitude, (0.0, 0.0), timestamp=state.t)
    _assert_floats(qr.position, 3)
    labels = initial_state(np.array([[1.0, 2.2, 2.5], [1.0, 1.8, 2.5]]), 0.0)
    uwb = fuse_labels(labels, rotation_rows(0.1, -0.1, 0.3), yaw=0.2)
    _assert_floats(uwb.position, 3)
    st = HybridState()
    for source in (None, qr, qr):
        out, st, _ = arbitrate(source, uwb, st)
        _assert_floats(out.position, 3)


def test_cargo_track_is_float_tuples():
    track = CargoTrack()
    _assert_floats(track.velocity, 3)
    for k in range(8):
        track = smooth_track(track, (0.1 + 0.01 * k, -0.2, -1.5))
        _assert_floats(track.position, 3)
        _assert_floats(track.velocity, 3)


def test_coverage_waypoints_are_float_tuples():
    _, path = plan_coverage(deck_size=(10.0, 6.0), deck_center=(3.0, -2.0),
                            deck_yaw=0.4, altitude_above_deck=2.0,
                            v_fov=math.radians(73.0), h_fov=math.radians(106.0),
                            altitude=3.0)
    assert type(path.waypoints) is list and len(path.waypoints) > 1
    for wp in path.waypoints:
        _assert_floats(wp, 2)


@pytest.mark.parametrize("position,yaw", [
    ((float("nan"), 0.0, 1.0), 0.0),
    ((0.0, float("inf"), 1.0), 0.0),
    ((0.0, 0.0, -float("inf")), 0.0),
    ((0.0, 0.0, 1.0), float("nan")),
])
def test_pose_estimate_rejects_non_finite(position, yaw):
    with pytest.raises(ValueError, match="finite"):
        PoseEstimate(position=position, yaw=yaw, source="uwb", timestamp=0.0)
