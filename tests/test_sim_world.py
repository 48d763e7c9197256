import math
from dataclasses import replace

import numpy as np
import pytest

from cargosim.qr_localization import estimate_pose
from cargosim.sim_world import CargoSpec, ScenarioConfig, SimWorld

from conftest import calm_scenario


def test_scenario_validation():
    with pytest.raises(ValueError):
        ScenarioConfig(anchors=np.array([[0, 0, 0], [1, 0, 0], [2, 0, 0]]))
    with pytest.raises(ValueError):
        ScenarioConfig(label_baseline=0.0)
    with pytest.raises(ValueError):
        CargoSpec(position=(0, 0, 0), mass=-1.0, top_diagonal=0.3)


def test_hover_equilibrium():
    world = SimWorld(calm_scenario())
    state = world.initial_state()
    first_sum = state.rotor_sum_sq
    for _ in range(100):
        state = world.step(state, np.zeros(4), 0.02)
    np.testing.assert_allclose(state.uav_pos, world.cfg.uav_start, atol=1e-12)
    assert state.rotor_sum_sq == pytest.approx(first_sum, rel=1e-12)


def test_zero_command_altitude_drift_over_minute():
    world = SimWorld(calm_scenario())
    state = world.initial_state()
    z0 = state.uav_pos[2]
    for _ in range(3000):  # 60 s at 50 Hz
        state = world.step(state, np.zeros(4), 0.02)
    assert abs(state.uav_pos[2] - z0) < 1e-9


def test_step_determinism():
    states = []
    for _ in range(2):
        world = SimWorld(ScenarioConfig(seed=42))
        s = world.initial_state()
        for k in range(200):
            s = world.step(s, np.array([0.1, 0.0, 0.2, 0.01]), 0.02)
        states.append(s)
    np.testing.assert_array_equal(states[0].uav_pos, states[1].uav_pos)
    np.testing.assert_array_equal(states[0].rotor_speeds, states[1].rotor_speeds)
    np.testing.assert_array_equal(states[0].wind_vel, states[1].wind_vel)


def test_velocity_tracks_command():
    world = SimWorld(calm_scenario())
    state = world.initial_state()
    for _ in range(400):  # 8 s >> the 0.3 s lag and the 1 s trim constant
        state = world.step(state, np.array([0.5, 0.0, 0.0, 0.0]), 0.02)
    assert state.uav_vel[0] == pytest.approx(0.5, abs=0.01)


def test_steady_wind_is_trimmed_out():
    # the velocity loop's trim integrator cancels constant wind; only
    # gusts leak through, so with zero gusts the hover drift stays small
    world = SimWorld(calm_scenario(wind_mean=(12.0, 0.0)))
    state = world.initial_state()
    for _ in range(500):
        state = world.step(state, np.zeros(4), 0.02)
    assert abs(state.uav_vel[0]) < 0.05


def test_attach_raises_rotor_effort_by_mass_ratio():
    cfg = calm_scenario()
    world = SimWorld(cfg)
    state = world.step(world.initial_state(), np.zeros(4), 0.02)
    before = state.rotor_sum_sq
    state = world.attach_cargo(state, 1.0)
    state = world.step(state, np.zeros(4), 0.02)
    ratio = state.rotor_sum_sq / before
    expected = (cfg.uav_mass + cfg.cargoes[0].mass) / cfg.uav_mass
    assert ratio == pytest.approx(expected, rel=1e-9)
    assert expected == pytest.approx(1.1127, abs=1e-4)


def test_failed_adsorption_still_takes_its_draw():
    world, twin = SimWorld(ScenarioConfig(seed=8)), SimWorld(ScenarioConfig(seed=8))
    state = world.initial_state()
    assert world.attach_cargo(state, 0.0).attached_mass == 0.0
    twin.rng.random()
    assert world.rng.random() == twin.rng.random()


def test_support_height_of_cargo_deck_and_sea():
    cfg = ScenarioConfig()
    world = SimWorld(cfg)
    cargo = cfg.cargoes[0]
    cx, cy, top = cargo.position
    assert world.support_height(cx, cy) == top
    assert world.support_height(cx + 0.99 * cargo.top_diagonal / 2, cy) == top
    assert world.support_height(cx + cargo.top_diagonal, cy) == cfg.deck_height
    assert world.support_height(cfg.deck_center[0] + 0.99 * cfg.deck_size[0] / 2,
                                cfg.deck_center[1]) == cfg.deck_height
    assert world.support_height(cfg.deck_center[0] + cfg.deck_size[0],
                                cfg.deck_center[1]) == 0.0
    assert world.support_height(*cfg.uav_start[:2]) == 0.0


def test_range_zero_at_anchor_and_345_triangle():
    anchors = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    cfg = calm_scenario(anchors=anchors, label_baseline=0.4,
                        uav_start=(3.0, 3.8, 0.0))
    world = SimWorld(cfg)
    state = world.initial_state()
    ranges = world.sense_uwb(state)
    assert ranges.shape == (2, 3)  # (labels, anchors)
    # label 0 sits at uav + (0, 0.2, 0) = (3, 4, 0)
    assert ranges[0, 0] == pytest.approx(5.0, abs=1e-12)
    cfg2 = calm_scenario(anchors=anchors, uav_start=(0.0, -0.2, 0.0))
    world2 = SimWorld(cfg2)
    r2 = world2.sense_uwb(world2.initial_state())
    assert r2[0, 0] == pytest.approx(0.0, abs=1e-12)


def _noise_free_ranges(cfg, state):
    """The ranges of the same state from a twin world without range noise."""
    return SimWorld(replace(cfg, sigma_uwb=0.0)).sense_uwb(state)


def test_range_noise_sigma_calibrated():
    cfg = calm_scenario(sigma_uwb=0.10, uav_start=(0.5, 0.5, 1.0))
    world = SimWorld(cfg)
    state = world.initial_state()
    true_d = _noise_free_ranges(cfg, state)
    residuals = []
    while len(residuals) < 100_000:
        residuals.extend((world.sense_uwb(state) - true_d).ravel())
    std = float(np.std(residuals))
    assert 0.098 <= std <= 0.102


def test_occlusion_inflates_noise():
    base = calm_scenario(sigma_uwb=0.05, uav_start=(0.0, 0.0, 1.0))
    occluded = calm_scenario(sigma_uwb=0.05, uav_start=(0.0, 0.0, 1.0),
                             occlusion_center=(0.0, 0.0, 1.0),
                             occlusion_radius=2.0, occlusion_factor=5.0)

    def spread(cfg):
        world = SimWorld(cfg)
        state = world.initial_state()
        true_d = _noise_free_ranges(cfg, state)
        res = [world.sense_uwb(state) - true_d for _ in range(500)]
        return np.std(res)

    assert spread(occluded) == pytest.approx(5.0 * spread(base), rel=0.1)


def test_qr_projection_inverts_exactly():
    cfg = calm_scenario(platform_roll_amp=math.radians(8.0),
                        platform_pitch_amp=math.radians(10.0),
                        uav_start=(1.0, 2.0, 2.5))
    world = SimWorld(cfg)
    state = world.step(world.initial_state(), np.zeros(4), 0.02)
    obs = world.sense_qr(state)
    assert obs, "markers must be visible from above the panel"
    markers = {m.label: m for m in cfg.qr_markers}
    est = estimate_pose(obs, markers, state.platform_attitude,
                        (state.uav_euler.roll, state.uav_euler.pitch),
                        timestamp=state.t)
    np.testing.assert_allclose(est.position, state.uav_pos, atol=1e-9)


def test_qr_invisible_above_max_height():
    cfg = calm_scenario(uav_start=(1.0, 2.0, 6.0))
    world = SimWorld(cfg)
    assert world.sense_qr(world.initial_state()) == []


def test_cargo_detection_boresight():
    cfg = calm_scenario()
    cargo = cfg.cargoes[0]
    cfg = calm_scenario(uav_start=(cargo.position[0], cargo.position[1],
                                   cargo.position[2] + 5.0))
    world = SimWorld(cfg)
    dets = world.sense_cargo(world.initial_state())
    assert len(dets) == 1
    assert dets[0].image_center[0] == pytest.approx(0.0, abs=1e-12)
    assert dets[0].image_center[1] == pytest.approx(0.0, abs=1e-12)


def test_cargo_detection_suppressed_when_filling_view():
    cfg = calm_scenario()
    cargo = cfg.cargoes[0]
    cfg = calm_scenario(uav_start=(cargo.position[0], cargo.position[1],
                                   cargo.position[2] + 0.05))
    world = SimWorld(cfg)
    assert world.sense_cargo(world.initial_state()) == []


def test_cargo_confidence_fluctuates():
    cfg = ScenarioConfig(uav_start=(8.0, 0.0, 5.0), det_dropout=0.0,
                         wind_sigma=0.0, wind_mean=(0.0, 0.0))
    world = SimWorld(cfg)
    state = world.initial_state()
    confs = {world.sense_cargo(state)[0].confidence for _ in range(10)}
    assert len(confs) > 1


def test_imu_reports_body_acceleration():
    world = SimWorld(calm_scenario())
    state = world.initial_state()
    state = world.step(state, np.array([0.5, 0.0, 0.0, 0.0]), 0.02)
    a_body, roll, pitch = world.sense_imu(state)
    assert roll == state.uav_euler.roll
    assert pitch == state.uav_euler.pitch
    assert len(a_body) == 3
    assert a_body[0] > 0.1  # accelerating forward


def test_step_rejects_bad_inputs():
    world = SimWorld(calm_scenario())
    state = world.initial_state()
    with pytest.raises(ValueError):
        world.step(state, np.array([np.nan, 0, 0, 0]), 0.02)
    with pytest.raises(ValueError):
        world.step(state, np.zeros(4), 0.5)


def test_ground_contact_freezes_vehicle():
    world = SimWorld(calm_scenario())
    state = world.touch_down(world.initial_state(), 0.0)  # on the pad
    assert state.on_ground
    s2 = world.step(state, np.array([0.2, 0.0, -0.1, 0.0]), 0.02)
    np.testing.assert_array_equal(s2.uav_pos, state.uav_pos)
    assert s2.on_ground
    # a climb command releases the contact
    s3 = world.step(s2, np.array([0.0, 0.0, 0.3, 0.0]), 0.02)
    assert not s3.on_ground
