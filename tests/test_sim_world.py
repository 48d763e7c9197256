import copy
import math
from dataclasses import replace

import numpy as np
import pytest

from cargosim.frames import EulerAngles, wrap_angle
from cargosim.planner import plan_coverage
from cargosim.qr_localization import QrMarker, estimate_pose
from cargosim.sim_world import CargoSpec, ScenarioConfig, SimWorld

from conftest import calm_scenario

AIRBORNE = (1.0, 2.0, 2.0)  # 2 m above the pad: no contact in the tests below


def test_scenario_validation():
    with pytest.raises(ValueError):
        ScenarioConfig(anchors=np.array([[0, 0, 0], [1, 0, 0], [2, 0, 0]]))
    with pytest.raises(ValueError):
        ScenarioConfig(label_baseline=0.0)
    with pytest.raises(ValueError):
        CargoSpec(position=(0, 0, 0), mass=-1.0, top_diagonal=0.3)


def test_hover_equilibrium():
    world = SimWorld(calm_scenario(uav_start=AIRBORNE))
    state = world.initial_state()
    first_sum = state.rotor_sum_sq
    for _ in range(100):
        state = world.step(state, np.zeros(4), 0.02)
    assert not state.on_ground
    np.testing.assert_allclose(state.uav_pos, world.cfg.uav_start, atol=1e-12)
    assert state.rotor_sum_sq == pytest.approx(first_sum, rel=1e-12)


def test_zero_command_altitude_drift_over_minute():
    world = SimWorld(calm_scenario(uav_start=AIRBORNE))
    state = world.initial_state()
    z0 = state.uav_pos[2]
    for _ in range(3000):  # 60 s at 50 Hz
        state = world.step(state, np.zeros(4), 0.02)
    assert not state.on_ground
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
    world = SimWorld(calm_scenario(uav_start=AIRBORNE))
    state = world.initial_state()
    for _ in range(400):  # 8 s >> the 0.3 s lag and the 1 s trim constant
        state = world.step(state, np.array([0.5, 0.0, 0.0, 0.0]), 0.02)
    assert state.uav_vel[0] == pytest.approx(0.5, abs=0.01)


def test_a_lag_faster_than_the_step_settles_within_it():
    # an Euler step of a 1 ns lag would overshoot its target 2e7-fold
    world = SimWorld(calm_scenario(vel_time_constant=1e-9, trim_tau=1e-9, wind_tau=1e-9,
                                   wind_mean=(12.0, 0.0), wind_sigma=2.0,
                                   uav_start=AIRBORNE))
    state = world.initial_state()
    for _ in range(3):
        state = world.step(state, np.array([0.5, 0.0, 0.0, 0.0]), 0.02)
        assert state.uav_vel[0] == pytest.approx(0.5, rel=1e-12)
        assert abs(state.wind_vel[0] - 12.0) < 2.0  # one gust of 0.28 m/s per sigma


def test_platform_attitude_is_finite_for_the_shortest_period():
    world = SimWorld(calm_scenario(platform_roll_amp=0.1, platform_roll_period=5e-324,
                                   platform_pitch_amp=0.1, platform_pitch_period=1e-300,
                                   uav_start=AIRBORNE))
    state = world.step(world.initial_state(), np.zeros(4), 0.02)
    assert math.isfinite(state.platform_attitude.roll)
    assert math.isfinite(state.platform_attitude.pitch)


def test_steady_wind_is_trimmed_out():
    # the velocity loop's trim integrator cancels constant wind; only
    # gusts leak through, so with zero gusts the hover drift stays small
    world = SimWorld(calm_scenario(wind_mean=(12.0, 0.0), uav_start=AIRBORNE))
    state = world.initial_state()
    for _ in range(500):
        state = world.step(state, np.zeros(4), 0.02)
    assert not state.on_ground
    assert abs(state.uav_vel[0]) < 0.05


def test_attach_raises_rotor_effort_by_mass_ratio():
    cfg = calm_scenario()
    cfg = replace(cfg, uav_start=cfg.cargoes[0].position)  # on the top face
    world = SimWorld(cfg)
    state = world.step(world.initial_state(), np.zeros(4), 0.02)
    assert state.on_ground
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


@pytest.mark.parametrize("grounded", [True, False])
def test_off_the_top_face_nothing_attaches_and_one_draw_is_taken(grounded):
    # grounded on the deck just beside the top face, or hovering 0.5 m
    # straight above it: a sure adsorption attaches nothing
    cfg = calm_scenario(seed=8)
    cx, cy, top = cfg.cargoes[0].position
    start = (cx + 0.51 * cfg.cargoes[0].top_diagonal, cy, cfg.deck_height) \
        if grounded else (cx, cy, top + 0.5)
    world, twin = (SimWorld(replace(cfg, uav_start=start)) for _ in range(2))
    state = world.step(world.initial_state(), (0.0, 0.0, 0.0, 0.0), 0.02)
    twin.step(twin.initial_state(), (0.0, 0.0, 0.0, 0.0), 0.02)
    assert state.on_ground is grounded
    assert world.attach_cargo(state, 1.0).attached_mass == 0.0
    twin.rng.random()
    assert world.rng.random() == twin.rng.random()


NOISES = ("qr_image_noise", "qr_yaw_noise", "qr_dropout", "det_pos_noise",
          "det_yaw_noise", "det_dropout", "wind_sigma", "sigma_uwb", "rotor_noise")


def test_a_noise_level_never_changes_what_the_world_draws():
    # hovering where the camera sees the markers and the detector the
    # cargo, on a moving platform, so every sensor draws
    states = []
    seen = {"qr": 0, "cargo": 0}
    for level in (0.0, 1e-300):
        world = SimWorld(calm_scenario(
            uav_start=(4.5, 1.0, 4.5), platform_roll_amp=math.radians(8.0),
            platform_pitch_amp=math.radians(10.0),
            **{name: level for name in NOISES}))
        state = world.initial_state()
        for _ in range(200):
            world.sense_uwb(state)
            seen["qr"] += bool(world.sense_qr(state))
            seen["cargo"] += bool(world.sense_cargo(state))
            state = world.step(state, (0.0, 0.0, 0.0, 0.05), 0.02)
        states.append(world.rng.bit_generator.state)
    assert seen["qr"] > 0 and seen["cargo"] > 0, seen
    assert states[0] == states[1]


@pytest.mark.parametrize("seed", [0, 3, 93])
def test_normal_is_loc_plus_scale_times_a_standard_draw(seed):
    # SimWorld.step draws the rotor noise with the gust as standard normals
    # and scales each itself, in Python floats
    for loc, scale in ((17.3, 0.02), (0.0, 1.0), (13.9, 0.0), (-2.5, 7.0)):
        drawn, scaled = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(500):
            want = drawn.normal(loc, scale, 4)
            got = [loc + scale * n for n in scaled.standard_normal(4).tolist()]
            assert np.array(got).tobytes() == want.tobytes()
        assert drawn.bit_generator.state == scaled.bit_generator.state


def test_the_rotor_noise_is_the_draw_normal_makes():
    # one standard_normal(6) per step: the gust's two, then the rotors' four
    world = SimWorld(ScenarioConfig(seed=5, rotor_noise=0.5))
    state = world.initial_state()  # on the pad: no vertical acceleration
    mirror = copy.deepcopy(world.rng)
    after = world.step(state, (0.0, 0.0, 0.0, 0.0), 0.02)
    mirror.standard_normal(2)
    hover = math.sqrt(world.cfg.uav_mass * 9.81 / 4.0)
    assert after.rotor_speeds == tuple(mirror.normal(hover, 0.5, 4).tolist())
    assert world.rng.bit_generator.state == mirror.bit_generator.state


def test_a_silent_rotor_still_draws():
    # rotor_noise = 0 gives the exact speeds, and takes the same draws as
    # the default noise, so it leaves the generator where a default world does
    loud, silent = SimWorld(ScenarioConfig(seed=7)), \
        SimWorld(ScenarioConfig(seed=7, rotor_noise=0.0))
    states = [loud.initial_state(), silent.initial_state()]
    for k in range(50):
        cmd = (0.2, -0.1, 0.3 if k < 25 else -0.2, 0.05)
        states = [loud.step(states[0], cmd, 0.02), silent.step(states[1], cmd, 0.02)]
        assert loud.rng.bit_generator.state == silent.rng.bit_generator.state
        speeds = states[1].rotor_speeds
        assert len(set(speeds)) == 1 and speeds != states[0].rotor_speeds
    assert states[0]._replace(rotor_speeds=None) == states[1]._replace(rotor_speeds=None)


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


def test_support_height_turns_the_deck_by_deck_yaw():
    # the 4 x 4 m deck at (8, 0) turned by 45 degrees as the coverage plan
    # turns it: (9.838, 1.838) is at (2.6, 0) on the deck, off its edge,
    # and (10.687, 0) is at (1.9, -1.9), on it
    cfg = ScenarioConfig(deck_yaw=math.radians(45.0))
    world = SimWorld(cfg)
    assert world.support_height(9.838, 1.838) == 0.0
    assert world.support_height(10.687, 0.0) == cfg.deck_height


def test_the_deck_turns_counter_clockwise_like_every_other_yaw():
    # the deck point (2.5, 0.5) of a 6 x 2 m deck at (8, 0) turned by 30
    # degrees lies at centre + R (2.5, 0.5); turned the other way, it would
    # lie at centre + R.T (2.5, 0.5), which is off this deck
    yaw = math.radians(30.0)
    cfg = ScenarioConfig(deck_size=(6.0, 2.0), deck_yaw=yaw)
    world = SimWorld(cfg)
    c, s = math.cos(yaw), math.sin(yaw)
    assert world.support_height(8.0 + c * 2.5 - s * 0.5, s * 2.5 + c * 0.5) == \
        cfg.deck_height
    assert world.support_height(8.0 + c * 2.5 + s * 0.5, -s * 2.5 + c * 0.5) == 0.0


@pytest.mark.parametrize("deck_yaw", [0.6, -1.2, 2.5])
def test_every_waypoint_of_a_yawed_plan_lies_over_the_deck(deck_yaw):
    cfg = ScenarioConfig(deck_center=(20.0, 5.0), deck_size=(6.5, 2.5),
                         deck_yaw=deck_yaw)
    world = SimWorld(cfg)
    waypoints = plan_coverage(deck_size=cfg.deck_size, deck_center=cfg.deck_center,
                              deck_yaw=cfg.deck_yaw, altitude_above_deck=0.5,
                              v_fov=math.pi / 2, h_fov=math.pi / 2)
    assert len(waypoints) == 7 * 3  # cells of a hair under 1 m
    for x, y, _ in waypoints:
        assert world.support_height(x, y) == cfg.deck_height, (x, y)


def test_range_zero_at_anchor_and_345_triangle():
    anchors = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    cfg = calm_scenario(anchors=anchors, label_baseline=0.4,
                        uav_start=(3.0, 3.8, 0.0))
    world = SimWorld(cfg)
    state = world.initial_state()
    ranges = np.array(world.sense_uwb(state))
    assert ranges.shape == (2, 3)  # (labels, anchors)
    # label 0 sits at uav + (0, 0.2, 0) = (3, 4, 0)
    assert ranges[0, 0] == pytest.approx(5.0, abs=1e-12)
    cfg2 = calm_scenario(anchors=anchors, uav_start=(0.0, -0.2, 0.0))
    world2 = SimWorld(cfg2)
    r2 = np.array(world2.sense_uwb(world2.initial_state()))
    assert r2[0, 0] == pytest.approx(0.0, abs=1e-12)


def _noise_free_ranges(cfg, state):
    """The ranges of the same state from a twin world without range noise."""
    return np.array(SimWorld(replace(cfg, sigma_uwb=0.0)).sense_uwb(state))


def test_range_noise_sigma_calibrated():
    cfg = calm_scenario(sigma_uwb=0.10, uav_start=(0.5, 0.5, 1.0))
    world = SimWorld(cfg)
    state = world.initial_state()
    true_d = _noise_free_ranges(cfg, state)
    residuals = []
    while len(residuals) < 100_000:
        residuals.extend((np.array(world.sense_uwb(state)) - true_d).ravel())
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
        res = [np.array(world.sense_uwb(state)) - true_d for _ in range(500)]
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
    est = estimate_pose(obs, markers, cfg.qr_focal, state.platform_attitude,
                        (state.uav_euler.roll, state.uav_euler.pitch))
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


def test_a_half_turn_sees_the_cargo_as_before():
    # the field of view is symmetric about both camera axes, so a heading
    # and its half turn see the cargo from the same places
    world = SimWorld(calm_scenario())
    cx, cy, top = world.cfg.cargoes[0].position
    rng = np.random.default_rng(34)
    state, seen = world.initial_state(), 0
    for _ in range(400):
        dx, dy, psi = rng.uniform(-8.0, 8.0), rng.uniform(-8.0, 8.0), rng.uniform(-3.0, 3.0)
        at = state._replace(uav_pos=(cx + dx, cy + dy, top + rng.uniform(0.5, 6.0)))
        ahead = world.sense_cargo(at._replace(uav_euler=EulerAngles(0.0, 0.0, psi)))
        turned = world.sense_cargo(at._replace(
            uav_euler=EulerAngles(0.0, 0.0, wrap_angle(psi + math.pi))))
        assert bool(ahead) is bool(turned), (dx, dy, psi)
        seen += bool(ahead)
    assert 50 < seen < 350


def test_cargo_detection_suppressed_when_filling_view():
    cfg = calm_scenario()
    cargo = cfg.cargoes[0]
    cfg = calm_scenario(uav_start=(cargo.position[0], cargo.position[1],
                                   cargo.position[2] + 0.05))
    world = SimWorld(cfg)
    assert world.sense_cargo(world.initial_state()) == []


def test_an_image_too_small_for_a_float_is_not_reported():
    # f D / depth underflows to 0: 1e-300 * 0.6 / 1e30
    cargo = calm_scenario().cargoes[0]
    for x, y, sense in ((1.0, 2.0, SimWorld.sense_qr),
                        (cargo.position[0], cargo.position[1], SimWorld.sense_cargo)):
        for height, seen in ((2.5, True), (1e30, False)):
            world = SimWorld(calm_scenario(uav_start=(x, y, height), qr_max_height=1e31,
                                           qr_focal=1e-300, det_focal=1e-300))
            assert bool(sense(world, world.initial_state())) == seen


def test_cargo_confidence_fluctuates():
    cfg = ScenarioConfig(uav_start=(8.0, 0.0, 5.0), det_dropout=0.0,
                         wind_sigma=0.0, wind_mean=(0.0, 0.0))
    world = SimWorld(cfg)
    state = world.initial_state()
    confs = {world.sense_cargo(state)[0].confidence for _ in range(10)}
    assert len(confs) > 1


IMAGE_NOISES = ("qr_image_noise", "qr_yaw_noise", "det_pos_noise", "det_yaw_noise",
                "det_conf_jitter")


@pytest.mark.parametrize("scale", [1.0, 100.0])
def test_every_reading_the_world_makes_is_in_range(scale):
    # the world alone checks its readings: whatever the noise, each sighting
    # names a known marker, and each image has a positive diagonal, a finite
    # centre and yaw and, for a cargo candidate, a confidence in [0, 1]
    default = ScenarioConfig()
    cfg = replace(default, **{name: scale * getattr(default, name)
                              for name in IMAGE_NOISES})
    world = SimWorld(cfg)
    labels = {m.label for m in cfg.qr_markers}
    cargo = cfg.cargoes[0].position
    rng = np.random.default_rng(31)
    tilt = math.radians(15.0)
    sightings, candidates, confidences = 0, 0, set()
    for k in range(600):
        x, y, top = (1.0, 2.0, 0.0) if k % 2 else cargo  # over the panel or the cargo
        state = world.initial_state()._replace(
            uav_pos=(x + rng.uniform(-2.0, 2.0), y + rng.uniform(-2.0, 2.0),
                     top + rng.uniform(0.2, 6.0)),
            uav_euler=EulerAngles(*rng.uniform(-tilt, tilt, 2),
                                  rng.uniform(-math.pi, math.pi)),
            platform_attitude=EulerAngles(*rng.uniform(-tilt, tilt, 2),
                                          rng.uniform(-math.pi, math.pi)))
        for obs in world.sense_qr(state):
            sightings += 1
            assert obs.label in labels, obs
            assert obs.image_diagonal > 0.0 and math.isfinite(obs.image_diagonal), obs
            assert all(map(math.isfinite, (*obs.image_center, obs.image_yaw))), obs
        for det in world.sense_cargo(state):
            candidates += 1
            confidences.add(det.confidence)
            assert 0.0 <= det.confidence <= 1.0, det
            assert det.box_diagonal > 0.0 and math.isfinite(det.box_diagonal), det
            assert all(map(math.isfinite, (*det.image_center, det.box_yaw))), det
    assert sightings > 100 and candidates > 100, (sightings, candidates)
    # a hundredfold jitter spreads the confidence past both ends of [0, 1]
    assert ({0.0, 1.0} <= confidences) == (scale > 1.0)


def test_imu_reports_body_acceleration():
    world = SimWorld(calm_scenario(uav_start=AIRBORNE))
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
    state = world.step(world.initial_state(), np.zeros(4), 0.02)  # on the pad
    assert state.on_ground
    s2 = world.step(state, np.array([0.2, 0.0, -0.1, 0.0]), 0.02)
    np.testing.assert_array_equal(s2.uav_pos, state.uav_pos)
    assert s2.on_ground
    # a climb command releases the contact
    s3 = world.step(s2, np.array([0.0, 0.0, 0.3, 0.0]), 0.02)
    assert not s3.on_ground


def _surfaces():
    cfg = ScenarioConfig()
    cx, cy, top = cfg.cargoes[0].position
    return {"pad": (*cfg.uav_start[:2], 0.0),
            "deck": (cfg.deck_center[0] + 1.0, cfg.deck_center[1], cfg.deck_height),
            "cargo_top": (cx, cy, top)}


@pytest.mark.parametrize("surface", ["pad", "deck", "cargo_top"])
@pytest.mark.parametrize("height, grounds", [(0.02, True), (0.0, True), (0.03, False)])
def test_step_grounds_a_vehicle_that_sinks_to_within_two_centimeters(
        surface, height, grounds):
    # one step of a 0.1 m/s descent sinks 0.13 mm from `height`
    x, y, z = _surfaces()[surface]
    world = SimWorld(calm_scenario(uav_start=(x, y, z + height)))
    state = world.step(world.initial_state(), (0.0, 0.0, -0.1, 0.0), 0.02)
    assert state.uav_pos[2] - z <= 0.02 if grounds else state.uav_pos[2] - z > 0.02
    assert state.on_ground is grounds
    if grounds:
        assert state.uav_vel == (0.0, 0.0, 0.0)
        held = world.step(state, (0.5, 0.0, -0.1, 0.0), 0.02)
        assert held.on_ground and held.uav_pos == state.uav_pos
    else:
        assert state.uav_vel[2] < 0.0


@pytest.mark.parametrize("surface", ["pad", "deck", "cargo_top"])
def test_a_climbing_command_never_grounds(surface):
    # sinking at 1 m/s through the surface, but commanded up
    x, y, z = _surfaces()[surface]
    world = SimWorld(calm_scenario(uav_start=(x, y, z + 0.01)))
    state = world.initial_state()._replace(uav_vel=(0.0, 0.0, -1.0))
    for _ in range(3):
        state = world.step(state, (0.0, 0.0, 0.3, 0.0), 0.02)
        assert not state.on_ground
    assert state.uav_pos[2] < z and state.uav_vel[2] < 0.0


@pytest.mark.parametrize("axis, fov", [(0, "h_fov"), (1, "v_fov")])
@pytest.mark.parametrize("scale, seen", [(1 - 1e-6, True), (1 + 1e-6, False)])
def test_both_cameras_see_to_the_edge_of_their_field_of_view(axis, fov, scale, seen):
    # a target straight ahead but for an offset of tan(fov / 2) * depth
    # along one camera axis, scaled just inside or just outside that edge
    depth = 2.0
    cfg = calm_scenario()
    offset = [0.0, 0.0]
    offset[axis] = math.tan(getattr(cfg, "qr_" + fov) / 2) * depth * scale
    marker = QrMarker(label=1, diagonal=0.3, panel_xy=(0.0, 0.0))
    world = SimWorld(calm_scenario(qr_markers=[marker],
                                   uav_start=(-offset[0], -offset[1], depth)))
    assert bool(world.sense_qr(world.initial_state())) is seen
    cx, cy, top = cfg.cargoes[0].position
    offset[axis] = math.tan(getattr(cfg, "det_" + fov) / 2) * depth * scale
    world = SimWorld(calm_scenario(uav_start=(cx - offset[0], cy - offset[1],
                                              top + depth)))
    assert bool(world.sense_cargo(world.initial_state())) is seen


def _yaw_walk(walk, yaw):
    """A world with a platform yaw walk, and its first state turned to `yaw`."""
    world = SimWorld(calm_scenario(platform_yaw_walk=walk, uav_start=AIRBORNE))
    state = world.initial_state()
    return world, state._replace(platform_attitude=replace(
        state.platform_attitude, yaw=yaw))


def test_the_platform_yaw_walks_on_from_the_state():
    world, state = _yaw_walk(1e-9, 1.0)
    assert world.step(state, np.zeros(4), 0.02).platform_attitude.yaw == \
        pytest.approx(1.0, abs=1e-6)


def test_stepping_one_state_twice_walks_each_from_that_state():
    # the walk is the step's first draw, so a copy of the generator
    # taken before a step draws that step's increment
    walk, dt = 0.5, 0.02
    world, state = _yaw_walk(walk, 1.0)
    for _ in range(2):
        n = copy.deepcopy(world.rng).standard_normal()
        yaw = world.step(state, np.zeros(4), dt).platform_attitude.yaw
        assert yaw == 1.0 + walk * math.sqrt(dt) * n


def test_a_long_walk_keeps_the_platform_yaw_wrapped_and_continuous():
    # 60 s at 2 rad/sqrt(s) from yaw pi: about 15 rad of spread, so the
    # walk crosses the wrap many times, and no step jumps across it
    walk, dt = 2.0, 0.02
    world, state = _yaw_walk(walk, math.pi)
    for _ in range(3000):
        before = state.platform_attitude.yaw
        state = world.step(state, np.zeros(4), dt)
        yaw = state.platform_attitude.yaw
        assert -math.pi < yaw <= math.pi
        assert abs(wrap_angle(yaw - before)) < 6.0 * walk * math.sqrt(dt)
