"""The vectors handed from stage to stage are tuples of Python floats.

The world state (its rotor speeds included), the IMU acceleration, every
pose estimate, the cargo track, the executive's command and hover windows
and the coverage waypoints cross a stage boundary each tick, and each
flight's two label filters keep their state as lists of floats; a numpy
array or a numpy scalar there means one stage wraps what the next must
unwrap.  The config types hold floats too (see test_config), so that ==
on them is exact.  The per-tick values (the world state, the executive's
inputs and its command) and the world's readings (each marker sighting
and cargo candidate) are immutable named tuples: a stage that wants
another value builds one, or a changed copy with ``_replace``.
"""

import math

import numpy as np
import pytest

from cargosim.control import VELOCITY_LIMITS
from cargosim.hybrid_localizer import HybridState, arbitrate
from cargosim.mission import STOP, MissionConfig, TickCommand, TickInputs
from cargosim.perception import CargoTrack, DetectionObservation, smooth_track
from cargosim.planner import plan_coverage
from cargosim.qr_localization import PoseEstimate, QrObservation, estimate_pose
from cargosim.runner import Command, Flight, run_mission
from cargosim.sim_world import ScenarioConfig, SimState, SimWorld
from cargosim.uwb_localization import fuse_labels

from conftest import calm_scenario


def _assert_floats(v, n):
    assert type(v) is tuple and len(v) == n, v
    assert all(type(x) is float for x in v), [type(x) for x in v]


def _assert_state(state):
    for name, n in (("uav_pos", 3), ("uav_vel", 3), ("uav_acc", 3),
                    ("wind_vel", 2), ("wind_trim", 2), ("rotor_speeds", 4)):
        _assert_floats(getattr(state, name), n)


def test_world_vectors_are_float_tuples():
    world = SimWorld(ScenarioConfig(seed=4))
    state = world.initial_state()
    _assert_state(state)
    flying = world.step(state, (0.5, -0.2, 0.4, 0.1), 0.02)
    _assert_state(flying)
    a_body, _, _ = world.sense_imu(flying)
    _assert_floats(a_body, 3)
    grounded = world.step(state, (0.0, 0.0, 0.0, 0.0), 0.02)  # at rest on the pad
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
    qr = estimate_pose(obs, {m.label: m for m in cfg.qr_markers}, cfg.qr_focal,
                       state.platform_attitude, (0.0, 0.0))
    _assert_floats(qr.position, 3)
    labels = [[1.0, 2.2, 2.5], [1.0, 1.8, 2.5]]
    uwb = fuse_labels(labels, 0.2)
    _assert_floats(uwb.position, 3)
    st = HybridState()
    for source in (None, qr, qr):
        out, _ = arbitrate(source, uwb, st)
        _assert_floats(out.position, 3)


@pytest.mark.parametrize("seeds", [[0], [0, 1, 2]])
def test_label_filters_hand_each_flight_two_rows_of_floats(seeds):
    flights = [Flight(ScenarioConfig(seed=s), MissionConfig(), 0.02, False)
               for s in seeds]
    for _ in range(2):  # the initialising step, then predict and update
        for f in flights:  # interleaved: each flight owns its filters
            a_body, roll, pitch = f.world.sense_imu(f.state)
            est, _ = f.localizer.step(
                f.state.platform_attitude, a_body, roll, pitch,
                f.world.sense_uwb(f.state), f.world.sense_qr(f.state))
            _assert_floats(est.position, 3)
            filters = f.localizer.filters
            assert type(filters) is list and len(filters) == 2, filters
            for mean, cov in filters:  # each filter is floats
                assert [type(x) for x in mean] == [float] * 6
                assert [type(x) for x in cov] == [float] * 21
    owned = [id(f.localizer.filters) for f in flights]
    assert len(set(owned)) == len(flights)


def test_every_command_is_a_body_error_or_an_open_loop_velocity(monkeypatch):
    commands = []
    step = Command.step

    def recorded(self, cmd, t):
        commands.append(cmd)
        return step(self, cmd, t)
    monkeypatch.setattr(Command, "step", recorded)
    summary, records = run_mission(
        calm_scenario(platform_roll_amp=math.radians(8.0),
                      platform_pitch_amp=math.radians(10.0)),
        MissionConfig(), seed=3)
    assert summary.final_phase == "done" and len(commands) == len(records)
    for cmd in commands:
        assert (cmd.error is None) != (cmd.velocity is None), cmd
        assert (cmd.gains is None) == (cmd.error is None), cmd
        _assert_floats(cmd.velocity if cmd.error is None else cmd.error, 4)
        if cmd.velocity is not None:  # flown as given: within the limits
            assert all(abs(v) <= limit
                       for v, limit in zip(cmd.velocity, VELOCITY_LIMITS)), cmd
        if cmd.feedforward is not None:
            _assert_floats(cmd.feedforward, 3)
    # the flight servos on the cargo track and descends blind
    assert any(cmd.velocity is not None for cmd in commands)
    assert any(cmd.feedforward is not None for cmd in commands)


def test_hover_windows_hold_float_tuples():
    flight = Flight(calm_scenario(), MissionConfig(), 0.02, False)
    executive = flight.executive
    while not executive._post_window:  # through the landing to the verify hover
        assert flight.tick(), flight.executive.abort_reason
    assert executive._pre_window and executive.pre_effort is not None
    for speeds in (*executive._pre_window, *executive._post_window):
        _assert_floats(speeds, 4)
    assert type(executive.pre_effort) is float


def test_cargo_track_is_float_tuples():
    track = CargoTrack()
    _assert_floats(track.velocity, 3)
    for k in range(8):
        track = smooth_track(track, (0.1 + 0.01 * k, -0.2, -1.5), 1.0 / 21.3)
        _assert_floats(track.position, 3)
        _assert_floats(track.velocity, 3)


def test_coverage_waypoints_are_float_tuples():
    path = plan_coverage(deck_size=(10.0, 6.0), deck_center=(3.0, -2.0),
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
    (np.array([0.0, 0.0, 1.0]), 0.0),
    ([0.0, 0.0, 1.0], 0.0),
    ((0.0, 1.0), 0.0),
])
def test_pose_estimate_rejects_non_finite(position, yaw):
    with pytest.raises(ValueError, match=r"^pose estimate must be a finite "
                                         r"\(x, y, z\) tuple and yaw$"):
        PoseEstimate(position=position, yaw=yaw, source="uwb")


def _tick_values():
    world = SimWorld(ScenarioConfig(seed=4))
    state = world.initial_state()
    estimate = PoseEstimate(position=(1.0, 2.0, 0.0), yaw=0.0, source="uwb")
    inputs = TickInputs(t=state.t, estimate=estimate, track=CargoTrack(),
                        rotor_speeds=state.rotor_speeds, on_ground=state.on_ground)
    # a marker sighting and a cargo candidate, each as the world makes it
    sighting = world.sense_qr(state._replace(uav_pos=(1.0, 2.0, 1.5)))[0]
    x, y, z = world.cfg.cargoes[0].position
    candidate, = world.sense_cargo(state._replace(uav_pos=(x, y, z + 3.0)))
    return state, inputs, TickCommand(velocity=STOP, events=("a",)), sighting, candidate


@pytest.mark.parametrize("index, kind", [(0, SimState), (1, TickInputs),
                                         (2, TickCommand), (3, QrObservation),
                                         (4, DetectionObservation)])
def test_tick_values_are_immutable(index, kind):
    value = _tick_values()[index]
    assert type(value) is kind
    for name in kind._fields:
        with pytest.raises(AttributeError):
            setattr(value, name, getattr(value, name))
    with pytest.raises(AttributeError):  # no room for a field it lacks
        value.extra = 1.0
    name = kind._fields[0]
    changed = value._replace(**{name: "other"})
    assert getattr(changed, name) == "other" and getattr(value, name) != "other"
    assert changed[1:] == value[1:]


def test_a_state_s_rotor_effort_is_its_sum_of_squares():
    state = SimWorld(ScenarioConfig(seed=4)).initial_state()._replace(
        rotor_speeds=(1.0, 2.0, 3.0, 4.0))
    assert state.rotor_sum_sq == 30.0
    assert state._replace(t=1.0).rotor_sum_sq == 30.0
