import math

import numpy as np
import pytest

from cargosim.control import PHASE_GAINS, VELOCITY_LIMITS, PidGains
from cargosim.mission import (BLIND_DESCENT_SPEED, BOUNCE_CLEARANCE, STAGES,
                              VERIFY_HEIGHT, MissionConfig, MissionExecutive,
                              MissionPhase, TickInputs, attachment_check)
from cargosim.perception import CargoTrack
from cargosim.qr_localization import PoseEstimate
from cargosim.runner import DT
from cargosim.sim_world import CargoSpec, vehicle_knowledge

from conftest import calm_scenario


def _effort(mass):
    """The hover effort of four rotors that each carry a quarter of `mass`."""
    speeds = np.full(4, math.sqrt(mass * 9.81 / 4.0))
    return float(np.dot(speeds, speeds))


def _est(x, y, z, yaw=0.0):
    return PoseEstimate(position=(float(x), float(y), float(z)), yaw=yaw,
                        source="uwb")


def _inputs(t, est, track=None, rotors=None, on_ground=False):
    return TickInputs(t=t, estimate=est,
                      track=track if track is not None else CargoTrack(),
                      rotor_speeds=rotors if rotors is not None
                      else (100.0,) * 4,
                      on_ground=on_ground)


# --- attachment determination ---------------------------------------

def test_attachment_identical_telemetry_false():
    effort = _effort(7.9)
    assert attachment_check(effort, effort, 0.05) is False


def test_attachment_mass_ratio_example():
    pre, post = _effort(7.9), _effort(8.79)
    assert post / pre == pytest.approx(8.79 / 7.9, rel=1e-9)
    assert attachment_check(pre, post, 0.05) is True
    assert attachment_check(pre, post, 0.20) is False


def test_attachment_rejects_empty_pre_window():
    with pytest.raises(ValueError):
        attachment_check(0.0, _effort(8.0), 0.05)


def test_mission_config_validation():
    with pytest.raises(ValueError):
        MissionConfig(attach_delta=0.0)
    with pytest.raises(ValueError):
        MissionConfig(hover_window=-1.0)
    for floor in (0.0, -1.0, 6.5):
        with pytest.raises(ValueError, match="min_search_altitude"):
            MissionConfig(min_search_altitude=floor)
    MissionConfig(min_search_altitude=6.0)  # the search altitude itself
    for fence in ((14.0, -6.0, -8.0, 8.0), (-6.0, 14.0, 8.0, 8.0)):
        with pytest.raises(ValueError, match="^geofence must hold xmin < xmax"):
            MissionConfig(geofence=fence)
    search = PHASE_GAINS["search"]
    for gains in ({"search": search}, {**PHASE_GAINS, "hover": search},
                  {**PHASE_GAINS, "land": (0.3, 0.001, 0.05)}, None):
        with pytest.raises(ValueError, match="^gains must map each of takeoff, "):
            MissionConfig(gains=gains)
    MissionConfig(gains={**PHASE_GAINS, "search": PidGains(kp=0.9, ki=0.0, kd=0.1)})


# --- phase sequencing ------------------------------------------------

def _knows(**scenario_overrides):
    return vehicle_knowledge(calm_scenario(**scenario_overrides))


def _executive(**mission_overrides):
    return MissionExecutive(MissionConfig(**mission_overrides), _knows(), DT)


def test_a_world_setpoint_error_is_flown_in_the_heading_frame():
    # a world setpoint error is flown in the heading frame: rotated by the
    # estimate's yaw alone, whatever the altitude error
    ex = _executive()
    for target, est, want in (((1.0, 0.0, 0.0), _est(0.0, 0.0, 0.0), (1.0, 0.0, 0.0)),
                              ((1.0, 0.0, 0.0), _est(1.0, 0.0, 0.0), (0.0, 0.0, 0.0)),
                              ((1.0, 0.0, 2.0), _est(0.0, 0.0, 0.0, yaw=math.pi / 2),
                               (0.0, -1.0, 2.0))):
        cmd = ex._world(est, target, est.yaw, "search", [])
        np.testing.assert_allclose(cmd.error[:3], want, atol=1e-15)
        assert cmd.error[3] == 0.0 and cmd.gains is PHASE_GAINS["search"]


def test_the_phase_is_the_stage_s_phase_and_read_only():
    ex = _executive()
    for stage, phase in STAGES.items():
        ex.stage = stage
        assert ex.phase is phase
    with pytest.raises(AttributeError):
        ex.phase = MissionPhase.LAND


def test_takeoff_holds_pad_position_laterally():
    ex = _executive()
    cmd = ex.tick(_inputs(0.0, _est(1.0, 2.0, 0.5)))
    assert ex.phase is MissionPhase.TAKEOFF
    assert cmd.velocity is None
    # the pad (1, 2) at the search altitude 6, seen from (1, 2, 0.5) at yaw 0
    assert cmd.error == pytest.approx((0.0, 0.0, 5.5, 0.0))


def test_a_world_setpoint_is_rotated_into_the_body_frame():
    # 1 m short of the pad along world -x, heading along world +y: the pad
    # lies to the vehicle's right (body -y), and the setpoint's heading 0
    # is a quarter turn clockwise
    ex = _executive()
    cmd = ex.tick(_inputs(0.0, _est(0.0, 2.0, 0.5, yaw=math.pi / 2)))
    assert ex.stage == "takeoff" and cmd.velocity is None
    assert cmd.error == pytest.approx((0.0, -1.0, 5.5, -math.pi / 2),
                                      rel=0, abs=1e-12)


def test_takeoff_transitions_to_search_at_altitude():
    ex = _executive()
    cmd = ex.tick(_inputs(10.0, _est(1.0, 2.0, 5.95)))
    assert any(e == "phase:takeoff->search" for e in cmd.events)
    assert ex.phase is MissionPhase.SEARCH
    assert ex.path is not None


def test_search_advances_waypoints_and_replans_lower():
    ex = _executive()
    ex.stage = "search"
    ex.plan()
    assert len(ex.path.waypoints) == 1  # replica deck: single waypoint
    wp = ex.path.waypoints[0]
    cmd = ex.tick(_inputs(20.0, _est(wp[0], wp[1], 6.0)))
    assert any(e.startswith("coverage_replan") for e in cmd.events)
    assert ex.search_altitude == pytest.approx(5.0)


def test_search_at_the_floor_altitude_restarts_without_replanning():
    ex = _executive()
    ex.stage = "search"
    ex.search_altitude = ex.cfg.min_search_altitude
    ex.plan()
    wp = ex.path.waypoints[0]
    for k in range(3):  # sitting on the single waypoint, tick after tick
        cmd = ex.tick(_inputs(20.0 + 0.02 * k, _est(wp[0], wp[1], 3.0)))
        assert not any(e.startswith("coverage_replan") for e in cmd.events)
        # the waypoint at the floor altitude, where the vehicle already is
        assert cmd.error[:3] == pytest.approx((0.0, 0.0, 0.0))
    assert ex.search_altitude == ex.cfg.min_search_altitude
    assert ex.wp_index == 0


def test_search_locks_only_overhead():
    ex = _executive()
    ex.stage = "search"
    ex.plan()
    sideways = CargoTrack(locked=True)
    sideways.position = np.array([5.0, 0.0, -4.0])  # far off nadir
    cmd = ex.tick(_inputs(20.0, _est(4.0, 0.0, 6.0), track=sideways))
    assert ex.phase is MissionPhase.SEARCH

    overhead = CargoTrack(locked=True)
    overhead.position = np.array([0.2, 0.1, -4.0])
    cmd = ex.tick(_inputs(20.0, _est(8.0, 0.0, 6.0), track=overhead))
    assert ex.phase is MissionPhase.LAND
    assert any(e == "cargo_locked" for e in cmd.events)


def test_land_servo_descends_only_inside_funnel():
    ex = _executive()
    ex.stage = "servo"
    track = CargoTrack(locked=True)
    track.position = np.array([1.5, 0.0, -2.0])  # badly off to the side
    cmd = ex.tick(_inputs(30.0, _est(8.0, 0.0, 3.0), track=track))
    assert cmd.velocity is None
    assert cmd.error[2] == 0.0  # no descent while misaligned
    track.position = np.array([0.05, 0.0, -2.0])
    cmd = ex.tick(_inputs(30.1, _est(8.0, 0.0, 3.0), track=track))
    assert cmd.error[2] < 0.0


def test_land_blind_descent_after_hold():
    ex = _executive()
    ex.stage = "servo"
    track = CargoTrack(locked=True)
    track.position = np.array([0.02, 0.01, -0.15])  # centered, near hover
    t = 40.0
    events = []
    for _ in range(120):  # 2.4 s > blind hold time
        cmd = ex.tick(_inputs(t, _est(8.0, 0.0, 1.25), track=track))
        events.extend(cmd.events)
        t += 0.02
    assert "blind_descent" in events
    assert ex.pre_effort is not None
    cmd = ex.tick(_inputs(t, _est(8.0, 0.0, 1.2), track=track))
    assert cmd.error is None
    assert cmd.velocity == (0.0, 0.0, -BLIND_DESCENT_SPEED, 0.0)
    assert -VELOCITY_LIMITS[2] <= cmd.velocity[2] < 0.0  # no clamp needed


def test_land_touchdown_enters_adsorb_then_return():
    ex = _executive(adsorb_settle_time=0.5)
    ex.stage = "blind"
    cmd = ex.tick(_inputs(50.0, _est(8.0, 0.0, 1.1), on_ground=True))
    assert ex.phase is MissionPhase.ADSORB
    t = 50.0
    while ex.phase is MissionPhase.ADSORB:
        t += 0.02
        cmd = ex.tick(_inputs(t, _est(8.0, 0.0, 1.1), on_ground=True))
    assert ex.phase is MissionPhase.RETURN
    assert cmd.do_adsorb


def test_lost_target_returns_to_search():
    ex = _executive()
    ex.stage = "servo"
    ex.plan()  # a flight plans at takeoff, before it can servo
    empty = CargoTrack()  # not locked
    t = 60.0
    events = []
    for _ in range(200):  # 4 s > reacquire time
        cmd = ex.tick(_inputs(t, _est(8.0, 0.0, 4.0), track=empty))
        events.extend(cmd.events)
        t += 0.02
    assert "target_lost" in events
    assert ex.phase is MissionPhase.SEARCH


def test_bounce_recovery_climbs_clear():
    ex = _executive()
    ex.stage = "servo"
    track = CargoTrack(locked=True)
    track.position = np.array([0.3, 0.0, -0.5])
    cmd = ex.tick(_inputs(70.0, _est(8.0, 0.3, 1.15), track=track,
                          on_ground=True))
    assert any(e == "land_bounce" for e in cmd.events)
    assert cmd.error is None and 0.0 < cmd.velocity[2] <= VELOCITY_LIMITS[2]
    # stays in climb mode until clear of the cargo top
    cmd = ex.tick(_inputs(70.1, _est(8.0, 0.3, 1.3), track=track))
    assert cmd.error is None and 0.0 < cmd.velocity[2] <= VELOCITY_LIMITS[2]
    cmd = ex.tick(_inputs(70.2, _est(8.0, 0.3, 1.8), track=track))
    assert cmd.velocity is None  # back to servoing


@pytest.mark.parametrize("cargo_z", [1.1, 1.6])
def test_a_bounce_climbs_clear_of_its_contact_whatever_the_cargo_height(cargo_z):
    # the climb ends BOUNCE_CLEARANCE above the estimate at the contact: the
    # executive knows no cargo height
    cargo = CargoSpec(position=(8.0, 0.0, cargo_z), mass=0.89, top_diagonal=0.372)
    ex = MissionExecutive(MissionConfig(), _knows(cargoes=(cargo,)), DT)
    track = CargoTrack(locked=True, position=(0.3, 0.0, -0.5))
    for contact in (1.15, 2.0):
        ex.stage = "servo"
        cmd = ex.tick(_inputs(70.0, _est(8.0, 0.3, contact), track=track,
                              on_ground=True))
        assert ex.stage == "bounce" and cmd.velocity[2] > 0.0
        top = contact + BOUNCE_CLEARANCE
        cmd = ex.tick(_inputs(70.1, _est(8.0, 0.3, math.nextafter(top, 0.0)),
                              track=track))
        assert ex.stage == "bounce" and cmd.velocity[2] > 0.0
        cmd = ex.tick(_inputs(70.2, _est(8.0, 0.3, top), track=track))
        assert ex.stage == "servo" and cmd.velocity is None


def _scripted_landing_and_return(ex):
    """Tick `ex` from takeoff to done on inputs that ignore its commands;
    returns every command and the stages it passed through."""
    hover = (math.sqrt(7.9 * 9.81 / 4.0),) * 4
    loaded = (math.sqrt(8.79 * 9.81 / 4.0),) * 4
    centred = CargoTrack(locked=True, position=(0.02, 0.01, -0.12))
    script = [(_est(1.0, 2.0, 0.5), None, hover, False),  # takeoff
              (_est(1.0, 2.0, 5.9), None, hover, False),  # -> search
              (_est(7.9, 0.1, 6.0), CargoTrack(locked=True, position=(0.1, 0.1, -4.9)),
               hover, False),  # -> servo
              (_est(8.1, 0.2, 1.15), centred, hover, True)]  # contact -> bounce
    script += [(_est(8.1, 0.2, 1.2 + 0.05 * k), centred, hover, False)
               for k in range(14)]  # climbs clear, then servos
    script += [(_est(8.05, 0.05, 1.3), centred, hover, False)] * 120  # -> blind
    script += [(_est(8.04, 0.03, 1.22), None, hover, False),
               (_est(8.03, 0.02, 1.12), None, hover, True)]  # touchdown -> adsorb
    script += [(_est(8.03, 0.02, 1.12), None, hover, True)] * 30  # -> ascend
    script += [(_est(8.0, 0.0, 1.2 + 0.1 * k), None, loaded, False)
               for k in range(16)]  # -> verify
    script += [(_est(8.0, 0.0, 2.6), None, loaded, False)] * 10  # -> cruise
    script += [(_est(8.0, 0.0, 6.0), None, loaded, False),
               (_est(1.1, 2.0, 6.0), None, loaded, False),  # -> descend
               (_est(1.0, 2.0, 0.05), None, loaded, True)]  # -> done
    commands, stages = [], []
    for k, (est, track, rotors, on_ground) in enumerate(script):
        commands.append(ex.tick(_inputs(0.02 * k, est, track, rotors, on_ground)))
        stages.append(ex.stage)
    return commands, stages


def test_the_executive_flies_the_same_wherever_the_cargo_is():
    # two scenarios that differ only in where the cargo stands give one
    # record of what the vehicle knows, and the same commands tick by tick
    moved = CargoSpec(position=(9.0, 1.0, 1.6), mass=0.89, top_diagonal=0.372)
    knows = [_knows(), _knows(cargoes=(moved,))]
    assert knows[0] == knows[1]
    mission = MissionConfig(adsorb_settle_time=0.5, hover_window=0.1)
    flights = [_scripted_landing_and_return(MissionExecutive(mission, k, DT))
               for k in knows]
    assert flights[0] == flights[1]
    commands, stages = flights[0]
    assert [s for k, s in enumerate(stages) if s not in stages[:k]] == [
        "takeoff", "search", "servo", "bounce", "blind", "adsorb", "ascend",
        "verify", "cruise", "descend", "done"]
    # the thrust check hovers above the touchdown estimate (8.03, 0.02, 1.12),
    # seen from (8, 0, 2.6) on the tick that enters it
    verify = commands[stages.index("verify")]
    assert verify.error[:3] == pytest.approx((0.03, 0.02, 1.12 + VERIFY_HEIGHT - 2.6),
                                             rel=0, abs=1e-12)


def test_hover_windows_span_the_same_time_at_any_tick():
    # at dt = 0.01 the pre-adhesion window holds the last 2 s of hover,
    # 200 samples, as many as the post-adhesion verification collects
    dt = 0.01
    ex = MissionExecutive(MissionConfig(), _knows(), dt=dt)
    ex.stage = "servo"
    # near hover height, but too far off-centre to start the blind hold
    track = CargoTrack(locked=True, position=np.array([0.15, 0.0, -0.12]))
    for k in range(300):
        ex.tick(_inputs(60.0 + k * dt, _est(8.0, 0.0, 1.3), track=track))
    assert ex.stage == "servo"
    assert len(ex._pre_window) == 200

    ex.pre_effort = _effort(7.9)
    ex.stage = "verify"
    ex._verify_since = 90.0
    ex.verify_point = (8.0, 0.0, 2.6)
    k = 0
    while ex.stage == "verify":
        k += 1
        ex.tick(_inputs(90.0 + k * dt, _est(8.0, 0.0, 2.6)))
    assert len(ex._post_window) == 200


def test_hover_window_shorter_than_half_a_tick_holds_one_sample():
    ex = MissionExecutive(MissionConfig(hover_window=0.005), _knows(), dt=0.02)
    ex.stage = "servo"
    track = CargoTrack(locked=True, position=np.array([0.15, 0.0, -0.12]))
    for k in range(300):
        ex.tick(_inputs(60.0 + k * 0.02, _est(8.0, 0.0, 1.3), track=track))
    assert ex.stage == "servo"
    assert len(ex._pre_window) == 1


@pytest.mark.parametrize("dt", [0.0, -0.02, 0.2, math.nan])
def test_executive_takes_the_step_the_world_takes(dt):
    with pytest.raises(ValueError, match=r"^dt must be in \(0, 0.1\], got "):
        MissionExecutive(MissionConfig(), _knows(), dt=dt)


def test_attach_failure_reenters_land_then_aborts():
    ex = _executive(max_attach_attempts=2, hover_window=0.1)
    ex.pre_effort = _effort(7.9)
    ex.stage = "verify"
    ex._verify_since = 80.0
    ex.verify_point = (8.0, 0.0, 2.6)
    ex.attach_attempts = 1
    hover = (math.sqrt(7.9 * 9.81 / 4.0),) * 4  # unchanged: no cargo
    t = 80.0
    while ex.phase is MissionPhase.RETURN:
        t += 0.02
        cmd = ex.tick(_inputs(t, _est(8.0, 0.0, 2.6), rotors=hover))
    assert ex.phase is MissionPhase.LAND
    assert ex.attach_success is False

    # second failed verification exhausts the attempts
    ex.attach_attempts = 2
    ex.stage = "verify"
    ex._verify_since = t
    ex._post_window = []
    while ex.phase is MissionPhase.RETURN:
        t += 0.02
        ex.tick(_inputs(t, _est(8.0, 0.0, 2.6), rotors=hover))
    assert ex.phase is MissionPhase.ABORTED
    assert ex.abort_reason == "attach_retries_exhausted"


def test_successful_verify_cruises_home_and_lands():
    ex = _executive(hover_window=0.1)
    ex.pre_effort = _effort(7.9)
    ex.stage = "verify"
    ex._verify_since = 90.0
    ex.verify_point = (8.0, 0.0, 2.6)
    loaded = (math.sqrt(8.79 * 9.81 / 4.0),) * 4
    t = 90.0
    while ex.stage == "verify":
        t += 0.02
        ex.tick(_inputs(t, _est(8.0, 0.0, 2.6), rotors=loaded))
    assert ex.attach_success is True
    assert ex.stage == "cruise"
    cmd = ex.tick(_inputs(t, _est(1.1, 2.0, 6.0), rotors=loaded))
    assert ex.stage == "descend"
    cmd = ex.tick(_inputs(t, _est(1.0, 2.0, 0.05), rotors=loaded,
                          on_ground=True))
    assert ex.phase is MissionPhase.DONE
    assert any(e == "platform_landed" for e in cmd.events)


def test_missing_pre_hover_window_aborts_with_a_reason():
    # adsorption without a landing hover: the pre-adhesion window is empty
    ex = MissionExecutive(MissionConfig(hover_window=0.1), _knows(), DT)
    ex.stage = "adsorb"
    ex._adsorb_until = 10.0
    ex.verify_point = (8.0, 0.0, 2.6)  # as the touchdown sets it
    t, stages = 10.0, set()
    while ex.phase is not MissionPhase.ABORTED and t < 20.0:
        ex.tick(_inputs(t, _est(8.0, 0.0, 2.6)))
        stages.add(ex.stage)
        t += 0.02
    assert "verify" in stages
    assert ex.pre_effort is None
    assert ex.phase is MissionPhase.ABORTED
    assert ex.abort_reason == "no_pre_hover_window"


def test_geofence_breach_aborts_within_one_tick():
    ex = _executive()
    cmd = ex.tick(_inputs(0.0, _est(50.0, 0.0, 3.0)))
    assert ex.phase is MissionPhase.ABORTED
    assert ex.abort_reason == "geofence"
    assert cmd.error is None
    np.testing.assert_array_equal(cmd.velocity, np.zeros(4))


def test_terminal_phases_hold_zero_velocity():
    ex = _executive()
    ex.stage = "done"
    cmd = ex.tick(_inputs(0.0, _est(1.0, 2.0, 0.0)))
    assert ex.phase is MissionPhase.DONE
    np.testing.assert_array_equal(cmd.velocity, np.zeros(4))
