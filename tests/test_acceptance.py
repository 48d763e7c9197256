"""End-to-end acceptance suite.

Each test here pins one of the headline guarantees of the package:
estimator exactness under noiseless sensing, calibrated error growth,
filter-vs-oracle behavior, coverage and control properties, the
attachment decision, and the full-mission Monte-Carlo success rate with
its reproducibility contract.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest

from cargosim.control import (PHASE_GAINS, VELOCITY_LIMITS, ControllerState,
                              PidGains, pid_step, saturate)
from cargosim.frames import EulerAngles, wrap_angle
from cargosim.mission import MissionConfig, attachment_check
from cargosim.planner import plan_coverage, spiral_path
from cargosim.qr_localization import QrMarker, estimate_pose
from cargosim.runner import Localizer, montecarlo, run_mission, write_log
from cargosim.sim_world import ScenarioConfig, SimState, SimWorld
from cargosim.uwb_localization import (anchor_acceleration, ekf_predict, ekf_update,
                                       initial_label, multilaterate, range_variance,
                                       yaw_from_labels)

from conftest import calm_scenario, project_marker, reference_rotation

POINTS = ScenarioConfig().anchors
ANCHORS = np.array(POINTS)
T = 0.02  # s, the filter period


# --- 1. marker pose chain is exact under noiseless sensing -----------

def test_marker_pose_roundtrip_ten_thousand_poses():
    rng = np.random.default_rng(2024)
    markers = {
        1: QrMarker(label=1, diagonal=0.60, panel_xy=(1.0, 2.0)),
        2: QrMarker(label=2, diagonal=0.30, panel_xy=(1.35, 2.35)),
    }
    focal = 0.0036
    worst_pos, worst_yaw = 0.0, 0.0
    for _ in range(10_000):
        platform = EulerAngles(rng.uniform(-math.radians(8), math.radians(8)),
                               rng.uniform(-math.radians(10), math.radians(10)),
                               rng.uniform(-math.pi, math.pi))
        uav = EulerAngles(rng.uniform(-0.12, 0.12), rng.uniform(-0.12, 0.12),
                          rng.uniform(-math.pi, math.pi))
        panel_world = reference_rotation(platform.roll, platform.pitch,
                                         platform.yaw) @ [1.0, 2.0, 0.0]
        pos = panel_world + np.array([rng.uniform(-0.15, 0.15),
                                      rng.uniform(-0.15, 0.15),
                                      rng.uniform(0.3, 5.0)])
        obs = [project_marker(m, pos, uav, platform, focal)
               for m in markers.values()]
        est = estimate_pose(obs, markers, focal, platform,
                            (uav.roll, uav.pitch))
        worst_pos = max(worst_pos, float(np.max(np.abs(est.position - pos))))
        worst_yaw = max(worst_yaw, abs(wrap_angle(est.yaw - uav.yaw)))
    assert worst_pos <= 1e-6
    assert worst_yaw <= 1e-8


# --- 2. calibrated marker error growth with height -------------------

def test_marker_error_by_height_matches_field_bands():
    # published per-band medians: 1-4, 3-9, 8-18, 16-30, 25-40 cm for
    # heights 0-1 ... 4-5 m; accepted with +-50% slack on the band edges
    bands = [(0.01, 0.04), (0.03, 0.09), (0.08, 0.18), (0.16, 0.30),
             (0.25, 0.40)]
    cfg = calm_scenario(qr_image_noise=ScenarioConfig().qr_image_noise,
                        qr_yaw_noise=ScenarioConfig().qr_yaw_noise)
    world = SimWorld(cfg)
    rng = np.random.default_rng(7)
    markers = {m.label: m for m in cfg.qr_markers}
    base = world.initial_state()
    medians = []
    for b in range(5):
        errs = []
        while len(errs) < 400:
            platform = EulerAngles(rng.uniform(-math.radians(8), math.radians(8)),
                                   rng.uniform(-math.radians(10), math.radians(10)),
                                   0.0)
            h = rng.uniform(b + 0.3, b + 1.0)
            panel_world = reference_rotation(platform.roll, platform.pitch,
                                         platform.yaw) @ [1.0, 2.0, 0.0]
            pos = panel_world + [rng.uniform(-0.1, 0.1),
                                 rng.uniform(-0.1, 0.1), h]
            state = SimState(
                t=0.0, platform_attitude=platform, uav_pos=np.asarray(pos),
                uav_euler=EulerAngles(0.0, 0.0, rng.uniform(-0.3, 0.3)),
                uav_vel=np.zeros(3), uav_acc=np.zeros(3),
                wind_vel=np.zeros(2), wind_trim=np.zeros(2),
                attached_mass=0.0, rotor_speeds=base.rotor_speeds)
            obs = world.sense_qr(state)
            if not obs:
                continue
            est = estimate_pose(obs, markers, cfg.qr_focal, platform, (0.0, 0.0))
            errs.append(float(np.linalg.norm(est.position - pos)))
        medians.append(float(np.median(errs)))
    for prev, cur in zip(medians, medians[1:]):
        assert cur >= prev  # monotone non-decreasing with height
    for (lo, hi), med in zip(bands, medians):
        assert 0.5 * lo <= med <= 1.5 * hi, (med, lo, hi)


# --- 3. ranging filter vs least-squares oracle -----------------------

def test_ekf_noiseless_convergence_to_oracle():
    truth = np.array([0.4, -0.3, 1.2])
    ranges = [float(np.linalg.norm(truth - anchor)) for anchor in ANCHORS]
    var = range_variance(1e-6)
    s = [initial_label(truth + np.array([0.7, -0.5, 0.5]))]  # 1 m off
    I3 = np.eye(3)
    a_u = anchor_acceleration(np.zeros(3), I3, I3)
    for _ in range(50):
        s = ekf_predict(s, a_u, T)
        s, _ = ekf_update(s, [ranges], POINTS, var)
    oracle = multilaterate(ranges, POINTS)
    assert np.linalg.norm(s[0][0][:3] - oracle) <= 1e-6


def test_ekf_hover_rmse_within_bands_and_beats_raw():
    bounds = 3.0 * np.array([0.0113, 0.0139, 0.0212])
    truth = np.array([0.3, -0.2, 1.1])
    var = range_variance(0.10)
    true_d = np.linalg.norm(ANCHORS - truth, axis=1)
    I3 = np.eye(3)
    a_u = anchor_acceleration(np.zeros(3), I3, I3)
    ekf_rmse, raw_rmse = [], []
    for seed in range(30):
        rng = np.random.default_rng(1000 + seed)
        first = true_d + 0.1 * rng.normal(size=len(true_d))
        s = [initial_label(multilaterate(first, POINTS))]
        ekf_err, raw_err = [], []
        for k in range(400):
            meas = (true_d + 0.1 * rng.normal(size=len(true_d))).tolist()
            s = ekf_predict(s, a_u, T)
            s, _ = ekf_update(s, [meas], POINTS, var)
            if k >= 50:  # discard the settling transient
                ekf_err.append(s[0][0][:3] - truth)
                raw_err.append(multilaterate(meas, POINTS) - truth)
        ekf_rmse.append(np.sqrt(np.mean(np.square(ekf_err), axis=0)))
        raw_rmse.append(np.sqrt(np.mean(np.square(raw_err), axis=0)))
    ekf_rmse = np.array(ekf_rmse)
    raw_rmse = np.array(raw_rmse)
    assert np.all(ekf_rmse.mean(axis=0) <= bounds), ekf_rmse.mean(axis=0)
    # filtered beats raw per axis at 95% confidence over the seeds
    diff = ekf_rmse - raw_rmse
    ci_upper = diff.mean(axis=0) + 1.96 * diff.std(axis=0, ddof=1) / math.sqrt(30)
    assert np.all(ci_upper < 0.0), ci_upper


# --- 4. dual-label heading recovery ----------------------------------

def test_dual_label_yaw_roundtrip_and_continuity():
    rng = np.random.default_rng(99)
    d = 0.4
    worst = 0.0
    for _ in range(10_000):
        phi = rng.uniform(-0.6, 0.6)
        theta = rng.uniform(-0.6, 0.6)
        psi = rng.uniform(-math.pi, math.pi)
        delta = reference_rotation(phi, theta, psi) @ np.array([0.0, d, 0.0])
        rec = yaw_from_labels(delta / 2, -delta / 2, phi, theta, d)
        worst = max(worst, abs(wrap_angle(rec - psi)))
    assert worst <= 1e-9

    # the tilt-compensated branch must meet the flat branch smoothly
    for psi in (-2.5, -0.7, 0.0, 1.3, 3.0):
        phi = 0.3
        at_zero = None
        for theta in (0.0, 1e-6):
            delta = reference_rotation(phi, theta, psi) @ np.array([0.0, d, 0.0])
            rec = yaw_from_labels(delta / 2, -delta / 2, phi, theta, d)
            if at_zero is None:
                at_zero = rec
            else:
                assert abs(wrap_angle(rec - at_zero)) <= 1e-6


# --- 5. coverage planning --------------------------------------------

def test_spiral_visits_all_cells_exactly_once():
    for m in range(1, 9):
        for n in range(1, 9):
            cells = spiral_path(m, n)
            assert cells[0] == (0, 0)
            assert len(set(cells)) == len(cells) == m * n
            assert all(abs(a[0] - b[0]) + abs(a[1] - b[1]) == 1
                       for a, b in zip(cells, cells[1:]))


def test_footprint_union_covers_deck_rectangle():
    fov = math.radians(90.0)
    for deck, center, z in (((12.0, 7.0), (3.0, -1.0), 2.0),
                            ((9.0, 9.0), (0.0, 0.0), 1.5)):
        waypoints = plan_coverage(deck_size=deck, deck_center=center,
                                  deck_yaw=0.0, altitude_above_deck=z,
                                  v_fov=fov, h_fov=fov)
        half = z * math.tan(fov / 2.0)
        xs = np.linspace(center[0] - deck[0] / 2, center[0] + deck[0] / 2, 80)
        ys = np.linspace(center[1] - deck[1] / 2, center[1] + deck[1] / 2, 80)
        gx, gy = np.meshgrid(xs, ys)
        covered = np.zeros(gx.shape, dtype=bool)
        for wx, wy, _ in waypoints:
            covered |= (np.abs(gx - wx) <= half + 1e-9) & \
                (np.abs(gy - wy) <= half + 1e-9)
        assert covered.all()


def test_replica_deck_plans_single_center_waypoint():
    waypoints = plan_coverage(deck_size=(4.0, 4.0), deck_center=(8.0, 0.0),
                              deck_yaw=0.0, altitude_above_deck=5.0,
                              v_fov=math.radians(73.0), h_fov=math.radians(106.0))
    assert len(waypoints) == 1
    np.testing.assert_allclose(waypoints[0], [8.0, 0.0, 0.0], atol=1e-12)


# --- 6. control safety -----------------------------------------------

def test_velocity_limits_million_case_fuzz():
    rng = np.random.default_rng(55)
    horizontal, _, vertical, yaw_rate = VELOCITY_LIMITS
    # a million random raw commands through the clamp primitive
    raws = rng.uniform(-1e6, 1e6, 1_000_000)
    lims = rng.choice([horizontal, vertical, yaw_rate], size=1_000_000)
    clamped = np.minimum(np.maximum(raws, -lims), lims)
    assert np.all(np.abs(clamped) <= lims)
    for k in range(0, 1_000_000, 9973):
        assert saturate(float(raws[k]), float(lims[k])) == float(clamped[k])
    # and full controller steps across random gains and errors
    for _ in range(500):
        gains = PidGains(kp=rng.uniform(0, 5), ki=rng.uniform(0, 5),
                         kd=rng.uniform(0, 5), kp_yaw=rng.uniform(0, 5))
        st = ControllerState()
        for k in range(5):
            errors = tuple(rng.uniform(-1e6, 1e6, 4))
            cmd = pid_step(gains, errors, st, 0.02, k * 0.02)
            assert abs(cmd[0]) <= horizontal
            assert abs(cmd[1]) <= horizontal
            assert abs(cmd[2]) <= vertical
            assert abs(cmd[3]) <= yaw_rate


def test_antiwindup_rule_exact():
    gains = PidGains(kp=1.0, ki=0.5, kd=0.0)
    st = ControllerState()
    pid_step(gains, (5.0, 0.0, 0.0, 0.0), st, 0.02, 0.0)
    window = list(st.channels[0].window)
    # saturated positive + reinforcing error: accumulator untouched
    pid_step(gains, (1.0, 0.0, 0.0, 0.0), st, 0.02, 0.02)
    assert list(st.channels[0].window) == window
    # counteracting error accumulates
    pid_step(gains, (-1.0, 0.0, 0.0, 0.0), st, 0.02, 0.04)
    assert list(st.channels[0].window) == window + [(0.04, -1.0)]


def test_search_gain_arithmetic_exact():
    cmd = pid_step(PHASE_GAINS["search"], (0.4, 0.0, 0.0, 0.0),
                   ControllerState(), 0.02, 0.0)
    assert cmd[0] == 0.2


# --- 7. attachment determination -------------------------------------

def test_attachment_thresholds():
    pre_speeds = np.full(4, math.sqrt(7.9 * 9.81 / 4.0))
    post_speeds = np.full(4, math.sqrt(8.79 * 9.81 / 4.0))
    pre = float(np.dot(pre_speeds, pre_speeds))
    post = float(np.dot(post_speeds, post_speeds))
    assert attachment_check(pre, post, 0.05) is True
    assert attachment_check(pre, post, 0.20) is False
    assert attachment_check(pre, pre, 0.05) is False


# --- 8. full-mission Monte Carlo -------------------------------------

TABLE_DURATIONS = {"takeoff": 9.56, "search": 15.52, "land": 34.84,
                   "adsorb": 19.58, "return": 79.20}


def test_monte_carlo_hundred_runs():
    t0 = time.monotonic()
    agg = montecarlo(ScenarioConfig(), MissionConfig(), runs=100,
                     seed_base=0, workers=4)
    wall = time.monotonic() - t0
    assert wall < 300.0, f"Monte Carlo took {wall:.0f}s"
    assert agg["completed"] == 100
    assert agg["landing_within_15cm_rate"] >= 0.90
    for s in agg["summaries"]:
        assert s["final_phase"] == "done"
        assert s["attach_success"]
        for phase, ref in TABLE_DURATIONS.items():
            dur = s["phase_durations"].get(phase, 0.0)
            assert 0.3 * ref <= dur <= 3.0 * ref, (s["seed"], phase, dur)


def test_noiseless_runs_land_within_two_centimeters():
    scenario = calm_scenario(platform_roll_amp=math.radians(8.0),
                             platform_pitch_amp=math.radians(10.0))
    for seed in (0, 1, 2):
        summary, _ = run_mission(scenario, MissionConfig(), seed=seed)
        assert summary.final_phase == "done"
        assert summary.landing_error <= 0.02


# --- 9. determinism --------------------------------------------------

def test_same_seed_produces_byte_identical_logs(tmp_path):
    paths = []
    for name in ("first", "second"):
        _, records = run_mission(ScenarioConfig(), MissionConfig(), seed=5)
        p = tmp_path / f"{name}.csv"
        write_log(records, p)
        paths.append(p)
    assert paths[0].read_bytes() == paths[1].read_bytes()


# --- 10. documented simulation boundaries ----------------------------

def test_out_of_scope_items_are_documented():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    lowered = readme.lower()
    # the artifact must state what it deliberately does not reproduce
    assert "not reproduced" in lowered or "out of scope" in lowered
    assert "detector" in lowered        # detection-network training/accuracy
    assert "adhesi" in lowered          # physical adhesion statistics
    assert "field" in lowered or "flight" in lowered  # recorded trajectories


# --- 11. the localization sees the platform attitude ------------------

def _rmse_norms(seed: int) -> dict[str, float]:
    summary, _ = run_mission(ScenarioConfig(), MissionConfig(), seed=seed)
    assert summary.final_phase == "done", seed
    return {source: math.hypot(*errors) for source, errors in summary.rmse.items()}


def test_the_localization_needs_the_platform_roll_and_pitch(monkeypatch):
    # the paper's point: ranging to anchors on a rolling platform and marker
    # fixes decouple the vehicle from the platform's motion only when the
    # localization rotates by the platform attitude.  Handed a level
    # platform, seeds 0-2 measured a uwb RMSE norm of 1.17-1.19 m against
    # 0.175-0.180 m (6.5-6.8x) and a qr one of 0.29-0.31 m against
    # 0.13-0.15 m (2.0-2.3x); the bounds leave room for either to move.
    seeds = (0, 1)
    full = [_rmse_norms(seed) for seed in seeds]
    step = Localizer.step

    def level_platform(self, platform, *readings):
        return step(self, EulerAngles(0.0, 0.0, platform.yaw), *readings)

    monkeypatch.setattr(Localizer, "step", level_platform)
    for seed, norms in zip(seeds, full):
        ablated = _rmse_norms(seed)
        assert ablated["uwb"] >= 4.0 * norms["uwb"], (seed, ablated, norms)
        assert ablated["qr"] >= 1.5 * norms["qr"], (seed, ablated, norms)
