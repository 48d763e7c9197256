"""Closed-loop mission execution, logging, metrics and Monte-Carlo fan-out.

Wires the simulated world, the hybrid localization stack, the perception
track, the mission executive and the PID controller into one 50 Hz loop,
logging a per-tick trajectory record and producing a machine-readable
run summary.
"""

from __future__ import annotations

import csv
import io
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from . import control, hybrid_localizer, uwb_localization
from .control import ControllerState, VelocityLimits, pid_step, saturate
from .frames import rotate, rotation_rows, wrap_angle
from .mission import (MissionConfig, MissionExecutive, MissionPhase, TickInputs)
from .perception import (CargoTrack, PerceptionParams, cargo_position_from_detection,
                         smooth_track, wavegate_select)
from .qr_localization import NoFix, estimate_pose
from .sim_world import ScenarioConfig, SimWorld

LOG_SCHEMA = "cargosim-log-v1"
LOG_COLUMNS = [
    "t", "phase", "true_x", "true_y", "true_z", "true_yaw",
    "est_x", "est_y", "est_z", "est_yaw", "source",
    "cargo_bx", "cargo_by", "cargo_bz",
    "cmd_vx", "cmd_vy", "cmd_vz", "cmd_yaw_rate", "rotor_sum_sq", "events",
]
NAN3 = (float("nan"),) * 3  # the cargo columns of a tick without a track


@dataclass
class RunSummary:
    """Per-run outcome: phase timing, landing accuracy, attach result."""

    final_phase: str = "aborted"
    abort_reason: str | None = None
    phase_durations: dict = field(default_factory=dict)
    landing_error: float = float("nan")  # true horizontal error vs cargo center, m
    attach_success: bool = False
    rmse: dict = field(default_factory=dict)  # source -> [ex, ey, ez]
    source_switches: int = 0
    total_time: float = 0.0
    seed: int = 0

    def to_dict(self) -> dict:
        return {
            "final_phase": self.final_phase,
            "abort_reason": self.abort_reason,
            "phase_durations": self.phase_durations,
            "landing_error": self.landing_error,
            "attach_success": self.attach_success,
            "rmse": self.rmse,
            "source_switches": self.source_switches,
            "total_time": self.total_time,
            "seed": self.seed,
        }


def run_mission(scenario: ScenarioConfig, mission: MissionConfig,
                seed: int | None = None, max_time: float = 600.0,
                dt: float = 0.02) -> tuple[RunSummary, list[list]]:
    """Execute one full mission; returns (summary, trajectory records)."""
    if seed is not None:
        scenario = replace(scenario, seed=seed)
    world = SimWorld(scenario)
    state = world.initial_state()

    markers = {m.label: m for m in scenario.qr_markers}
    anchors = uwb_localization.AnchorSet(scenario.anchors)
    ekf_params = uwb_localization.EkfParams(
        sigma_range=max(scenario.sigma_uwb, 1e-4), period=dt)
    labels = None  # both label filters as one batched EkfState
    yaw_est = 0.0  # calibration value before the first dual-label solution

    hybrid_state = hybrid_localizer.HybridState()
    perception = PerceptionParams(frame_period=dt)
    track = CargoTrack()
    executive = MissionExecutive(mission, scenario, dt=dt)
    ctrl = ControllerState()
    limits = VelocityLimits(vertical=mission.vertical_limit)
    prev_gains = None

    records: list[list] = []
    # per source: ticks and running sums of the squared x, y, z errors,
    # summed in tick order as np.mean(err * err, axis=0) sums them
    sq_errors: dict[str, list] = {}
    phase_durations: dict[str, float] = {}
    landing_error = float("nan")
    cargo = scenario.cargoes[0]
    cargo_top = cargo.position[2]

    n_steps = int(round(max_time / dt))
    for _ in range(n_steps):
        a_body, roll, pitch = world.sense_imu(state)
        R_a_w_rows = state.platform_attitude.rows

        # --- ranging localization -----------------------------------
        ranges = world.sense_uwb(state)
        if labels is None:
            labels = uwb_localization.initial_state(
                [uwb_localization.multilaterate(list(enumerate(row)), anchors)
                 for row in ranges], state.t)
        else:
            labels = uwb_localization.ekf_update(
                uwb_localization.ekf_predict(
                    labels, a_body, rotation_rows(roll, pitch, yaw_est),
                    tuple(zip(*R_a_w_rows)), ekf_params),
                ranges, anchors, ekf_params)

        u1w, u2w = (rotate(R_a_w_rows, u) for u in labels.mean[:, :3].tolist())
        try:
            yaw_est = uwb_localization.yaw_from_labels(
                u1w, u2w, roll, pitch, scenario.label_baseline)
        except uwb_localization.BaselineGateError:
            pass  # hold the last valid heading
        uwb_pose = uwb_localization.fuse_labels(labels, R_a_w_rows, yaw=yaw_est)

        # --- marker localization ------------------------------------
        qr_pose = None
        obs = world.sense_qr(state)
        if obs:
            try:
                qr_pose = estimate_pose(obs, markers, state.platform_attitude,
                                        (roll, pitch), timestamp=state.t)
            except NoFix:
                qr_pose = None

        est, hybrid_state, hybrid_events = hybrid_localizer.arbitrate(
            qr_pose, uwb_pose, hybrid_state)

        truth = state.uav_pos.tolist()
        est_xyz = est.position.tolist()
        sq = sq_errors.setdefault(est.source, [0, 0.0, 0.0, 0.0])
        sq[0] += 1
        for k, (e, t) in enumerate(zip(est_xyz, truth), 1):
            d = e - t
            sq[k] += d * d

        # --- perception ---------------------------------------------
        candidates = world.sense_cargo(state)
        track = wavegate_select(candidates, track, perception)
        if track.selected is not None:
            pos_cam = cargo_position_from_detection(
                track.selected, scenario.det_focal, cargo.top_diagonal)
            # de-rotate by the IMU roll/pitch: without this the vehicle's
            # own tilt shifts the apparent target the same way the command
            # pushes, a positive feedback that never converges
            pos_b = rotate(rotation_rows(roll, pitch, 0.0), pos_cam)
            track = smooth_track(track, pos_b, perception)

        # --- mission + control --------------------------------------
        cmd = executive.tick(TickInputs(t=state.t, estimate=est, track=track,
                                        rotor_speeds=state.rotor_speeds,
                                        on_ground=state.on_ground))
        if cmd.gains is not prev_gains:
            ctrl.reset_derivative()
            prev_gains = cmd.gains

        if cmd.mode == "velocity":
            vx, vy, vz, yaw_rate = cmd.velocity.tolist()
            vel_cmd = control.VelocityCommand(
                saturate(vx, limits.horizontal), saturate(vy, limits.horizontal),
                saturate(vz, limits.vertical), saturate(yaw_rate, limits.yaw_rate),
                timestamp=state.t)
        else:
            if cmd.mode == "world":
                # the velocity interface is yaw-aligned and horizontal, so
                # tilt must not leak altitude error into the x/y channels
                R_w_b = tuple(zip(*rotation_rows(0.0, 0.0, est.yaw)))
                e_b = control.position_error_body(cmd.setpoint.tolist(), est_xyz,
                                                  R_w_b)
                yaw_e = wrap_angle(cmd.yaw_setpoint - est.yaw)
                ff = None
            else:  # body: visual servoing
                e_b = cmd.body_error.tolist()
                yaw_e = cmd.body_yaw_error
                ff = cmd.feedforward
            errors = {"x": e_b[0], "y": e_b[1], "z": e_b[2], "yaw": yaw_e}
            vel_cmd, ctrl = pid_step(cmd.gains, errors, ctrl, dt, state.t,
                                     limits=limits, feedforward=ff)

        if cmd.do_adsorb:
            if world.rng.random() < mission.adsorb_success_prob:
                state = world.attach_cargo(state)

        state = world.step(state, (vel_cmd.vx, vel_cmd.vy, vel_cmd.vz,
                                   vel_cmd.yaw_rate), dt)

        # --- ground contact -----------------------------------------
        pos = state.uav_pos.tolist()
        support = _support_height(pos, scenario, cargo_top)
        if not state.on_ground and state.uav_vel[2] <= 0.0 and \
                pos[2] <= support + 0.02 and vel_cmd.vz <= 0.0:
            state = world.set_on_ground(state, True)
        if "phase:land->adsorb" in cmd.events and math.isnan(landing_error):
            landing_error = float(np.linalg.norm(
                state.uav_pos[:2] - np.asarray(cargo.position[:2])))

        c_b = track.position.tolist() if track.position is not None else NAN3
        records.append([  # a list display, not unpacking: no spare slots
            round(state.t, 6), cmd.phase.value,
            truth[0], truth[1], truth[2], state.uav_euler.yaw,
            est_xyz[0], est_xyz[1], est_xyz[2], est.yaw,
            est.source, c_b[0], c_b[1], c_b[2],
            vel_cmd.vx, vel_cmd.vy, vel_cmd.vz, vel_cmd.yaw_rate,
            state.rotor_sum_sq, ";".join([*hybrid_events, *cmd.events]),
        ])

        phase_durations[cmd.phase.value] = \
            phase_durations.get(cmd.phase.value, 0.0) + dt
        if executive.phase in (MissionPhase.DONE, MissionPhase.ABORTED):
            break

    rmse = {source: [math.sqrt(v / n) for v in sums]
            for source, (n, *sums) in sorted(sq_errors.items())}
    summary = RunSummary(
        final_phase=executive.phase.value,
        abort_reason=executive.abort_reason if
        executive.phase is MissionPhase.ABORTED else (
            None if executive.phase is MissionPhase.DONE else "timeout"),
        phase_durations=phase_durations,
        landing_error=landing_error,
        attach_success=bool(executive.attach_success),
        rmse=rmse,
        source_switches=hybrid_state.switch_count,
        total_time=state.t,
        seed=scenario.seed,
    )
    if summary.final_phase not in ("done", "aborted"):
        summary.final_phase = "aborted"
        summary.abort_reason = "timeout"
    return summary, records


def _support_height(pos: list[float], scenario: ScenarioConfig,
                    cargo_top: float) -> float:
    cargo = scenario.cargoes[0]
    if math.hypot(pos[0] - cargo.position[0], pos[1] - cargo.position[1]) \
            <= cargo.top_diagonal / 2.0:
        return cargo_top
    dx = pos[0] - scenario.deck_center[0]
    dy = pos[1] - scenario.deck_center[1]
    if abs(dx) <= scenario.deck_size[0] / 2 and abs(dy) <= scenario.deck_size[1] / 2:
        return scenario.deck_height
    return 0.0


# --- logging ---------------------------------------------------------

class LogFormatError(ValueError):
    """A trajectory log that cannot be read as a cargosim log."""


def write_log(records: list[list], path) -> None:
    """The schema line, then the header and one line per record in
    ``csv.writer``'s format: ``repr`` of every float (numpy's included),
    ``str`` of every other cell and nothing for ``None``.  Floats never
    need quoting, so a line is a plain join unless a cell does."""
    lines = [f"# {LOG_SCHEMA}\n"]
    for row in [LOG_COLUMNS, *records]:
        cells = [repr(float(v)) if isinstance(v, float) else
                 "" if v is None else str(v) for v in row]
        line = ",".join(cells)
        if line and line.count(",") == len(cells) - 1 and not (
                '"' in line or "\r" in line or "\n" in line):
            lines.append(line + "\r\n")
        else:  # a cell holds a separator or a quote, or the row is empty
            quoted = io.StringIO()
            csv.writer(quoted).writerow(cells)
            lines.append(quoted.getvalue())
    with open(path, "w", newline="") as f:
        f.writelines(lines)


def read_log(path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as f:
        try:
            first = f.readline().strip()
            if first != f"# {LOG_SCHEMA}":
                raise LogFormatError(f"{path}: unknown log schema: {first!r}")
            reader = csv.reader(f)
            header = next(reader, None)
            if header is None:
                raise LogFormatError(f"{path}: no header line")
            return header, list(reader)
        except (UnicodeDecodeError, csv.Error) as exc:
            raise LogFormatError(f"{path}: {exc}") from exc


_METRIC_COLUMNS = ("true_x", "true_y", "true_z", "est_x", "est_y", "est_z",
                  "source")


def metrics_from_log(path) -> dict:
    """Per-source RMSE vs ground truth plus marker-fix error by height bucket."""
    header, rows = read_log(path)
    idx = {name: k for k, name in enumerate(header)}
    missing = [name for name in _METRIC_COLUMNS if name not in idx]
    if missing:
        raise LogFormatError(f"{path}: no {', '.join(missing)} column")
    tx, ty, tz, ex, ey, ez, src = (idx[name] for name in _METRIC_COLUMNS)
    width = len(header)
    # per source: rows and running sums of the squared x, y, z errors,
    # summed in row order as np.mean(err * err, axis=0) sums them
    sq_errors: dict[str, list] = {}
    qr_by_bucket: dict[int, list] = {}
    for number, row in enumerate(rows, 1):
        if len(row) != width:
            raise LogFormatError(f"{path}: row {number} has {len(row)} "
                                 f"fields, the header {width}")
        try:
            z = float(row[tz])
            dx = float(row[ex]) - float(row[tx])
            dy = float(row[ey]) - float(row[ty])
            dz = float(row[ez]) - z
        except ValueError as exc:  # a cell that is not a number
            raise LogFormatError(f"{path}: row {number}: {exc}") from None
        source = row[src]
        sq = sq_errors.get(source)
        if sq is None:
            sq = sq_errors[source] = [0, 0.0, 0.0, 0.0]
        sq[0] += 1
        sq[1] += dx * dx
        sq[2] += dy * dy
        sq[3] += dz * dz
        if source == "qr":
            if not math.isfinite(z):
                raise LogFormatError(f"{path}: row {number}: marker fix at "
                                     f"height {z}")
            qr_by_bucket.setdefault(int(z // 1.0), []).append(
                math.sqrt(dx * dx + dy * dy + dz * dz))
    out = {"rmse": {}, "qr_error_by_height": {}}
    for source, (n, *sums) in sq_errors.items():
        out["rmse"][source] = [math.sqrt(v / n) for v in sums]
    for bucket in sorted(qr_by_bucket):
        vals = qr_by_bucket[bucket]
        out["qr_error_by_height"][f"{bucket}m-{bucket + 1}m"] = {
            "median": float(np.median(vals)), "count": len(vals)}
    return out


# --- Monte Carlo -----------------------------------------------------

def _run_one(args) -> dict:
    scenario, mission, seed = args
    summary, _ = run_mission(scenario, mission, seed=seed)
    return summary.to_dict()


def montecarlo(scenario: ScenarioConfig, mission: MissionConfig, runs: int,
               seed_base: int = 0, workers: int = 1) -> dict:
    """N independent seeded runs; aggregation is order-independent."""
    if runs < 1:
        raise ValueError("need at least one run")
    jobs = [(scenario, mission, seed_base + i) for i in range(runs)]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            summaries = list(pool.map(_run_one, jobs))
    else:
        summaries = [_run_one(j) for j in jobs]

    landing = np.array([s["landing_error"] for s in summaries])
    done = np.array([s["final_phase"] == "done" for s in summaries])
    ok = done & np.isfinite(landing)
    within = ok & (landing <= 0.15)
    finite = landing[np.isfinite(landing)]
    agg = {
        "runs": runs,
        "completed": int(done.sum()),
        "landing_within_15cm_rate": float(within.sum() / runs),
        "landing_error_quantiles": {
            q: (float(np.quantile(finite, float(q))) if finite.size else None)
            for q in ("0.5", "0.9", "0.95")},
        "summaries": summaries,
    }
    return agg
