"""Closed-loop mission execution, logging, metrics and Monte-Carlo fan-out.

One 50 Hz tick of :func:`run_mission` reads the world's sensors and runs
a pipeline of stages, each a small stateful object with one ``step``:
:class:`Localizer` (the anchor-based localization), :class:`CargoPerception`
(the cargo track), the mission executive, :class:`Command` (mode dispatch
and the PID) and :class:`Recorder` (the log rows and the run summary).
Ground contact is world physics and lives in :mod:`sim_world`.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from . import control, hybrid_localizer, uwb_localization
from .control import ControllerState, VelocityLimits, pid_step, saturate
from .frames import rotate, rotation_rows, wrap_angle
from .mission import (MissionConfig, MissionExecutive, MissionPhase, TickCommand,
                      TickInputs)
from .perception import (CargoTrack, PerceptionParams, cargo_position_from_detection,
                         smooth_track, wavegate_select)
from .qr_localization import NoFix, PoseEstimate, estimate_pose
from .sim_world import ScenarioConfig, SimState, SimWorld

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
        return dataclasses.asdict(self)


def run_mission(scenario: ScenarioConfig, mission: MissionConfig,
                seed: int | None = None, max_time: float = 600.0,
                dt: float = 0.02) -> tuple[RunSummary, list[list]]:
    """Execute one full mission; returns (summary, trajectory records).

    The world's one generator draws noise in the order of this loop:
    ``sense_uwb``, ``sense_qr``, ``sense_cargo``, the adsorption draw of
    ``attach_cargo``, then ``step``.  Any other order flies other missions.
    """
    if seed is not None:
        scenario = replace(scenario, seed=seed)
    world = SimWorld(scenario)
    state = world.initial_state()
    localizer = Localizer(scenario, dt)
    perception = CargoPerception(scenario, dt)
    executive = MissionExecutive(mission, scenario, dt=dt)
    command = Command(mission, dt)
    recorder = Recorder(scenario, dt)
    for _ in range(int(round(max_time / dt))):
        a_body, roll, pitch = world.sense_imu(state)
        est, events = localizer.step(state, a_body, roll, pitch,
                                     world.sense_uwb(state), world.sense_qr(state))
        track = perception.step(world.sense_cargo(state), roll, pitch)
        cmd = executive.tick(TickInputs(t=state.t, estimate=est, track=track,
                                        rotor_speeds=state.rotor_speeds,
                                        on_ground=state.on_ground))
        vel = command.step(cmd, est, state.t)
        if cmd.do_adsorb:
            state = world.attach_cargo(state, mission.adsorb_success_prob)
        after = world.touch_down(world.step(state, vel, dt), vel[2])
        recorder.step(state, after, est, events, track, cmd, vel)
        state = after
        if executive.phase in (MissionPhase.DONE, MissionPhase.ABORTED):
            break
    return (recorder.summary(executive, localizer.hybrid.switch_count, state.t,
                             scenario.seed), recorder.records)


class Localizer:
    """Both label range EKFs as one batch, the dual-label heading, their
    fusion, the marker fix and the arbitration between the two sources."""

    def __init__(self, scenario: ScenarioConfig, dt: float):
        self.markers = {m.label: m for m in scenario.qr_markers}
        self.anchors = uwb_localization.AnchorSet(scenario.anchors)
        self.params = uwb_localization.EkfParams(
            sigma_range=max(scenario.sigma_uwb, 1e-4), period=dt)
        self.baseline = scenario.label_baseline
        self.labels = None  # both label filters as one batched EkfState
        self.yaw = 0.0  # calibration value before the first dual-label solution
        self.hybrid = hybrid_localizer.HybridState()

    def step(self, state: SimState, a_body: tuple[float, float, float],
             roll: float, pitch: float, ranges: np.ndarray,
             obs: list) -> tuple[PoseEstimate, list[str]]:
        R_a_w_rows = state.platform_attitude.rows
        if self.labels is None:
            self.labels = uwb_localization.initial_state(
                [uwb_localization.multilaterate(list(enumerate(row)), self.anchors)
                 for row in ranges], state.t)
        else:
            self.labels = uwb_localization.ekf_update(
                uwb_localization.ekf_predict(
                    self.labels, a_body, rotation_rows(roll, pitch, self.yaw),
                    tuple(zip(*R_a_w_rows)), self.params),
                ranges, self.anchors, self.params)

        u1w, u2w = (rotate(R_a_w_rows, u) for u in self.labels.mean[:, :3].tolist())
        try:
            self.yaw = uwb_localization.yaw_from_labels(
                u1w, u2w, roll, pitch, self.baseline)
        except uwb_localization.BaselineGateError:
            pass  # hold the last valid heading
        uwb_pose = uwb_localization.fuse_labels(self.labels, R_a_w_rows,
                                                yaw=self.yaw)

        qr_pose = None
        if obs:
            try:
                qr_pose = estimate_pose(obs, self.markers, state.platform_attitude,
                                        (roll, pitch), timestamp=state.t)
            except NoFix:
                pass  # no usable marker this tick

        est, self.hybrid, events = hybrid_localizer.arbitrate(
            qr_pose, uwb_pose, self.hybrid)
        return est, events


class CargoPerception:
    """The cargo track: wavegate selection, the pinhole inversion, the tilt
    de-rotation and the smoothing filter."""

    def __init__(self, scenario: ScenarioConfig, dt: float):
        self.params = PerceptionParams(frame_period=dt)
        self.focal = scenario.det_focal
        self.diagonal = scenario.cargoes[0].top_diagonal
        self.track = CargoTrack()

    def step(self, candidates: list, roll: float, pitch: float) -> CargoTrack:
        track = self.track = wavegate_select(candidates, self.track, self.params)
        if track.selected is not None:
            pos_cam = cargo_position_from_detection(track.selected, self.focal,
                                                    self.diagonal)
            # de-rotate by the IMU roll/pitch: without this the vehicle's
            # own tilt shifts the apparent target the same way the command
            # pushes, a positive feedback that never converges
            pos_b = rotate(rotation_rows(roll, pitch, 0.0), pos_cam)
            track = self.track = smooth_track(track, pos_b, self.params)
        return track


class Command:
    """Mode dispatch, the derivative reset on a gain switch and the PID: the
    executive's command as a saturated (vx, vy, vz, yaw_rate) body velocity."""

    def __init__(self, mission: MissionConfig, dt: float):
        self.dt = dt
        self.ctrl = ControllerState()
        self.limits = VelocityLimits(vertical=mission.vertical_limit)
        self.gains = None  # the gains of the last tick

    def step(self, cmd: TickCommand, est: PoseEstimate,
             t: float) -> tuple[float, float, float, float]:
        if cmd.gains is not self.gains:
            self.ctrl.reset_derivative()
            self.gains = cmd.gains
        limits = self.limits
        if cmd.mode == "velocity":
            vx, vy, vz, yaw_rate = cmd.velocity
            return (saturate(vx, limits.horizontal), saturate(vy, limits.horizontal),
                    saturate(vz, limits.vertical), saturate(yaw_rate, limits.yaw_rate))
        if cmd.mode == "world":
            # the velocity interface is yaw-aligned and horizontal, so
            # tilt must not leak altitude error into the x/y channels
            R_w_b = tuple(zip(*rotation_rows(0.0, 0.0, est.yaw)))
            e_b = control.position_error_body(cmd.setpoint, est.position, R_w_b)
            yaw_e = wrap_angle(cmd.yaw_setpoint - est.yaw)
        else:  # body: visual servoing
            e_b = cmd.body_error
            yaw_e = cmd.body_yaw_error
        errors = {"x": e_b[0], "y": e_b[1], "z": e_b[2], "yaw": yaw_e}
        vel_cmd, self.ctrl = pid_step(cmd.gains, errors, self.ctrl, self.dt, t,
                                      limits=limits, feedforward=cmd.feedforward)
        return (vel_cmd.vx, vel_cmd.vy, vel_cmd.vz, vel_cmd.yaw_rate)


class Recorder:
    """The log rows and the run summary: per-source RMSE, phase time and
    the landing error."""

    def __init__(self, scenario: ScenarioConfig, dt: float):
        self.dt = dt
        self.cargo_xy = np.asarray(scenario.cargoes[0].position[:2])
        self.records: list[list] = []
        # per source: ticks and running sums of the squared x, y, z errors,
        # summed in tick order as np.mean(err * err, axis=0) sums them
        self.sq_errors: dict[str, list] = {}
        self.phase_durations: dict[str, float] = {}
        self.landing_error = float("nan")

    def step(self, before: SimState, after: SimState, est: PoseEstimate,
             events: list[str], track: CargoTrack, cmd: TickCommand,
             vel: tuple[float, float, float, float]) -> None:
        """Score the estimate against the position it was made at; log the tick."""
        truth = before.uav_pos
        est_xyz = est.position
        sq = self.sq_errors.setdefault(est.source, [0, 0.0, 0.0, 0.0])
        sq[0] += 1
        for k, (e, t) in enumerate(zip(est_xyz, truth), 1):
            d = e - t
            sq[k] += d * d
        if "phase:land->adsorb" in cmd.events and math.isnan(self.landing_error):
            self.landing_error = float(np.linalg.norm(
                np.subtract(after.uav_pos[:2], self.cargo_xy)))

        c_b = track.position if track.position is not None else NAN3
        self.records.append([  # a list display, not unpacking: no spare slots
            round(after.t, 6), cmd.phase.value,
            truth[0], truth[1], truth[2], after.uav_euler.yaw,
            est_xyz[0], est_xyz[1], est_xyz[2], est.yaw,
            est.source, c_b[0], c_b[1], c_b[2],
            vel[0], vel[1], vel[2], vel[3],
            after.rotor_sum_sq, ";".join([*events, *cmd.events]),
        ])
        self.phase_durations[cmd.phase.value] = \
            self.phase_durations.get(cmd.phase.value, 0.0) + self.dt

    def summary(self, executive: MissionExecutive, source_switches: int,
                total_time: float, seed: int) -> RunSummary:
        phase, reason = executive.phase, executive.abort_reason
        if phase is MissionPhase.DONE:
            reason = None
        elif phase is not MissionPhase.ABORTED:  # still flying at max_time
            phase, reason = MissionPhase.ABORTED, "timeout"
        return RunSummary(
            final_phase=phase.value, abort_reason=reason,
            phase_durations=self.phase_durations,
            landing_error=self.landing_error,
            attach_success=bool(executive.attach_success),
            rmse={source: [math.sqrt(v / n) for v in sums]
                  for source, (n, *sums) in sorted(self.sq_errors.items())},
            source_switches=source_switches, total_time=total_time, seed=seed)


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
