"""Closed-loop mission execution, logging, metrics and Monte-Carlo fan-out.

One 50 Hz tick of a mission (:meth:`Flight.tick`) reads the world's
sensors and runs a pipeline of stages, each a small stateful object with
one ``step``: :class:`Localizer` (the anchor-based localization, from the
IMU, range and marker readings to the pose), :class:`CargoPerception`
(the cargo track), the mission executive, :class:`Command` (the PID on a
body error, or an open-loop velocity) and :class:`Recorder` (the log rows
and the summary).
Ground contact is world physics and lives in :mod:`sim_world`.

A flight shares nothing with another: :func:`run_mission` flies one, and
:func:`montecarlo` hands a pool of workers one seed per task.

A log streams both ways: :func:`write_log` formats one line at a time into
the file, and :func:`read_log` hands :func:`metrics_from_log` one row at a
time, so neither holds the whole log in memory.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import math
from collections.abc import Iterator
from contextlib import closing
from dataclasses import dataclass, field, replace
from functools import partial
from itertools import chain

import numpy as np

from . import hybrid_localizer, uwb_localization
from .control import ControllerState, pid_step
from .frames import EulerAngles, rotate, rotation_rows
from .mission import (STOP, MissionConfig, MissionExecutive, MissionPhase,
                      TickCommand, TickInputs)
from .perception import (CargoTrack, cargo_position_from_detection, smooth_track,
                         wavegate_select)
from .qr_localization import PoseEstimate, estimate_pose
from .sim_world import (ScenarioConfig, SimState, SimWorld, VehicleKnowledge,
                        check_step, vehicle_knowledge)

LOG_SCHEMA = "cargosim-log-v1"
LOG_COLUMNS = [
    "t", "phase", "true_x", "true_y", "true_z", "true_yaw",
    "est_x", "est_y", "est_z", "est_yaw", "source",
    "cargo_bx", "cargo_by", "cargo_bz",
    "cmd_vx", "cmd_vy", "cmd_vz", "cmd_yaw_rate", "rotor_sum_sq", "events",
]
NAN3 = (float("nan"),) * 3  # the cargo or estimate columns of a row without one
MAX_TIME = 600.0  # s a mission may fly
DT = 0.02  # s, the 50 Hz tick


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
                seed: int | None = None, max_time: float = MAX_TIME,
                dt: float = DT) -> tuple[RunSummary, list[list]]:
    """Execute one full mission; returns (summary, trajectory records)."""
    if seed is not None:
        scenario = replace(scenario, seed=seed)
    flight = Flight(scenario, mission, dt, keep_rows=True)
    flight.fly(max_time)
    return flight.summary(), flight.recorder.records


class Flight:
    """One seeded mission: its world and its stages.  The world's one
    random generator draws noise in the order of :meth:`tick`:
    ``sense_uwb``, ``sense_qr``, ``sense_cargo``, the adsorption draw of
    ``attach_cargo``, then ``step``, the whole physical step, contact
    included, which draws last.  Any other order flies other missions.
    """

    def __init__(self, scenario: ScenarioConfig, mission: MissionConfig,
                 dt: float, keep_rows: bool):
        check_step(dt)  # a bad step is a configuration error, not a fault
        self.seed = scenario.seed
        self.dt = dt
        self.adsorb_prob = mission.adsorb_success_prob
        self.world = SimWorld(scenario)
        self.state = self.world.initial_state()
        knows = vehicle_knowledge(scenario)  # the stages see no more than this
        self.localizer = Localizer(knows, dt)
        self.perception = CargoPerception(knows, dt)
        self.executive = MissionExecutive(mission, knows, dt)
        self.command = Command(dt)
        self.recorder = Recorder(scenario, dt, keep_rows)

    def fly(self, max_time: float) -> None:
        """Tick until the mission ends or `max_time` runs out.  A reading the
        filters cannot take aborts it with ``sensor_fault``; any other
        ValueError or ArithmeticError in a tick, with ``estimator_fault``."""
        for _ in range(int(round(max_time / self.dt))):
            try:
                if not self.tick():
                    return
            except (ValueError, ArithmeticError) as exc:
                reason = ("sensor_fault" if isinstance(exc, uwb_localization.SensorFault)
                          else "estimator_fault")
                events = [f"{reason}:{type(exc).__name__}: {exc}"]
                self.executive.abort(reason, events)
                self.recorder.fault(self.state, self.executive.phase, events)
                return

    def tick(self) -> bool:
        """One 50 Hz tick; False once the mission has ended."""
        world, state, executive = self.world, self.state, self.executive
        a_body, roll, pitch = world.sense_imu(state)
        est, events = self.localizer.step(state.platform_attitude, a_body, roll,
                                          pitch, world.sense_uwb(state),
                                          world.sense_qr(state))
        track = self.perception.step(world.sense_cargo(state), roll, pitch)
        cmd = executive.tick(TickInputs(t=state.t, estimate=est, track=track,
                                        rotor_speeds=state.rotor_speeds,
                                        on_ground=state.on_ground))
        vel = self.command.step(cmd, state.t)
        if cmd.do_adsorb:
            state = world.attach_cargo(state, self.adsorb_prob)
        phase = executive.phase  # a tick that changes the phase logs the new one
        self.recorder.step(state, est, events, track, cmd, vel, phase)
        self.state = world.step(state, vel, self.dt)
        return phase not in (MissionPhase.DONE, MissionPhase.ABORTED)

    def summary(self) -> RunSummary:
        return self.recorder.summary(self.executive,
                                     self.localizer.hybrid.switch_count,
                                     self.state.t, self.seed)


class Localizer:
    """One flight's anchor-based localization: the range EKFs of its two
    labels, each a (mean, covariance) in Python floats (see
    :func:`uwb_localization.ekf_predict`), the dual-label heading, the
    fusion of the two label positions, the marker fix and the arbitration
    between the two sources."""

    def __init__(self, knows: VehicleKnowledge, dt: float):
        self.points = knows.anchors
        self.var = uwb_localization.range_variance(max(knows.sigma_uwb, 1e-4))
        self.period = dt
        self.filters = None
        self.markers = {m.label: m for m in knows.markers}
        self.focal = knows.qr_focal
        self.baseline = knows.label_baseline
        self.yaw = 0.0  # calibration value before the first dual-label solution
        self.hybrid = hybrid_localizer.HybridState()

    def step(self, platform: EulerAngles, a_body, roll: float, pitch: float,
             ranges: list[list[float]],
             obs: list) -> tuple[PoseEstimate, list[str]]:
        """Start each label's filter from the first ranges, then predict it
        under the last heading and update it; then solve the heading, fuse
        the labels, fix on the markers and arbitrate.  A label that took no
        range this tick adds the event ``uwb_degraded:<label index>``."""
        R_a_w = platform.rows
        lost = ()
        if self.filters is None:
            self.filters = [uwb_localization.initial_label(
                uwb_localization.multilaterate(row, self.points)) for row in ranges]
        else:
            a_u = uwb_localization.anchor_acceleration(
                a_body, rotation_rows(roll, pitch, self.yaw), R_a_w)
            self.filters, degraded = uwb_localization.ekf_update(
                uwb_localization.ekf_predict(self.filters, a_u, self.period),
                ranges, self.points, self.var)
            lost = [f"uwb_degraded:{i}" for i in degraded]
        (mean1, _), (mean2, _) = self.filters
        # each label into the world frame once, for the heading and the fusion
        w1, w2 = rotate(R_a_w, mean1[:3]), rotate(R_a_w, mean2[:3])

        yaw = uwb_localization.yaw_from_labels(w1, w2, roll, pitch, self.baseline)
        if yaw is not None:  # else hold the last valid heading
            self.yaw = yaw
        uwb_pose = uwb_localization.fuse_labels((w1, w2), self.yaw)

        # a tick with no sighting makes no fix attempt; one that sights no
        # known marker has no fix either
        qr_pose = estimate_pose(obs, self.markers, self.focal, platform,
                                (roll, pitch)) if obs else None

        pose, events = hybrid_localizer.arbitrate(qr_pose, uwb_pose, self.hybrid)
        return pose, [*lost, *events] if lost else events


class CargoPerception:
    """The cargo track: wavegate selection, the pinhole inversion, the tilt
    de-rotation and the smoothing filter."""

    def __init__(self, knows: VehicleKnowledge, dt: float):
        self.dt = dt
        self.focal = knows.det_focal
        self.diagonal = knows.top_diagonal
        self.track = CargoTrack()

    def step(self, candidates: list, roll: float, pitch: float) -> CargoTrack:
        track = self.track = wavegate_select(candidates, self.track)
        if track.selected is not None:
            pos_cam = cargo_position_from_detection(track.selected, self.focal,
                                                    self.diagonal)
            # de-rotate by the IMU roll/pitch: without this the vehicle's
            # own tilt shifts the apparent target the same way the command
            # pushes, a positive feedback that never converges
            pos_b = rotate(rotation_rows(roll, pitch, 0.0), pos_cam)
            track = self.track = smooth_track(track, pos_b, self.dt)
        return track


class Command:
    """The executive's command as a (vx, vy, vz, yaw_rate) body velocity: an
    open-loop velocity as given, or the PID on a body-frame error, saturated
    to ``control.VELOCITY_LIMITS`` (its derivative restarted when the gains
    change between PID ticks)."""

    def __init__(self, dt: float):
        self.dt = dt
        self.ctrl = ControllerState()
        self.gains = None  # the gains of the last PID tick

    def step(self, cmd: TickCommand, t: float) -> tuple[float, float, float, float]:
        if cmd.velocity is not None:
            return cmd.velocity
        if cmd.gains is not self.gains:
            self.ctrl.reset_derivative()
            self.gains = cmd.gains
        return pid_step(cmd.gains, cmd.error, self.ctrl, self.dt, t,
                        feedforward=cmd.feedforward)


class Recorder:
    """The run summary (per-source RMSE, phase time and the landing error)
    and, when kept, the log rows."""

    def __init__(self, scenario: ScenarioConfig, dt: float, keep_rows: bool):
        self.dt = dt
        self.cargo_xy = np.asarray(scenario.cargoes[0].position[:2])
        self.records: list[list] | None = [] if keep_rows else None
        self.sq_errors = SquaredErrors()
        self.phase_durations: dict[str, float] = {}
        self.landing_error = float("nan")

    def step(self, state: SimState, est: PoseEstimate, events: list[str],
             track: CargoTrack, cmd: TickCommand,
             vel: tuple[float, float, float, float], phase: MissionPhase) -> None:
        """Score the estimate against the state it was made from; log the
        tick under `phase`, the executive's phase after it."""
        tx, ty, tz = state.uav_pos
        ex, ey, ez = est.position
        self.sq_errors.add(est.source, ex - tx, ey - ty, ez - tz)
        if phase is MissionPhase.ADSORB and math.isnan(self.landing_error):
            self.landing_error = float(np.linalg.norm(
                np.subtract(state.uav_pos[:2], self.cargo_xy)))
        self._log(state, phase, est.position, est.yaw, est.source, track.position,
                  vel, events, cmd.events)
        spent = self.phase_durations
        spent[phase.value] = spent.get(phase.value, 0.0) + self.dt

    def fault(self, state: SimState, phase: MissionPhase,
              events: list[str]) -> None:
        """Log the tick from `state` that raised: the truth, with no
        estimate, track or command; the world did not step."""
        self._log(state, phase, NAN3, NAN3[0], "", None, STOP, events)

    def _log(self, state: SimState, phase: MissionPhase, est_pos, est_yaw: float,
             source: str, cargo, vel, events: list[str], more_events=()) -> None:
        """One log row, each column of it at the instant `state.t`."""
        if self.records is not None:
            (tx, ty, tz), (ex, ey, ez) = state.uav_pos, est_pos
            cx, cy, cz = NAN3 if cargo is None else cargo  # no track, no position
            self.records.append([  # a list display, not unpacking: no spare slots
                round(state.t, 6), phase.value, tx, ty, tz, state.uav_euler.yaw,
                ex, ey, ez, est_yaw, source, cx, cy, cz, vel[0], vel[1], vel[2],
                vel[3], state.rotor_sum_sq, ";".join([*events, *more_events])])

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
            rmse=dict(sorted(self.sq_errors.rmse().items())),
            source_switches=source_switches, total_time=total_time, seed=seed)


class SquaredErrors(dict):
    """source -> [count, sums of the squared x, y, z errors], summed in
    order as np.mean(err * err, axis=0) sums them."""

    def add(self, source: str, dx: float, dy: float, dz: float) -> None:
        sq = self.setdefault(source, [0, 0.0, 0.0, 0.0])
        sq[0] += 1
        sq[1] += dx * dx
        sq[2] += dy * dy
        sq[3] += dz * dz

    def rmse(self) -> dict[str, list[float]]:  # sources in first-seen order
        return {source: [math.sqrt(v / n) for v in sums]
                for source, (n, *sums) in self.items()}


# --- logging ---------------------------------------------------------

class LogFormatError(ValueError):
    """A trajectory log that cannot be read as a cargosim log."""


def write_log(records: list[list], path) -> None:
    """The schema line, then the header and one line per record in
    ``csv.writer``'s format: ``repr`` of every float (numpy's included),
    ``str`` of every other cell and nothing for ``None``.  Floats never
    need quoting, so a line is a plain join unless a cell does.  Each
    line is written as it is made."""
    with open(path, "w", newline="") as f:
        f.writelines(_log_lines(records))


def _log_lines(records: list[list]) -> Iterator[str]:
    yield f"# {LOG_SCHEMA}\n"
    for row in chain([LOG_COLUMNS], records):
        cells = [repr(float(v)) if isinstance(v, float) else
                 "" if v is None else str(v) for v in row]
        line = ",".join(cells)
        if line and line.count(",") == len(cells) - 1 and not (
                '"' in line or "\r" in line or "\n" in line):
            yield line + "\r\n"
        else:  # a cell holds a separator or a quote, or the row is empty
            quoted = io.StringIO()
            csv.writer(quoted).writerow(cells)
            yield quoted.getvalue()


def read_log(path) -> tuple[list[str], Iterator[list[str]]]:
    """The header and the rows of a log, read one at a time.  The schema
    line and the header are checked here; the rows are a generator that
    holds the file open until it is exhausted or closed, and raises
    :class:`LogFormatError` naming the file at a row that cannot be
    decoded or parsed."""
    rows = _log_rows(path)
    return next(rows), rows


def _log_rows(path) -> Iterator[list[str]]:
    with open(path, newline="") as f:
        try:
            first = f.readline().strip()
            if first != f"# {LOG_SCHEMA}":
                raise LogFormatError(f"{path}: unknown log schema: {first!r}")
            reader = csv.reader(f)
            header = next(reader, None)
            if header is None:
                raise LogFormatError(f"{path}: no header line")
            yield header
            yield from reader
        except (UnicodeDecodeError, csv.Error) as exc:
            raise LogFormatError(f"{path}: {exc}") from exc


_METRIC_COLUMNS = ("true_x", "true_y", "true_z", "est_x", "est_y", "est_z",
                  "source")


def metrics_from_log(path) -> dict:
    """Per-source RMSE vs ground truth plus marker-fix error by height bucket."""
    header, rows = read_log(path)
    with closing(rows):  # a consumer that stops early leaves no file open
        idx = {name: k for k, name in enumerate(header)}
        missing = [name for name in _METRIC_COLUMNS if name not in idx]
        if missing:
            raise LogFormatError(f"{path}: no {', '.join(missing)} column")
        tx, ty, tz, ex, ey, ez, src = (idx[name] for name in _METRIC_COLUMNS)
        width = len(header)
        sq_errors = SquaredErrors()
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
            if not source:  # the tick of a fault, which made no estimate
                continue
            sq_errors.add(source, dx, dy, dz)
            if source == "qr":
                if not math.isfinite(z):
                    raise LogFormatError(f"{path}: row {number}: marker fix at "
                                         f"height {z}")
                qr_by_bucket.setdefault(int(z // 1.0), []).append(
                    math.sqrt(dx * dx + dy * dy + dz * dz))
    out = {"rmse": sq_errors.rmse(), "qr_error_by_height": {}}
    for bucket in sorted(qr_by_bucket):
        vals = qr_by_bucket[bucket]
        out["qr_error_by_height"][f"{bucket}m-{bucket + 1}m"] = {
            "median": float(np.median(vals)), "count": len(vals)}
    return out


# --- Monte Carlo -----------------------------------------------------

def _fly_summary(scenario: ScenarioConfig, mission: MissionConfig, seed: int) -> dict:
    flight = Flight(replace(scenario, seed=seed), mission, DT, keep_rows=False)
    flight.fly(MAX_TIME)
    return flight.summary().to_dict()


def montecarlo(scenario: ScenarioConfig, mission: MissionConfig, runs: int,
               seed_base: int = 0, workers: int = 1) -> dict:
    """N independent seeded runs, one seed per task of a pool of
    min(workers, runs) processes (in this process for one); the pool hands
    the summaries back in seed order."""
    if runs < 1:
        raise ValueError("need at least one run")
    if workers < 1:
        raise ValueError("need at least one worker")
    seeds = range(seed_base, seed_base + runs)
    fly = partial(_fly_summary, scenario, mission)
    procs = min(workers, runs)
    if procs > 1:
        # imported here: a process that never forks skips multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=procs) as pool:
            summaries = list(pool.map(fly, seeds))
    else:
        summaries = list(map(fly, seeds))

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
