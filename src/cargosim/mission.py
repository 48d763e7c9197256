"""Five-phase mission executive and attachment determination.

Drives the vehicle through take-off, coverage search, visual-servo
landing, adhesion and return, issuing either world-frame setpoints
(tracked against the hybrid localization estimate) or direct body-frame
errors (visual servoing), and deciding attachment success from the
rotor-speed change between the hover windows before and after the
adhesion action.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .control import PHASE_GAINS, PidGains, yaw_error
from .perception import CargoTrack
from .planner import CoveragePath, plan_coverage, yaw_schedule
from .qr_localization import PoseEstimate
from .sim_world import RotorTelemetry, ScenarioConfig


class MissionPhase(enum.Enum):
    TAKEOFF = "takeoff"
    SEARCH = "search"
    LAND = "land"
    ADSORB = "adsorb"
    RETURN = "return"
    DONE = "done"
    ABORTED = "aborted"


@dataclass(frozen=True)
class MissionConfig:
    """Every mission threshold in one place; defaults follow the field setup."""

    search_altitude: float = 6.0  # world z flown during search
    min_search_altitude: float = 3.0
    descent_step: float = 1.0
    waypoint_switch_radius: float = 0.2
    blind_horizontal_threshold: float = 0.10
    blind_hold_time: float = 2.0
    pre_blind_height: float = 0.10  # hover height above the cargo top
    blind_descent_speed: float = 0.25
    adsorb_settle_time: float = 8.0
    adsorb_success_prob: float = 1.0
    attach_delta: float = 0.05
    hover_window: float = 2.0
    verify_height: float = 1.5  # hover height above cargo for the thrust check
    geofence: tuple[float, float, float, float] = (-6.0, 14.0, -8.0, 8.0)
    return_altitude: float = 6.0
    lock_cone_ratio: float = 0.75  # accept a lock only this far off-nadir
    descent_cone_ratio: float = 0.3  # descend only while laterally aligned
    descent_cone_slack: float = 0.05
    reacquire_time: float = 3.0  # lost target this long -> back to search
    bounce_clearance: float = 0.6  # climb this far above cargo after contact
    gains: dict = field(default_factory=lambda: dict(PHASE_GAINS))
    vertical_limit: float = 0.3
    max_attach_attempts: int = 3

    def __post_init__(self):
        if not (0.0 < self.attach_delta < 1.0):
            raise ValueError("attach threshold must be in (0, 1)")
        for name in ("search_altitude", "descent_step", "waypoint_switch_radius",
                     "blind_horizontal_threshold", "blind_hold_time",
                     "pre_blind_height", "adsorb_settle_time", "hover_window"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")


def attachment_check(pre: RotorTelemetry, post: RotorTelemetry,
                     delta: float) -> bool:
    """True when the hover rotor effort rose by more than the fraction delta.

    Thrust is proportional to the sum of squared rotor speeds, so the
    post-adhesion hover window must satisfy
    sum(post^2) > (1 + delta) * sum(pre^2).
    """
    if pre.sum_sq <= 0.0 or not math.isfinite(pre.sum_sq):
        raise ValueError("pre-adhesion hover window is empty or invalid")
    return post.sum_sq > (1.0 + delta) * pre.sum_sq


@dataclass(frozen=True)
class TickInputs:
    """Everything the executive may look at on one control tick."""

    t: float
    estimate: PoseEstimate
    track: CargoTrack
    rotor_speeds: np.ndarray
    on_ground: bool


@dataclass(frozen=True)
class TickCommand:
    """Executive output: one of three command modes plus bookkeeping.

    mode "world": track (setpoint, yaw) against the localization estimate.
    mode "body": body-frame error supplied directly (visual servoing),
    with optional velocity feedforward.
    mode "velocity": open-loop body velocity (blind descent).
    """

    phase: MissionPhase
    mode: str
    setpoint: tuple[float, float, float] | None = None
    yaw_setpoint: float = 0.0
    body_error: tuple[float, float, float] | None = None
    body_yaw_error: float = 0.0
    feedforward: tuple[float, float, float] | None = None
    velocity: tuple[float, float, float, float] | None = None
    gains: PidGains | None = None
    do_adsorb: bool = False
    events: tuple[str, ...] = ()


STOP = (0.0, 0.0, 0.0, 0.0)  # the velocity command that holds still


class MissionExecutive:
    """Sequences the transport phases for one vehicle and its cargo."""

    def __init__(self, mission: MissionConfig, scenario: ScenarioConfig,
                 dt: float = 0.02):
        if dt <= 0:
            raise ValueError("tick period must be > 0")
        self.cfg = mission
        self.scenario = scenario
        self.dt = dt  # tick period; sizes the pre-adhesion hover window
        self.phase = MissionPhase.TAKEOFF
        self.home_xy = tuple(float(v) for v in scenario.uav_start[:2])
        # the cargo's top-face centre
        self.cargo_x, self.cargo_y, self.cargo_top = \
            (float(v) for v in scenario.cargoes[0].position)
        self.search_altitude = mission.search_altitude
        self.path: CoveragePath | None = None
        self.yaws: list[float] | None = None
        self.wp_index = 0
        self.attach_attempts = 0
        self.attach_success: bool | None = None
        # hover telemetry accumulation
        self._pre_window: list[np.ndarray] = []
        self._post_window: list[np.ndarray] = []
        self.pre_telemetry: RotorTelemetry | None = None
        # timers / sub-states
        self._hold_since: float | None = None
        self._adsorb_until: float | None = None
        self._verify_since: float | None = None
        self._return_stage = "verify"
        self._blind = False
        self._bouncing = False
        self._lost_since: float | None = None
        self.abort_reason: str | None = None
        self._handlers = {
            MissionPhase.TAKEOFF: self._tick_takeoff,
            MissionPhase.SEARCH: self._tick_search,
            MissionPhase.LAND: self._tick_land,
            MissionPhase.ADSORB: self._tick_adsorb,
            MissionPhase.RETURN: self._tick_return,
        }

    # -- helpers ------------------------------------------------------

    def _plan(self) -> None:
        sc = self.scenario
        _, self.path = plan_coverage(
            deck_size=sc.deck_size, deck_center=sc.deck_center,
            deck_yaw=sc.deck_yaw,
            altitude_above_deck=max(0.5, self.search_altitude - sc.deck_height),
            v_fov=sc.det_v_fov, h_fov=sc.det_h_fov,
            altitude=self.search_altitude)
        self.yaws = yaw_schedule(self.path.cells)
        self.wp_index = 0

    def _transition(self, phase: MissionPhase, events: list[str]) -> None:
        events.append(f"phase:{self.phase.value}->{phase.value}")
        self.phase = phase

    def _enter_land(self, events: list[str]) -> None:
        self._hold_since = None
        self._blind = False
        self._bouncing = False
        self._lost_since = None
        self._transition(MissionPhase.LAND, events)

    def _geofence_ok(self, est: PoseEstimate) -> bool:
        x, y, _ = est.position
        xmin, xmax, ymin, ymax = self.cfg.geofence
        return xmin <= x <= xmax and ymin <= y <= ymax

    def _lock_overhead(self, c_b: tuple[float, float, float]) -> bool:
        # a detection far off-nadir (seen sideways during transit) must
        # not trigger the landing descent
        height = -c_b[2]
        if height <= 0:
            return False
        return math.hypot(c_b[0], c_b[1]) <= self.cfg.lock_cone_ratio * height

    # -- main tick ----------------------------------------------------

    def tick(self, inp: TickInputs) -> TickCommand:
        events: list[str] = []
        cfg = self.cfg
        est = inp.estimate

        ended = (MissionPhase.DONE, MissionPhase.ABORTED)
        if self.phase not in ended and not self._geofence_ok(est):
            self.abort_reason = "geofence"
            self._transition(MissionPhase.ABORTED, events)
        if self.phase in ended:
            return TickCommand(phase=self.phase, mode="velocity",
                               velocity=STOP, gains=cfg.gains["search"],
                               events=tuple(events))

        return self._handlers[self.phase](inp, events)

    def _tick_takeoff(self, inp: TickInputs, events: list[str]) -> TickCommand:
        cfg = self.cfg
        z = inp.estimate.position[2]
        # vertical-priority ascent: hold the pad position laterally until
        # clear of the platform structures
        sp = (*self.home_xy, self.search_altitude)
        if z >= self.search_altitude - 0.15:
            self._plan()
            self._transition(MissionPhase.SEARCH, events)
        return TickCommand(phase=MissionPhase.TAKEOFF, mode="world", setpoint=sp,
                           yaw_setpoint=0.0, gains=cfg.gains["takeoff"],
                           events=tuple(events))

    def _tick_search(self, inp: TickInputs, events: list[str]) -> TickCommand:
        cfg = self.cfg
        if self.path is None:
            self._plan()
        if inp.track.locked and inp.track.position is not None and \
                self._lock_overhead(inp.track.position):
            events.append("cargo_locked")
            self._enter_land(events)
            return self._tick_land(inp, events)

        wp = self.path.waypoints[self.wp_index]
        sp = (*wp, self.search_altitude)
        dist = math.hypot(inp.estimate.position[0] - wp[0],
                          inp.estimate.position[1] - wp[1])
        if dist < cfg.waypoint_switch_radius:
            if self.wp_index + 1 < len(self.path.waypoints):
                self.wp_index += 1
                events.append(f"waypoint:{self.wp_index}")
            else:
                # full coverage without a lock: descend and replan
                prev_cells = len(self.path.cells)
                self.search_altitude = max(cfg.min_search_altitude,
                                           self.search_altitude - cfg.descent_step)
                self._plan()
                if len(self.path.cells) < prev_cells:
                    # grid must not get coarser as we descend
                    raise RuntimeError("replanned grid lost resolution")
                events.append(f"coverage_replan:alt={self.search_altitude:.2f}")
        return TickCommand(phase=MissionPhase.SEARCH, mode="world", setpoint=sp,
                           yaw_setpoint=self.yaws[self.wp_index],
                           gains=cfg.gains["search"], events=tuple(events))

    def _tick_land(self, inp: TickInputs, events: list[str]) -> TickCommand:
        cfg = self.cfg
        track = inp.track
        if self._blind:
            if inp.on_ground:
                self._adsorb_until = inp.t + cfg.adsorb_settle_time
                self._transition(MissionPhase.ADSORB, events)
                return TickCommand(phase=MissionPhase.ADSORB, mode="velocity",
                                   velocity=STOP,
                                   gains=cfg.gains["land"], events=tuple(events))
            vel = (0.0, 0.0, float(-cfg.blind_descent_speed), 0.0)
            return TickCommand(phase=MissionPhase.LAND, mode="velocity",
                               velocity=vel, gains=cfg.gains["land"],
                               events=tuple(events))

        if inp.on_ground and not self._bouncing:
            # touched something while still servoing (deck or cargo edge):
            # climb clear and retry the approach
            events.append("land_bounce")
            self._hold_since = None
            self._bouncing = True
        if self._bouncing:
            clear_z = self.cargo_top + cfg.bounce_clearance
            if inp.estimate.position[2] >= clear_z:
                self._bouncing = False
            else:
                return TickCommand(phase=MissionPhase.LAND, mode="velocity",
                                   velocity=(0.0, 0.0, 0.3, 0.0),
                                   gains=cfg.gains["land"],
                                   events=tuple(events))

        if not track.locked or track.position is None:
            # target lost before lock-in to blind descent: hold position,
            # and give up back to the coverage pattern if it stays lost
            if self._lost_since is None:
                self._lost_since = inp.t
            elif inp.t - self._lost_since >= cfg.reacquire_time:
                self._lost_since = None
                self._hold_since = None
                events.append("target_lost")
                self._transition(MissionPhase.SEARCH, events)
            return TickCommand(phase=self.phase, mode="body",
                               body_error=(0.0, 0.0, 0.0), body_yaw_error=0.0,
                               gains=cfg.gains["land"], events=tuple(events))
        self._lost_since = None

        cx, cy, cz = track.position
        height = -cz  # height above the cargo top
        err_z = cz + cfg.pre_blind_height
        yaw_e = yaw_error(track.yaw)
        horiz = math.hypot(cx, cy)
        if horiz > cfg.descent_cone_ratio * height + cfg.descent_cone_slack:
            # outside the approach funnel: correct laterally at altitude
            # so a gust cannot walk the vehicle down beside the cargo
            err_z = 0.0

        near_hover = height <= cfg.pre_blind_height + 0.08
        if near_hover:
            # collect the pre-adhesion hover telemetry window
            self._pre_window.append(inp.rotor_speeds.copy())
            span = int(round(cfg.hover_window / self.dt))
            if len(self._pre_window) > span:
                self._pre_window = self._pre_window[-span:]
        if near_hover and horiz < cfg.blind_horizontal_threshold:
            if self._hold_since is None:
                self._hold_since = inp.t
            elif inp.t - self._hold_since >= cfg.blind_hold_time:
                # never empty: this tick's sample went in above
                self.pre_telemetry = RotorTelemetry(
                    speeds=np.mean(self._pre_window, axis=0))
                self._blind = True
                events.append("blind_descent")
        else:
            self._hold_since = None

        return TickCommand(phase=MissionPhase.LAND, mode="body",
                           body_error=(cx, cy, err_z), body_yaw_error=yaw_e,
                           feedforward=track.velocity,
                           gains=cfg.gains["land"], events=tuple(events))

    def _tick_adsorb(self, inp: TickInputs, events: list[str]) -> TickCommand:
        cfg = self.cfg
        if inp.t >= self._adsorb_until:
            events.append("adsorb_complete")
            self.attach_attempts += 1
            self._post_window = []
            self._return_stage = "ascend"
            self._transition(MissionPhase.RETURN, events)
            return TickCommand(phase=MissionPhase.RETURN, mode="velocity",
                               velocity=STOP, gains=cfg.gains["return"],
                               do_adsorb=True, events=tuple(events))
        return TickCommand(phase=MissionPhase.ADSORB, mode="velocity",
                           velocity=STOP, gains=cfg.gains["land"],
                           events=tuple(events))

    def _tick_return(self, inp: TickInputs, events: list[str]) -> TickCommand:
        cfg = self.cfg
        est = inp.estimate
        verify_z = self.cargo_top + cfg.verify_height
        above_cargo = (self.cargo_x, self.cargo_y, verify_z)

        if self._return_stage == "ascend":
            sp = above_cargo
            if est.position[2] >= verify_z - 0.1:
                self._return_stage = "verify"
                self._verify_since = inp.t
            return TickCommand(phase=MissionPhase.RETURN, mode="world",
                               setpoint=sp, yaw_setpoint=est.yaw,
                               gains=cfg.gains["takeoff"], events=tuple(events))

        if self._return_stage == "verify":
            self._post_window.append(inp.rotor_speeds.copy())
            sp = above_cargo
            if inp.t - self._verify_since >= cfg.hover_window:
                post_telemetry = RotorTelemetry(
                    speeds=np.mean(self._post_window, axis=0))
                if self.pre_telemetry is None:
                    # the landing never filled its hover window, so there is
                    # no effort to compare the post-adhesion hover against
                    self.abort_reason = "no_pre_hover_window"
                    self._transition(MissionPhase.ABORTED, events)
                elif attachment_check(self.pre_telemetry, post_telemetry,
                                      cfg.attach_delta):
                    self.attach_success = True
                    events.append("attach_ok")
                    self._return_stage = "cruise"
                else:
                    self.attach_success = False
                    events.append("attach_failed")
                    if self.attach_attempts >= cfg.max_attach_attempts:
                        self.abort_reason = "attach_retries_exhausted"
                        self._transition(MissionPhase.ABORTED, events)
                    else:
                        self._pre_window = []
                        self._enter_land(events)
            return TickCommand(phase=MissionPhase.RETURN, mode="world",
                               setpoint=sp, yaw_setpoint=est.yaw,
                               gains=cfg.gains["return"], events=tuple(events))

        if self._return_stage == "cruise":
            x, y, z = est.position
            sp = (*self.home_xy, cfg.return_altitude)
            if z < cfg.return_altitude - 0.2:
                # climb over the deck before crossing back
                sp = (x, y, cfg.return_altitude)
            horiz = math.hypot(x - self.home_xy[0], y - self.home_xy[1])
            if horiz < 0.3 and z >= cfg.return_altitude - 0.3:
                self._return_stage = "descend"
            return TickCommand(phase=MissionPhase.RETURN, mode="world",
                               setpoint=sp, yaw_setpoint=0.0,
                               gains=cfg.gains["return"], events=tuple(events))

        # descend onto the platform pad
        sp = (*self.home_xy, 0.0)
        if inp.on_ground:
            events.append("platform_landed")
            self._transition(MissionPhase.DONE, events)
        return TickCommand(phase=self.phase, mode="world", setpoint=sp,
                           yaw_setpoint=0.0, gains=cfg.gains["land"],
                           events=tuple(events))
