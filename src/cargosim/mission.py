"""Mission executive and attachment determination.

The executive is one state machine: ``STAGES`` maps each of its stages to
the phase it belongs to, and each stage that is not an end has one
handler.  LAND is ``servo`` (visual servoing down to a hover above the
cargo), ``bounce`` (the climb clear after a contact while servoing) and
``blind`` (the open-loop descent); RETURN is ``ascend``, ``verify``
(attachment success from the rotor-speed change between the hover windows
before and after the adhesion action), ``cruise`` home and ``descend``
onto the pad.  A tick that changes the phase carries the event
``phase:<from>-><to>``.  A command is a body-frame error (from a world
setpoint and the hybrid localization estimate, or from the cargo track
while servoing) or an open-loop body velocity.  Fixed landing thresholds:
``DESCENT_STEP``, ``WAYPOINT_SWITCH_RADIUS``, ``LOCK_CONE_RATIO``,
``DESCENT_CONE_RATIO``, ``DESCENT_CONE_SLACK``, ``PRE_BLIND_HEIGHT``,
``BLIND_HORIZONTAL_THRESHOLD``, ``BLIND_HOLD_TIME``, ``BLIND_DESCENT_SPEED``,
``REACQUIRE_TIME``, ``BOUNCE_CLEARANCE`` and ``VERIFY_HEIGHT``.
"""

from __future__ import annotations

import enum
import math
from collections import deque
from dataclasses import dataclass, field
from typing import NamedTuple

from .control import PHASE_GAINS, PidGains, yaw_error
from .frames import (COUNT, FINITE, FRACTION, POSITIVE, PROBABILITY, Ranged,
                     mean_rows, rotate_t, rotation_rows, wrap_angle)
from .perception import CargoTrack
from .planner import CoveragePath, plan_coverage, yaw_schedule
from .qr_localization import PoseEstimate
from .sim_world import VehicleKnowledge, check_step
from .uwb_localization import SensorFault

DESCENT_STEP = 1.0  # m the search drops after a full coverage without a lock
WAYPOINT_SWITCH_RADIUS = 0.2  # m
LOCK_CONE_RATIO = 0.75  # accept a lock only this far off-nadir
DESCENT_CONE_RATIO = 0.3  # descend only while laterally aligned
DESCENT_CONE_SLACK = 0.05  # m
PRE_BLIND_HEIGHT = 0.10  # m, hover height above the cargo top
BLIND_HORIZONTAL_THRESHOLD = 0.10  # m
BLIND_HOLD_TIME = 2.0  # s centred at hover height before the blind descent
BLIND_DESCENT_SPEED = 0.25  # m/s
REACQUIRE_TIME = 3.0  # s of lost target -> back to search
BOUNCE_CLEARANCE = 0.6  # m to climb above the estimate at a servo contact
VERIFY_HEIGHT = 1.5  # m above the touchdown estimate, the thrust-check hover


class MissionPhase(enum.Enum):
    TAKEOFF = "takeoff"
    SEARCH = "search"
    LAND = "land"
    ADSORB = "adsorb"
    RETURN = "return"
    DONE = "done"
    ABORTED = "aborted"


STAGES = {  # stage -> the phase it belongs to
    "takeoff": MissionPhase.TAKEOFF, "search": MissionPhase.SEARCH,
    "servo": MissionPhase.LAND, "bounce": MissionPhase.LAND,
    "blind": MissionPhase.LAND, "adsorb": MissionPhase.ADSORB,
    "ascend": MissionPhase.RETURN, "verify": MissionPhase.RETURN,
    "cruise": MissionPhase.RETURN, "descend": MissionPhase.RETURN,
    "done": MissionPhase.DONE, "aborted": MissionPhase.ABORTED,
}
ENDED = ("done", "aborted")  # the stages without a handler


@dataclass(frozen=True)
class MissionConfig(Ranged):
    """The mission values a caller may set; defaults follow the field setup."""

    search_altitude: float = POSITIVE(6.0)  # world z flown during search
    min_search_altitude: float = POSITIVE(3.0)  # lowest search altitude, world z
    adsorb_settle_time: float = POSITIVE(8.0)
    adsorb_success_prob: float = PROBABILITY(1.0)
    attach_delta: float = FRACTION(0.05)
    hover_window: float = POSITIVE(2.0)
    geofence: tuple[float, float, float, float] = FINITE((-6.0, 14.0, -8.0, 8.0))
    return_altitude: float = POSITIVE(6.0)
    gains: dict[str, PidGains] = field(default_factory=lambda: dict(PHASE_GAINS))
    max_attach_attempts: int = COUNT(3)

    def __post_init__(self):
        super().__post_init__()
        if self.min_search_altitude > self.search_altitude:
            raise ValueError(f"min_search_altitude must be <= search_altitude "
                             f"({self.search_altitude}), got {self.min_search_altitude}")
        xmin, xmax, ymin, ymax = self.geofence
        if not (xmin < xmax and ymin < ymax):
            raise ValueError(f"geofence must hold xmin < xmax and ymin < ymax, "
                             f"got {self.geofence}")
        gains = self.gains
        if not (isinstance(gains, dict) and gains.keys() == PHASE_GAINS.keys()
                and all(isinstance(g, PidGains) for g in gains.values())):
            raise ValueError(f"gains must map each of {', '.join(PHASE_GAINS)} "
                             f"to PidGains, got {gains!r}")


def hover_effort(window) -> float:
    """The sum of squares of a hover window's mean rotor speeds, to which
    the thrust is proportional."""
    a, b, c, d = mean_rows(window)
    return a * a + b * b + c * c + d * d


def attachment_check(pre: float, post: float, delta: float) -> bool:
    """True when the hover effort (see :func:`hover_effort`) rose by more
    than the fraction delta: post > (1 + delta) * pre."""
    if pre <= 0.0 or not math.isfinite(pre):
        raise SensorFault("pre-adhesion hover window is empty or invalid")
    return post > (1.0 + delta) * pre


class TickInputs(NamedTuple):
    """Everything the executive may look at on one control tick."""

    t: float
    estimate: PoseEstimate
    track: CargoTrack
    rotor_speeds: tuple[float, float, float, float]
    on_ground: bool


class TickCommand(NamedTuple):
    """Executive output: the controller's input plus bookkeeping.

    Exactly one of `error`, the body-frame (x, y, z, yaw) error the PID acts
    on under `gains` (with the cargo velocity as `feedforward` while
    servoing), and `velocity`, an open-loop body velocity, is set; `gains`
    comes only with `error`.
    """

    gains: PidGains | None = None
    error: tuple[float, float, float, float] | None = None
    feedforward: tuple[float, float, float] | None = None
    velocity: tuple[float, float, float, float] | None = None
    do_adsorb: bool = False
    events: tuple[str, ...] = ()


STOP = (0.0, 0.0, 0.0, 0.0)  # the velocity command that holds still


class MissionExecutive:
    """Sequences the transport stages for one vehicle from what it knows, which
    holds no cargo position: its hover points come from its own estimates."""

    def __init__(self, mission: MissionConfig, knows: VehicleKnowledge, dt: float):
        check_step(dt)
        self.cfg = mission
        self.knows = knows
        self.stage = "takeoff"
        self.verify_point: tuple | None = None  # set on touching down
        self._bounce_until: float | None = None  # the z a bounce climbs to
        self.search_altitude = mission.search_altitude
        self.path: CoveragePath | None = None
        self.yaws: list[float] | None = None
        self.wp_index = 0
        self.attach_attempts = 0
        self.attach_success: bool | None = None
        # hover telemetry: the last hover_window of the landing, and the verify hover
        self._pre_window = deque(maxlen=max(1, round(mission.hover_window / dt)))
        self._post_window: list[tuple[float, ...]] = []
        self.pre_effort: float | None = None
        self._hold_since: float | None = None
        self._lost_since: float | None = None
        self._adsorb_until: float | None = None
        self._verify_since: float | None = None
        self.abort_reason: str | None = None

    @property
    def phase(self) -> MissionPhase:
        """The phase of the current stage; set the stage to change it."""
        return STAGES[self.stage]

    # -- helpers ------------------------------------------------------

    def plan(self) -> None:
        """Plan the coverage at the current search altitude; start it over."""
        k = self.knows
        self.path = plan_coverage(
            deck_size=k.deck_size, deck_center=k.deck_center, deck_yaw=k.deck_yaw,
            altitude_above_deck=max(0.5, self.search_altitude - k.deck_height),
            v_fov=k.det_v_fov, h_fov=k.det_h_fov,
            altitude=self.search_altitude)
        self.yaws = yaw_schedule(self.path.cells)
        self.wp_index = 0

    def _enter(self, stage: str, events: list[str]) -> None:
        """Move to `stage`; a change of phase is an event, and entering
        LAND starts its servo timers afresh."""
        old, new = self.phase, STAGES[stage]
        if new is not old:
            events.append(f"phase:{old.value}->{new.value}")
            if new is MissionPhase.LAND:
                self._hold_since = self._lost_since = None
        self.stage = stage

    def abort(self, reason: str, events: list[str]) -> None:
        """End the mission aborted, for `reason`."""
        self.abort_reason = reason
        self._enter("aborted", events)

    def _world(self, est, setpoint, yaw: float, gains: str, events) -> TickCommand:
        # the setpoint error in the yaw-aligned, horizontal velocity frame:
        # tilt must not leak altitude error into the x/y channels
        (sx, sy, sz), (x, y, z) = setpoint, est.position
        error = (*rotate_t(rotation_rows(0.0, 0.0, est.yaw), (sx - x, sy - y, sz - z)),
                 wrap_angle(yaw - est.yaw))
        return TickCommand(self.cfg.gains[gains], error=error,
                           events=tuple(events))

    def _body(self, error, feedforward, events) -> TickCommand:
        return TickCommand(self.cfg.gains["land"], error=error,
                           feedforward=feedforward, events=tuple(events))

    def _velocity(self, velocity, events, do_adsorb: bool = False) -> TickCommand:
        return TickCommand(velocity=velocity, do_adsorb=do_adsorb,
                           events=tuple(events))

    def _geofence_ok(self, est: PoseEstimate) -> bool:
        x, y, _ = est.position
        xmin, xmax, ymin, ymax = self.cfg.geofence
        return xmin <= x <= xmax and ymin <= y <= ymax

    def _lock_overhead(self, c_b: tuple[float, float, float]) -> bool:
        # a detection far off-nadir (seen sideways during transit) must
        # not trigger the landing descent
        height = -c_b[2]
        return height > 0 and math.hypot(c_b[0], c_b[1]) <= LOCK_CONE_RATIO * height

    # -- main tick ----------------------------------------------------

    def tick(self, inp: TickInputs) -> TickCommand:
        events: list[str] = []
        if self.stage not in ENDED and not self._geofence_ok(inp.estimate):
            self.abort("geofence", events)
        if self.stage in ENDED:
            return self._velocity(STOP, events)
        return HANDLERS[self.stage](self, inp, events)

    def _tick_takeoff(self, inp: TickInputs, events: list[str]) -> TickCommand:
        # vertical-priority ascent: hold the pad position laterally until
        # clear of the platform structures
        sp = (*self.knows.home_xy, self.search_altitude)
        if inp.estimate.position[2] >= self.search_altitude - 0.15:
            self.plan()
            self._enter("search", events)
        return self._world(inp.estimate, sp, 0.0, "takeoff", events)

    def _tick_search(self, inp: TickInputs, events: list[str]) -> TickCommand:
        cfg = self.cfg
        if inp.track.locked and inp.track.position is not None and \
                self._lock_overhead(inp.track.position):
            events.append("cargo_locked")
            self._enter("servo", events)
            return self._tick_servo(inp, events)

        wp = self.path.waypoints[self.wp_index]
        sp = (*wp, self.search_altitude)
        dist = math.hypot(inp.estimate.position[0] - wp[0],
                          inp.estimate.position[1] - wp[1])
        if dist < WAYPOINT_SWITCH_RADIUS:
            if self.wp_index + 1 < len(self.path.waypoints):
                self.wp_index += 1
                events.append(f"waypoint:{self.wp_index}")
            elif self.search_altitude != cfg.min_search_altitude:
                # full coverage without a lock: descend and replan; the
                # grid only gets finer as the footprint shrinks
                self.search_altitude = max(cfg.min_search_altitude,
                                           self.search_altitude - DESCENT_STEP)
                self.plan()
                events.append(f"coverage_replan:alt={self.search_altitude:.2f}")
            else:  # at the floor the plan would not change: fly it again
                self.wp_index = 0
        return self._world(inp.estimate, sp, self.yaws[self.wp_index], "search",
                           events)

    def _tick_servo(self, inp: TickInputs, events: list[str]) -> TickCommand:
        if inp.on_ground:
            # touched something while still servoing (deck or cargo edge):
            # climb clear and retry the approach
            events.append("land_bounce")
            self._hold_since = None
            self._bounce_until = inp.estimate.position[2] + BOUNCE_CLEARANCE
            self._enter("bounce", events)
            return self._tick_bounce(inp, events)
        return self._servo_approach(inp, events)

    def _tick_bounce(self, inp: TickInputs, events: list[str]) -> TickCommand:
        if inp.estimate.position[2] < self._bounce_until:
            return self._velocity((0.0, 0.0, 0.3, 0.0), events)
        self._enter("servo", events)
        return self._servo_approach(inp, events)

    def _servo_approach(self, inp: TickInputs, events: list[str]) -> TickCommand:
        """The servo stage's command once clear of any contact."""
        track = inp.track
        if not track.locked or track.position is None:
            # target lost before lock-in to blind descent: hold position,
            # and give up back to the coverage pattern if it stays lost
            if self._lost_since is None:
                self._lost_since = inp.t
            elif inp.t - self._lost_since >= REACQUIRE_TIME:
                events.append("target_lost")
                self._enter("search", events)
            return self._body((0.0, 0.0, 0.0, 0.0), None, events)
        self._lost_since = None

        cx, cy, cz = track.position
        height = -cz  # height above the cargo top
        err_z = cz + PRE_BLIND_HEIGHT
        horiz = math.hypot(cx, cy)
        if horiz > DESCENT_CONE_RATIO * height + DESCENT_CONE_SLACK:
            # outside the approach funnel: correct laterally at altitude
            # so a gust cannot walk the vehicle down beside the cargo
            err_z = 0.0

        near_hover = height <= PRE_BLIND_HEIGHT + 0.08
        if near_hover:  # the pre-adhesion hover telemetry window
            self._pre_window.append(inp.rotor_speeds)
        if near_hover and horiz < BLIND_HORIZONTAL_THRESHOLD:
            if self._hold_since is None:
                self._hold_since = inp.t
            elif inp.t - self._hold_since >= BLIND_HOLD_TIME:
                # never empty: this tick's sample went in above
                self.pre_effort = hover_effort(self._pre_window)
                self._enter("blind", events)
                events.append("blind_descent")
        else:
            self._hold_since = None
        return self._body((cx, cy, err_z, yaw_error(track.yaw)), track.velocity,
                          events)

    def _tick_blind(self, inp: TickInputs, events: list[str]) -> TickCommand:
        if inp.on_ground:  # the thrust check hovers above this touchdown
            x, y, z = inp.estimate.position
            self.verify_point = (x, y, z + VERIFY_HEIGHT)
            self._adsorb_until = inp.t + self.cfg.adsorb_settle_time
            self._enter("adsorb", events)
            return self._velocity(STOP, events)
        return self._velocity((0.0, 0.0, -BLIND_DESCENT_SPEED, 0.0), events)

    def _tick_adsorb(self, inp: TickInputs, events: list[str]) -> TickCommand:
        if inp.t < self._adsorb_until:
            return self._velocity(STOP, events)
        events.append("adsorb_complete")
        self.attach_attempts += 1
        self._enter("ascend", events)
        return self._velocity(STOP, events, do_adsorb=True)

    def _tick_ascend(self, inp: TickInputs, events: list[str]) -> TickCommand:
        if inp.estimate.position[2] >= self.verify_point[2] - 0.1:
            self._verify_since = inp.t
            self._post_window = []
            self._enter("verify", events)
        return self._world(inp.estimate, self.verify_point, inp.estimate.yaw,
                           "takeoff", events)

    def _tick_verify(self, inp: TickInputs, events: list[str]) -> TickCommand:
        cfg = self.cfg
        self._post_window.append(inp.rotor_speeds)
        if inp.t - self._verify_since >= cfg.hover_window:
            if self.pre_effort is None:
                # the landing never filled its hover window, so there is
                # no effort to compare the post-adhesion hover against
                self.abort("no_pre_hover_window", events)
            elif attachment_check(self.pre_effort, hover_effort(self._post_window),
                                  cfg.attach_delta):
                self.attach_success = True
                events.append("attach_ok")
                self._enter("cruise", events)
            else:
                self.attach_success = False
                events.append("attach_failed")
                if self.attach_attempts >= cfg.max_attach_attempts:
                    self.abort("attach_retries_exhausted", events)
                else:
                    self._pre_window.clear()
                    self._enter("servo", events)
        return self._world(inp.estimate, self.verify_point, inp.estimate.yaw,
                           "return", events)

    def _tick_cruise(self, inp: TickInputs, events: list[str]) -> TickCommand:
        altitude = self.cfg.return_altitude
        (x, y, z), home = inp.estimate.position, self.knows.home_xy
        # climb over the deck before crossing back
        sp = (x, y, altitude) if z < altitude - 0.2 else (*home, altitude)
        horiz = math.hypot(x - home[0], y - home[1])
        if horiz < 0.3 and z >= altitude - 0.3:
            self._enter("descend", events)
        return self._world(inp.estimate, sp, 0.0, "return", events)

    def _tick_descend(self, inp: TickInputs, events: list[str]) -> TickCommand:
        if inp.on_ground:
            events.append("platform_landed")
            self._enter("done", events)
        return self._world(inp.estimate, (*self.knows.home_xy, 0.0), 0.0, "land", events)


# the handler of each stage that is not an end: MissionExecutive._tick_<stage>
HANDLERS = {stage: getattr(MissionExecutive, f"_tick_{stage}")
            for stage in STAGES if stage not in ENDED}
