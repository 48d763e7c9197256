"""Synthetic sea environment and sensor generation.

Provides the oscillating landing platform, the target-vessel deck with
its cargo, UAV velocity-tracking kinematics with wind gusts, ground and
cargo contact, the adsorption action, and every synthetic measurement
the autonomy stack consumes: anchor ranges, marker observations, cargo
detections, IMU attitude/acceleration and rotor telemetry, and
:func:`vehicle_knowledge`, the part of a scenario the vehicle knows.  All
randomness flows from one seeded generator so a run is reproducible bit
for bit.  The world hands out Python floats, alone or in tuples and
lists, and the scenario holds its anchors as rows of floats; numpy draws
the noise and tests the anchors' rank.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .frames import (ANGLE, FIELD_OF_VIEW, FINITE, NATURAL, NON_NEGATIVE, POSITIVE,
                     PROBABILITY, SPREAD, TILT, EulerAngles, Ranged, project, rotate,
                     rotate_t, wrap_angle)
from .perception import DetectionObservation
from .qr_localization import QrMarker, QrObservation

GRAVITY = 9.81


def check_step(dt: float) -> None:
    """Raise ValueError unless :meth:`SimWorld.step` takes a step of `dt` s."""
    if not (0.0 < dt <= 0.1):
        raise ValueError(f"dt must be in (0, 0.1], got {dt}")


@dataclass(frozen=True)
class CargoSpec(Ranged):
    """A transportable box on the target deck."""

    position: tuple[float, float, float] = FINITE()  # world, top-face center
    mass: float = POSITIVE()
    top_diagonal: float = POSITIVE()
    yaw: float = ANGLE(0.0)


def _default_markers() -> list[QrMarker]:
    # mixed-size markers on the landing panel centered at (1, 2) on the platform
    return [
        QrMarker(label=1, diagonal=0.60, panel_xy=(1.0, 2.0)),
        QrMarker(label=2, diagonal=0.30, panel_xy=(1.35, 2.35)),
        QrMarker(label=3, diagonal=0.30, panel_xy=(0.65, 1.65)),
        QrMarker(label=4, diagonal=0.15, panel_xy=(1.35, 1.65)),
        QrMarker(label=5, diagonal=0.15, panel_xy=(0.65, 2.35)),
    ]


@dataclass(frozen=True)
class ScenarioConfig(Ranged):
    """World geometry, noise levels and vehicle parameters for one run.

    Angles are radians here; the JSON schema uses degrees and is
    converted on load.  Defaults replicate the competition setup.
    """

    seed: int = NATURAL(0)
    # localization infrastructure (platform frame)
    anchors: tuple[tuple[float, float, float], ...] = (
        (1.7, 2.4, 0.2), (1.7, -2.4, 0.2), (-1.7, 2.4, 0.2), (-1.7, -2.4, 0.2),
        (-1.7, 0.8, 3.7), (-1.7, -0.8, 3.7),
    )
    label_baseline: float = POSITIVE(0.4)
    qr_markers: list[QrMarker] = field(default_factory=_default_markers)
    # cameras
    qr_focal: float = POSITIVE(0.0036)
    qr_h_fov: float = FIELD_OF_VIEW(math.radians(81.0))
    qr_v_fov: float = FIELD_OF_VIEW(math.radians(53.0))
    qr_max_height: float = POSITIVE(5.0)
    # calibrated so median fix error per 1 m height band reproduces the
    # field measurements (about 2 cm at 1 m up to 32 cm at 5 m)
    qr_image_noise: float = NON_NEGATIVE(3e-5)  # image-plane units, quantization stand-in
    qr_yaw_noise: float = SPREAD(0.01)
    qr_dropout: float = PROBABILITY(0.05)
    det_focal: float = POSITIVE(0.0027)
    det_h_fov: float = FIELD_OF_VIEW(math.radians(106.0))
    det_v_fov: float = FIELD_OF_VIEW(math.radians(73.0))
    det_min_height: float = NON_NEGATIVE(0.09)  # cargo fills the view below this
    det_pos_noise: float = NON_NEGATIVE(0.01)  # m, applied at the cargo plane
    det_yaw_noise: float = SPREAD(0.01)
    det_dropout: float = PROBABILITY(0.05)
    det_conf_base: float = PROBABILITY(0.75)
    det_conf_jitter: float = NON_NEGATIVE(0.15)
    # world geometry
    uav_start: tuple[float, float, float] = FINITE((1.0, 2.0, 0.0))
    deck_center: tuple[float, float] = FINITE((8.0, 0.0))
    # a positive deck_yaw turns the deck clockwise seen from above, the
    # opposite sense to every other yaw here (planner.plan_coverage)
    deck_yaw: float = ANGLE(0.0)
    deck_size: tuple[float, float] = POSITIVE((4.0, 4.0))
    deck_height: float = FINITE(1.0)
    cargoes: tuple[CargoSpec, ...] = (
        CargoSpec(position=(8.0, 0.0, 1.10), mass=0.89, top_diagonal=0.372),
    )
    # platform oscillation
    platform_roll_amp: float = TILT(math.radians(8.0))
    platform_pitch_amp: float = TILT(math.radians(10.0))
    platform_roll_period: float = POSITIVE(6.0)
    platform_pitch_period: float = POSITIVE(5.0)
    platform_roll_phase: float = FINITE(0.0)
    platform_pitch_phase: float = FINITE(1.1)
    platform_yaw_walk: float = NON_NEGATIVE(0.0)  # rad/sqrt(s)
    # wind (Ornstein-Uhlenbeck gust velocity); defaults peak near 12 m/s
    wind_mean: tuple[float, float] = FINITE((5.0, 2.0))  # m/s, world xy
    wind_sigma: float = NON_NEGATIVE(2.0)
    wind_tau: float = POSITIVE(2.0)
    drag_coeff: float = NON_NEGATIVE(0.24)  # gust velocity -> disturbance acceleration
    # the autopilot's inner velocity loop estimates and cancels slow wind
    # (it carries its own integrator); only gusts faster than this time
    # constant leak through as disturbance
    trim_tau: float = POSITIVE(1.0)
    # vehicle
    uav_mass: float = POSITIVE(7.9)
    vel_time_constant: float = POSITIVE(0.3)
    tilt_limit: float = TILT(math.radians(15.0))
    rotor_noise: float = NON_NEGATIVE(0.02)  # rad/s on each rotor speed sample
    # ranging noise
    sigma_uwb: float = NON_NEGATIVE(0.10)
    occlusion_center: tuple[float, float, float] | None = FINITE(None)
    occlusion_radius: float = NON_NEGATIVE(0.0)
    occlusion_factor: float = NON_NEGATIVE(5.0)

    def __post_init__(self):
        super().__post_init__()
        # the anchors as rows of three floats; a label position is
        # observable from ranges only with three non-collinear anchors
        try:
            rows = list(self.anchors)
        except TypeError:
            raise ValueError(f"anchors must be a sequence of rows, "
                             f"got {self.anchors!r}") from None
        for k, anchor in enumerate(rows):
            if np.ndim(anchor) != 1 or len(anchor) != 3:
                raise ValueError(f"anchors[{k}] must hold 3 coordinates, "
                                 f"got {anchor!r}")
        pos = np.asarray(self.anchors, dtype=float)
        if not np.isfinite(pos).all():
            raise ValueError("anchors must be finite")
        if len(pos) < 3:
            raise ValueError(f"need >= 3 anchors with 3 coordinates, got {pos.shape}")
        if np.linalg.matrix_rank(pos - pos.mean(axis=0), tol=1e-9) < 2:
            raise ValueError("anchors are collinear; label position unobservable")
        object.__setattr__(self, "anchors", tuple(map(tuple, pos.tolist())))
        # the detector sees every cargo, but contact, adsorption, the
        # known top diagonal and the landing error take only cargoes[0]
        if len(self.cargoes) != 1:
            raise ValueError(f"cargoes must hold exactly one cargo, "
                             f"got {len(self.cargoes)}")
        # the marker fix looks each sighting up by its label
        labels = [m.label for m in self.qr_markers]
        if len(set(labels)) != len(labels):
            raise ValueError(f"qr_markers must hold distinct labels, got {labels}")


class VehicleKnowledge(NamedTuple):
    """What the vehicle may know before it flies: the ranging and marker
    infrastructure, its cameras, the deck, its home pad and the size, not
    the place, of the cargo it looks for.  The autonomy stack is built from
    this alone; the truth and the noise draws stay in the world."""

    anchors: tuple[tuple[float, float, float], ...]
    label_baseline: float
    markers: tuple[QrMarker, ...]
    qr_focal: float
    det_focal: float
    det_h_fov: float
    det_v_fov: float
    top_diagonal: float  # of the cargo's top face
    deck_center: tuple[float, float]
    deck_yaw: float
    deck_size: tuple[float, float]
    deck_height: float
    home_xy: tuple[float, float]
    sigma_uwb: float  # the range noise the filters assume


def vehicle_knowledge(cfg: ScenarioConfig) -> VehicleKnowledge:
    """The part of `cfg` the vehicle knows."""
    return VehicleKnowledge(
        cfg.anchors, cfg.label_baseline, tuple(cfg.qr_markers), cfg.qr_focal,
        cfg.det_focal, cfg.det_h_fov, cfg.det_v_fov, cfg.cargoes[0].top_diagonal,
        cfg.deck_center, cfg.deck_yaw, cfg.deck_size, cfg.deck_height,
        tuple(float(v) for v in cfg.uav_start[:2]), cfg.sigma_uwb)


class SimState(NamedTuple):
    """Immutable snapshot of the world at time t, the platform yaw included:
    `SimWorld.step` reads no other per-flight state than its generator.
    A named tuple, built anew every tick: ``_replace`` makes a changed copy.

    Every vector is a tuple of Python floats: (x, y, z), world (x, y),
    or the four rotor speeds.
    """

    t: float
    platform_attitude: EulerAngles
    uav_pos: tuple[float, float, float]
    uav_euler: EulerAngles
    uav_vel: tuple[float, float, float]
    uav_acc: tuple[float, float, float]  # world frame, kinematic
    wind_vel: tuple[float, float]  # world xy gust velocity
    wind_trim: tuple[float, float]  # inner-loop estimate of the wind disturbance
    attached_mass: float
    rotor_speeds: tuple[float, float, float, float]  # rad/s
    on_ground: bool = False

    @property
    def rotor_sum_sq(self) -> float:
        a, b, c, d = self.rotor_speeds
        return a * a + b * b + c * c + d * d


def _wave(amp: float, t: float, period: float, phase: float) -> float:
    """amp sin(2 pi t / period + phase).  Where that angle leaves the float
    range (a period of a few 1e-324 s, a phase near 1e308) it is taken from
    the start of the current period, which has the same sine."""
    angle = 2 * math.pi * t / period + phase
    if not math.isfinite(angle):
        angle = 2 * math.pi * math.fmod(t, period) / period + phase
    return amp * math.sin(angle)


def _in_view(point, r: float, view) -> bool:
    """Whether the camera-frame `point`, or any point within `r` of it, lies
    in front of the lens, within the near/far depth and inside the field of
    view of a camera `view` = (focal, near, far, tan_h, tan_v), the tangents
    of half its fields of view.  A NaN coordinate fails no test."""
    x, y, z = point
    focal, near, far, tan_h, tan_v = view
    return not (z - r >= -focal or r - z < near or -z - r > far
                or abs(x) - r > tan_h * (r - z) or abs(y) - r > tan_v * (r - z))


class SimWorld:
    """Steppable world whose only per-flight state is the generator of all
    noise.  What it draws depends on what the sensors see, never on a noise
    level: a noise of 0 still draws (``platform_yaw_walk`` aside, see step)."""

    def __init__(self, cfg: ScenarioConfig):
        self.cfg = cfg
        self.rng = np.random.default_rng(cfg.seed)
        # the labels sit at (0, +-half, 0) in the body frame; the panel
        # markers are fixed platform-frame points, one per row
        self._half_baseline = cfg.label_baseline / 2
        self._qr_panels = [(float(m.panel_xy[0]), float(m.panel_xy[1]), 0.0)
                           for m in cfg.qr_markers]
        # a sphere around every marker, widened for rounding; see sense_qr
        panels = self._qr_panels
        self._qr_center = tuple(sum(c) / len(panels) for c in zip(*panels)) \
            if panels else (0.0, 0.0, 0.0)
        self._qr_radius = max((math.dist(p, self._qr_center)
                               for p in self._qr_panels), default=0.0) + 1e-6
        self._qr_view = (cfg.qr_focal, 0.0, cfg.qr_max_height,
                         math.tan(cfg.qr_h_fov / 2.0), math.tan(cfg.qr_v_fov / 2.0))
        self._det_view = (cfg.det_focal, cfg.det_min_height, math.inf,
                          math.tan(cfg.det_h_fov / 2.0), math.tan(cfg.det_v_fov / 2.0))
        self._deck_cos_sin = (math.cos(cfg.deck_yaw), math.sin(cfg.deck_yaw))

    def initial_state(self) -> SimState:
        cfg = self.cfg
        hover = math.sqrt(cfg.uav_mass * GRAVITY / 4.0)
        wx, wy = map(float, cfg.wind_mean)
        return SimState(
            t=0.0,
            platform_attitude=self._platform_attitude(0.0, 0.0),
            uav_pos=tuple(map(float, cfg.uav_start)),
            uav_euler=EulerAngles(0.0, 0.0, 0.0),
            uav_vel=(0.0, 0.0, 0.0),
            uav_acc=(0.0, 0.0, 0.0),
            wind_vel=(wx, wy),
            wind_trim=(cfg.drag_coeff * wx, cfg.drag_coeff * wy),
            attached_mass=0.0,
            rotor_speeds=(hover,) * 4,
        )

    def _platform_attitude(self, t: float, yaw: float) -> EulerAngles:
        cfg = self.cfg
        roll = _wave(cfg.platform_roll_amp, t, cfg.platform_roll_period,
                     cfg.platform_roll_phase)
        pitch = _wave(cfg.platform_pitch_amp, t, cfg.platform_pitch_period,
                      cfg.platform_pitch_phase)
        return EulerAngles(roll, pitch, wrap_angle(yaw))

    def step(self, state: SimState, cmd, dt: float) -> SimState:
        """Advance one control period under a body-frame velocity command.

        cmd is [vx, vy, vz, yaw_rate].  The UAV velocity follows the
        command through a first-order lag; gusts act as a bounded
        disturbance acceleration; rotor speeds balance the carried
        weight plus the commanded vertical acceleration.  A lag (velocity,
        gust or trim) with a time constant shorter than dt settles within
        the step, so no Euler step overshoots its target.

        Contact: a grounded vehicle holds still until a command climbs,
        which lifts it off.  A flying vehicle that sinks, under a command
        that does not climb, to within 2 cm of the surface under it (see
        :meth:`support_height`) is grounded where it stands.  From that step
        on it is at rest: still, level and at hover thrust.
        """
        cfg = self.cfg
        c_vx, c_vy, c_vz, c_yaw = cmd
        if not (math.isfinite(c_vx) and math.isfinite(c_vy)
                and math.isfinite(c_vz) and math.isfinite(c_yaw)):
            raise ValueError("command must be finite")
        check_step(dt)

        t = state.t + dt
        # the one noise drawn only when above 0: its default is 0, and a
        # draw on every tick would shift the stream of every default mission
        platform_yaw, walk = state.platform_attitude.yaw, cfg.platform_yaw_walk
        if walk > 0.0:
            platform_yaw += walk * math.sqrt(dt) * self.rng.standard_normal()
        platform = self._platform_attitude(t, platform_yaw)

        # the gust and rotor noise in one draw: Generator.normal(mu, s) is
        # exactly mu + s * standard_normal(), draw for draw
        n0, n1, r0, r1, r2, r3 = self.rng.standard_normal(6).tolist()
        wx, wy = state.wind_vel
        relax = min(dt / cfg.wind_tau, 1.0)
        gust = cfg.wind_sigma * math.sqrt(dt)
        wx = wx + (cfg.wind_mean[0] - wx) * relax + gust * n0
        wy = wy + (cfg.wind_mean[1] - wy) * relax + gust * n1

        yaw = wrap_angle(state.uav_euler.yaw + c_yaw * dt)
        cy, sy = math.cos(yaw), math.sin(yaw)
        vx, vy, vz = state.uav_vel
        dist_x = cfg.drag_coeff * (wx - vx)
        dist_y = cfg.drag_coeff * (wy - vy)
        tx, ty = state.wind_trim
        trim_gain = min(dt / cfg.trim_tau, 1.0)
        tx = tx + (dist_x - tx) * trim_gain
        ty = ty + (dist_y - ty) * trim_gain
        tau = max(cfg.vel_time_constant, dt)
        ax = (cy * c_vx - sy * c_vy - vx) / tau + (dist_x - tx)
        ay = (sy * c_vx + cy * c_vy - vy) / tau + (dist_y - ty)
        az = (c_vz - vz) / tau + 0.0  # no vertical disturbance
        on_ground = state.on_ground and c_vz <= 0.0
        pos = state.uav_pos
        if not on_ground:
            vx, vy, vz = vx + ax * dt, vy + ay * dt, vz + az * dt
            px, py, pz = pos
            pos = (px + vx * dt, py + vy * dt, pz + vz * dt)
            on_ground = (c_vz <= 0.0 and vz <= 0.0
                         and pos[2] <= self.support_height(pos[0], pos[1]) + 0.02)
        if on_ground:  # at rest from the touchdown step: still, level, hover thrust
            vel = acc = (0.0, 0.0, 0.0)
            ax = ay = az = 0.0
        else:
            vel, acc = (vx, vy, vz), (ax, ay, az)

        # tilt follows the commanded horizontal acceleration
        a_bx = cy * ax + sy * ay
        a_by = -sy * ax + cy * ay
        lim = cfg.tilt_limit
        pitch = max(-lim, min(lim, math.atan2(a_bx, GRAVITY)))
        roll = max(-lim, min(lim, -math.atan2(a_by, GRAVITY)))
        euler = EulerAngles(roll, pitch, yaw)

        mass = cfg.uav_mass + state.attached_mass
        thrust = max(0.05 * mass * GRAVITY, mass * (GRAVITY + az))
        mu, sigma = math.sqrt(thrust / 4.0), cfg.rotor_noise
        rotors = (mu + sigma * r0, mu + sigma * r1, mu + sigma * r2, mu + sigma * r3)

        return SimState(t=t, platform_attitude=platform, uav_pos=pos,
                        uav_euler=euler, uav_vel=vel, uav_acc=acc,
                        wind_vel=(wx, wy), wind_trim=(tx, ty),
                        attached_mass=state.attached_mass,
                        rotor_speeds=rotors, on_ground=on_ground)

    # --- sensors -----------------------------------------------------

    def _labels_platform(self, state: SimState) -> list[tuple[float, ...]]:
        # the body's y axis, the middle column of R_b_w, times the half
        # baseline: the products that rotate(R_b_w, (0, +-half, 0)) sums
        (_, cx, _), (_, cy, _), (_, cz, _) = state.uav_euler.rows
        half = self._half_baseline
        ox, oy, oz = cx * half, cy * half, cz * half
        px, py, pz = state.uav_pos
        R_a_w = state.platform_attitude.rows
        return [rotate_t(R_a_w, (px + ox, py + oy, pz + oz)),
                rotate_t(R_a_w, (px - ox, py - oy, pz - oz))]

    def sense_uwb(self, state: SimState) -> list[list[float]]:
        """Noisy label-to-anchor ranges; row i holds label i's range to
        every anchor, one row per label."""
        cfg = self.cfg
        anchors, occluded = cfg.anchors, cfg.occlusion_center
        noise = self.rng.standard_normal((2, len(anchors))).tolist()
        out = []
        for u, draws in zip(self._labels_platform(state), noise):
            sigma = cfg.sigma_uwb * (cfg.occlusion_factor if occluded is not None and
                                     math.dist(u, occluded) <= cfg.occlusion_radius
                                     else 1.0)
            out.append([math.dist(u, a) + sigma * n for a, n in zip(anchors, draws)])
        return out

    def sense_imu(self, state: SimState,
                  ) -> tuple[tuple[float, float, float], float, float]:
        """Body-frame acceleration plus roll and pitch (yaw withheld)."""
        euler = state.uav_euler
        return rotate_t(euler.rows, state.uav_acc), euler.roll, euler.pitch

    def sense_qr(self, state: SimState) -> list[QrObservation]:
        """Project visible panel markers into the downward camera."""
        cfg = self.cfg
        R_a_w, R_b_w = state.platform_attitude.rows, state.uav_euler.rows
        px, py, pz = state.uav_pos

        def camera(point):  # platform-frame point -> camera frame
            x, y, z = rotate(R_a_w, point)
            return rotate_t(R_b_w, (x - px, y - py, z - pz))

        # Every marker lies within _qr_radius of _qr_center, so when the
        # centre fails a visibility test by more than that radius, every
        # marker fails it too, before any noise is drawn for it.
        view = self._qr_view
        if not _in_view(camera(self._qr_center), self._qr_radius, view):
            return []
        psi_img = wrap_angle(state.platform_attitude.yaw - state.uav_euler.yaw
                             - math.pi)
        out = []
        for marker, panel in zip(cfg.qr_markers, self._qr_panels):
            cam = camera(panel)
            if not _in_view(cam, 0.0, view) or self.rng.random() < cfg.qr_dropout:
                continue
            cx, cy, d_img = project(cam, cfg.qr_focal, marker.diagonal)
            n0, n1, n2, n3 = self.rng.standard_normal(4).tolist()
            cx += cfg.qr_image_noise * n0
            cy += cfg.qr_image_noise * n1
            d_img = abs(d_img + cfg.qr_image_noise * n2)
            yaw = psi_img + cfg.qr_yaw_noise * n3
            if not (d_img > 0.0 and all(map(math.isfinite, (cx, cy, d_img, yaw)))):
                continue  # an image too small, or noise past the float range
            out.append(QrObservation(label=marker.label, image_diagonal=d_img,
                                     image_center=(cx, cy), image_yaw=wrap_angle(yaw)))
        return out

    def sense_cargo(self, state: SimState) -> list[DetectionObservation]:
        """Project deck cargoes into the detection camera with noise."""
        cfg = self.cfg
        R_b_w = state.uav_euler.rows
        px, py, pz = state.uav_pos
        out = []
        for cargo in cfg.cargoes:
            qx, qy, qz = cargo.position
            x, y, z = rotate_t(R_b_w, (qx - px, qy - py, qz - pz))
            nx, ny, nz = self.rng.standard_normal(3).tolist()
            x += cfg.det_pos_noise * nx
            y += cfg.det_pos_noise * ny
            z += cfg.det_pos_noise * nz
            # nearer than det_min_height the cargo fills the field of view
            if not _in_view((x, y, z), 0.0, self._det_view) or \
                    self.rng.random() < cfg.det_dropout:
                continue
            cx, cy, d_img = project((x, y, z), cfg.det_focal, cargo.top_diagonal)
            conf = cfg.det_conf_base + cfg.det_conf_jitter * \
                (2.0 * self.rng.random() - 1.0)
            yaw = wrap_angle(cargo.yaw - state.uav_euler.yaw) + \
                cfg.det_yaw_noise * self.rng.standard_normal()
            if not (d_img > 0.0 and all(map(math.isfinite, (cx, cy, d_img, yaw)))):
                continue  # an image too small, or noise past the float range
            out.append(DetectionObservation(
                confidence=min(1.0, max(0.0, conf)), image_center=(cx, cy),
                box_diagonal=d_img, box_yaw=wrap_angle(yaw)))
        return out

    def attach_cargo(self, state: SimState, success_prob: float) -> SimState:
        """Adsorb the cargo with probability success_prob (one draw)."""
        if self.rng.random() < success_prob:
            return state._replace(attached_mass=self.cfg.cargoes[0].mass)
        return state

    def support_height(self, x: float, y: float) -> float:
        """Height under (x, y): the cargo's top, the deck (turned by
        ``deck_yaw`` as the coverage plan turns it), or 0."""
        cfg = self.cfg
        cargo = cfg.cargoes[0]
        if math.hypot(x - cargo.position[0], y - cargo.position[1]) \
                <= cargo.top_diagonal / 2.0:
            return cargo.position[2]
        dx = x - cfg.deck_center[0]
        dy = y - cfg.deck_center[1]
        c, s = self._deck_cos_sin  # world to deck: plan_coverage's inverse
        if abs(c * dx - s * dy) <= cfg.deck_size[0] / 2 and \
                abs(s * dx + c * dy) <= cfg.deck_size[1] / 2:
            return cfg.deck_height
        return 0.0
