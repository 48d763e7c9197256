"""Synthetic sea environment and sensor generation.

Provides the oscillating landing platform, the target-vessel deck with
its cargo, UAV velocity-tracking kinematics with wind gusts, ground and
cargo contact, the adsorption action, and every synthetic measurement
the autonomy stack consumes: anchor ranges, marker observations, cargo
detections, IMU attitude/acceleration and rotor telemetry.  All
randomness flows from one seeded generator so a run is reproducible bit
for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .frames import EulerAngles, rotate, rotate_t, wrap_angle
from .perception import DetectionObservation
from .qr_localization import QrMarker, QrObservation

GRAVITY = 9.81


@dataclass(frozen=True)
class CargoSpec:
    """A transportable box on the target deck."""

    position: tuple[float, float, float]  # world, top-face center
    mass: float
    top_diagonal: float
    yaw: float = 0.0

    def __post_init__(self):
        if self.mass <= 0 or self.top_diagonal <= 0:
            raise ValueError("cargo mass and diagonal must be > 0")


def _default_anchors() -> np.ndarray:
    return np.array([
        [1.7, 2.4, 0.2], [1.7, -2.4, 0.2], [-1.7, 2.4, 0.2], [-1.7, -2.4, 0.2],
        [-1.7, 0.8, 3.7], [-1.7, -0.8, 3.7],
    ])


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
class ScenarioConfig:
    """World geometry, noise levels and vehicle parameters for one run.

    Angles are radians here; the JSON schema uses degrees and is
    converted on load.  Defaults replicate the competition setup.
    """

    seed: int = 0
    # localization infrastructure (platform frame)
    anchors: np.ndarray = field(default_factory=_default_anchors)
    label_baseline: float = 0.4
    qr_markers: list[QrMarker] = field(default_factory=_default_markers)
    # cameras
    qr_focal: float = 0.0036
    qr_h_fov: float = math.radians(81.0)
    qr_v_fov: float = math.radians(53.0)
    qr_max_height: float = 5.0
    # calibrated so median fix error per 1 m height band reproduces the
    # field measurements (about 2 cm at 1 m up to 32 cm at 5 m)
    qr_image_noise: float = 3e-5  # image-plane units, quantization stand-in
    qr_yaw_noise: float = 0.01
    qr_dropout: float = 0.05
    det_focal: float = 0.0027
    det_h_fov: float = math.radians(106.0)
    det_v_fov: float = math.radians(73.0)
    det_min_height: float = 0.09  # cargo fills the view below this
    det_pos_noise: float = 0.01  # m, applied at the cargo plane
    det_yaw_noise: float = 0.01
    det_dropout: float = 0.05
    det_conf_base: float = 0.75
    det_conf_jitter: float = 0.15
    # world geometry
    uav_start: tuple[float, float, float] = (1.0, 2.0, 0.0)
    deck_center: tuple[float, float] = (8.0, 0.0)
    deck_yaw: float = 0.0
    deck_size: tuple[float, float] = (4.0, 4.0)
    deck_height: float = 1.0
    cargoes: tuple[CargoSpec, ...] = (
        CargoSpec(position=(8.0, 0.0, 1.10), mass=0.89, top_diagonal=0.372),
    )
    # platform oscillation
    platform_roll_amp: float = math.radians(8.0)
    platform_pitch_amp: float = math.radians(10.0)
    platform_roll_period: float = 6.0
    platform_pitch_period: float = 5.0
    platform_roll_phase: float = 0.0
    platform_pitch_phase: float = 1.1
    platform_yaw_walk: float = 0.0  # rad/sqrt(s)
    # wind (Ornstein-Uhlenbeck gust velocity); defaults peak near 12 m/s
    wind_mean: tuple[float, float] = (5.0, 2.0)  # m/s, world xy
    wind_sigma: float = 2.0
    wind_tau: float = 2.0
    drag_coeff: float = 0.24  # gust velocity -> disturbance acceleration
    # the autopilot's inner velocity loop estimates and cancels slow wind
    # (it carries its own integrator); only gusts faster than this time
    # constant leak through as disturbance
    trim_tau: float = 1.0
    # vehicle
    uav_mass: float = 7.9
    vel_time_constant: float = 0.3
    tilt_limit: float = math.radians(15.0)
    rotor_noise: float = 0.02  # rad/s on each rotor speed sample
    # ranging noise
    sigma_uwb: float = 0.10
    occlusion_center: tuple[float, float, float] | None = None
    occlusion_radius: float = 0.0
    occlusion_factor: float = 5.0

    def __post_init__(self):
        anchors = np.asarray(self.anchors, dtype=float)
        object.__setattr__(self, "anchors", anchors)
        if anchors.shape[0] < 3:
            raise ValueError("need at least three anchors")
        centered = anchors - anchors.mean(axis=0)
        if np.linalg.matrix_rank(centered, tol=1e-9) < 2:
            raise ValueError("anchors must be non-collinear")
        if self.label_baseline <= 0:
            raise ValueError("label baseline must be > 0")
        for fov in (self.qr_h_fov, self.qr_v_fov, self.det_h_fov, self.det_v_fov):
            if not (0 < fov < math.pi):
                raise ValueError("fields of view must be in (0, 180) degrees")
        if self.uav_mass <= 0:
            raise ValueError("UAV mass must be > 0")
        # the detector sees every cargo, but contact, adsorption, the
        # executive and the landing error know only cargoes[0]
        if len(self.cargoes) != 1:
            raise ValueError(f"cargoes must hold exactly one cargo, "
                             f"got {len(self.cargoes)}")


@dataclass(frozen=True)
class SimState:
    """Immutable snapshot of the world at time t.

    The small vectors are tuples of Python floats, (x, y, z) or world
    (x, y); only the rotor speeds, drawn as an array, are numpy.
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
    rotor_speeds: np.ndarray  # (4,) rad/s
    on_ground: bool = False

    @property
    def rotor_sum_sq(self) -> float:
        return float(np.dot(self.rotor_speeds, self.rotor_speeds))


@dataclass(frozen=True)
class RotorTelemetry:
    """Window-averaged rotor speeds used by the attachment test."""

    speeds: np.ndarray  # (4,) rad/s averaged over the hover window

    @property
    def sum_sq(self) -> float:
        return float(np.dot(self.speeds, self.speeds))


class SimWorld:
    """Steppable world; owns the seeded generator for all noise draws."""

    def __init__(self, cfg: ScenarioConfig):
        self.cfg = cfg
        self.rng = np.random.default_rng(cfg.seed)
        self._platform_yaw = 0.0
        # fixed body- and panel-frame points, one per row
        half = cfg.label_baseline / 2
        self._label_offsets = [[0.0, half, 0.0], [0.0, -half, 0.0]]
        self._anchors = cfg.anchors.tolist()
        self._qr_panels = [(float(m.panel_xy[0]), float(m.panel_xy[1]), 0.0)
                           for m in cfg.qr_markers]
        # a sphere around every marker, widened for rounding; see sense_qr
        panels = self._qr_panels
        self._qr_center = tuple(sum(c) / len(panels) for c in zip(*panels)) \
            if panels else (0.0, 0.0, 0.0)
        self._qr_radius = max((math.dist(p, self._qr_center)
                               for p in self._qr_panels), default=0.0) + 1e-6

    def initial_state(self) -> SimState:
        cfg = self.cfg
        hover = math.sqrt(cfg.uav_mass * GRAVITY / 4.0)
        wx, wy = map(float, cfg.wind_mean)
        return SimState(
            t=0.0,
            platform_attitude=self._platform_attitude(0.0),
            uav_pos=tuple(map(float, cfg.uav_start)),
            uav_euler=EulerAngles(0.0, 0.0, 0.0),
            uav_vel=(0.0, 0.0, 0.0),
            uav_acc=(0.0, 0.0, 0.0),
            wind_vel=(wx, wy),
            wind_trim=(cfg.drag_coeff * wx, cfg.drag_coeff * wy),
            attached_mass=0.0,
            rotor_speeds=np.full(4, hover),
        )

    def _platform_attitude(self, t: float) -> EulerAngles:
        cfg = self.cfg
        roll = cfg.platform_roll_amp * math.sin(
            2 * math.pi * t / cfg.platform_roll_period + cfg.platform_roll_phase)
        pitch = cfg.platform_pitch_amp * math.sin(
            2 * math.pi * t / cfg.platform_pitch_period + cfg.platform_pitch_phase)
        return EulerAngles(roll, pitch, wrap_angle(self._platform_yaw))

    def step(self, state: SimState, cmd, dt: float) -> SimState:
        """Advance one control period under a body-frame velocity command.

        cmd is [vx, vy, vz, yaw_rate].  The UAV velocity follows the
        command through a first-order lag; gusts act as a bounded
        disturbance acceleration; rotor speeds balance the carried
        weight plus the commanded vertical acceleration.
        """
        cfg = self.cfg
        c_vx, c_vy, c_vz, c_yaw = cmd
        if not (math.isfinite(c_vx) and math.isfinite(c_vy)
                and math.isfinite(c_vz) and math.isfinite(c_yaw)):
            raise ValueError("command must be finite")
        if not (0.0 < dt <= 0.1):
            raise ValueError(f"dt must be in (0, 0.1], got {dt}")

        t = state.t + dt
        if cfg.platform_yaw_walk > 0.0:
            self._platform_yaw += cfg.platform_yaw_walk * math.sqrt(dt) * \
                self.rng.standard_normal()
        platform = self._platform_attitude(t)

        wx, wy = state.wind_vel
        if cfg.wind_sigma > 0.0:
            relax = dt / cfg.wind_tau
            gust = cfg.wind_sigma * math.sqrt(dt)
            n0, n1 = self.rng.standard_normal(2).tolist()
            wx = wx + (cfg.wind_mean[0] - wx) * relax + gust * n0
            wy = wy + (cfg.wind_mean[1] - wy) * relax + gust * n1

        yaw = wrap_angle(state.uav_euler.yaw + c_yaw * dt)
        cy, sy = math.cos(yaw), math.sin(yaw)
        vx, vy, vz = state.uav_vel
        dist_x = cfg.drag_coeff * (wx - vx)
        dist_y = cfg.drag_coeff * (wy - vy)
        tx, ty = state.wind_trim
        trim_gain = dt / cfg.trim_tau
        tx = tx + (dist_x - tx) * trim_gain
        ty = ty + (dist_y - ty) * trim_gain
        tau = cfg.vel_time_constant
        ax = (cy * c_vx - sy * c_vy - vx) / tau + (dist_x - tx)
        ay = (sy * c_vx + cy * c_vy - vy) / tau + (dist_y - ty)
        az = (c_vz - vz) / tau + 0.0  # no vertical disturbance
        on_ground = state.on_ground
        if on_ground and c_vz <= 0.0:
            vel = acc = (0.0, 0.0, 0.0)
            pos = state.uav_pos
            ax = ay = az = 0.0
        else:
            if c_vz > 0.0:
                on_ground = False
            vx, vy, vz = vx + ax * dt, vy + ay * dt, vz + az * dt
            px, py, pz = state.uav_pos
            vel = (vx, vy, vz)
            acc = (ax, ay, az)
            pos = (px + vx * dt, py + vy * dt, pz + vz * dt)

        # tilt follows the commanded horizontal acceleration
        a_bx = cy * ax + sy * ay
        a_by = -sy * ax + cy * ay
        lim = cfg.tilt_limit
        pitch = max(-lim, min(lim, math.atan2(a_bx, GRAVITY)))
        roll = max(-lim, min(lim, -math.atan2(a_by, GRAVITY)))
        euler = EulerAngles(roll, pitch, yaw)

        mass = cfg.uav_mass + state.attached_mass
        thrust = max(0.05 * mass * GRAVITY, mass * (GRAVITY + az))
        speed = math.sqrt(thrust / 4.0)
        if cfg.rotor_noise > 0.0:
            # speed + noise * n per rotor, as numpy draws it: the same stream
            rotors = self.rng.normal(speed, cfg.rotor_noise, 4)
        else:
            rotors = np.full(4, speed)

        return SimState(t=t, platform_attitude=platform, uav_pos=pos,
                        uav_euler=euler, uav_vel=vel, uav_acc=acc,
                        wind_vel=(wx, wy), wind_trim=(tx, ty),
                        attached_mass=state.attached_mass,
                        rotor_speeds=rotors, on_ground=on_ground)

    # --- sensors -----------------------------------------------------

    def _labels_platform(self, state: SimState) -> list[tuple[float, ...]]:
        R_b_w, R_a_w = state.uav_euler.rows, state.platform_attitude.rows
        px, py, pz = state.uav_pos
        labels = []
        for offset in self._label_offsets:
            x, y, z = rotate(R_b_w, offset)
            labels.append(rotate_t(R_a_w, (px + x, py + y, pz + z)))
        return labels

    def sense_uwb(self, state: SimState) -> np.ndarray:
        """Noisy label-to-anchor ranges; row i holds label i's range to
        every anchor, shape (labels, anchors)."""
        cfg = self.cfg
        labels = self._labels_platform(state)
        ranges = [[math.dist(u, a) for a in self._anchors] for u in labels]
        occluded = cfg.occlusion_center
        sigmas = [cfg.sigma_uwb * (cfg.occlusion_factor if occluded is not None and
                                   math.dist(u, occluded) <= cfg.occlusion_radius
                                   else 1.0) for u in labels]
        noisy = [i for i, sigma in enumerate(sigmas) if sigma > 0.0]
        # one draw for every noisy label: the generator yields the same
        # stream as one draw of len(anchors) values per label
        rows = self.rng.standard_normal((len(noisy), len(self._anchors)))
        for i, noise in zip(noisy, rows.tolist()):
            ranges[i] = [r + sigmas[i] * n for r, n in zip(ranges[i], noise)]
        return np.array(ranges)

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
        tan_h = math.tan(cfg.qr_h_fov / 2.0)
        tan_v = math.tan(cfg.qr_v_fov / 2.0)

        def camera(point):  # platform-frame point -> camera frame
            x, y, z = rotate(R_a_w, point)
            return rotate_t(R_b_w, (x - px, y - py, z - pz))

        # Every marker lies within _qr_radius of _qr_center, so when the
        # centre fails a visibility test by more than that radius, every
        # marker fails it too, before any noise is drawn for it.
        x, y, z = camera(self._qr_center)
        r = self._qr_radius
        if (z - r >= -cfg.qr_focal or -z - r > cfg.qr_max_height
                or abs(x) - r > tan_h * (r - z) or abs(y) - r > tan_v * (r - z)):
            return []
        psi_img = wrap_angle(state.platform_attitude.yaw - state.uav_euler.yaw
                             - math.pi)
        out = []
        for marker, panel in zip(cfg.qr_markers, self._qr_panels):
            cam = camera(panel)
            z = cam[2]
            if z >= -cfg.qr_focal:
                continue
            depth = -z
            if depth > cfg.qr_max_height:
                continue
            if abs(cam[0]) > tan_h * depth or abs(cam[1]) > tan_v * depth:
                continue
            if cfg.qr_dropout > 0.0 and self.rng.random() < cfg.qr_dropout:
                continue
            d_img = -cfg.qr_focal * marker.diagonal / (z + cfg.qr_focal)
            cx = cam[0] * d_img / marker.diagonal
            cy = cam[1] * d_img / marker.diagonal
            yaw = psi_img
            if cfg.qr_image_noise > 0.0:
                cx += cfg.qr_image_noise * self.rng.standard_normal()
                cy += cfg.qr_image_noise * self.rng.standard_normal()
                d_img = abs(d_img + cfg.qr_image_noise * self.rng.standard_normal())
            if cfg.qr_yaw_noise > 0.0:
                yaw = wrap_angle(yaw + cfg.qr_yaw_noise * self.rng.standard_normal())
            out.append(QrObservation(label=marker.label, image_diagonal=d_img,
                                     image_center=(cx, cy), image_yaw=yaw,
                                     focal_length=cfg.qr_focal))
        return out

    def sense_cargo(self, state: SimState) -> list[DetectionObservation]:
        """Project deck cargoes into the detection camera with noise."""
        cfg = self.cfg
        R_b_w = state.uav_euler.rows
        px, py, pz = state.uav_pos
        tan_h = math.tan(cfg.det_h_fov / 2.0)
        tan_v = math.tan(cfg.det_v_fov / 2.0)
        out = []
        for cargo in cfg.cargoes:
            qx, qy, qz = cargo.position
            x, y, z = rotate_t(R_b_w, (qx - px, qy - py, qz - pz))
            if cfg.det_pos_noise > 0.0:
                nx, ny, nz = self.rng.standard_normal(3).tolist()
                x += cfg.det_pos_noise * nx
                y += cfg.det_pos_noise * ny
                z += cfg.det_pos_noise * nz
            if z >= -cfg.det_focal:
                continue
            depth = -z
            if depth < cfg.det_min_height:
                continue  # cargo fills the field of view
            if abs(x) > tan_h * depth or abs(y) > tan_v * depth:
                continue
            if cfg.det_dropout > 0.0 and self.rng.random() < cfg.det_dropout:
                continue
            d_img = -cfg.det_focal * cargo.top_diagonal / (z + cfg.det_focal)
            cx = x * d_img / cargo.top_diagonal
            cy = y * d_img / cargo.top_diagonal
            conf = cfg.det_conf_base + cfg.det_conf_jitter * \
                (2.0 * self.rng.random() - 1.0)
            yaw = wrap_angle(cargo.yaw - state.uav_euler.yaw)
            if cfg.det_yaw_noise > 0.0:
                yaw = wrap_angle(yaw + cfg.det_yaw_noise * self.rng.standard_normal())
            out.append(DetectionObservation(
                confidence=min(1.0, max(0.0, conf)), image_center=(cx, cy),
                box_diagonal=d_img, box_yaw=yaw))
        return out

    def attach_cargo(self, state: SimState, success_prob: float) -> SimState:
        """Adsorb the cargo with probability success_prob (one draw)."""
        if self.rng.random() < success_prob:
            return replace(state, attached_mass=self.cfg.cargoes[0].mass)
        return state

    def support_height(self, x: float, y: float) -> float:
        """Height under (x, y): the cargo's top, the deck, or 0."""
        cfg = self.cfg
        cargo = cfg.cargoes[0]
        if math.hypot(x - cargo.position[0], y - cargo.position[1]) \
                <= cargo.top_diagonal / 2.0:
            return cargo.position[2]
        dx = x - cfg.deck_center[0]
        dy = y - cfg.deck_center[1]
        if abs(dx) <= cfg.deck_size[0] / 2 and abs(dy) <= cfg.deck_size[1] / 2:
            return cfg.deck_height
        return 0.0

    def touch_down(self, state: SimState, c_vz: float) -> SimState:
        """Ground a vehicle that sinks, under a command that does not climb,
        to within 2 cm of the surface under it; it stops there."""
        x, y, z = state.uav_pos
        if not state.on_ground and state.uav_vel[2] <= 0.0 and \
                z <= self.support_height(x, y) + 0.02 and c_vz <= 0.0:
            return replace(state, on_ground=True, uav_vel=(0.0, 0.0, 0.0))
        return state
