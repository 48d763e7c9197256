"""Turning raw cargo detections into a stable track.

Raw detector candidates fluctuate in confidence from frame to frame, so
a wavegate keeps the selected target stable: once the same candidate has
been associated over several consecutive frames the region of interest
shrinks around its box and only candidates inside it are considered,
preventing identity jumps between objects.  The selected candidate's
camera-frame position then passes through outlier rejection, a mean
filter, and a constant-velocity Kalman filter that supplies the target
velocity used as control feedforward.
"""

from __future__ import annotations

import math
import statistics
from collections import deque
from collections.abc import Sequence
from dataclasses import dataclass, field

from .frames import mean_rows


@dataclass(frozen=True)
class DetectionObservation:
    """One detector candidate: box center/diagonal in image-plane units."""

    confidence: float
    image_center: tuple[float, float]
    box_diagonal: float
    box_yaw: float = 0.0  # oriented-box angle supplied by the detector

    def __post_init__(self):
        if not (0.0 <= self.confidence <= 1.0):
            raise ValueError(f"confidence {self.confidence} outside [0, 1]")
        if self.box_diagonal <= 0:
            raise ValueError("box diagonal must be > 0")


@dataclass(frozen=True)
class PerceptionParams:
    lock_frames: int = 5
    loss_frames: int = 10
    roi_scale: float = 2.0  # ROI side = scale x box side
    assoc_iou: float = 0.2  # minimum overlap to count as the same object
    outlier_window: int = 15
    outlier_nmad: float = 3.0
    mean_window: int = 10
    max_consecutive_rejects: int = 8  # then the scene changed; start over
    frame_period: float = 1.0 / 21.3
    kf_sigma_accel: float = 2.0  # m/s^2
    kf_sigma_meas: float = 0.02  # m


@dataclass
class CargoTrack:
    """Wavegate selection state plus the smoothed cargo estimate.

    The position and velocity are (x, y, z) tuples of floats in the body
    frame.
    """

    locked: bool = False
    roi: tuple[float, float, float] | None = None  # (cx, cy, half_side); None = full frame
    last_box: tuple[float, float, float] | None = None  # (cx, cy, diagonal)
    streak: int = 0
    frames_since_seen: int = 0
    selected: DetectionObservation | None = None
    position: tuple[float, float, float] | None = None  # smoothed
    velocity: tuple[float, float, float] = (0.0, 0.0, 0.0)
    yaw: float = 0.0
    # internals
    rejects: int = 0
    raw_window: deque = field(default_factory=deque)  # [x, y, z] float lists
    accepted: deque = field(default_factory=deque)  # the same, accepted only
    kf_mean: tuple | None = None  # ([x, y, z] position, [x, y, z] velocity)
    kf_cov: tuple | None = None  # 2x2 rows, shared across axes


def _box_iou(a: tuple[float, float, float], b: tuple[float, float, float]) -> float:
    # axis-aligned squares with side = diagonal / sqrt(2)
    ha = a[2] / math.sqrt(2.0) / 2.0
    hb = b[2] / math.sqrt(2.0) / 2.0
    dx = min(a[0] + ha, b[0] + hb) - max(a[0] - ha, b[0] - hb)
    dy = min(a[1] + ha, b[1] + hb) - max(a[1] - ha, b[1] - hb)
    if dx <= 0 or dy <= 0:
        return 0.0
    inter = dx * dy
    union = (2 * ha) ** 2 + (2 * hb) ** 2 - inter
    return inter / union


def _obs_box(obs: DetectionObservation) -> tuple[float, float, float]:
    return (obs.image_center[0], obs.image_center[1], obs.box_diagonal)


def wavegate_select(candidates: list[DetectionObservation], track: CargoTrack,
                    params: PerceptionParams = PerceptionParams()) -> CargoTrack:
    """Select (or keep) the target candidate for this frame.

    Unlocked: highest confidence wins; the same object seen for
    `lock_frames` consecutive frames locks the gate and shrinks the ROI
    around its box.  Locked: only candidates inside the ROI compete, by
    overlap with the last box rather than confidence.  After
    `loss_frames` frames without a match the gate unlocks and the full
    frame is used again.
    """
    chosen: DetectionObservation | None = None
    if track.locked:
        cx, cy, half = track.roi
        inside = [c for c in candidates
                  if abs(c.image_center[0] - cx) <= half
                  and abs(c.image_center[1] - cy) <= half]
        if inside and track.last_box is not None:
            chosen = max(inside, key=lambda c: (_box_iou(_obs_box(c), track.last_box),
                                                c.confidence))
            if _box_iou(_obs_box(chosen), track.last_box) <= 0.0:
                chosen = None
        if chosen is None:
            track.frames_since_seen += 1
            if track.frames_since_seen > params.loss_frames:
                track.locked = False
                track.roi = None
                track.last_box = None
                track.streak = 0
                track.frames_since_seen = 0
            track.selected = None
            return track
    else:
        if not candidates:
            track.streak = 0
            track.selected = None
            return track
        chosen = max(candidates, key=lambda c: c.confidence)
        if track.last_box is not None and \
                _box_iou(_obs_box(chosen), track.last_box) >= params.assoc_iou:
            track.streak += 1
        else:
            track.streak = 1
        if track.streak >= params.lock_frames:
            track.locked = True

    track.selected = chosen
    track.last_box = _obs_box(chosen)
    track.frames_since_seen = 0
    if track.locked:
        half = params.roi_scale * (chosen.box_diagonal / math.sqrt(2.0)) / 2.0
        track.roi = (chosen.image_center[0], chosen.image_center[1], half)
    return track


def cargo_position_from_detection(obs: DetectionObservation, focal_length: float,
                                  true_diagonal: float) -> tuple[float, float, float]:
    """Body-frame cargo position by the same pinhole inversion as markers."""
    if true_diagonal <= 0:
        raise ValueError("true diagonal must be > 0")
    if obs.box_diagonal <= 0:
        raise ValueError("degenerate box diagonal")
    scale = true_diagonal / obs.box_diagonal
    z = -focal_length * scale - focal_length
    x = obs.image_center[0] * scale
    y = obs.image_center[1] * scale
    return (x, y, z)


def smooth_track(track: CargoTrack, new_pos: Sequence[float],
                 params: PerceptionParams = PerceptionParams()) -> CargoTrack:
    """Outlier-reject, mean-filter and velocity-filter one position sample.

    A sample further than `outlier_nmad` median-absolute-deviations from
    the recent window median (on any axis) is discarded.  Accepted
    samples feed a sliding mean for the position output and a
    constant-velocity Kalman filter for the velocity estimate.
    """
    sample = [float(v) for v in new_pos]
    accept = True
    if len(track.raw_window) >= 5:
        # at most `outlier_window` samples: plain Python beats np.median
        for value, column in zip(sample, zip(*track.raw_window)):
            med = statistics.median(column)
            mad = statistics.median([abs(v - med) for v in column])
            if abs(value - med) > params.outlier_nmad * mad + 1e-9:
                accept = False
                break

    if not accept:
        track.rejects += 1
        if track.rejects > params.max_consecutive_rejects:
            # a long run of "outliers" means the target actually moved
            # (or the gate switched objects): restart the filters on the
            # new data instead of rejecting it forever
            track.raw_window.clear()
            track.accepted.clear()
            track.kf_mean = None
            track.kf_cov = None
            accept = True

    if accept:
        track.rejects = 0
        track.raw_window.append(sample)
        while len(track.raw_window) > params.outlier_window:
            track.raw_window.popleft()
        track.accepted.append(sample)
        while len(track.accepted) > params.mean_window:
            track.accepted.popleft()
        track.position = mean_rows(track.accepted)
        _kf_step(track, sample, params)
        if track.selected is not None:
            track.yaw = track.selected.box_yaw
    else:
        _kf_step(track, None, params)
    track.velocity = tuple(track.kf_mean[1]) if track.kf_mean is not None \
        else (0.0, 0.0, 0.0)
    return track


def _kf_step(track: CargoTrack, meas: list[float] | None,
             params: PerceptionParams) -> None:
    # one 2-state (position, velocity) filter per axis; gains are shared
    # across axes so a single 2x2 covariance suffices.  The 2x2 algebra is
    # written out in Python floats, cheaper than a dozen numpy calls.
    if track.kf_mean is None:
        if meas is None:
            return
        track.kf_mean = (list(meas), [0.0, 0.0, 0.0])
        track.kf_cov = ((params.kf_sigma_meas ** 2, 0.0), (0.0, 1.0))
        return
    T = params.frame_period
    g0, g1 = T * T / 2, T
    q = params.kf_sigma_accel ** 2
    (p00, p01), (p10, p11) = track.kf_cov
    # predict: x <- A x and P <- A P A^T + q G G^T, A = [[1, T], [0, 1]]
    pos = [p + T * v for p, v in zip(*track.kf_mean)]
    vel = track.kf_mean[1]
    a00, a01 = p00 + T * p10, p01 + T * p11
    p00, p01 = a00 + T * a01 + q * g0 * g0, a01 + q * g0 * g1
    p10, p11 = p10 + T * p11 + q * g1 * g0, p11 + q * g1 * g1
    if meas is not None:
        r = params.kf_sigma_meas ** 2
        k0, k1 = p00 / (p00 + r), p10 / (p00 + r)
        innov = [m - p for m, p in zip(meas, pos)]
        pos = [p + k0 * e for p, e in zip(pos, innov)]
        vel = [v + k1 * e for v, e in zip(vel, innov)]
        # Joseph form (I - K H) P (I - K H)^T + r K K^T with H = [1, 0]
        m00, m01 = (1.0 - k0) * p00, (1.0 - k0) * p01
        m10, m11 = p10 - k1 * p00, p11 - k1 * p01
        p00, p01 = m00 * (1.0 - k0) + r * k0 * k0, m01 - m00 * k1 + r * k0 * k1
        p10, p11 = m10 * (1.0 - k0) + r * k1 * k0, m11 - m10 * k1 + r * k1 * k1
    track.kf_mean = (pos, vel)
    track.kf_cov = ((p00, p01), (p10, p11))
