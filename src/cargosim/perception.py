"""Turning raw cargo detections into a stable track.

Raw detector candidates fluctuate in confidence from frame to frame, so
a wavegate keeps the selected target stable: once the same candidate has
been associated over several consecutive frames the region of interest
shrinks around its box and only candidates inside it are considered,
preventing identity jumps between objects.  The selected candidate's
camera-frame position then passes through outlier rejection, a mean
filter, and a constant-velocity Kalman filter that supplies the target
velocity used as control feedforward.  Fixed tuning: the wavegate's
``LOCK_FRAMES``, ``LOSS_FRAMES``, ``ROI_SCALE`` and ``ASSOC_IOU``, and the
smoothing's ``OUTLIER_WINDOW``, ``OUTLIER_NMAD``, ``MEAN_WINDOW``,
``MAX_CONSECUTIVE_REJECTS``, ``KF_SIGMA_ACCEL`` and ``KF_SIGMA_MEAS``.
"""

from __future__ import annotations

import math
from collections import deque
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import NamedTuple

from .frames import mean_rows, unproject


class DetectionObservation(NamedTuple):
    """One detector candidate: box center/diagonal in image-plane units.
    `SimWorld.sense_cargo`, which makes every candidate and alone checks
    it, gives a confidence in [0, 1], a positive diagonal and a finite
    centre and yaw in (-pi, pi]."""

    confidence: float
    image_center: tuple[float, float]
    box_diagonal: float
    box_yaw: float = 0.0  # oriented-box angle supplied by the detector


LOCK_FRAMES = 5  # consecutive associated frames that lock the gate
LOSS_FRAMES = 10  # frames without a match that unlock it
ROI_SCALE = 2.0  # ROI side = scale x box side
ASSOC_IOU = 0.2  # minimum overlap to count as the same object
OUTLIER_WINDOW = 15  # samples in the outlier-rejection window
OUTLIER_NMAD = 3.0  # rejection threshold in median absolute deviations
MEAN_WINDOW = 10  # accepted samples averaged into the position
MAX_CONSECUTIVE_REJECTS = 8  # then the scene changed; start over
KF_SIGMA_ACCEL = 2.0  # m/s^2
KF_SIGMA_MEAS = 0.02  # m


@dataclass
class CargoTrack:
    """Wavegate selection state plus the smoothed cargo estimate.

    The position and velocity are (x, y, z) tuples of floats in the body
    frame.  `window` holds the last `OUTLIER_WINDOW` accepted samples as
    [x, y, z] float lists; the outlier test reads all of them and the
    position is the mean of the last `MEAN_WINDOW`.  `last_box` is set
    whenever the gate is locked, and it alone places the gate's ROI.
    """

    locked: bool = False
    last_box: tuple[float, float, float] | None = None  # (cx, cy, diagonal)
    streak: int = 0
    frames_since_seen: int = 0
    selected: DetectionObservation | None = None
    position: tuple[float, float, float] | None = None  # smoothed
    velocity: tuple[float, float, float] = (0.0, 0.0, 0.0)
    yaw: float = 0.0
    # internals
    rejects: int = 0
    window: deque = field(default_factory=lambda: deque(maxlen=OUTLIER_WINDOW))
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


def wavegate_select(candidates: list[DetectionObservation],
                    track: CargoTrack) -> CargoTrack:
    """Select (or keep) the target candidate for this frame.

    Unlocked: highest confidence wins; the same object seen for
    `LOCK_FRAMES` consecutive frames locks the gate.  Locked: only
    candidates inside the ROI (a square `ROI_SCALE` times the last box's
    side, centred on it) compete, by overlap with the last box rather than
    confidence.  After `LOSS_FRAMES` frames without a match the gate
    unlocks and the full frame is used again.
    """
    chosen: DetectionObservation | None = None
    if track.locked:
        cx, cy, diagonal = track.last_box
        half = ROI_SCALE * (diagonal / math.sqrt(2.0)) / 2.0
        inside = [c for c in candidates
                  if abs(c.image_center[0] - cx) <= half
                  and abs(c.image_center[1] - cy) <= half]
        if inside:  # the best overlap, then confidence; the first on a tie
            iou, _, k = max((_box_iou(_obs_box(c), track.last_box), c.confidence, -k)
                            for k, c in enumerate(inside))
            chosen = None if iou <= 0.0 else inside[-k]
        if chosen is None:
            track.frames_since_seen += 1
            if track.frames_since_seen > LOSS_FRAMES:
                track.locked = False
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
                _box_iou(_obs_box(chosen), track.last_box) >= ASSOC_IOU:
            track.streak += 1
        else:
            track.streak = 1
        if track.streak >= LOCK_FRAMES:
            track.locked = True

    track.selected = chosen
    track.last_box = _obs_box(chosen)
    track.frames_since_seen = 0
    return track


def cargo_position_from_detection(obs: DetectionObservation, focal_length: float,
                                  true_diagonal: float) -> tuple[float, float, float]:
    """Body-frame cargo position by the same pinhole inversion as markers;
    `true_diagonal` is the cargo's, positive as ``CargoSpec`` checks it."""
    return unproject(obs.image_center, obs.box_diagonal, focal_length,
                     true_diagonal)


def smooth_track(track: CargoTrack, new_pos: Sequence[float],
                 period: float) -> CargoTrack:
    """Outlier-reject, mean-filter and velocity-filter one position sample.

    A sample further than `OUTLIER_NMAD` median-absolute-deviations from
    the recent window median (on any axis) is discarded.  Accepted
    samples feed a sliding mean for the position output and a
    constant-velocity Kalman filter, stepped by `period`, for the velocity.
    """
    sample = [float(v) for v in new_pos]
    accept = True
    window = track.window
    if len(window) >= 5:
        # at most `OUTLIER_WINDOW` samples: plain Python beats np.median
        for value, column in zip(sample, zip(*window)):
            med = _median(column)
            mad = _median([abs(v - med) for v in column])
            if abs(value - med) > OUTLIER_NMAD * mad + 1e-9:
                accept = False
                break

    if not accept:
        track.rejects += 1
        if track.rejects > MAX_CONSECUTIVE_REJECTS:
            # a long run of "outliers" means the target actually moved
            # (or the gate switched objects): restart the filters on the
            # new data instead of rejecting it forever
            window.clear()
            track.kf_mean = None
            track.kf_cov = None
            accept = True

    if accept:
        track.rejects = 0
        window.append(sample)
        track.position = mean_rows(list(window)[-MEAN_WINDOW:])
        _kf_step(track, sample, period)
        if track.selected is not None:
            track.yaw = track.selected.box_yaw
    else:
        _kf_step(track, None, period)
    track.velocity = tuple(track.kf_mean[1]) if track.kf_mean is not None \
        else (0.0, 0.0, 0.0)
    return track


def _median(values) -> float:
    """statistics.median: the middle of the sorted values, or the mean of two."""
    values = sorted(values)
    i = len(values) // 2
    return values[i] if len(values) % 2 else (values[i - 1] + values[i]) / 2


def _kf_step(track: CargoTrack, meas: list[float] | None,
             period: float) -> None:
    # one 2-state (position, velocity) filter per axis; gains are shared
    # across axes so a single 2x2 covariance suffices.  The 2x2 algebra is
    # written out in Python floats, cheaper than a dozen numpy calls.
    if track.kf_mean is None:
        if meas is None:
            return
        track.kf_mean = (list(meas), [0.0, 0.0, 0.0])
        track.kf_cov = ((KF_SIGMA_MEAS ** 2, 0.0), (0.0, 1.0))
        return
    T = period
    g0, g1 = T * T / 2, T
    q = KF_SIGMA_ACCEL ** 2
    (p00, p01), (p10, p11) = track.kf_cov
    # predict: x <- A x and P <- A P A^T + q G G^T, A = [[1, T], [0, 1]]
    pos = [p + T * v for p, v in zip(*track.kf_mean)]
    vel = track.kf_mean[1]
    a00, a01 = p00 + T * p10, p01 + T * p11
    p00, p01 = a00 + T * a01 + q * g0 * g0, a01 + q * g0 * g1
    p10, p11 = p10 + T * p11 + q * g1 * g0, p11 + q * g1 * g1
    if meas is not None:
        r = KF_SIGMA_MEAS ** 2
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
