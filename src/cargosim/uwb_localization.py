"""Per-label EKF over anchor ranges, dual-label fusion and heading recovery.

Each ranging label on the UAV carries its own 6-state filter (position
and velocity in the platform-fixed anchor frame) driven by body-frame
acceleration and corrected by ranges to the fixed anchors: a kernel in
Python floats (:func:`predict_label`, :func:`update_label`) on one
label's (mean, covariance) pair, which :func:`ekf_predict` and
:func:`ekf_update` run over a flight's list of labels each tick.
The anchors are rows of floats, as ``ScenarioConfig.anchors`` holds and
checks them; numpy enters only the least-squares solve of
:func:`multilaterate`.
A flight's two label positions, each rotated into the world frame once
by the caller, are averaged into the UAV center, and their baseline
vector yields the UAV yaw independent of the magnetometer, or no yaw
where the baseline fails its gate.
Fixed tuning: ``SIGMA_JERK``, ``INITIAL_POS_VAR``, ``INITIAL_VEL_VAR``,
``MULTILATERATE_TOL`` and ``MULTILATERATE_STEPS``; the range variance
(:func:`range_variance`) and the period are the caller's.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

from .frames import mean_rows, rotate, rotate_t, wrap_angle
from .qr_localization import PoseEstimate

# The state lives in the platform-fixed frame, which rotates with the
# sea state; at long lever arms that motion looks like large unmodeled
# acceleration, so the jerk noise must be generous or the filter lags.
SIGMA_JERK = 200.0  # m/s^3, enters through the D matrix
INITIAL_POS_VAR = 0.25  # m^2, per axis of a fresh filter
INITIAL_VEL_VAR = 0.25  # (m/s)^2
MULTILATERATE_TOL = 1e-12  # m; Gauss-Newton stops on a shorter step
MULTILATERATE_STEPS = 50  # or after this many steps


def range_variance(sigma: float) -> float:
    """sigma squared, with sigma held at 1e154 m or below, where its square
    is still a float: such ranges weigh next to nothing."""
    return min(sigma, 1e154) ** 2


# a label covariance at rest: its 21 stored entries, the upper triangle row
# by row (see predict_label)
_REST_COV = [INITIAL_POS_VAR, 0.0, 0.0, 0.0, 0.0, 0.0, INITIAL_POS_VAR, 0.0, 0.0,
             0.0, 0.0, INITIAL_POS_VAR, 0.0, 0.0, 0.0, INITIAL_VEL_VAR, 0.0, 0.0,
             INITIAL_VEL_VAR, 0.0, INITIAL_VEL_VAR]


def initial_label(position) -> tuple[list[float], list[float]]:
    """A label at rest at `position`, as :func:`predict_label` takes it."""
    return [*map(float, position), 0.0, 0.0, 0.0], list(_REST_COV)


class SensorFault(ValueError):
    """A reading the filters cannot take: an acceleration that is not
    finite, an epoch of ranges that locates no position, or a hover window
    whose rotor effort is not finite."""


def anchor_acceleration(a_body, R_b_w, R_a_w) -> tuple[float, float, float]:
    """Body acceleration rotated into the world frame by R_b_w, then into
    the anchor frame by the transpose of the platform-to-world R_a_w; the
    rotations are 3x3 arrays or their rows (see frames.rotation_rows)."""
    if not all(map(math.isfinite, a_body)):
        raise SensorFault("acceleration must be finite")
    return rotate_t(R_a_w, rotate(R_b_w, a_body))


def predict_label(mean: list[float], cov: list[float], a_u, T: float,
                  ) -> tuple[list[float], list[float]]:
    """One label's constant-acceleration prediction over a period T.

    `mean` is [position, velocity], 6 floats, and `cov` the upper triangle
    of its covariance row by row, 21 floats.  A P A^T + D Q D^T is written
    out on the 3x3 blocks: P_pp + T (P_pv + P_vp) + T^2 P_vv, P_pv + T P_vv
    and P_vv, plus the jerk noise on each block's diagonal."""
    x, y, z, vx, vy, vz = mean
    ax, ay, az = a_u
    h = T * T / 2
    (p00, p01, p02, p03, p04, p05, p11, p12, p13, p14, p15, p22, p23, p24, p25,
     p33, p34, p35, p44, p45, p55) = cov
    q = SIGMA_JERK * SIGMA_JERK * T ** 4
    qvv, qpv, qpp = q / 4, q * T / 12, q * T * T / 36
    # P_pv + T P_vv, without its noise
    c03, c04, c05 = p03 + T * p33, p04 + T * p34, p05 + T * p35
    c13, c14, c15 = p13 + T * p34, p14 + T * p44, p15 + T * p45
    c23, c24, c25 = p23 + T * p35, p24 + T * p45, p25 + T * p55
    return ([x + T * vx + h * ax, y + T * vy + h * ay, z + T * vz + h * az,
             vx + T * ax, vy + T * ay, vz + T * az],
            [p00 + T * (p03 + c03) + qpp, p01 + T * (p13 + c04), p02 + T * (p23 + c05),
             c03 + qpv, c04, c05, p11 + T * (p14 + c14) + qpp, p12 + T * (p24 + c15),
             c13, c14 + qpv, c15, p22 + T * (p25 + c25) + qpp, c23, c24, c25 + qpv,
             p33 + qvv, p34, p35, p44 + qvv, p45, p55 + qvv])


def update_label(mean: list[float], cov: list[float], ranges, points,
                 var: float) -> tuple[list[float], list[float], bool]:
    """One label's correction by `ranges` of variance `var` to the anchors
    at `points` (rows of floats), one scalar update per range.

    Every row h = [(u - anchor)/d, 0, 0, 0] is linearised at the predicted
    mean u, so with diagonal noise this is exactly the batch update (Simon,
    *Optimal State Estimation*, 2006, section 7.1); P - P h^T h P / s keeps
    the stored triangle symmetric.  A range that is not finite, or one at
    d < 1e-9, is skipped; a label with every range skipped is degraded and
    keeps its prediction.
    Returns the mean, the covariance and that flag."""
    x, y, z = mean[0], mean[1], mean[2]
    m0, m1, m2, m3, m4, m5 = mean
    (p00, p01, p02, p03, p04, p05, p11, p12, p13, p14, p15, p22, p23, p24, p25,
     p33, p34, p35, p44, p45, p55) = cov
    degraded = True
    for (px, py, pz), r in zip(points, ranges):
        hx, hy, hz = x - px, y - py, z - pz
        d = math.sqrt(hx * hx + hy * hy + hz * hz)
        if d < 1e-9 or not math.isfinite(r):
            continue
        degraded = False
        hx, hy, hz = hx / d, hy / d, hz / d
        # v = P h^T
        v0, v1 = p00 * hx + p01 * hy + p02 * hz, p01 * hx + p11 * hy + p12 * hz
        v2, v3 = p02 * hx + p12 * hy + p22 * hz, p03 * hx + p13 * hy + p23 * hz
        v4, v5 = p04 * hx + p14 * hy + p24 * hz, p05 * hx + p15 * hy + p25 * hz
        # one statement each below: assigning four or more names at once
        # builds a tuple, which cost a tenth of this loop
        s = hx * v0 + hy * v1 + hz * v2 + var
        k = (r - d - hx * (m0 - x) - hy * (m1 - y) - hz * (m2 - z)) / s
        m0 += v0 * k; m1 += v1 * k; m2 += v2 * k
        m3 += v3 * k; m4 += v4 * k; m5 += v5 * k
        w0 = v0 / s; w1 = v1 / s; w2 = v2 / s; w3 = v3 / s; w4 = v4 / s; w5 = v5 / s
        p00 -= w0 * v0; p01 -= w0 * v1; p02 -= w0 * v2; p03 -= w0 * v3
        p04 -= w0 * v4; p05 -= w0 * v5; p11 -= w1 * v1; p12 -= w1 * v2
        p13 -= w1 * v3; p14 -= w1 * v4; p15 -= w1 * v5; p22 -= w2 * v2
        p23 -= w2 * v3; p24 -= w2 * v4; p25 -= w2 * v5; p33 -= w3 * v3
        p34 -= w3 * v4; p35 -= w3 * v5; p44 -= w4 * v4; p45 -= w4 * v5
        p55 -= w5 * v5
    if degraded:
        return mean, cov, True
    return ([m0, m1, m2, m3, m4, m5],
            [p00, p01, p02, p03, p04, p05, p11, p12, p13, p14, p15, p22, p23,
             p24, p25, p33, p34, p35, p44, p45, p55], False)


def ekf_predict(labels: list, a_u, T: float) -> list:
    """:func:`predict_label` for each (mean, covariance) label of one flight
    under the flight's anchor-frame acceleration `a_u` (see
    :func:`anchor_acceleration`)."""
    return [predict_label(mean, cov, a_u, T) for mean, cov in labels]


def ekf_update(labels: list, ranges, points, var: float,
               ) -> tuple[list, list[int]]:
    """:func:`update_label` for each label by its own row of `ranges`, one
    row per label, to the anchors at `points`.  Returns the new labels and
    the indices of the degraded labels, those that took no range."""
    updated, degraded = [], []
    for (mean, cov), row in zip(labels, ranges, strict=True):
        mean, cov, lost = update_label(mean, cov, row, points, var)
        if lost:
            degraded.append(len(updated))
        updated.append((mean, cov))
    return updated, degraded


def fuse_labels(labels: Sequence[Sequence[float]], yaw: float) -> PoseEstimate:
    """Average a flight's world-frame label positions, rows of floats.

    Averaging the symmetric labels cancels the baseline offset, and the
    labels, each rotated from the anchor frame by the platform attitude,
    decouple the estimate from that attitude.  The yaw comes from
    elsewhere (see :func:`yaw_from_labels`) and is passed through.
    """
    return PoseEstimate(position=mean_rows(labels), yaw=yaw, source="uwb")


def yaw_from_labels(u1: Sequence[float], u2: Sequence[float], roll: float,
                    pitch: float, d: float) -> float | None:
    """UAV yaw from the world-frame vector between the two labels.

    The labels sit at (0, +-d/2, 0) in the body frame, so the normalized
    difference equals the middle column of the body-to-world rotation;
    solving that column for yaw gives

        psi = arctan2(rho1, rho2)

    with rho1 = (dy/d) S_phi S_theta - (dx/d) C_phi and
    rho2 = (dx/d) S_phi S_theta + (dy/d) C_phi.  C_phi > 0 below the roll
    gate, so where S_phi S_theta = 0 this is arctan2(-dx, dy).  The
    baseline length is gated to [0.8 d, 1.2 d] as an estimator-divergence
    check: outside it there is no heading, and the result is None.
    """
    if abs(roll) >= math.pi / 2:
        raise ValueError("roll magnitude must be below pi/2")
    (x1, y1, z1), (x2, y2, z2) = u1, u2
    dx, dy, dz = x1 - x2, y1 - y2, z1 - z2
    norm = math.sqrt(dx * dx + dy * dy + dz * dz)
    if not (0.8 * d <= norm <= 1.2 * d):
        return None
    sfst, cf = math.sin(roll) * math.sin(pitch), math.cos(roll)
    rho1 = (dy / d) * sfst - (dx / d) * cf
    rho2 = (dx / d) * sfst + (dy / d) * cf
    return wrap_angle(math.atan2(rho1, rho2))


def multilaterate(ranges: Sequence[float],
                  points: Sequence[Sequence[float]]) -> np.ndarray:
    """Gauss-Newton least-squares position from one label's epoch of ranges,
    `ranges[j]` to the anchor at `points[j]`, started just off the mean of
    the anchors that ranged.

    Used to initialize the filters from the first complete epoch and as
    the raw per-epoch baseline the filtered estimate is compared against.
    Ranges that are not finite are left out, as :func:`update_label` does;
    an epoch that locates no position (fewer than 3 ranges left, or a
    solve that leaves the float range) raises :class:`SensorFault`.
    """
    kept = [(p, r) for p, r in zip(points, ranges, strict=True) if math.isfinite(r)]
    if len(kept) < 3:
        raise SensorFault("multilateration needs at least 3 finite ranges")
    pts = np.array([p for p, _ in kept], dtype=float)
    meas = np.array([r for _, r in kept])
    u = pts.mean(axis=0) + 1e-3
    for _ in range(MULTILATERATE_STEPS):
        diff = u - pts
        dists = np.linalg.norm(diff, axis=1)
        dists = np.maximum(dists, 1e-12)
        J = diff / dists[:, None]
        r = dists - meas
        if not np.isfinite(r).all():
            raise SensorFault("ranges past the float range of the solve")
        step, *_ = np.linalg.lstsq(J, -r, rcond=None)
        u = u + step
        if np.linalg.norm(step) < MULTILATERATE_TOL:
            break
    if not np.isfinite(u).all():
        raise SensorFault("ranges past the float range of the solve")
    return u
