"""Per-label EKF over anchor ranges, dual-label fusion and heading recovery.

Each ranging label on the UAV carries its own 6-state filter (position
and velocity in the platform-fixed anchor frame) driven by body-frame
acceleration and corrected by ranges to the fixed anchors.  The filters
only come as a batch: both labels of every flight in a lockstep group
advance together, one predict and one update per tick.  A flight's two
label positions are averaged into the UAV center, rotated into the world
frame, and their baseline vector yields the UAV yaw independent of the
magnetometer.  Fixed tuning: ``SIGMA_JERK``, ``INITIAL_POS_VAR``,
``INITIAL_VEL_VAR`` and ``MULTILATERATE_TOL``; the rest is :class:`EkfParams`.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .frames import POSITIVE, Ranged, mean_rows, rotate, wrap_angle
from .qr_localization import PoseEstimate

# The state lives in the platform-fixed frame, which rotates with the
# sea state; at long lever arms that motion looks like large unmodeled
# acceleration, so the jerk noise must be generous or the filter lags.
SIGMA_JERK = 200.0  # m/s^3, enters through the D matrix
INITIAL_POS_VAR = 0.25  # m^2, per axis of a fresh filter
INITIAL_VEL_VAR = 0.25  # (m/s)^2
MULTILATERATE_TOL = 1e-12  # m; Gauss-Newton stops on a shorter step


@dataclass(frozen=True)
class AnchorSet:
    """Fixed anchor positions in the platform anchor frame.

    At least three non-collinear anchors are required for the label
    position to be observable from ranges.
    """

    positions: np.ndarray  # (N_a, 3)

    def __post_init__(self):
        pos = np.atleast_2d(np.asarray(self.positions, dtype=float))
        object.__setattr__(self, "positions", pos)
        if not np.isfinite(pos).all():
            raise ValueError("anchors must be finite")
        if pos.shape[0] < 3 or pos.shape[1] != 3:
            raise ValueError(f"need >= 3 anchors with 3 coordinates, got {pos.shape}")
        centered = pos - pos.mean(axis=0)
        if np.linalg.matrix_rank(centered, tol=1e-9) < 2:
            raise ValueError("anchors are collinear; label position unobservable")

    def __len__(self) -> int:
        return self.positions.shape[0]


@dataclass(frozen=True)
class EkfParams(Ranged):
    """Filter settings: range noise and sample period."""

    sigma_range: float = POSITIVE(0.10)  # m
    period: float = POSITIVE(0.02)  # s


@dataclass(frozen=True)
class EkfState:
    """Label states [position, velocity] with covariances, anchor frame.

    A batch of L labels with a leading label axis: mean (L, 6), cov
    (L, 6, 6) and one degraded flag per label.
    """

    mean: np.ndarray  # (L, 6)
    cov: np.ndarray  # (L, 6, 6)
    degraded: np.ndarray | bool = False  # last update dropped all range rows

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float)
        cov = np.asarray(self.cov, dtype=float)
        if mean.ndim != 2 or mean.shape[-1] != 6 or \
                cov.shape != mean.shape + (6,):
            raise ValueError("states must be (L, 6) with (L, 6, 6) covariances")
        degraded = np.asarray(self.degraded, dtype=bool)
        if degraded.shape != mean.shape[:-1]:
            degraded = np.full(mean.shape[:-1], degraded)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)
        object.__setattr__(self, "degraded", degraded)


def initial_state(position: np.ndarray) -> EkfState:
    """Rest states at the (L, 3) label positions."""
    position = np.asarray(position, dtype=float)
    mean = np.concatenate([position, np.zeros_like(position)], axis=-1)
    cov = np.broadcast_to(np.diag([INITIAL_POS_VAR] * 3 + [INITIAL_VEL_VAR] * 3),
                          position.shape[:-1] + (6, 6)).copy()
    return EkfState(mean=mean, cov=cov)


@functools.lru_cache(maxsize=8)
def _transition_matrices(T: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A, B and the jerk-noise term D Q D^T of one sample period."""
    I3 = np.eye(3)
    A = np.block([[I3, T * I3], [np.zeros((3, 3)), I3]])
    B = np.vstack([T * T / 2 * I3, T * I3])
    D = np.vstack([T ** 3 / 6 * I3, T * T / 2 * I3])
    Q = (SIGMA_JERK ** 2) * I3
    out = (A, B, D @ Q @ D.T)
    for m in out:
        m.flags.writeable = False  # shared by every caller
    return out


@functools.lru_cache(maxsize=8)
def _range_noise(sigma_range: float, rows: int) -> np.ndarray:
    R = (sigma_range ** 2) * np.eye(rows)
    R.flags.writeable = False
    return R


_I6 = np.eye(6)


def ekf_predict(s: EkfState, a_body, R_b_w, R_w_u,
                params: EkfParams) -> EkfState:
    """Constant-acceleration prediction over one sample period.

    Body acceleration is rotated world-then-anchor-frame before entering
    the input matrix; covariance grows by the jerk-noise term D Q D^T.
    The batch holds F flights' labels in turn, the same count each, and
    `a_body`, `R_b_w` and `R_w_u` hold F accelerations (each a tuple,
    list or array) and rotations, one per flight.  The rotations are 3x3
    arrays or their rows (see frames.rotation_rows).
    """
    a_u = []
    for a, r_b_w, r_w_u in zip(a_body, R_b_w, R_w_u, strict=True):
        if not all(map(math.isfinite, a)):
            raise ValueError("acceleration must be finite")
        a_u.append(rotate(r_w_u, rotate(r_b_w, a)))
    flights = len(a_u)
    if s.mean.size % (6 * flights):
        raise ValueError(f"{flights} accelerations for "
                         f"{s.mean.size // 6} labels")
    T = params.period
    A, B, DQD = _transition_matrices(T)
    # matmul over the label axis runs the same product per label, and the
    # flight's input term is added per element, so a batch gives exactly
    # what its labels give one at a time
    mean = (A @ s.mean.reshape(flights, -1, 6, 1) +
            B @ np.array(a_u)[:, None, :, None])
    cov = A @ s.cov @ A.T + DQD
    return EkfState(mean=mean.reshape(s.mean.shape), cov=cov,
                    degraded=np.zeros_like(s.degraded))


def ekf_update(s: EkfState, ranges, anchors: AnchorSet,
               params: EkfParams) -> EkfState:
    """Range correction with rows linearized at the predicted mean.

    `ranges` is either an array of ranges to every anchor, one row per
    label, (L, N_a); or a list of (anchor index, range) pairs for a
    subset of the anchors, taken by every label.  Each row of the Jacobian
    is [(u - anchor)/d, 0, 0, 0]; the innovation uses the nonlinear
    predicted distance.  A range whose anchor sits at the predicted
    position (d < 1e-9) is dropped; a label whose every row is dropped
    keeps its state and has its degraded flag set.  The gain comes from
    solving the innovation system, and the covariance is updated in
    Joseph form to preserve symmetry/PSD.
    """
    if isinstance(ranges, np.ndarray):
        measured, points = ranges, anchors.positions
    else:
        measured = np.array([r for _, r in ranges], dtype=float)
        points = anchors.positions[[j for j, _ in ranges]]
    if measured.shape[-1] == 0:
        raise ValueError("at least one range measurement is required")
    if measured.shape[-1] != points.shape[0]:
        raise ValueError(f"{measured.shape[-1]} ranges for "
                         f"{points.shape[0]} anchors")

    P = s.cov
    diff = s.mean[..., None, :3] - points  # (..., M, 3)
    d = np.sqrt((diff * diff).sum(axis=-1))
    any_dropped = d.min() < 1e-9
    if any_dropped:
        dropped = d < 1e-9
        # a zero Jacobian row with zero innovation leaves the update as if
        # that range had not been taken
        d = np.where(dropped, 1.0, d)
        diff = np.where(dropped[..., None], 0.0, diff)
        measured = np.where(dropped, 1.0, measured)
    h = diff / d[..., None]  # position block of H; the velocity block is 0
    y = measured - d
    R = _range_noise(params.sigma_range, h.shape[-2])

    PHt = P[..., :, :3] @ h.swapaxes(-1, -2)  # (..., 6, M)
    S = h @ PHt[..., :3, :] + R
    K = np.linalg.solve(S, PHt.swapaxes(-1, -2)).swapaxes(-1, -2)
    mean = s.mean + (K @ y[..., None])[..., 0]
    IKH = np.empty_like(P)
    IKH[...] = _I6
    IKH[..., :, :3] -= K @ h
    cov = IKH @ P @ IKH.swapaxes(-1, -2) + \
        params.sigma_range ** 2 * (K @ K.swapaxes(-1, -2))

    degraded = dropped.all(axis=-1) if any_dropped else \
        np.zeros(d.shape[:-1], dtype=bool)
    if any_dropped and degraded.any():
        mean = np.where(degraded[..., None], s.mean, mean)
        cov = np.where(degraded[..., None, None], P, cov)
    return EkfState(mean=mean, cov=cov, degraded=degraded)


def fuse_labels(labels: Sequence[Sequence[float]], R_au_w,
                yaw: float = 0.0) -> PoseEstimate:
    """Average a flight's label positions, rotated into the world frame.

    `labels` are the anchor-frame label positions, rows of floats.
    Averaging the symmetric labels cancels the baseline offset and
    decouples the estimate from platform attitude once rotated to world.
    R_au_w is the platform-to-world rotation, a 3x3 array or its rows
    (see frames.rotation_rows).  The yaw comes from elsewhere (see
    :func:`yaw_from_labels`) and is passed through.
    """
    return PoseEstimate(position=rotate(R_au_w, mean_rows(labels)), yaw=yaw,
                        source="uwb")


class BaselineGateError(ValueError):
    """Label baseline length inconsistent with the mounted geometry."""


def yaw_from_labels(u1: Sequence[float], u2: Sequence[float], roll: float,
                    pitch: float, d: float) -> float:
    """UAV yaw from the world-frame vector between the two labels.

    The labels sit at (0, +-d/2, 0) in the body frame, so the normalized
    difference equals the middle column of the body-to-world rotation;
    solving that column for yaw gives

        psi = arctan2(-dx, dy)                     if S_phi S_theta = 0
        psi = arctan2(rho1, rho2)                  otherwise

    with rho1 = (dy/d) S_phi S_theta - (dx/d) C_phi and
    rho2 = (dx/d) S_phi S_theta + (dy/d) C_phi.  The baseline length is
    gated to [0.8 d, 1.2 d] as an estimator-divergence check.
    """
    if abs(roll) >= math.pi / 2:
        raise ValueError("roll magnitude must be below pi/2")
    (x1, y1, z1), (x2, y2, z2) = u1, u2
    dx, dy, dz = x1 - x2, y1 - y2, z1 - z2
    norm = math.sqrt(dx * dx + dy * dy + dz * dz)
    if not (0.8 * d <= norm <= 1.2 * d):
        raise BaselineGateError(
            f"baseline length {norm:.3f} m outside [0.8, 1.2] x {d:.3f} m")
    sf, cf = math.sin(roll), math.cos(roll)
    st = math.sin(pitch)
    sfst = sf * st
    if abs(sfst) < 1e-9:
        return wrap_angle(math.atan2(-dx, dy))
    rho1 = (dy / d) * sfst - (dx / d) * cf
    rho2 = (dx / d) * sfst + (dy / d) * cf
    return wrap_angle(math.atan2(rho1, rho2))


def multilaterate(ranges: list[tuple[int, float]], anchors: AnchorSet,
                  initial: np.ndarray | None = None,
                  max_iter: int = 50) -> np.ndarray:
    """Gauss-Newton least-squares position from one epoch of ranges.

    Used to initialize the filters from the first complete epoch and as
    the raw per-epoch baseline the filtered estimate is compared against.
    """
    if len(ranges) < 3:
        raise ValueError("multilateration needs at least 3 ranges")
    idx = np.array([j for j, _ in ranges])
    meas = np.array([r for _, r in ranges])
    pts = anchors.positions[idx]
    u = np.asarray(initial, dtype=float) if initial is not None else pts.mean(axis=0) + 1e-3
    for _ in range(max_iter):
        diff = u - pts
        dists = np.linalg.norm(diff, axis=1)
        dists = np.maximum(dists, 1e-12)
        J = diff / dists[:, None]
        r = dists - meas
        step, *_ = np.linalg.lstsq(J, -r, rcond=None)
        u = u + step
        if np.linalg.norm(step) < MULTILATERATE_TOL:
            break
    return u
