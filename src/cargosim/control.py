"""Four-channel PID velocity command generation.

The controller acts on body-frame errors (the vehicle's velocity interface
is body-frame), each of the x, y, z and yaw channels runs an independent
discrete PID with a sliding 3-second integral window, the cargo velocity
can be fed forward during landing, and the output is saturated with
windup protection: while the previous command was saturated, errors that
would push further into saturation are not accumulated, while
counteracting errors are.  Fixed tuning: the window ``INTEGRAL_SPAN`` and
the yaw-rate limit ``YAW_RATE_LIMIT``.
"""

from __future__ import annotations

import math
from collections import deque
from collections.abc import Sequence
from dataclasses import dataclass, field

from .frames import NON_NEGATIVE, POSITIVE, Ranged, rotate, wrap_angle

CHANNELS = ("x", "y", "z", "yaw")
INTEGRAL_SPAN = 3.0  # s of errors summed by the integral term
YAW_RATE_LIMIT = 0.5  # rad/s


@dataclass(frozen=True)
class PidGains(Ranged):
    """Per-channel gains; kp/ki/kd apply to x, y, z, kp_yaw to heading."""

    kp: float = NON_NEGATIVE()
    ki: float = NON_NEGATIVE()
    kd: float = NON_NEGATIVE()
    kp_yaw: float = NON_NEGATIVE(0.1)


# Per-phase defaults used by the mission executive.
PHASE_GAINS = {
    "takeoff": PidGains(kp=0.8, ki=0.0, kd=0.2),
    "search": PidGains(kp=0.5, ki=0.0, kd=0.0),
    "land": PidGains(kp=0.3, ki=0.001, kd=0.05),
    "return": PidGains(kp=0.1, ki=0.001, kd=0.0),
}


@dataclass(frozen=True)
class VelocityLimits(Ranged):
    horizontal: float = POSITIVE(0.6)  # m/s
    vertical: float = POSITIVE(0.3)  # m/s, differs per vehicle
    yaw_rate = YAW_RATE_LIMIT  # no annotation: a class constant, not a field


@dataclass(frozen=True)
class VelocityCommand:
    """Saturated body-frame velocity command plus yaw rate."""

    vx: float
    vy: float
    vz: float
    yaw_rate: float


class _Channel:
    __slots__ = ("window", "window_sum", "prev_error", "prev_raw", "has_prev")

    def __init__(self):
        self.window: deque = deque()  # (timestamp, error) pairs, last INTEGRAL_SPAN
        self.window_sum = 0.0  # running sum of the window's errors
        self.prev_error = 0.0
        self.prev_raw = 0.0
        self.has_prev = False


@dataclass
class ControllerState:
    """Integral windows and derivative history for the four channels."""

    channels: dict = field(init=False,
                           default_factory=lambda: {c: _Channel() for c in CHANNELS})

    def reset_derivative(self) -> None:
        """Drop derivative history so a gain switch causes no kick."""
        for ch in self.channels.values():
            ch.has_prev = False


def position_error_body(p_star: Sequence[float], p: Sequence[float],
                        R_w_b) -> tuple[float, float, float]:
    """World-frame setpoint error rotated into the body frame; R_w_b is a
    3x3 array or its rows (see frames.rotation_rows)."""
    return rotate(R_w_b, [a - b for a, b in zip(p_star, p)])


def yaw_error(psi_cargo_body: float) -> float:
    """Heading error aligning the vehicle across the cargo's long side."""
    return wrap_angle(psi_cargo_body + math.pi / 2.0)


def saturate(value: float, limit: float) -> float:
    return max(-limit, min(limit, value))


def pid_step(gains: PidGains, errors: dict[str, float], st: ControllerState,
             T: float, now: float, limits: VelocityLimits = VelocityLimits(),
             feedforward: Sequence[float] | None = None,
             ) -> tuple[VelocityCommand, ControllerState]:
    """One 50 Hz control step over all four channels.

    v = kp*e + ki*sum(window errors) + kd*(e - e_prev)/T, plus the cargo
    velocity feedforward on the translational channels when given, then
    clamped per channel.  Integral accumulation follows the anti-windup
    rule based on the previous raw (unclamped) command.
    """
    if T <= 0:
        raise ValueError("period must be > 0")
    pid = (gains.kp, gains.ki, gains.kd)
    rows = zip(CHANNELS, (pid, pid, pid, (gains.kp_yaw, 0.0, 0.0)),  # yaw: P only
               (limits.horizontal, limits.horizontal, limits.vertical, limits.yaw_rate))
    out = []
    for i, (name, (kp, ki, kd), limit) in enumerate(rows):
        e = errors.get(name, 0.0)
        ch = st.channels[name]

        if ki > 0.0:
            _accumulate(ch, e, now, limit)

        p_term = kp * e
        i_term = ki * ch.window_sum
        d_term = kd * (e - ch.prev_error) / T if ch.has_prev else 0.0
        raw = p_term + i_term + d_term
        if feedforward is not None and name != "yaw":
            raw += feedforward[i]

        ch.prev_error = e
        ch.has_prev = True
        ch.prev_raw = raw
        out.append(saturate(raw, limit))

    return VelocityCommand(*out), st


def _accumulate(ch: _Channel, e: float, now: float, limit: float) -> None:
    # Anti-windup: while the previous raw command was saturated, only
    # counteracting errors enter the window; reinforcing errors leave the
    # accumulator untouched (no append, no pruning).
    if ch.prev_raw >= limit and e > 0.0:
        return
    if ch.prev_raw <= -limit and e < 0.0:
        return
    ch.window.append((now, e))
    ch.window_sum += e
    while ch.window and now - ch.window[0][0] > INTEGRAL_SPAN:
        ch.window_sum -= ch.window.popleft()[1]

