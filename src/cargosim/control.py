"""Four-channel PID velocity command generation.

The controller acts on body-frame errors (the vehicle's velocity interface
is body-frame), each of the x, y, z and yaw channels runs an independent
discrete PID with a sliding 3-second integral window, the cargo velocity
can be fed forward during landing, and the output is saturated with
windup protection: while the previous command was saturated, errors that
would push further into saturation are not accumulated, while
counteracting errors are.  Fixed tuning: the window ``INTEGRAL_SPAN``, the
step ``GAIN_STEP`` at which the integral gains were tuned, the yaw-rate
limit ``YAW_RATE_LIMIT`` and the per-channel ``VELOCITY_LIMITS``.
"""

from __future__ import annotations

import math
from collections import deque
from collections.abc import Sequence
from dataclasses import dataclass, field

from .frames import NON_NEGATIVE, Ranged, wrap_angle

CHANNELS = ("x", "y", "z", "yaw")
INTEGRAL_SPAN = 3.0  # s of errors summed by the integral term
GAIN_STEP = 0.02  # s, the step at which PHASE_GAINS' ki was tuned
YAW_RATE_LIMIT = 0.5  # rad/s
# |command| per channel, in m/s and rad/s; the vertical one differs per vehicle
VELOCITY_LIMITS = (0.6, 0.6, 0.3, YAW_RATE_LIMIT)


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

    channels: tuple = field(init=False,  # in CHANNELS order
                            default_factory=lambda: tuple(_Channel() for _ in CHANNELS))

    def reset_derivative(self) -> None:
        """Drop derivative history so a gain switch causes no kick."""
        for ch in self.channels:
            ch.has_prev = False


def yaw_error(psi_cargo_body: float) -> float:
    """Heading error aligning the vehicle across the cargo's long side."""
    return wrap_angle(psi_cargo_body + math.pi / 2.0)


def saturate(value: float, limit: float) -> float:
    return max(-limit, min(limit, value))


def pid_step(gains: PidGains, error: Sequence[float], st: ControllerState,
             T: float, now: float, feedforward: Sequence[float] | None = None,
             ) -> tuple[float, float, float, float]:
    """One control step of period T over the (x, y, z, yaw) body error;
    returns the saturated (vx, vy, vz, yaw_rate) and updates `st`.

    v = kp*e + ki*sum(window errors)*T/GAIN_STEP + kd*(e - e_prev)/T, plus
    the cargo velocity feedforward on the translational channels when
    given, then clamped to VELOCITY_LIMITS.  The integral term follows the
    window's integral, sum(e)*T, so a step other than GAIN_STEP keeps ki's
    tuning.
    Integral accumulation follows the anti-windup rule based on the
    previous raw (unclamped) command.
    """
    if T <= 0:
        raise ValueError("period must be > 0")
    pid = (gains.kp, gains.ki, gains.kd)
    scale = T / GAIN_STEP
    ffs = (None,) * 4 if feedforward is None else (*feedforward, None)  # not on yaw
    rows = zip((pid, pid, pid, (gains.kp_yaw, 0.0, 0.0)),  # yaw: P only
               error, st.channels, VELOCITY_LIMITS, ffs, strict=True)
    out = []
    for (kp, ki, kd), e, ch, limit, ff in rows:
        if ki > 0.0:
            _accumulate(ch, e, now, limit)
        raw = kp * e + ki * ch.window_sum * scale + (
            kd * (e - ch.prev_error) / T if ch.has_prev else 0.0)
        if ff is not None:
            raw += ff
        ch.prev_error = e
        ch.has_prev = True
        ch.prev_raw = raw
        out.append(saturate(raw, limit))
    return tuple(out)


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

