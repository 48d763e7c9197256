"""Arbitration between marker-based and ranging-based pose estimates.

The marker (QR) fix is preferred whenever it is available because of its
higher accuracy near the platform; the ranging (UWB) fix is always
present as the fallback.  A short mean-filter window over the selected
estimates smooths the hand-over so the output position has no step
discontinuities, and every source change is recorded as an event.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field

from .frames import wrap_angle
from .qr_localization import PoseEstimate


@dataclass
class HybridState:
    """Smoothing window plus source bookkeeping for one UAV."""

    window: int = 25
    qr_debounce: int = 2
    estimates: deque = field(default_factory=deque, init=False)
    active_source: str = "uwb"
    qr_streak: int = 0
    switch_count: int = 0
    # running sums over the window (kept incrementally; the loop runs at
    # 50 Hz so recomputing them every epoch is measurable), as Python
    # floats: elementwise float sums give the bits numpy's would
    _pos_sum: tuple[float, float, float] = (0.0, 0.0, 0.0)
    _sin_sum: float = 0.0
    _cos_sum: float = 0.0

    def __post_init__(self):
        if self.window < 1:
            raise ValueError("window must be >= 1")

    def _add(self, e: PoseEstimate, sign: float = 1.0) -> None:
        # s + (-1.0 * x) is s - x exactly, so one body adds and removes
        x, y, z = e.position
        sx, sy, sz = self._pos_sum
        self._pos_sum = (sx + sign * x, sy + sign * y, sz + sign * z)
        self._sin_sum += sign * math.sin(e.yaw)
        self._cos_sum += sign * math.cos(e.yaw)

    def _drop(self) -> None:
        self._add(self.estimates.popleft(), -1.0)

    def push(self, e: PoseEstimate) -> None:
        self.estimates.append(e)
        self._add(e)
        while len(self.estimates) > self.window:
            self._drop()


def arbitrate(qr: PoseEstimate | None, uwb: PoseEstimate,
              st: HybridState) -> tuple[PoseEstimate, HybridState, list[str]]:
    """Select a source for this epoch and return the window-mean output.

    QR wins once it has been present for `qr_debounce` consecutive
    epochs; a single missing QR epoch falls back to UWB immediately.
    Returns (output, state, events); events holds "source_switch:..."
    strings on transitions.
    """
    events: list[str] = []
    st.qr_streak = st.qr_streak + 1 if qr is not None else 0
    use_qr = qr is not None and st.qr_streak >= st.qr_debounce
    source = "qr" if use_qr else "uwb"
    if source != st.active_source:
        events.append(f"source_switch:{st.active_source}->{source}")
        st.switch_count += 1
        st.active_source = source

    chosen = qr if use_qr else uwb
    st.push(chosen)

    n = len(st.estimates)
    sx, sy, sz = st._pos_sum
    yaw = wrap_angle(math.atan2(st._sin_sum, st._cos_sum))
    out = PoseEstimate(position=(sx / n, sy / n, sz / n), yaw=yaw, source=source,
                       timestamp=chosen.timestamp)
    return out, st, events
