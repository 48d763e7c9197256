"""Arbitration between marker-based and ranging-based pose estimates.

The marker (QR) fix is preferred whenever it is available because of its
higher accuracy near the platform; the ranging (UWB) fix is always
present as the fallback.  A short mean-filter window over the selected
estimates smooths the hand-over so the output position has no step
discontinuities, and every source change is recorded as an event.  The
marker fix takes over after ``QR_DEBOUNCE`` consecutive epochs.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field

from .frames import wrap_angle
from .qr_localization import PoseEstimate

QR_DEBOUNCE = 2  # consecutive marker epochs before QR takes over
WINDOW = 25  # estimates in the smoothing window


@dataclass
class HybridState:
    """Smoothing window plus source bookkeeping for one UAV.  Each window
    entry is (x, y, z, sin yaw, cos yaw) of one selected estimate."""

    window: deque = field(default_factory=deque, init=False)
    active_source: str = field(default="uwb", init=False)
    qr_streak: int = field(default=0, init=False)
    switch_count: int = field(default=0, init=False)
    # running sums over the window (kept incrementally; the loop runs at
    # 50 Hz so recomputing them every epoch is measurable), as Python
    # floats: elementwise float sums give the bits numpy's would
    _pos_sum: tuple = field(default=(0.0, 0.0, 0.0), init=False)
    _sin_sum: float = field(default=0.0, init=False)
    _cos_sum: float = field(default=0.0, init=False)

    def push(self, e: PoseEstimate) -> None:
        x, y, z = e.position
        sin, cos = math.sin(e.yaw), math.cos(e.yaw)
        self.window.append((x, y, z, sin, cos))
        sx, sy, sz = self._pos_sum
        sx += x; sy += y; sz += z
        self._sin_sum += sin
        self._cos_sum += cos
        if len(self.window) > WINDOW:  # evict the oldest, which is stored
            x, y, z, sin, cos = self.window.popleft()
            sx -= x; sy -= y; sz -= z
            self._sin_sum -= sin
            self._cos_sum -= cos
        self._pos_sum = (sx, sy, sz)


def arbitrate(qr: PoseEstimate | None, uwb: PoseEstimate,
              st: HybridState) -> tuple[PoseEstimate, list[str]]:
    """Select a source for this epoch and return the window-mean output.

    QR wins once it has been present for `QR_DEBOUNCE` consecutive
    epochs; a single missing QR epoch falls back to UWB immediately.
    Updates `st` in place and returns (output, events); events holds
    "source_switch:..." strings on transitions.
    """
    events: list[str] = []
    st.qr_streak = st.qr_streak + 1 if qr is not None else 0
    use_qr = qr is not None and st.qr_streak >= QR_DEBOUNCE
    source = "qr" if use_qr else "uwb"
    if source != st.active_source:
        events.append(f"source_switch:{st.active_source}->{source}")
        st.switch_count += 1
        st.active_source = source

    st.push(qr if use_qr else uwb)

    n = len(st.window)
    sx, sy, sz = st._pos_sum
    yaw = wrap_angle(math.atan2(st._sin_sum, st._cos_sum))
    out = PoseEstimate(position=(sx / n, sy / n, sz / n), yaw=yaw, source=source)
    return out, events
