import math

import numpy as np
import pytest

from cargosim.hybrid_localizer import HybridState, arbitrate
from cargosim.qr_localization import PoseEstimate


def _pose(x, source, yaw=0.0, t=0.0):
    return PoseEstimate(position=(x, 0.0, 0.0), yaw=yaw, source=source,
                        timestamp=t)


def test_window_validation():
    with pytest.raises(ValueError):
        HybridState(window=0)


def test_uwb_only_passthrough_mean():
    st = HybridState()
    outs = []
    for k in range(30):
        out, st, ev = arbitrate(None, _pose(1.0, "uwb", t=k * 0.02), st)
        outs.append(out)
        assert ev == []
    assert outs[-1].source == "uwb"
    assert outs[-1].position[0] == pytest.approx(1.0)


def test_single_qr_epoch_does_not_switch():
    st = HybridState()
    out, st, _ = arbitrate(_pose(0.0, "qr"), _pose(0.0, "uwb"), st)
    assert out.source == "uwb"
    # second consecutive marker epoch clears the debounce
    out, st, ev = arbitrate(_pose(0.0, "qr"), _pose(0.0, "uwb"), st)
    assert out.source == "qr"
    assert ev == ["source_switch:uwb->qr"]
    assert st.switch_count == 1


def test_fallback_is_immediate():
    st = HybridState()
    for _ in range(5):
        _, st, _ = arbitrate(_pose(0.0, "qr"), _pose(0.0, "uwb"), st)
    out, st, ev = arbitrate(None, _pose(0.0, "uwb"), st)
    assert out.source == "uwb"
    assert ev == ["source_switch:qr->uwb"]


def test_step_response_bounded_and_monotone():
    # a 0.30 m disagreement between sources must be smeared over the
    # window: no single-epoch jump above 0.30 / 25, settled within 0.5 s
    st = HybridState()
    for k in range(25):
        out, st, _ = arbitrate(None, _pose(0.0, "uwb", t=k * 0.02), st)
    prev = out.position[0]
    xs = []
    for k in range(25, 50):
        out, st, _ = arbitrate(None, _pose(0.30, "uwb", t=k * 0.02), st)
        xs.append(out.position[0])
    for x in xs:
        assert x - prev <= 0.30 / 25 + 1e-12
        assert x >= prev - 1e-12
        prev = x
    assert xs[-1] == pytest.approx(0.30, abs=1e-12)


def test_yaw_uses_circular_mean():
    st = HybridState(window=2)
    _, st, _ = arbitrate(None, _pose(0.0, "uwb", yaw=math.pi - 0.05), st)
    out, st, _ = arbitrate(None, _pose(0.0, "uwb", yaw=-math.pi + 0.05), st)
    assert abs(abs(out.yaw) - math.pi) < 1e-9


def test_running_sums_match_direct_mean(rng):
    st = HybridState(window=7)
    poses = []
    for k in range(40):
        qr = _pose(rng.uniform(-1, 1), "qr", yaw=rng.uniform(-3, 3)) \
            if rng.random() > 0.3 else None
        uwb = _pose(rng.uniform(-1, 1), "uwb", yaw=rng.uniform(-3, 3))
        out, st, _ = arbitrate(qr, uwb, st)
        direct = list(st.estimates)
        np.testing.assert_allclose(
            out.position, np.mean([e.position for e in direct], axis=0),
            atol=1e-12)
        sin_m = np.mean([math.sin(e.yaw) for e in direct])
        cos_m = np.mean([math.cos(e.yaw) for e in direct])
        assert out.yaw == pytest.approx(math.atan2(sin_m, cos_m), abs=1e-12)
