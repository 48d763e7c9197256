import math
import statistics

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cargosim.perception import (LOCK_FRAMES, LOSS_FRAMES, MAX_CONSECUTIVE_REJECTS,
                                 ROI_SCALE, CargoTrack, DetectionObservation, _median,
                                 cargo_position_from_detection, smooth_track,
                                 wavegate_select)

PERIOD = 1.0 / 21.3  # a detector frame period


def _det(cx=0.0, cy=0.0, diag=0.001, conf=0.8, yaw=0.0):
    return DetectionObservation(confidence=conf, image_center=(cx, cy),
                                box_diagonal=diag, box_yaw=yaw)


def test_lock_after_stable_frames():
    track = CargoTrack()
    for _ in range(LOCK_FRAMES):
        track = wavegate_select([_det()], track)
    assert track.locked
    assert track.last_box == (0.0, 0.0, 0.001)


def test_no_lock_on_jumping_candidate():
    track = CargoTrack()
    for k in range(20):
        # candidate teleports each frame; association streak never builds
        track = wavegate_select([_det(cx=(k % 2) * 0.5)], track)
    assert not track.locked


def test_loss_unlocks_after_timeout():
    track = CargoTrack()
    for k in range(LOCK_FRAMES):
        track = wavegate_select([_det()], track)
    assert track.locked
    for _ in range(LOSS_FRAMES + 1):
        track = wavegate_select([], track)
    assert not track.locked
    assert track.last_box is None


def _roi_half_side(track):
    assert track.locked
    return ROI_SCALE * (track.last_box[2] / math.sqrt(2.0)) / 2.0


@pytest.mark.parametrize("axis", [0, 1])
@pytest.mark.parametrize("scale, admitted", [(1 - 1e-6, True), (1 + 1e-6, False)])
def test_a_locked_gate_admits_only_candidates_within_the_roi_of_its_last_box(
        axis, scale, admitted):
    # a box twice the last one's size, centred just inside or just outside
    # the ROI's edge, still overlaps the last box either way
    track = CargoTrack(locked=True, last_box=(0.01, -0.02, 0.002))
    center = [0.01, -0.02]
    center[axis] += _roi_half_side(track) * scale
    candidate = _det(cx=center[0], cy=center[1], diag=0.004)
    track = wavegate_select([candidate], track)
    assert (track.selected is candidate) is admitted
    assert track.frames_since_seen == (0 if admitted else 1)


def test_roi_excludes_distant_decoy():
    track = CargoTrack()
    for _ in range(LOCK_FRAMES):
        track = wavegate_select([_det()], track)
    # a more confident decoy far outside the ROI must not steal the lock
    decoy = _det(cx=0.5, cy=0.5, conf=0.99)
    target = _det(conf=0.4)
    track = wavegate_select([decoy, target], track)
    assert track.selected is target


def test_unlocked_prefers_confidence():
    track = CargoTrack()
    weak = _det(conf=0.3)
    strong = _det(cx=0.3, conf=0.9)
    track = wavegate_select([weak, strong], track)
    assert track.selected is strong


def test_locked_association_by_overlap_not_confidence():
    track = CargoTrack()
    for _ in range(LOCK_FRAMES):
        track = wavegate_select([_det()], track)
    half = _roi_half_side(track)
    near = _det(cx=0.1 * half, conf=0.3)
    shifted = _det(cx=0.9 * half, conf=0.95)
    track = wavegate_select([near, shifted], track)
    assert track.selected is near


def test_pinhole_boresight():
    pos = cargo_position_from_detection(_det(), 0.0027, 0.372)
    assert pos[0] == 0.0 and pos[1] == 0.0
    assert pos[2] < 0


def test_pinhole_similar_triangles():
    # halving the image diagonal roughly doubles the recovered distance
    f, D = 0.0027, 0.372
    near = cargo_position_from_detection(_det(diag=0.002), f, D)
    far = cargo_position_from_detection(_det(diag=0.001), f, D)
    assert (far[2] + f) == pytest.approx(2.0 * (near[2] + f), rel=1e-12)


def test_pinhole_roundtrip():
    # forward-project a known camera-frame point, then invert
    f, D = 0.0027, 0.372
    truth = np.array([0.5, -0.3, -2.0])
    d_img = -f * D / (truth[2] + f)
    scale = d_img / D
    obs = _det(cx=truth[0] * scale, cy=truth[1] * scale, diag=d_img)
    np.testing.assert_allclose(cargo_position_from_detection(obs, f, D),
                               truth, atol=1e-9)


def test_smooth_constant_input_settles():
    track = CargoTrack()
    p = np.array([0.3, -0.2, -1.5])
    for _ in range(60):
        track = smooth_track(track, p, PERIOD)
    np.testing.assert_allclose(track.position, p, atol=1e-12)
    assert np.linalg.norm(track.velocity) < 1e-3


def test_smooth_rejects_spike():
    track = CargoTrack()
    rng = np.random.default_rng(0)
    base = np.array([0.0, 0.0, -2.0])
    for _ in range(20):
        track = smooth_track(track, base + 0.01 * rng.normal(size=3), PERIOD)
    before = track.position
    track = smooth_track(track, base + np.array([10.0, 0.0, 0.0]), PERIOD)
    assert np.linalg.norm(np.subtract(track.position, before)) < 0.05
    assert track.rejects >= 1


def test_smooth_recovers_after_sustained_shift():
    # a genuine target move looks like consecutive outliers; after the
    # reject cap the filters must restart on the new data instead of
    # ignoring it forever
    track = CargoTrack()
    rng = np.random.default_rng(1)
    for _ in range(20):
        track = smooth_track(track, 0.01 * rng.normal(size=3)
                             + [0, 0, -2.0], PERIOD)
    new = np.array([3.0, 0.0, -2.0])
    for _ in range(MAX_CONSECUTIVE_REJECTS + 5):
        track = smooth_track(track, new + 0.01 * rng.normal(size=3), PERIOD)
    assert abs(track.position[0] - 3.0) < 0.1
    assert track.rejects == 0


def test_velocity_converges_on_ramp():
    track = CargoTrack()
    v = np.array([0.2, 0.0, 0.0])
    t = 0.0
    while t < 2.0:
        track = smooth_track(track, v * t, PERIOD)
        t += PERIOD
    assert track.velocity[0] == pytest.approx(0.2, abs=0.02)


# a window column: plain samples, repeats, signed zeros, infinities and NaN
SAMPLE = st.one_of(st.floats(-10.0, 10.0), st.sampled_from([0.0, -0.0, 1.0]),
                   st.sampled_from([math.nan, math.inf, -math.inf]))


@pytest.mark.parametrize("size", range(5, 16))  # the outlier window's sizes
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_the_window_median_is_statistics_median(size, data):
    column = data.draw(st.lists(SAMPLE, min_size=size, max_size=size))
    for values in (column, tuple(column)):  # smooth_track passes tuples
        assert repr(_median(values)) == repr(statistics.median(values))
