import numpy as np
import pytest

from cargosim.perception import (CargoTrack, DetectionObservation,
                                 PerceptionParams, cargo_position_from_detection,
                                 smooth_track, wavegate_select)

PARAMS = PerceptionParams()


def _det(cx=0.0, cy=0.0, diag=0.001, conf=0.8, yaw=0.0):
    return DetectionObservation(confidence=conf, image_center=(cx, cy),
                                box_diagonal=diag, box_yaw=yaw)


def test_detection_validation():
    with pytest.raises(ValueError):
        _det(conf=1.2)
    with pytest.raises(ValueError):
        _det(diag=0.0)


def test_lock_after_stable_frames():
    track = CargoTrack()
    for _ in range(PARAMS.lock_frames):
        track = wavegate_select([_det()], track, PARAMS)
    assert track.locked
    assert track.roi is not None


def test_no_lock_on_jumping_candidate():
    track = CargoTrack()
    for k in range(20):
        # candidate teleports each frame; association streak never builds
        track = wavegate_select([_det(cx=(k % 2) * 0.5)], track, PARAMS)
    assert not track.locked


def test_loss_unlocks_after_timeout():
    track = CargoTrack()
    for k in range(PARAMS.lock_frames):
        track = wavegate_select([_det()], track, PARAMS)
    assert track.locked
    for _ in range(PARAMS.loss_frames + 1):
        track = wavegate_select([], track, PARAMS)
    assert not track.locked
    assert track.roi is None


def test_roi_excludes_distant_decoy():
    track = CargoTrack()
    for _ in range(PARAMS.lock_frames):
        track = wavegate_select([_det()], track, PARAMS)
    # a more confident decoy far outside the ROI must not steal the lock
    decoy = _det(cx=0.5, cy=0.5, conf=0.99)
    target = _det(conf=0.4)
    track = wavegate_select([decoy, target], track, PARAMS)
    assert track.selected is target


def test_unlocked_prefers_confidence():
    track = CargoTrack()
    weak = _det(conf=0.3)
    strong = _det(cx=0.3, conf=0.9)
    track = wavegate_select([weak, strong], track, PARAMS)
    assert track.selected is strong


def test_locked_association_by_overlap_not_confidence():
    track = CargoTrack()
    for _ in range(PARAMS.lock_frames):
        track = wavegate_select([_det()], track, PARAMS)
    half = track.roi[2]
    near = _det(cx=0.1 * half, conf=0.3)
    shifted = _det(cx=0.9 * half, conf=0.95)
    track = wavegate_select([near, shifted], track, PARAMS)
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
        track = smooth_track(track, p, PARAMS)
    np.testing.assert_allclose(track.position, p, atol=1e-12)
    assert np.linalg.norm(track.velocity) < 1e-3


def test_smooth_rejects_spike():
    track = CargoTrack()
    rng = np.random.default_rng(0)
    base = np.array([0.0, 0.0, -2.0])
    for _ in range(20):
        track = smooth_track(track, base + 0.01 * rng.normal(size=3), PARAMS)
    before = track.position
    track = smooth_track(track, base + np.array([10.0, 0.0, 0.0]), PARAMS)
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
                             + [0, 0, -2.0], PARAMS)
    new = np.array([3.0, 0.0, -2.0])
    for _ in range(PARAMS.max_consecutive_rejects + 5):
        track = smooth_track(track, new + 0.01 * rng.normal(size=3), PARAMS)
    assert abs(track.position[0] - 3.0) < 0.1
    assert track.rejects == 0


def test_velocity_converges_on_ramp():
    track = CargoTrack()
    v = np.array([0.2, 0.0, 0.0])
    t = 0.0
    while t < 2.0:
        track = smooth_track(track, v * t, PARAMS)
        t += PARAMS.frame_period
    assert track.velocity[0] == pytest.approx(0.2, abs=0.02)


def test_position_from_detection_validation():
    with pytest.raises(ValueError):
        cargo_position_from_detection(_det(), 0.0027, -1.0)
