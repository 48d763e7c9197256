import math
from collections import namedtuple

import numpy as np
import pytest
from scipy.optimize import least_squares

from cargosim.frames import EulerAngles, rotate, wrap_angle
from cargosim.runner import Localizer
from cargosim.sim_world import ScenarioConfig, vehicle_knowledge
from cargosim.uwb_localization import (SIGMA_JERK, SensorFault, anchor_acceleration,
                                       ekf_predict, ekf_update, fuse_labels,
                                       initial_label, multilaterate,
                                       predict_label, range_variance,
                                       update_label, yaw_from_labels)

from conftest import reference_rotation

ANCHORS = np.array([
    [1.7, 2.4, 0.2], [1.7, -2.4, 0.2], [-1.7, 2.4, 0.2], [-1.7, -2.4, 0.2],
    [-1.7, 0.8, 3.7], [-1.7, -0.8, 3.7],
])
POINTS = ANCHORS.tolist()
I3 = np.eye(3)
Z3 = np.zeros(3)
SIGMA = 0.10  # m, the range noise of the filters below
VAR = SIGMA ** 2
T = 0.02  # s
# one label's state with its 6x6 covariance, as the per-label reference
# and the helpers below take it
Label = namedtuple("Label", "mean cov")
TRIU = np.triu_indices(6)


def _tri(P):
    """The 21 stored entries of a 6x6 covariance, as the kernel takes them."""
    return np.asarray(P, dtype=float)[TRIU].tolist()


def _full(cov):
    """The 6x6 covariance of the kernel's 21 stored entries."""
    P = np.zeros((6, 6))
    P[TRIU] = cov
    return P + np.triu(P, 1).T


def _rest(position):
    """:func:`initial_label` as a Label."""
    mean, cov = initial_label(position)
    return Label(np.array(mean), _full(cov))


def _predict(label, a_body, R_b_w, R_w_u):
    """:func:`predict_label` on a Label, as the reference takes its inputs
    (the world-to-anchor rotation, the transpose of the platform's)."""
    mean, cov = predict_label(np.asarray(label.mean, float).tolist(),
                              _tri(label.cov),
                              anchor_acceleration(a_body, R_b_w, R_w_u.T), T)
    return np.array(mean), _full(cov)


def _update(label, ranges, anchors):
    """:func:`update_label` on a Label and (anchor index, range) pairs."""
    mean, cov, degraded = update_label(
        np.asarray(label.mean, float).tolist(), _tri(label.cov),
        _row(ranges), anchors[[j for j, _ in ranges]].tolist(), VAR)
    return np.array(mean), _full(cov), degraded


def _ranges(point, anchors=ANCHORS, noise=None):
    d = np.linalg.norm(anchors - np.asarray(point, float), axis=1)
    if noise is not None:
        d = d + noise
    return list(enumerate(d))


def _row(ranges):
    """The ranges of (anchor index, range) pairs, as a label's row."""
    return [r for _, r in ranges]


def test_anchor_set_validation():
    with pytest.raises(ValueError, match="need >= 3 anchors with 3 coordinates"):
        ScenarioConfig(anchors=np.array([[0, 0, 0], [1, 1, 1]]))
    with pytest.raises(ValueError, match="anchors are collinear"):
        ScenarioConfig(anchors=np.array([[0, 0, 0], [1, 0, 0], [2, 0, 0]]))
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="anchors must be finite"):
            ScenarioConfig(anchors=np.array([[0, 0, bad], [1, 0, 0], [0, 1, 0]]))
    # any sequence of triples is held as rows of three floats
    cfg = ScenarioConfig(anchors=np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0]]))
    assert cfg.anchors == ((0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0))
    assert all(type(x) is float for row in cfg.anchors for x in row)
    assert ScenarioConfig().anchors == tuple(map(tuple, POINTS))


def test_predict_stationary_grows_covariance():
    s0 = _rest([1.0, 2.0, 3.0])
    mean, cov = _predict(s0, Z3, I3, I3)
    np.testing.assert_allclose(mean[:3], [1.0, 2.0, 3.0], atol=1e-15)
    # uncertainty inflates on every axis without a measurement
    assert np.all(np.diag(cov) > np.diag(s0.cov))


def test_predict_acceleration_input_block():
    s0 = [initial_label([0.0, 0.0, 0.0])]
    s1 = ekf_predict(s0, anchor_acceleration(np.array([1.0, 0.0, 0.0]), I3, I3), T)
    # T^2/2 on position, T on velocity
    assert s1[0][0][0] == pytest.approx(2e-4, abs=1e-15)
    assert s1[0][0][3] == pytest.approx(0.02, abs=1e-15)


def test_predict_velocity_telescopes():
    s = Label(mean=[0, 0, 0, 1.0, 0, 0], cov=np.eye(6))
    for _ in range(50):
        s = Label(*_predict(s, Z3, I3, I3))
    assert s.mean[0] == pytest.approx(1.0, abs=1e-12)


def test_predict_rotates_acceleration():
    R_b_w = reference_rotation(0.0, 0.0, math.pi / 2)
    s0 = [initial_label([0.0, 0.0, 0.0])]
    s1 = ekf_predict(s0, anchor_acceleration(np.array([1.0, 0.0, 0.0]), R_b_w, I3),
                     T)
    assert s1[0][0][1] == pytest.approx(2e-4, abs=1e-12)
    assert abs(s1[0][0][0]) < 1e-12


def test_update_zero_innovation_keeps_state():
    truth = np.array([0.4, -0.3, 1.2])
    s = Label(mean=np.concatenate([truth, Z3]), cov=1e-6 * np.eye(6))
    mean, _, _ = _update(s, _ranges(truth), ANCHORS)
    np.testing.assert_allclose(mean[:3], truth, atol=1e-12)


def test_update_covariance_symmetric_psd(rng):
    s = _rest([0.2, 0.1, 1.0])
    truth = np.array([0.5, -0.2, 1.5])
    for _ in range(100):
        s = Label(*_predict(s, rng.normal(size=3), I3, I3))
        noise = 0.1 * rng.normal(size=len(ANCHORS))
        s = Label(*_update(s, _ranges(truth, noise=noise), ANCHORS)[:2])
        # symmetric by construction: the kernel stores one triangle
        assert np.all(np.linalg.eigvalsh(s.cov) > -1e-10)


def test_range_variance_stays_a_float():
    assert range_variance(SIGMA) == VAR
    # a sigma past 1e154 m squares past the float range; it weighs nothing
    assert range_variance(1e300) == range_variance(1e154) < math.inf


def test_update_requires_ranges():
    # one row of ranges per label: a label without its row is an error
    s = [initial_label([0, 0, 0])]
    with pytest.raises(ValueError):
        ekf_update(s, [], POINTS, VAR)


@pytest.mark.parametrize("rows", [1, 3])
def test_update_takes_one_row_per_label(rows):
    labels = [initial_label([0.2, 0.1, 1.0]), initial_label([0.2, -0.1, 1.0])]
    with pytest.raises(ValueError):
        ekf_update(labels, [_row(_ranges([0.2, 0.0, 1.0]))] * rows, POINTS, VAR)


def test_update_degraded_when_all_rows_dropped():
    # predicted position exactly on the only anchor used: the label keeps
    # its state
    s = [initial_label(ANCHORS[0])]
    assert ekf_update(s, [[1.0]], POINTS[:1], VAR) == (s, [0])


def test_a_label_with_no_finite_range_is_degraded_while_the_other_updates():
    labels = [initial_label([0.2, 0.1, 1.0]), initial_label([0.2, -0.1, 1.0])]
    row = _row(_ranges([0.3, 0.0, 1.2]))
    updated, degraded = ekf_update(labels, [[math.nan] * len(row), row], POINTS,
                                   VAR)
    assert degraded == [0]
    assert updated[0] == labels[0]
    assert updated[1] == update_label(*labels[1], row, POINTS, VAR)[:2]
    assert updated[1] != labels[1]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_a_range_that_is_not_finite_is_left_out(bad):
    s = _rest([0.2, 0.1, 1.0])
    ranges = _ranges([0.5, -0.2, 1.5])
    kept = _update(s, ranges[1:], ANCHORS)
    mean, cov, degraded = _update(s, [(0, bad), *ranges[1:]], ANCHORS)
    assert mean.tolist() == kept[0].tolist() and not degraded
    np.testing.assert_array_equal(cov, kept[1])
    # a label with no finite range keeps its prediction
    assert _update(s, [(0, bad)], ANCHORS)[2]


def test_noiseless_convergence_to_least_squares():
    truth = np.array([0.5, -0.4, 1.3])
    var = range_variance(1e-6)
    s = [initial_label(truth + [0.6, -0.6, 0.5])]
    for _ in range(50):
        s = ekf_predict(s, anchor_acceleration(Z3, I3, I3), T)
        s, _ = ekf_update(s, [_row(_ranges(truth))], POINTS, var)
    oracle = multilaterate(_row(_ranges(truth)), POINTS)
    assert np.linalg.norm(s[0][0][:3] - oracle) < 1e-6


def test_multilaterate_matches_scipy_oracle(rng):
    for _ in range(50):
        truth = rng.uniform([-1.5, -2.0, 0.0], [1.5, 2.0, 4.0])
        noise = 0.05 * rng.normal(size=len(ANCHORS))
        ranges = _ranges(truth, noise=noise)
        ours = multilaterate(_row(ranges), POINTS)

        meas = np.array([r for _, r in ranges])

        def residual(u):
            return np.linalg.norm(ANCHORS - u, axis=1) - meas

        ref = least_squares(residual, truth + 0.01, method="lm").x
        np.testing.assert_allclose(ours, ref, atol=1e-6)


def test_multilaterate_needs_three_ranges():
    with pytest.raises(ValueError):
        multilaterate([1.0, 2.0], POINTS[:2])
    with pytest.raises(ValueError):
        multilaterate([1.0, 2.0, *[math.nan] * 4], POINTS)


def test_multilaterate_takes_one_range_per_anchor():
    row = _row(_ranges([0.3, -0.4, 1.2]))
    for ranges in (row[:-1], [*row, 1.0]):
        with pytest.raises(ValueError):
            multilaterate(ranges, POINTS)


def test_multilaterate_leaves_out_ranges_that_are_not_finite():
    row = _row(_ranges([0.3, -0.4, 1.2]))
    held = [{1: math.inf, 4: math.nan}.get(j, r) for j, r in enumerate(row)]
    kept = (0, 2, 3, 5)
    np.testing.assert_allclose(multilaterate(held, POINTS),
                               multilaterate([row[j] for j in kept],
                                             [POINTS[j] for j in kept]),
                               rtol=0, atol=1e-12)


@pytest.mark.parametrize("r, message", [(math.inf, "at least 3 finite ranges"),
                                        (1e307, "past the float range")])
def test_an_epoch_that_locates_no_position_is_a_sensor_fault(r, message):
    with pytest.raises(SensorFault, match=message):
        multilaterate([r] * len(ANCHORS), POINTS)


def test_fuse_labels_idempotent():
    pose = fuse_labels([[1.0, 2.0, 3.0]] * 2, 0.0)
    np.testing.assert_allclose(pose.position, [1.0, 2.0, 3.0])
    assert pose.source == "uwb"


def test_fuse_labels_symmetric_cancellation():
    pose = fuse_labels([[0.0, 1.0, 0.0], [0.0, -1.0, 0.0]], 0.0)
    np.testing.assert_allclose(pose.position, [0.0, 0.0, 0.0], atol=1e-15)


def test_fuse_labels_rotates_mean():
    # the localizer rotates each label into the world frame once, and the
    # fused position is the mean of the two rotated labels: on the first
    # tick, with no sighting, the output is that mean exactly
    platform = EulerAngles(math.radians(10.0), math.radians(-6.0), 0.4)
    labels = ([0.5, 1.2, 3.0], [0.5, 0.8, 3.0])  # anchor frame, 0.4 m apart
    ranges = [[math.dist(u, a) for a in POINTS] for u in labels]
    localizer = Localizer(vehicle_knowledge(ScenarioConfig()), T)
    pose, _ = localizer.step(platform, (0.0, 0.0, 9.81), 0.05, -0.03, ranges, [])
    w1, w2 = (rotate(platform.rows, multilaterate(row, POINTS).tolist())
              for row in ranges)
    assert pose.position == tuple((a + b) / 2 for a, b in zip(w1, w2))
    R = reference_rotation(platform.roll, platform.pitch, platform.yaw)
    np.testing.assert_allclose(pose.position, R @ np.mean(labels, axis=0), atol=1e-9)
    assert pose.position[2] != pytest.approx(3.0, abs=1e-3)


def test_fuse_labels_passes_yaw():
    assert fuse_labels([[1.0, 2.0, 3.0]] * 2, 0.7).yaw == 0.7


def test_yaw_aligned_with_platform():
    d = 0.4
    assert yaw_from_labels([0.0, d / 2, 0.0], [0.0, -d / 2, 0.0],
                           0.0, 0.0, d) == pytest.approx(0.0)


def test_yaw_quarter_turn():
    d = 0.4
    psi = yaw_from_labels([-d / 2, 0.0, 0.0], [d / 2, 0.0, 0.0], 0.0, 0.0, d)
    assert psi == pytest.approx(math.pi / 2)


def test_yaw_roundtrip_tilted(rng):
    d = 0.4
    for _ in range(500):
        phi = rng.uniform(-0.5, 0.5)
        theta = rng.uniform(-0.5, 0.5)
        psi = rng.uniform(-math.pi, math.pi)
        delta = reference_rotation(phi, theta, psi) @ np.array([0.0, d, 0.0])
        rec = yaw_from_labels(delta / 2, -delta / 2, phi, theta, d)
        assert abs(wrap_angle(rec - psi)) < 1e-9


def test_yaw_baseline_gate():
    d = 0.4
    assert yaw_from_labels([0.0, d, 0.0], [0.0, -d, 0.0], 0.0, 0.0, d) is None
    assert yaw_from_labels([0.0, 0.1, 0.0], [0.0, -0.1, 0.0], 0.0, 0.0, d) is None


def test_yaw_rejects_extreme_roll():
    with pytest.raises(ValueError):
        yaw_from_labels([0.0, 0.2, 0.0], [0.0, -0.2, 0.0], math.pi / 2, 0.0, 0.4)


# --- the kernel against the per-label reference ------------------------
# The reference is the filter as first written: one label per call, a
# Python loop over the ranges, an explicit inverse and the full A, B, D.

def _ref_predict(s, a_body, R_b_w, R_w_u):
    A = np.block([[I3, T * I3], [np.zeros((3, 3)), I3]])
    B = np.vstack([T * T / 2 * I3, T * I3])
    D = np.vstack([T ** 3 / 6 * I3, T * T / 2 * I3])
    a_u = R_w_u @ (R_b_w @ a_body)
    Q = (SIGMA_JERK ** 2) * np.eye(3)
    return A @ s.mean + B @ a_u, A @ s.cov @ A.T + D @ Q @ D.T


def _ref_update(s, ranges, anchors):
    u = s.mean[:3]
    rows, innov = [], []
    for j, measured in ranges:
        diff = u - anchors[j]
        d = float(np.linalg.norm(diff))
        if d < 1e-9:
            continue
        rows.append(np.concatenate([diff / d, np.zeros(3)]))
        innov.append(measured - d)
    if not rows:
        return s.mean, s.cov, True
    H = np.vstack(rows)
    y = np.asarray(innov)
    R = VAR * np.eye(len(rows))
    S = H @ s.cov @ H.T + R
    K = s.cov @ H.T @ np.linalg.inv(S)
    IKH = np.eye(6) - K @ H
    return s.mean + K @ y, IKH @ s.cov @ IKH.T + K @ R @ K.T, False


def _random_label(rng, position=None):
    pos = rng.uniform([-1.5, -2.0, 0.5], [1.5, 2.0, 3.5]) \
        if position is None else np.asarray(position, float)
    M = rng.normal(size=(6, 6))
    cov = 0.02 * M @ M.T + 1e-3 * np.eye(6)
    return Label(mean=np.concatenate([pos, rng.normal(size=3)]), cov=cov)


def _assert_label_matches(out, mean, cov):
    np.testing.assert_allclose(out[0], mean, rtol=0, atol=1e-12)
    np.testing.assert_allclose(out[1], cov, rtol=0, atol=1e-12)


def _flight_inputs(rng):
    """One flight's acceleration, body-to-world and world-to-anchor rotation."""
    return (rng.normal(scale=3.0, size=3),
            reference_rotation(*rng.uniform(-0.3, 0.3, 2),
                              rng.uniform(-math.pi, math.pi)),
            reference_rotation(*rng.uniform(-0.2, 0.2, 3)))


def test_batched_predict_matches_reference(rng):
    for _ in range(200):
        s = _random_label(rng)
        inputs = _flight_inputs(rng)
        _assert_label_matches(_predict(s, *inputs), *_ref_predict(s, *inputs))


def test_batched_predict_checks_each_flights_acceleration(rng):
    labels = [initial_label([0.2, 0.1, 1.0]), initial_label([0.2, -0.1, 1.0])]
    _, R_b_w, R_w_u = _flight_inputs(rng)
    with pytest.raises(ValueError, match="acceleration must be finite"):
        ekf_predict(labels, anchor_acceleration((0.0, math.nan, 0.0), R_b_w,
                                                R_w_u.T), T)


def test_batched_update_matches_reference(rng):
    for _ in range(200):
        s = _random_label(rng)
        truth = s.mean[:3] + rng.normal(scale=0.2, size=3)
        ranges = list(enumerate(np.linalg.norm(ANCHORS - truth, axis=1)
                                + rng.normal(scale=0.1, size=6)))
        out = _update(s, ranges, ANCHORS)
        assert not out[2]
        _assert_label_matches(out, *_ref_update(s, ranges, ANCHORS)[:2])


def test_batched_update_drops_a_range_at_its_anchor(rng):
    on_anchor = _random_label(rng, position=ANCHORS[2])
    ranges = list(enumerate(rng.uniform(1.0, 4.0, size=6)))
    out = _update(on_anchor, ranges, ANCHORS)
    assert not out[2]
    _assert_label_matches(out, *_ref_update(on_anchor, ranges, ANCHORS)[:2])


def test_batched_update_all_dropped_is_degraded_and_unchanged(rng):
    on_anchor = _random_label(rng, position=ANCHORS[0])
    mean, cov, degraded = _update(on_anchor, [(0, 1.0)], ANCHORS)
    assert degraded
    np.testing.assert_array_equal(mean, on_anchor.mean)
    np.testing.assert_array_equal(cov[TRIU], on_anchor.cov[TRIU])
    other = _random_label(rng)
    out = _update(other, [(0, 1.0)], ANCHORS)
    mean, cov, degraded = _ref_update(other, [(0, 1.0)], ANCHORS)
    assert not degraded and not out[2]
    _assert_label_matches(out, mean, cov)


def test_update_on_a_subset_of_anchors_matches_reference(rng):
    for _ in range(50):
        s = _random_label(rng)
        subset = [(j, float(rng.uniform(1.0, 4.0))) for j in (1, 3, 4)]
        out = _update(s, subset, ANCHORS)
        assert not out[2]
        _assert_label_matches(out, *_ref_update(s, subset, ANCHORS)[:2])


def test_batch_of_two_equals_two_batches_of_one(rng):
    a_u = anchor_acceleration(np.array([0.4, -1.2, 0.3]),
                              reference_rotation(0.1, -0.2, 1.3),
                              reference_rotation(0.05, 0.1, 0.0))
    for _ in range(50):
        positions = rng.uniform([-1.5, -2.0, 0.5], [1.5, 2.0, 3.5], size=(2, 3))
        row = rng.uniform(1.0, 4.0, size=6).tolist()
        batch, _ = ekf_update(ekf_predict([initial_label(p) for p in positions],
                                          a_u, T), [row, row], POINTS, VAR)
        for i, position in enumerate(positions):
            single, _ = ekf_update(ekf_predict([initial_label(position)], a_u, T),
                                   [row], POINTS, VAR)
            assert batch[i] == single[0]


def test_joseph_update_stays_symmetric_positive_definite_over_long_hover():
    # The short form P - K S K^T drifts where the Joseph form keeps the
    # covariance positive definite; the kernel's scalar updates store one
    # triangle, so it is symmetric by construction.  10 000 cycles of a
    # hovering pair of labels at SIGMA_JERK = 200 must stay positive
    # definite and on the reference (Joseph) filter above.
    rng = np.random.default_rng(11)
    truth = np.array([[0.9, 2.2, 1.5], [0.9, 1.8, 1.5]])
    labels = [_rest(t + 0.3) for t in truth]
    refs = list(labels)
    for k in range(10_000):
        ranges = np.linalg.norm(ANCHORS - truth[:, None, :], axis=-1) \
            + rng.normal(scale=SIGMA, size=(2, len(ANCHORS)))
        for i, row in enumerate(ranges):
            meas = list(enumerate(row))
            s = Label(*_predict(labels[i], Z3, I3, I3))
            labels[i] = Label(*_update(s, meas, ANCHORS)[:2])
            np.linalg.cholesky(labels[i].cov)  # raises unless positive definite
            s = Label(*_ref_predict(refs[i], Z3, I3, I3))
            refs[i] = Label(*_ref_update(s, meas, ANCHORS)[:2])
    for s, ref in zip(labels, refs):
        assert np.linalg.norm(s.mean - ref.mean) <= 1e-9 * np.linalg.norm(ref.mean)
        assert np.linalg.norm(s.cov - ref.cov) <= 1e-9 * np.linalg.norm(ref.cov)
