import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cargosim.control import (CHANNELS, ControllerState, PHASE_GAINS, PidGains,
                              VelocityCommand, VelocityLimits,
                              position_error_body, pid_step, saturate,
                              yaw_error)
from cargosim.frames import rotation_from_rpy

T = 0.02
LIMITS = VelocityLimits()


def test_gains_validation():
    with pytest.raises(ValueError):
        PidGains(kp=-0.1, ki=0.0, kd=0.0)


@pytest.mark.parametrize("name", ["horizontal", "vertical"])
@pytest.mark.parametrize("value", [-0.6, 0.0, math.nan])
def test_velocity_limits_must_be_positive(name, value):
    with pytest.raises(ValueError, match=f"^{name} must be > 0, got "):
        VelocityLimits(**{name: value})


def test_search_gain_example_exact():
    # pure proportional search gains: 0.5 * 0.4 = 0.2 m/s exactly
    st_ = ControllerState()
    cmd, _ = pid_step(PHASE_GAINS["search"], {"x": 0.4}, st_, T, 0.0)
    assert cmd.vx == 0.2
    assert cmd.vy == 0.0 and cmd.vz == 0.0


def test_landing_gain_three_second_window():
    # constant 0.1 m error for 3 s at 50 Hz with the landing gains:
    # P 0.03 + I 0.001 * 150 * 0.1 = 0.045 m/s (derivative zero at
    # constant error)
    gains = PHASE_GAINS["land"]
    st_ = ControllerState()
    for k in range(1, 151):
        cmd, st_ = pid_step(gains, {"x": 0.1}, st_, T, k * T)
    assert cmd.vx == pytest.approx(0.045, rel=1e-9)


def test_integral_window_slides():
    gains = PidGains(kp=0.0, ki=1.0, kd=0.0)
    st_ = ControllerState()
    limits = VelocityLimits(horizontal=100.0)
    now = 0.0
    for k in range(1, 400):
        now = k * T
        cmd, st_ = pid_step(gains, {"x": 0.01}, st_, T, now, limits=limits)
    # window holds span/T + 1 samples at most
    assert st_.channels["x"].window_sum <= 0.01 * (3.0 / T + 1) + 1e-9
    assert cmd.vx == pytest.approx(st_.channels["x"].window_sum)


def test_derivative_reset_prevents_kick():
    gains = PidGains(kp=0.0, ki=0.0, kd=1.0)
    st_ = ControllerState()
    _, st_ = pid_step(gains, {"x": 5.0}, st_, T, 0.0,
                      limits=VelocityLimits(horizontal=1e9))
    st_.reset_derivative()
    cmd, st_ = pid_step(gains, {"x": 0.0}, st_, T, T,
                        limits=VelocityLimits(horizontal=1e9))
    assert cmd.vx == 0.0  # no derivative spike across the gain switch


def test_yaw_channel_is_p_only():
    gains = PidGains(kp=1.0, ki=1.0, kd=1.0, kp_yaw=0.1)
    st_ = ControllerState()
    for k in range(1, 20):
        cmd, st_ = pid_step(gains, {"yaw": 0.3}, st_, T, k * T)
    assert cmd.yaw_rate == pytest.approx(0.03)


def test_antiwindup_reinforcing_error_ignored():
    gains = PidGains(kp=1.0, ki=0.5, kd=0.0)
    st_ = ControllerState()
    # drive the raw command far past the limit
    _, st_ = pid_step(gains, {"x": 5.0}, st_, T, 0.0)
    acc_before = st_.channels["x"].window_sum
    win_before = list(st_.channels["x"].window)
    # previous raw is saturated positive and the error reinforces it:
    # the accumulator must be left byte-for-byte untouched
    _, st_ = pid_step(gains, {"x": 2.0}, st_, T, T)
    assert st_.channels["x"].window_sum == acc_before
    assert list(st_.channels["x"].window) == win_before
    # a counteracting error does accumulate
    _, st_ = pid_step(gains, {"x": -0.5}, st_, T, 2 * T)
    assert st_.channels["x"].window_sum == pytest.approx(acc_before - 0.5)


def test_antiwindup_negative_side():
    gains = PidGains(kp=1.0, ki=0.5, kd=0.0)
    st_ = ControllerState()
    _, st_ = pid_step(gains, {"x": -5.0}, st_, T, 0.0)
    acc = st_.channels["x"].window_sum
    _, st_ = pid_step(gains, {"x": -1.0}, st_, T, T)
    assert st_.channels["x"].window_sum == acc
    _, st_ = pid_step(gains, {"x": 0.5}, st_, T, 2 * T)
    assert st_.channels["x"].window_sum == pytest.approx(acc + 0.5)


def test_antiwindup_raw_command_is_gate_not_output():
    # raw exactly at the limit counts as saturated per the rule ">="
    gains = PidGains(kp=1.0, ki=1.0, kd=0.0)
    st_ = ControllerState()
    st_.channels["x"].prev_raw = LIMITS.horizontal
    _, st_ = pid_step(gains, {"x": 0.001}, st_, T, 0.0)
    assert st_.channels["x"].window_sum == 0.0


def test_saturate_limits_fuzz(rng):
    vals = rng.uniform(-100, 100, 1_000_000)
    for limit in (0.6, 0.3, 0.5):
        clamped = np.clip(vals, -limit, limit)
        # spot-check the scalar implementation against the vector oracle
        for v, c in zip(vals[::5000], clamped[::5000]):
            assert saturate(float(v), limit) == float(c)
        assert np.max(np.abs(clamped)) <= limit


@settings(max_examples=300, deadline=None)
@given(e=st.tuples(*[st.floats(-1e6, 1e6) for _ in range(4)]),
       kp=st.floats(0, 10), ki=st.floats(0, 10), kd=st.floats(0, 10))
def test_pid_output_never_exceeds_limits(e, kp, ki, kd):
    gains = PidGains(kp=kp, ki=ki, kd=kd, kp_yaw=kp)
    st_ = ControllerState()
    for k in range(3):
        errors = dict(zip(CHANNELS, e))
        cmd, st_ = pid_step(gains, errors, st_, T, k * T)
    assert abs(cmd.vx) <= LIMITS.horizontal
    assert abs(cmd.vy) <= LIMITS.horizontal
    assert abs(cmd.vz) <= LIMITS.vertical
    assert abs(cmd.yaw_rate) <= LIMITS.yaw_rate


def test_pid_feedforward_enters_before_saturation():
    gains = PidGains(kp=0.0, ki=0.0, kd=0.0)
    st_ = ControllerState()
    cmd, _ = pid_step(gains, {}, st_, T, 0.0,
                      feedforward=np.array([0.2, -5.0, 0.1]))
    assert cmd.vx == pytest.approx(0.2)
    assert cmd.vy == -LIMITS.horizontal  # clamped
    assert cmd.vz == pytest.approx(0.1)


def test_position_error_body_cases():
    np.testing.assert_allclose(
        position_error_body([1, 0, 0], [0, 0, 0], np.eye(3)), [1, 0, 0])
    np.testing.assert_allclose(
        position_error_body([1, 0, 0], [1, 0, 0], np.eye(3)), [0, 0, 0])
    R_w_b = rotation_from_rpy(0.0, 0.0, math.pi / 2).T
    np.testing.assert_allclose(
        position_error_body([1, 0, 0], [0, 0, 0], R_w_b), [0, -1, 0],
        atol=1e-15)


def test_yaw_error_aligns_across_long_side():
    assert yaw_error(-math.pi / 2) == pytest.approx(0.0)
    assert yaw_error(0.0) == pytest.approx(math.pi / 2)


def test_running_integral_equals_window_sum(rng):
    # irregular ticks prune one, several or no samples; large errors
    # saturate the command so both anti-windup gates fire
    gains = PidGains(kp=1.0, ki=0.5, kd=0.0)
    st_ = ControllerState()
    now = 0.0
    seen = {"pruned": 0, "gate_pos": 0, "gate_neg": 0}
    limits = {"x": LIMITS.horizontal, "y": LIMITS.horizontal, "z": LIMITS.vertical}
    for _ in range(10_000):
        now += float(rng.uniform(0.0, 0.1))
        errors = {name: float(rng.normal(scale=0.5)) for name in CHANNELS}
        before = {name: (len(ch.window), ch.prev_raw)
                  for name, ch in st_.channels.items()}
        pid_step(gains, errors, st_, T, now)
        for name in ("x", "y", "z"):
            window = st_.channels[name].window
            assert abs(st_.channels[name].window_sum - sum(e for _, e in window)) \
                <= 1e-12
            n_before, prev_raw = before[name]
            limit = limits[name]
            if prev_raw >= limit and errors[name] > 0.0:
                seen["gate_pos"] += 1
            elif prev_raw <= -limit and errors[name] < 0.0:
                seen["gate_neg"] += 1
            elif len(window) <= n_before:
                seen["pruned"] += 1
    assert min(seen.values()) > 1000, seen


def test_pid_rejects_bad_period():
    with pytest.raises(ValueError):
        pid_step(PHASE_GAINS["search"], {}, ControllerState(), 0.0, 0.0)
