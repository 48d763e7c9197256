import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cargosim.control import (CHANNELS, PHASE_GAINS, VELOCITY_LIMITS,
                              ControllerState, PidGains, pid_step, saturate,
                              yaw_error)

T = 0.02
ZERO = (0.0, 0.0, 0.0, 0.0)


def test_gains_validation():
    with pytest.raises(ValueError):
        PidGains(kp=-0.1, ki=0.0, kd=0.0)


def test_search_gain_example_exact():
    # pure proportional search gains: 0.5 * 0.4 = 0.2 m/s exactly
    st_ = ControllerState()
    cmd = pid_step(PHASE_GAINS["search"], (0.4, 0.0, 0.0, 0.0), st_, T, 0.0)
    assert cmd[0] == 0.2
    assert cmd[1] == 0.0 and cmd[2] == 0.0


def test_landing_gain_three_second_window():
    # constant 0.1 m error for 3 s at 50 Hz with the landing gains:
    # P 0.03 + I 0.001 * 150 * 0.1 = 0.045 m/s (derivative zero at
    # constant error)
    gains = PHASE_GAINS["land"]
    st_ = ControllerState()
    for k in range(1, 151):
        cmd = pid_step(gains, (0.1, 0.0, 0.0, 0.0), st_, T, k * T)
    assert cmd[0] == pytest.approx(0.045, rel=1e-9)


@pytest.mark.parametrize("dt", [0.01, 0.02, 0.04])
def test_the_integral_term_is_the_same_integral_at_any_step(dt):
    # the same 0.1 m error held for the same 3 s gives the landing gains'
    # 0.045 m/s whatever the step: the integral term scales the window sum
    # by dt / GAIN_STEP, the step the gains were tuned at
    gains = PHASE_GAINS["land"]
    st_ = ControllerState()
    for k in range(1, round(3.0 / dt) + 1):
        cmd = pid_step(gains, (0.1, 0.0, 0.0, 0.0), st_, dt, k * dt)
    assert len(st_.channels[0].window) == round(3.0 / dt)
    assert cmd[0] == pytest.approx(0.045, rel=1e-9)


def test_integral_window_slides():
    gains = PidGains(kp=0.0, ki=0.01, kd=0.0)  # never saturates
    st_ = ControllerState()
    now = 0.0
    for k in range(1, 400):
        now = k * T
        cmd = pid_step(gains, (0.01, 0.0, 0.0, 0.0), st_, T, now)
    # window holds span/T + 1 samples at most
    assert st_.channels[0].window_sum <= 0.01 * (3.0 / T + 1) + 1e-9
    assert cmd[0] == pytest.approx(gains.ki * st_.channels[0].window_sum)


def test_derivative_reset_prevents_kick():
    gains = PidGains(kp=0.0, ki=0.0, kd=1.0)
    st_ = ControllerState()
    pid_step(gains, (5.0, 0.0, 0.0, 0.0), st_, T, 0.0)
    st_.reset_derivative()
    cmd = pid_step(gains, ZERO, st_, T, T)
    assert cmd[0] == 0.0  # no derivative spike across the gain switch


def test_yaw_channel_is_p_only():
    gains = PidGains(kp=1.0, ki=1.0, kd=1.0, kp_yaw=0.1)
    st_ = ControllerState()
    for k in range(1, 20):
        cmd = pid_step(gains, (0.0, 0.0, 0.0, 0.3), st_, T, k * T)
    assert cmd[3] == pytest.approx(0.03)


def test_antiwindup_reinforcing_error_ignored():
    gains = PidGains(kp=1.0, ki=0.5, kd=0.0)
    st_ = ControllerState()
    # drive the raw command far past the limit
    pid_step(gains, (5.0, 0.0, 0.0, 0.0), st_, T, 0.0)
    acc_before = st_.channels[0].window_sum
    win_before = list(st_.channels[0].window)
    # previous raw is saturated positive and the error reinforces it:
    # the accumulator must be left byte-for-byte untouched
    pid_step(gains, (2.0, 0.0, 0.0, 0.0), st_, T, T)
    assert st_.channels[0].window_sum == acc_before
    assert list(st_.channels[0].window) == win_before
    # a counteracting error does accumulate
    pid_step(gains, (-0.5, 0.0, 0.0, 0.0), st_, T, 2 * T)
    assert st_.channels[0].window_sum == pytest.approx(acc_before - 0.5)


def test_antiwindup_negative_side():
    gains = PidGains(kp=1.0, ki=0.5, kd=0.0)
    st_ = ControllerState()
    pid_step(gains, (-5.0, 0.0, 0.0, 0.0), st_, T, 0.0)
    acc = st_.channels[0].window_sum
    pid_step(gains, (-1.0, 0.0, 0.0, 0.0), st_, T, T)
    assert st_.channels[0].window_sum == acc
    pid_step(gains, (0.5, 0.0, 0.0, 0.0), st_, T, 2 * T)
    assert st_.channels[0].window_sum == pytest.approx(acc + 0.5)


def test_antiwindup_raw_command_is_gate_not_output():
    # raw exactly at the limit counts as saturated per the rule ">="
    gains = PidGains(kp=1.0, ki=1.0, kd=0.0)
    st_ = ControllerState()
    st_.channels[0].prev_raw = VELOCITY_LIMITS[0]
    pid_step(gains, (0.001, 0.0, 0.0, 0.0), st_, T, 0.0)
    assert st_.channels[0].window_sum == 0.0


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
        cmd = pid_step(gains, e, st_, T, k * T)
    assert abs(cmd[0]) <= VELOCITY_LIMITS[0]
    assert abs(cmd[1]) <= VELOCITY_LIMITS[1]
    assert abs(cmd[2]) <= VELOCITY_LIMITS[2]
    assert abs(cmd[3]) <= VELOCITY_LIMITS[3]


def test_pid_feedforward_enters_before_saturation():
    gains = PidGains(kp=0.0, ki=0.0, kd=0.0)
    st_ = ControllerState()
    cmd = pid_step(gains, ZERO, st_, T, 0.0,
                   feedforward=np.array([0.2, -5.0, 0.1]))
    assert cmd[0] == pytest.approx(0.2)
    assert cmd[1] == -VELOCITY_LIMITS[1]  # clamped
    assert cmd[2] == pytest.approx(0.1)


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
    for _ in range(10_000):
        now += float(rng.uniform(0.0, 0.1))
        errors = tuple(float(rng.normal(scale=0.5)) for _ in CHANNELS)
        before = [(len(ch.window), ch.prev_raw) for ch in st_.channels]
        pid_step(gains, errors, st_, T, now)
        for i in range(3):  # x, y, z
            window = st_.channels[i].window
            assert abs(st_.channels[i].window_sum - sum(e for _, e in window)) \
                <= 1e-12
            n_before, prev_raw = before[i]
            limit = VELOCITY_LIMITS[i]
            if prev_raw >= limit and errors[i] > 0.0:
                seen["gate_pos"] += 1
            elif prev_raw <= -limit and errors[i] < 0.0:
                seen["gate_neg"] += 1
            elif len(window) <= n_before:
                seen["pruned"] += 1
    assert min(seen.values()) > 1000, seen


def test_pid_rejects_bad_period():
    with pytest.raises(ValueError):
        pid_step(PHASE_GAINS["search"], ZERO, ControllerState(), 0.0, 0.0)


def test_pid_rejects_an_error_that_is_not_four_channels():
    for error in [(0.1, 0.0, 0.0), (0.1, 0.0, 0.0, 0.0, 0.0)]:
        with pytest.raises(ValueError):
            pid_step(PHASE_GAINS["land"], error, ControllerState(), T, 0.0)
