import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from cargosim.frames import EulerAngles, rotation_rows, wrap_angle

from conftest import reference_rotation

ANGLE = st.floats(-math.pi + 1e-6, math.pi - 1e-6)
PITCH = st.floats(-math.pi / 2 + 1e-3, math.pi / 2 - 1e-3)


def test_identity_angles_give_identity_matrix():
    R = np.array(EulerAngles(0.0, 0.0, 0.0).rows)
    np.testing.assert_allclose(R, np.eye(3), atol=1e-15)


def test_pure_yaw_quarter_turn():
    R = np.array(EulerAngles(0.0, 0.0, math.pi / 2).rows)
    np.testing.assert_allclose(R @ [0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], atol=1e-15)


def test_second_column_closed_form():
    # the middle column is the body +y axis in world coordinates; the
    # dual-label heading recovery solves exactly this expression for yaw
    phi, theta, psi = 0.1, -0.2, 0.7
    R = np.array(rotation_rows(phi, theta, psi))
    expected = np.array([
        math.sin(phi) * math.sin(theta) * math.cos(psi)
        - math.cos(phi) * math.sin(psi),
        math.sin(phi) * math.sin(theta) * math.sin(psi)
        + math.cos(phi) * math.cos(psi),
        math.sin(phi) * math.cos(theta),
    ])
    np.testing.assert_allclose(R[:, 1], expected, atol=1e-15)


@given(roll=ANGLE, pitch=PITCH, yaw=ANGLE)
def test_composition_order_is_zyx(roll, pitch, yaw):
    # the tests' oracle, Rz @ Ry @ Rx of the elementary rotations, is the
    # rotation the package builds, to rounding
    np.testing.assert_allclose(np.array(rotation_rows(roll, pitch, yaw)),
                               reference_rotation(roll, pitch, yaw), rtol=0,
                               atol=1e-15)


@given(roll=ANGLE, pitch=PITCH, yaw=ANGLE)
def test_rotation_is_orthonormal(roll, pitch, yaw):
    R = np.array(rotation_rows(roll, pitch, yaw))
    np.testing.assert_allclose(R.T @ R, np.eye(3), atol=1e-10)
    assert abs(np.linalg.det(R) - 1.0) <= 1e-10


def test_euler_validation():
    with pytest.raises(ValueError):
        EulerAngles(4.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        EulerAngles(0.0, math.pi / 2, 0.0)
    with pytest.raises(ValueError):
        EulerAngles(0.0, 0.0, -3.5)


def test_wrap_angle_examples():
    assert wrap_angle(0.0) == 0.0
    assert wrap_angle(3 * math.pi / 2) == pytest.approx(-math.pi / 2)
    assert wrap_angle(-math.pi) == pytest.approx(math.pi)
    with pytest.raises(ValueError):
        wrap_angle(float("nan"))


@given(st.floats(-50.0, 50.0))
def test_wrap_angle_range_and_identity(a):
    w = wrap_angle(a)
    assert -math.pi < w <= math.pi
    assert math.isclose(math.sin(w), math.sin(a), abs_tol=1e-9)
    assert math.isclose(math.cos(w), math.cos(a), abs_tol=1e-9)
