import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cargosim.planner import cell_size, plan_coverage, spiral_path


def test_cell_size_wide_fov_example():
    L = cell_size(5.0, math.radians(73.0), math.radians(106.0))
    assert L == pytest.approx(2 * 5 * math.tan(math.radians(53.0)), rel=1e-12)
    assert L == pytest.approx(13.27, abs=0.01)


def test_cell_size_square_fov():
    assert cell_size(1.0, math.pi / 2, math.pi / 2) == pytest.approx(2.0)


def test_cell_size_linear_in_height():
    v, h = math.radians(73.0), math.radians(106.0)
    assert cell_size(4.0, v, h) == pytest.approx(2 * cell_size(2.0, v, h))


def test_cell_size_validation():
    with pytest.raises(ValueError):
        cell_size(0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        cell_size(1.0, math.pi, 1.0)


def test_spiral_single_cell():
    assert spiral_path(1, 1) == [(0, 0)]


def test_spiral_three_by_three():
    assert spiral_path(3, 3) == [
        (0, 0), (0, 1), (1, 1), (1, 0), (1, -1),
        (0, -1), (-1, -1), (-1, 0), (-1, 1)]


def test_spiral_property_all_grids():
    for m in range(1, 9):
        for n in range(1, 9):
            cells = spiral_path(m, n)
            assert cells[0] == (0, 0)
            assert len(cells) == m * n
            assert len(set(cells)) == m * n
            for a, b in zip(cells, cells[1:]):
                assert abs(a[0] - b[0]) + abs(a[1] - b[1]) == 1
            # the visited region is exactly an m x n rectangle of cells
            xs = [c[0] for c in cells]
            ys = [c[1] for c in cells]
            assert max(xs) - min(xs) + 1 == m
            assert max(ys) - min(ys) + 1 == n


def test_spiral_validation():
    with pytest.raises(ValueError):
        spiral_path(0, 3)


def _waypoint_of(cell, deck_yaw):
    # a 5 x 5 m deck with 90-degree cameras at 1 m: a 3 x 3 grid of 2 m
    # cells centred on the deck, flown in spiral order
    fov = math.pi / 2
    waypoints = plan_coverage(deck_size=(5.0, 5.0), deck_center=(10.0, 5.0),
                              deck_yaw=deck_yaw, altitude_above_deck=1.0,
                              v_fov=fov, h_fov=fov)
    assert len(waypoints) == 9
    x, y, yaw = waypoints[spiral_path(3, 3).index(cell)]
    assert yaw == deck_yaw
    return x, y


def test_to_world_identity_rotation():
    np.testing.assert_allclose(_waypoint_of((1, -1), 0.0), [12.0, 3.0])
    np.testing.assert_allclose(_waypoint_of((0, 0), 0.0), [10.0, 5.0])


def test_to_world_quarter_turn():
    # a quarter turn counter-clockwise takes the deck's (2, -2) to (2, 2)
    np.testing.assert_allclose(_waypoint_of((1, -1), math.pi / 2), [12.0, 7.0],
                               atol=1e-12)
    np.testing.assert_allclose(_waypoint_of((0, 0), math.pi / 2), [10.0, 5.0],
                               atol=1e-12)


def test_plan_replica_single_waypoint():
    # 4 x 4 m deck seen from 5 m with the wide detection camera: the
    # footprint exceeds the deck, so the whole plan is one waypoint at
    # the deck center
    waypoints = plan_coverage(deck_size=(4.0, 4.0), deck_center=(8.0, 0.0),
                              deck_yaw=0.0, altitude_above_deck=5.0,
                              v_fov=math.radians(73.0), h_fov=math.radians(106.0))
    np.testing.assert_allclose(waypoints, [[8.0, 0.0, 0.0]], atol=1e-12)


def test_plan_coverage_returns_the_path():
    # one world waypoint per cell in spiral order, each headed along the
    # deck: a 4 m cell is 4 m from the next, and (u, v) on the deck is
    # centre + R (u, v) in the world
    yaw = 0.3
    c, s = math.cos(yaw), math.sin(yaw)
    waypoints = plan_coverage(deck_size=(10.0, 6.0), deck_center=(3.0, -2.0),
                              deck_yaw=yaw, altitude_above_deck=2.0,
                              v_fov=math.pi / 2, h_fov=math.pi / 2)
    assert type(waypoints) is list
    cells = spiral_path(3, 2)
    assert len(waypoints) == len(cells)
    x0, y0, _ = waypoints[0]  # of cell (0, 0)
    for (i, j), (x, y, heading) in zip(cells, waypoints):
        assert heading == yaw
        u, v = 4.0 * i, 4.0 * j
        assert (x - x0, y - y0) == pytest.approx((c * u - s * v, s * u + c * v),
                                                 rel=0, abs=1e-12)
    # the grid is 3 x 2 cells of 4 m, centred on the deck: its centre
    # cell's (0, 0) sits half a cell from the deck centre along v
    mid = [sum(w[k] for w in waypoints) / len(waypoints) for k in (0, 1)]
    assert mid == pytest.approx([3.0, -2.0], rel=0, abs=1e-12)


def test_a_side_of_whole_cells_plans_no_extra_row():
    # a 90 degree camera at 0.5 m sees a cell of 0.9999999999999999 m, yet
    # six of them cover 6 m: a 6 x 2 m deck is 6 x 2 cells, not 7 x 3
    assert cell_size(0.5, math.pi / 2, math.pi / 2) < 1.0
    waypoints = plan_coverage(deck_size=(6.0, 2.0), deck_center=(0.0, 0.0),
                              deck_yaw=0.0, altitude_above_deck=0.5,
                              v_fov=math.pi / 2, h_fov=math.pi / 2)
    assert len(waypoints) == 12


def _cells(deck, fov, z):
    return len(plan_coverage(deck_size=deck, deck_center=(0.0, 0.0), deck_yaw=0.0,
                             altitude_above_deck=z, v_fov=fov[0], h_fov=fov[1]))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(deck=st.tuples(st.floats(0.5, 20.0), st.floats(0.5, 20.0)),
       fov=st.tuples(st.floats(0.5, 3.0), st.floats(0.5, 3.0)),
       heights=st.tuples(st.floats(0.5, 15.0), st.floats(0.5, 15.0)))
def test_a_lower_search_never_plans_fewer_cells(deck, fov, heights):
    # the search replans lower after a coverage without a lock: its grid
    # can only get finer, since the footprint shrinks with height
    low, high = sorted(heights)
    assert _cells(deck, fov, low) >= _cells(deck, fov, high)


def _footprint_covers(deck_size, deck_center, deck_yaw, z, fov, samples=60):
    waypoints = plan_coverage(deck_size=deck_size, deck_center=deck_center,
                              deck_yaw=deck_yaw, altitude_above_deck=z,
                              v_fov=fov, h_fov=fov)
    half = z * math.tan(fov / 2.0)
    c, s = math.cos(deck_yaw), math.sin(deck_yaw)
    # deck to world: the deck turned counter-clockwise by its yaw
    R = np.array([[c, -s], [s, c]])
    xs = np.linspace(-deck_size[0] / 2, deck_size[0] / 2, samples)
    ys = np.linspace(-deck_size[1] / 2, deck_size[1] / 2, samples)
    for dx in xs:
        for dy in ys:
            p = np.asarray(deck_center) + R @ [dx, dy]
            covered = False
            for x, y, yaw in waypoints:
                # footprint is a square aligned with the deck heading
                assert yaw == deck_yaw
                local = R.T @ (p - (x, y))
                if abs(local[0]) <= half + 1e-9 and abs(local[1]) <= half + 1e-9:
                    covered = True
                    break
            if not covered:
                return False
    return True


@pytest.mark.parametrize("deck,center,yaw,z", [
    ((4.0, 4.0), (8.0, 0.0), 0.0, 5.0),
    ((10.0, 6.0), (3.0, -2.0), 0.0, 2.0),
    ((9.0, 9.0), (0.0, 0.0), 0.7, 1.5),
    ((7.0, 13.0), (-4.0, 5.0), -1.2, 2.5),
])
def test_footprint_union_covers_deck(deck, center, yaw, z):
    assert _footprint_covers(deck, center, yaw, z, math.radians(90.0))
