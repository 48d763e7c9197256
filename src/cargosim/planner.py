"""Coverage search planning over the target deck.

The deck is modeled as a grid whose cell side comes from the detection
camera footprint at the search altitude; the cells are visited in an
outward spiral starting from the deck center.  :func:`plan_coverage`
returns the plan as world waypoints ``(x, y, yaw)``, each headed along
the deck (``yaw = deck_yaw``) so the camera footprint lies along its cell.
"""

from __future__ import annotations

import math

from .frames import rotate, rotation_rows


def cell_size(z: float, v_fov: float, h_fov: float) -> float:
    """Footprint-derived cell side: L = 2 z max(tan(v/2), tan(h/2)).

    Sized by the wider field of view, a cell is as long as the footprint
    along its wide axis; along its narrow axis the footprint is shorter.
    """
    if z <= 0:
        raise ValueError("height must be > 0")
    if not (0 < v_fov < math.pi) or not (0 < h_fov < math.pi):
        raise ValueError("fields of view must be in (0, pi)")
    return 2.0 * z * max(math.tan(v_fov / 2.0), math.tan(h_fov / 2.0))


def spiral_path(m: int, n: int) -> list[tuple[int, int]]:
    """Outward spiral visiting every cell of an m x n grid once.

    Built by reversing the classic inward clockwise spiral of the grid,
    so the path starts at the grid center cell (labeled (0, 0)), takes
    only unit 4-neighbor steps, and covers all m*n cells for any shape.
    For m = n this reproduces the standard square spiral whose first
    moves follow the direction order right, down, left, up.
    """
    if m < 1 or n < 1:
        raise ValueError("grid must be at least 1x1")
    # inward clockwise spiral over matrix indices (row, col)
    top, bottom, left, right = 0, m - 1, 0, n - 1
    order: list[tuple[int, int]] = []
    while top <= bottom and left <= right:
        for c in range(left, right + 1):
            order.append((top, c))
        top += 1
        for r in range(top, bottom + 1):
            order.append((r, right))
        right -= 1
        if top <= bottom:
            for c in range(right, left - 1, -1):
                order.append((bottom, c))
            bottom -= 1
        if left <= right:
            for r in range(bottom, top - 1, -1):
                order.append((r, left))
            left += 1
    order.reverse()
    r0, c0 = order[0]
    # (x, y) = (row - r0, c0 - col) orients the first loop right/down/left/up
    return [(r - r0, c0 - c) for r, c in order]


def plan_coverage(deck_size: tuple[float, float], deck_center: tuple[float, float],
                  deck_yaw: float, altitude_above_deck: float, v_fov: float,
                  h_fov: float) -> list[tuple[float, float, float]]:
    """Grid the deck for the camera footprint at `altitude_above_deck` and
    spiral it: the world waypoints (x, y, yaw) in visiting order.

    A deck point (u, v) lies at deck_center + R (u, v) in the world, R the
    turn by `deck_yaw` about z (counter-clockwise seen from above).
    """
    L = cell_size(altitude_above_deck, v_fov, h_fov)
    # cells per side, forgiving a few ulps: tan(pi / 4) is just under 1
    m, n = (max(1, math.ceil(side / L * (1.0 - 1e-15))) for side in deck_size)
    cells = spiral_path(m, n)
    # for even dimensions the start cell is half a cell off the grid's
    # geometric center; shift the anchor so the footprint stays centered
    # on the deck
    xs = [c[0] for c in cells]
    ys = [c[1] for c in cells]
    R = rotation_rows(0.0, 0.0, deck_yaw)
    ox, oy, _ = rotate(R, (L * ((min(xs) + max(xs)) / 2.0),
                           L * ((min(ys) + max(ys)) / 2.0), 0.0))
    ax, ay = deck_center[0] - ox, deck_center[1] - oy
    waypoints = []
    for i, j in cells:
        x, y, _ = rotate(R, (L * i, L * j, 0.0))
        waypoints.append((x + ax, y + ay, deck_yaw))
    return waypoints
