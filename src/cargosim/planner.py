"""Coverage search planning over the target deck.

The deck is modeled as a grid whose cell side comes from the detection
camera footprint at the search altitude; the cells are visited in an
outward spiral starting from the deck center and mapped into world-frame
waypoints through the deck pose.  Successive waypoints alternate the
vehicle heading by 180 degrees so the wide axis of the camera footprint
sweeps both directions.  :func:`plan_coverage` returns the path alone:
its cells, their world waypoints and the altitude to fly them at.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class CoveragePath:
    """Ordered grid cells with their world waypoints and search altitude."""

    cells: list[tuple[int, int]]
    waypoints: list[tuple[float, float]]  # world xy, one per cell
    altitude: float


def cell_size(z: float, v_fov: float, h_fov: float) -> float:
    """Footprint-derived cell side: L = 2 z max(tan(v/2), tan(h/2)).

    Sizing by the wider field of view means adjacent footprints overlap
    on the narrow axis; the alternating yaw schedule covers the rest.
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


def yaw_schedule(cells: list[tuple[int, int]]) -> list[float]:
    """Alternating 0 / pi headings widening the 16:9 footprint coverage."""
    return [0.0 if i % 2 == 0 else math.pi for i in range(len(cells))]


def plan_coverage(deck_size: tuple[float, float], deck_center: tuple[float, float],
                  deck_yaw: float, altitude_above_deck: float, v_fov: float,
                  h_fov: float, altitude: float) -> CoveragePath:
    """Grid the deck for the camera footprint at this height and spiral it.

    `altitude_above_deck` sizes the footprint; `altitude` is the world-z
    the waypoints are flown at.
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
    off = np.array([(min(xs) + max(xs)) / 2.0, (min(ys) + max(ys)) / 2.0])
    psi = deck_yaw
    rot = np.array([[math.cos(psi), math.sin(psi)],
                    [-math.sin(psi), math.cos(psi)]])
    anchor = np.asarray(deck_center) - L * rot @ off
    # world xy of each cell: rotate by the deck yaw, offset by the anchor
    pts = np.asarray(cells, dtype=float)
    waypoints = [(x, y) for x, y in (L * pts @ rot.T + anchor).tolist()]
    return CoveragePath(cells=cells, waypoints=waypoints, altitude=altitude)
