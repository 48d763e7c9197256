"""Coverage search planning over the target deck.

The deck is modeled as a grid whose cell side comes from the detection
camera footprint at the search altitude; the cells are visited in an
outward spiral starting from the deck center and mapped into world-frame
waypoints through the deck pose.  Successive waypoints alternate the
vehicle heading by 180 degrees so the wide axis of the camera footprint
sweeps both directions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class GridSpec:
    """Grid dimensions and the deck pose that anchors them in the world."""

    rows: int
    cols: int
    cell_side: float
    deck_center: tuple[float, float]
    deck_yaw: float

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1:
            raise ValueError("grid must be at least 1x1")
        if self.cell_side <= 0:
            raise ValueError("cell side must be > 0")


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


def to_world(cells: list[tuple[int, int]], spec: GridSpec) -> np.ndarray:
    """Map grid cells to world xy: rotate by the deck yaw, offset by its center."""
    psi = spec.deck_yaw
    rot = np.array([[math.cos(psi), math.sin(psi)],
                    [-math.sin(psi), math.cos(psi)]])
    pts = np.asarray(cells, dtype=float)
    return spec.cell_side * pts @ rot.T + np.asarray(spec.deck_center)


def yaw_schedule(cells: list[tuple[int, int]]) -> list[float]:
    """Alternating 0 / pi headings widening the 16:9 footprint coverage."""
    return [0.0 if i % 2 == 0 else math.pi for i in range(len(cells))]


def plan_coverage(deck_size: tuple[float, float], deck_center: tuple[float, float],
                  deck_yaw: float, altitude_above_deck: float, v_fov: float,
                  h_fov: float, altitude: float) -> tuple[GridSpec, CoveragePath]:
    """Grid the deck for the camera footprint at this height and spiral it.

    `altitude_above_deck` sizes the footprint; `altitude` is the world-z
    the waypoints are flown at.
    """
    L = cell_size(altitude_above_deck, v_fov, h_fov)
    m = max(1, math.ceil(deck_size[0] / L))
    n = max(1, math.ceil(deck_size[1] / L))
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
    spec = GridSpec(rows=m, cols=n, cell_side=L,
                    deck_center=(anchor[0], anchor[1]), deck_yaw=deck_yaw)
    waypoints = [(x, y) for x, y in to_world(cells, spec).tolist()]
    return spec, CoveragePath(cells=cells, waypoints=waypoints, altitude=altitude)
