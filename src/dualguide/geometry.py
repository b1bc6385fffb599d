"""Oriented 3D boxes, their BEV footprints, and the plane geometry they need.

Box attribute layout is fixed project-wide as (x, y, z, w, l, h, yaw, vx, vy):
w is the extent along the box heading axis, l the lateral extent, h vertical.
`footprint_points` and `overlap_ious` take the `Box3D`s their callers hold
and read each box set once, of each box only x, y, w, l and yaw.

Rotated-rectangle IoU has one call, `overlap_ious`: it prunes the pairs of
two box sets' footprints by circumradius and scores the rest. The kernel runs
Sutherland-Hodgman clipping on padded (pairs, vertex slot) arrays, one
clip edge at a time, and the shoelace as one masked addition per vertex
slot. Each IoU thus takes exactly the IEEE operations, in the same order,
of clipping and summing that pair alone with scalar code (corners from libm
`math.cos`/`math.sin`, no reordered reductions), so it is bit-identical to
the scalar reference kept in the tests; the one difference is that the
kernel caps that reference's rounding overshoot above 1. IoU threshold
comparisons downstream are deterministic.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import ContractError


def normalize_yaw(yaw: float) -> float:
    """Wrap an angle into (-pi, pi]."""
    wrapped = math.fmod(yaw + math.pi, 2.0 * math.pi)
    if wrapped <= 0.0:
        wrapped += 2.0 * math.pi
    return wrapped - math.pi


@dataclass(frozen=True)
class Box3D:
    center: tuple[float, float, float]
    size: tuple[float, float, float]  # (w, l, h)
    yaw: float
    velocity: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self) -> None:
        if min(self.size) <= 0.0:
            raise ContractError(f"box size must be positive, got {self.size}")
        object.__setattr__(self, "yaw", normalize_yaw(self.yaw))


def box_axes(yaw: float) -> tuple[np.ndarray, np.ndarray]:
    """Unit heading axis and lateral axis of a footprint with the given yaw."""
    u = np.array([math.cos(yaw), math.sin(yaw)])
    v = np.array([-math.sin(yaw), math.cos(yaw)])
    return u, v


# Signs of the heading half-axis hw*u and the lateral half-axis hl*v at each
# footprint key point: the center, the four corners counter-clockwise from
# the (+w, +l) corner, then the top, bottom, left and right boundary
# midpoints. Multiplying by -1, 0 or 1 is exact, c + (-x) == c - x and
# adding a zero leaves a nonzero sum unchanged in IEEE arithmetic, so each
# point equals the scalar c +/- hw*u, c +/- hl*v or (c +/- hw*u) +/- hl*v
# bit for bit.
KEY_POINT_SIGNS = np.array(
    [
        [0.0, 0.0],
        [1.0, 1.0], [-1.0, 1.0], [-1.0, -1.0], [1.0, -1.0],
        [0.0, 1.0], [0.0, -1.0], [-1.0, 0.0], [1.0, 0.0],
    ]
)
CORNER_SIGNS = KEY_POINT_SIGNS[1:5]


def _plane_rows(boxes: Sequence[Box3D]) -> np.ndarray:
    """(N, 6) rows x, y, w, l, and libm `math.cos`/`math.sin` of yaw, one row per box."""
    rows = [(*b.center[:2], *b.size[:2], math.cos(b.yaw), math.sin(b.yaw)) for b in boxes]
    return np.array(rows, dtype=np.float64).reshape(len(boxes), 6)


def _row_points(rows: np.ndarray, signs: np.ndarray) -> np.ndarray:
    """`footprint_points` of the boxes `_plane_rows` read into `rows`."""
    hu = ((rows[:, 2:3] / 2.0) * rows[:, 4:6])[:, None, :]
    hv = ((rows[:, 3:4] / 2.0) * np.stack([-rows[:, 5], rows[:, 4]], axis=1))[:, None, :]
    return (rows[:, None, 0:2] + signs[:, 0:1] * hu) + signs[:, 1:2] * hv


def footprint_points(boxes: Sequence[Box3D], signs: np.ndarray) -> np.ndarray:
    """(N, K, 2) footprint key points of each box, one per row of a (K, 2) sign table.

    Only x, y, w, l and yaw are read. With hw = w / 2.0, hl = l / 2.0 and
    the axes u = (cos, sin) and v = (-sin, cos) from libm `math.cos` and
    `math.sin`, point k is `(c + s_k0*hw*u) + s_k1*hl*v`.
    """
    return _row_points(_plane_rows(boxes), signs)


def _clip_step(
    px: np.ndarray, py: np.ndarray, count: np.ndarray, edge_from: np.ndarray, edge_to: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Clip each row's polygon against the half-plane left of its edge.

    Rows hold up to `count` vertices in padded (K, V) coordinate arrays.
    Every vertex slot emits itself when inside, then the crossing point when
    the edge to the next vertex strictly changes side, so the output keeps
    the sequential Sutherland-Hodgman vertex order.
    """
    ax, ay = edge_from[:, :1], edge_from[:, 1:]
    ex, ey = edge_to[:, :1] - ax, edge_to[:, 1:] - ay
    s = ex * (py - ay) - ey * (px - ax)
    slot = np.arange(px.shape[1])
    valid = slot < count[:, None]
    nxt = np.where(slot + 1 < count[:, None], slot + 1, 0)
    sq = np.take_along_axis(s, nxt, axis=1)
    keep = valid & (s >= 0.0)
    cross = valid & (((s > 0.0) & (sq < 0.0)) | ((s < 0.0) & (sq > 0.0)))
    end = np.cumsum(keep.astype(np.intp) + cross, axis=1)
    new_count = end[:, -1]
    ox = np.zeros((len(count), int(new_count.max())))
    oy = np.zeros_like(ox)

    r, k = np.nonzero(keep)
    at = end[r, k] - 1 - cross[r, k]
    ox[r, at] = px[r, k]
    oy[r, at] = py[r, k]

    r, k = np.nonzero(cross)
    q = nxt[r, k]
    sp = s[r, k]
    t = sp / (sp - sq[r, k])
    x0, y0 = px[r, k], py[r, k]
    ox[r, end[r, k] - 1] = x0 + t * (px[r, q] - x0)
    oy[r, end[r, k] - 1] = y0 + t * (py[r, q] - y0)
    return ox, oy, new_count


def _intersection_areas(subject: np.ndarray, clip: np.ndarray) -> np.ndarray:
    """Overlap area of each (4, 2) subject/clip corner pair in two (K, 4, 2) arrays.

    The subject is clipped by the clip polygon's four edges in turn; a row
    left with fewer than three vertices has area 0. The shoelace sum runs
    over vertex slots in order, one masked addition per slot.
    """
    px, py = subject[:, :, 0], subject[:, :, 1]
    count = np.full(len(subject), 4)
    for e in range(4):
        count[count < 3] = 0
        if not count.any():
            return np.zeros(len(subject))
        px, py, count = _clip_step(px, py, count, clip[:, e], clip[:, (e + 1) % 4])
    count[count < 3] = 0

    rows = np.arange(len(subject))
    area = np.zeros(len(subject))
    for k in range(px.shape[1]):
        nxt = np.where(k + 1 < count, k + 1, 0)
        term = px[:, k] * py[rows, nxt] - py[:, k] * px[rows, nxt]
        area = np.where(k < count, area + term, area)
    return np.abs(0.5 * area)


def overlap_ious(
    a: Sequence[Box3D], b: Sequence[Box3D]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(i, j, iou), row-major over the pairs whose footprints a[i] and b[j] may overlap.

    Footprints whose centers lie farther apart than the sum of their
    circumradii, `math.hypot(w, l) / 2.0`, cannot overlap, so every pair
    left out has IoU 0. The areas are w * l. The IoU is 0 where the union
    has no area and is capped at 1: on near-identical footprints the
    shoelace rounding can make the overlap exceed a footprint's own area.
    """
    if not a or not b:
        empty = np.zeros(0, dtype=np.intp)
        return empty, empty, np.zeros(0)
    fa, fb = _plane_rows(a), _plane_rows(b)
    ra, rb = (np.array([math.hypot(w, l) / 2.0 for w, l in f[:, 2:4].tolist()]) for f in (fa, fb))
    dist2 = ((fa[:, None, 0:2] - fb[None, :, 0:2]) ** 2).sum(axis=2)
    i, j = np.nonzero(dist2 <= (ra[:, None] + rb[None, :]) ** 2)
    inter = _intersection_areas(_row_points(fa, CORNER_SIGNS)[i], _row_points(fb, CORNER_SIGNS)[j])
    union = ((fa[:, 2] * fa[:, 3])[i] + (fb[:, 2] * fb[:, 3])[j]) - inter
    iou = np.zeros(len(i))
    np.divide(inter, union, out=iou, where=union > 0.0)
    return i, j, np.minimum(iou, 1.0, out=iou)


def center_distance_bev(a: Box3D, b: Box3D) -> float:
    """Euclidean distance between ground-plane centers."""
    return math.hypot(a.center[0] - b.center[0], a.center[1] - b.center[1])


def volume(box: Box3D) -> float:
    """w * l * h in cubic meters."""
    return box.size[0] * box.size[1] * box.size[2]


def points_in_box(points: np.ndarray, box: Box3D) -> int:
    """Count points inside the box, boundaries inclusive.

    `points` is an (N, 3) array of world coordinates.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.size == 0:
        return 0
    pts = pts.reshape(-1, 3)
    rel = pts - np.array([*box.center])
    u, v = box_axes(box.yaw)
    local_x = rel[:, 0] * u[0] + rel[:, 1] * u[1]
    local_y = rel[:, 0] * v[0] + rel[:, 1] * v[1]
    local_z = rel[:, 2]
    hw, hl, hh = box.size[0] / 2.0, box.size[1] / 2.0, box.size[2] / 2.0
    inside = (
        (np.abs(local_x) <= hw) & (np.abs(local_y) <= hl) & (np.abs(local_z) <= hh)
    )
    return int(inside.sum())
