"""Guided BEV enhancement: instance-localized additive feature updates.

The camera grid is enhanced at each pair's camera-instance center: the grid
feature sampled there is element-wise scaled by the projected LiDAR guide
feature and added at the nearest cell. Easy pairs write against the original
grid (overlaps do not compound); camera-hard pairs then accumulate on top.
The LiDAR grid is enhanced at the (up to) four cells around each hard LiDAR
instance center with the projected camera guide feature, weighted by the
pair's normalized center distance; every write reads the original grid, so
overlapping pairs are last-write-wins. Cells no pair addresses are untouched.

Both enhancers update the grid they are given, which may be a channel view
of a fused grid, and return it; copy the grid first to keep the input.
Each reads an original value before any write changes it. Either grid
may also be gathered cells (`pipeline.gather_camera`, `gather_lidar`): the
nearest cell of a camera instance center is one of the center's bilinear
corners, and the cells around a LiDAR instance center are among the
corners its center key point samples.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .geometry import center_distance_bev
from .grid import BevGrid, GridSpec, bilinear_sample, concat_spec, world_to_grid
from .instances import InstanceFeature
from .matching import PAIR_CAMERA_HARD, InstancePair


@dataclass(frozen=True)
class Projection:
    """Affine map raw -> matrix @ raw + bias onto a grid's channel count."""

    matrix: np.ndarray
    bias: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=np.float64)
        b = np.asarray(self.bias, dtype=np.float64)
        if m.ndim != 2 or b.shape != (m.shape[0],):
            raise ConfigurationError(
                f"projection matrix {m.shape} and bias {b.shape} disagree"
            )
        if not (np.isfinite(m).all() and np.isfinite(b).all()):
            raise ConfigurationError("projection weights must be finite")
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "bias", b)

    @property
    def source_length(self) -> int:
        return self.matrix.shape[1]

    @property
    def target_channels(self) -> int:
        return self.matrix.shape[0]

    def apply(self, raw: np.ndarray) -> np.ndarray:
        raw = np.asarray(raw, dtype=np.float64)
        if raw.shape != (self.source_length,):
            raise ConfigurationError(
                f"feature length {raw.shape} != projection source {self.source_length}"
            )
        return self.matrix @ raw + self.bias

    @classmethod
    def seeded(cls, source_length: int, target_channels: int, seed: int) -> "Projection":
        """Deterministic uniform(-s, s) init with s = 1/sqrt(source_length)."""
        rng = np.random.default_rng(seed)
        s = 1.0 / np.sqrt(source_length)
        matrix = rng.uniform(-s, s, size=(target_channels, source_length))
        bias = rng.uniform(-s, s, size=target_channels)
        return cls(matrix, bias)


def member_of(pair: InstancePair, modality: str) -> InstanceFeature:
    """The pair member from the given modality (each pair has exactly one)."""
    if modality == "camera":
        return pair.anchor if pair.kind == PAIR_CAMERA_HARD else pair.guide
    return pair.guide if pair.kind == PAIR_CAMERA_HARD else pair.anchor


def pair_distance_weights(pairs: list[InstancePair]) -> list[float]:
    """Min-max normalized closeness weights: 1 at the smallest center distance,
    0 at the largest, all 1.0 when the distances do not spread (single pair or
    all equal)."""
    distances = [
        center_distance_bev(p.anchor.proposal.box, p.guide.proposal.box) for p in pairs
    ]
    lo, hi = min(distances, default=0.0), max(distances, default=0.0)
    if hi == lo:
        return [1.0] * len(distances)
    return [1.0 - (d - lo) / (hi - lo) for d in distances]


def nearest_cell(coord: tuple[float, float], spec: GridSpec) -> tuple[np.ndarray, np.ndarray]:
    """Nearest integer cells to fractional (row, col) arrays: round half up, clamped."""
    r = np.clip(np.floor(np.asarray(coord[0]) + 0.5), 0, spec.height_cells - 1)
    c = np.clip(np.floor(np.asarray(coord[1]) + 0.5), 0, spec.width_cells - 1)
    return r.astype(np.intp), c.astype(np.intp)


def _check_projection(spec: GridSpec, proj: Projection) -> None:
    if proj.target_channels != spec.channels:
        raise ConfigurationError(
            f"projection target {proj.target_channels} != grid channels {spec.channels}"
        )


def enhance_camera_grid(
    camera_grid: BevGrid,
    easy_pairs: list[InstancePair],
    camera_hard_pairs: list[InstancePair],
    proj: Projection,
) -> BevGrid:
    """Point-guided enhancement of the camera grid, in place.

    For each pair, in sequence order: sample the original grid at the camera
    instance center, scale element-wise by the projected LiDAR guide feature,
    and write base + product at the nearest cell. The base is the original
    grid value for easy pairs and the running enhanced value for camera-hard
    pairs, which therefore accumulate. Returns `camera_grid`, updated.
    """
    _check_projection(camera_grid.spec, proj)
    spec = camera_grid.spec
    pairs = easy_pairs + camera_hard_pairs
    centers = np.array([member_of(p, "camera").bev_center for p in pairs]).reshape(-1, 2)
    rows, cols = world_to_grid((centers[:, 0], centers[:, 1]), spec)
    cell_rows, cell_cols = nearest_cell((rows, cols), spec)
    n_easy = len(easy_pairs)
    data = camera_grid.data
    # The original values every write reads, gathered before the first write.
    sampled = bilinear_sample(camera_grid, (rows, cols))
    easy_base = data[cell_rows[:n_easy], cell_cols[:n_easy]]
    for k, pair in enumerate(pairs):
        cell = (cell_rows[k], cell_cols[k])
        base = easy_base[k] if k < n_easy else data[cell]
        data[cell] = base + sampled[k] * proj.apply(member_of(pair, "lidar").raw)
    return camera_grid


def enhance_lidar_grid(
    lidar_grid: BevGrid,
    lidar_hard_pairs: list[InstancePair],
    proj: Projection,
) -> BevGrid:
    """Image-guided enhancement of the LiDAR grid, in place.

    Each pair adds its distance-weighted projected camera guide feature to
    the floor cell of the hard LiDAR instance center and the next row and
    column, each clamped into the grid: up to four cells, all four at an
    exact-integer center. Writes read the original grid, so pairs sharing
    a cell do not stack: a cell ends as its original plus the last update
    addressed to it, written once. Returns `lidar_grid`, updated.
    """
    spec = lidar_grid.spec
    _check_projection(spec, proj)
    weights = pair_distance_weights(lidar_hard_pairs)
    updates = np.array([proj.apply(member_of(p, "camera").raw) * w
                        for p, w in zip(lidar_hard_pairs, weights)]).reshape(-1, spec.channels)
    centers = np.array([member_of(p, "lidar").bev_center for p in lidar_hard_pairs]).reshape(-1, 2)
    rows, cols = world_to_grid((centers[:, 0], centers[:, 1]), spec)
    r0, c0 = np.floor(rows).astype(np.intp), np.floor(cols).astype(np.intp)
    r = np.clip(np.stack([r0, r0, r0 + 1, r0 + 1], axis=1), 0, spec.height_cells - 1)
    c = np.clip(np.stack([c0, c0 + 1, c0, c0 + 1], axis=1), 0, spec.width_cells - 1)
    flat = np.ravel_multi_index((r.ravel(), c.ravel()), (spec.height_cells, spec.width_cells))
    # Each cell's last update is its first in the reversed order of the (pair, cell) writes.
    cells, first = np.unique(flat[::-1], return_index=True)
    cell_rows, cell_cols = np.divmod(cells, spec.width_cells)
    data = lidar_grid.data
    data[cell_rows, cell_cols] = data[cell_rows, cell_cols] + updates[(len(flat) - 1 - first) // 4]
    return lidar_grid


def fuse_grids(camera_grid: BevGrid, lidar_grid: BevGrid) -> BevGrid:
    """Channel-concatenate the two grids, LiDAR channels first."""
    spec = concat_spec([lidar_grid.spec, camera_grid.spec])
    return BevGrid(spec, np.concatenate([lidar_grid.data, camera_grid.data], axis=2))

