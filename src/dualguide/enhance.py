"""Guided BEV enhancement: instance-localized additive feature updates.

The camera grid is enhanced at each pair's camera-instance center: the grid
feature sampled there is element-wise scaled by the projected LiDAR guide
feature and added at the nearest cell. Easy pairs write against the original
grid (overlaps do not compound); camera-hard pairs then accumulate on top.
The LiDAR grid is enhanced at the four cells around each hard LiDAR
instance center with the projected camera guide feature, weighted by the
pair's normalized center distance; every write reads the original grid, so
overlapping pairs are last-write-wins. Cells no pair addresses are untouched.

Both enhancers take an optional `out` grid, numpy style: a separate buffer
that already holds the source values, such as a channel view of
`fuse_grids(source, ...)`, which they update in place. Without `out` they
enhance a fresh copy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .geometry import center_distance_bev
from .grid import BevGrid, GridSpec, bilinear_sample, surrounding_cells, world_to_grid
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
    def identity(cls, n: int) -> "Projection":
        return cls(np.eye(n), np.zeros(n))

    @classmethod
    def seeded(cls, source_length: int, target_channels: int, seed: int) -> "Projection":
        """Deterministic uniform(-s, s) init with s = 1/sqrt(source_length)."""
        rng = np.random.default_rng(seed)
        s = 1.0 / np.sqrt(source_length)
        matrix = rng.uniform(-s, s, size=(target_channels, source_length))
        bias = rng.uniform(-s, s, size=target_channels)
        return cls(matrix, bias)


@dataclass(frozen=True)
class PairWeights:
    distances: list[float]
    weights: list[float]


def member_of(pair: InstancePair, modality: str) -> InstanceFeature:
    """The pair member from the given modality (each pair has exactly one)."""
    if modality == "camera":
        return pair.anchor if pair.kind == PAIR_CAMERA_HARD else pair.guide
    return pair.guide if pair.kind == PAIR_CAMERA_HARD else pair.anchor


def pair_distance_weights(pairs: list[InstancePair]) -> PairWeights:
    """Min-max normalized closeness weights: 1 at the smallest center distance,
    0 at the largest, all 1.0 when the distances do not spread (single pair or
    all equal)."""
    distances = [
        center_distance_bev(p.anchor.proposal.box, p.guide.proposal.box) for p in pairs
    ]
    if not distances:
        return PairWeights([], [])
    lo, hi = min(distances), max(distances)
    if hi == lo:
        return PairWeights(distances, [1.0] * len(distances))
    return PairWeights(distances, [1.0 - (d - lo) / (hi - lo) for d in distances])


def nearest_cell(coord: tuple[float, float], spec: GridSpec) -> tuple[int, int]:
    """Nearest integer cell to a fractional (row, col): round half up, clamped."""
    r = int(np.floor(coord[0] + 0.5))
    c = int(np.floor(coord[1] + 0.5))
    return (
        min(max(r, 0), spec.height_cells - 1),
        min(max(c, 0), spec.width_cells - 1),
    )


def _enhancement_target(source: BevGrid, proj: Projection, out: BevGrid | None) -> BevGrid:
    """The grid an enhancer writes: `out` once checked, else a copy of `source`."""
    if proj.target_channels != source.spec.channels:
        raise ConfigurationError(
            f"projection target {proj.target_channels} != grid channels "
            f"{source.spec.channels}"
        )
    if out is None:
        return source.copy()
    if out.spec != source.spec:
        raise ConfigurationError(f"out grid {out.spec} != source grid {source.spec}")
    # Writes into the source would change the base values later pairs read.
    if np.shares_memory(out.data, source.data):
        raise ConfigurationError("out grid shares memory with the source grid")
    return out


def enhance_camera_grid(
    camera_grid: BevGrid,
    easy_pairs: list[InstancePair],
    camera_hard_pairs: list[InstancePair],
    proj: Projection,
    out: BevGrid | None = None,
) -> BevGrid:
    """Point-guided enhancement of the camera grid.

    For each pair, in sequence order: sample the original grid at the camera
    instance center, scale element-wise by the projected LiDAR guide feature,
    and write base + product at the nearest cell. The base is the original
    grid value for easy pairs and the running enhanced value for camera-hard
    pairs, which therefore accumulate. Returns `out` when given (see the
    module docstring), else a new grid.
    """
    enhanced = _enhancement_target(camera_grid, proj, out)
    spec = camera_grid.spec
    pairs = easy_pairs + camera_hard_pairs
    centers = np.array([member_of(p, "camera").bev_center for p in pairs]).reshape(-1, 2)
    rows, cols = world_to_grid((centers[:, 0], centers[:, 1]), spec)
    # Every sample reads the source grid, which no write below touches.
    sampled = bilinear_sample(camera_grid, (rows, cols))
    for k, pair in enumerate(pairs):
        base = camera_grid.data if k < len(easy_pairs) else enhanced.data
        update = sampled[k] * proj.apply(member_of(pair, "lidar").raw)
        cell = nearest_cell((rows[k], cols[k]), spec)
        enhanced.data[cell] = base[cell] + update
    return enhanced


def enhance_lidar_grid(
    lidar_grid: BevGrid,
    lidar_hard_pairs: list[InstancePair],
    proj: Projection,
    out: BevGrid | None = None,
) -> BevGrid:
    """Image-guided enhancement of the LiDAR grid.

    Each pair adds its distance-weighted projected camera guide feature to
    the four cells surrounding the hard LiDAR instance center. Writes read
    the original grid, so pairs sharing a cell do not stack. Returns `out`
    when given (see the module docstring), else a new grid.
    """
    enhanced = _enhancement_target(lidar_grid, proj, out)
    spec = lidar_grid.spec
    weights = pair_distance_weights(lidar_hard_pairs)
    for pair, w in zip(lidar_hard_pairs, weights.weights):
        coord = world_to_grid(member_of(pair, "lidar").bev_center, spec)
        update = proj.apply(member_of(pair, "camera").raw) * w
        for cell in surrounding_cells(coord, spec):
            enhanced.data[cell] = lidar_grid.data[cell] + update
    return enhanced


def fuse_grids(camera_grid: BevGrid, lidar_grid: BevGrid) -> BevGrid:
    """Channel-concatenate the two grids, LiDAR channels first."""
    if not camera_grid.spec.same_window(lidar_grid.spec):
        raise ConfigurationError(
            "camera and lidar grids cover different windows: "
            f"{camera_grid.spec} vs {lidar_grid.spec}"
        )
    spec = GridSpec(
        lidar_grid.spec.height_cells,
        lidar_grid.spec.width_cells,
        lidar_grid.spec.channels + camera_grid.spec.channels,
        lidar_grid.spec.x_range,
        lidar_grid.spec.y_range,
    )
    return BevGrid(spec, np.concatenate([lidar_grid.data, camera_grid.data], axis=2))

