"""Instance-level feature extraction from BEV grids.

A set of key points is read off each surviving proposal's ground-plane
footprint, every point is bilinear-sampled from the grid, and the samples
are concatenated into one flat feature vector. All survivors' key points
come from one `footprint_points` call on their boxes and are sampled with
one `bilinear_sample` call.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, ContractError
from .geometry import KEY_POINT_SIGNS, Box3D, footprint_points
from .grid import BevGrid, GridSpec, bilinear_sample, world_to_grid
from .taxonomy import NUM_CLASSES

log = logging.getLogger(__name__)

MODALITIES = ("lidar", "camera")

# Rows of geometry.KEY_POINT_SIGNS each strategy samples, in concatenation
# order: center, then the four corners (counter-clockwise from the +w,+l
# corner), then the top, bottom, left and right boundary midpoints.
STRATEGY_KEY_POINTS = {
    "center": (0,),
    "center+vertices": (0, 1, 2, 3, 4),
    "center+boundary_mid": (0, 5, 6, 7, 8),
    "center+vertices+boundary_mid": (0, 1, 2, 3, 4, 5, 6, 7, 8),
}
SAMPLING_STRATEGIES = tuple(STRATEGY_KEY_POINTS)
SAMPLES_PER_STRATEGY = {s: len(rows) for s, rows in STRATEGY_KEY_POINTS.items()}

DEFAULT_STRATEGY = "center+boundary_mid"


@dataclass(frozen=True)
class Proposal:
    """A scored 3D box proposal from one modality."""

    box: Box3D
    score: float
    class_id: int
    modality: str

    def __post_init__(self) -> None:
        if not 0.0 <= self.score <= 1.0:
            raise ContractError(f"score {self.score} outside [0, 1]")
        if not 0 <= self.class_id < NUM_CLASSES:
            raise ContractError(f"class_id {self.class_id} outside [0, {NUM_CLASSES - 1}]")
        if self.modality not in MODALITIES:
            raise ContractError(f"modality {self.modality!r} not in {MODALITIES}")


@dataclass(frozen=True)
class InstanceFeature:
    """Concatenated key-point features of one proposal on one grid."""

    proposal: Proposal
    raw: np.ndarray

    @property
    def bev_center(self) -> tuple[float, float]:
        return (self.proposal.box.center[0], self.proposal.box.center[1])


def filter_by_score(proposals: list[Proposal], gamma: float) -> list[Proposal]:
    """Keep proposals with score >= gamma, preserving order."""
    return [p for p in proposals if p.score >= gamma]


def key_point_coords(
    spec: GridSpec, proposals: list[Proposal], gamma: float, strategy: str = DEFAULT_STRATEGY
) -> tuple[list[Proposal], list[Proposal], tuple[np.ndarray, np.ndarray]]:
    """The proposals `build_instances` keeps and skips, and the kept key points' coordinates.

    The coordinates are (row, col) grid arrays of shape (len(kept), K), K
    the strategy's key-point count, from one `footprint_points` call on the
    kept proposals' boxes. A survivor of the score filter whose box center
    falls outside the grid window is skipped: a clamped sample there would
    read unrelated border cells.
    """
    if strategy not in STRATEGY_KEY_POINTS:
        raise ConfigurationError(
            f"unknown sampling strategy {strategy!r}; expected one of {SAMPLING_STRATEGIES}"
        )
    survivors = filter_by_score(proposals, gamma)
    kept, skipped = [], []
    for p in survivors:
        if p.modality != survivors[0].modality:
            raise ConfigurationError("proposals for one grid must share a modality")
        (kept if spec.contains(p.box.center[0], p.box.center[1]) else skipped).append(p)
    signs = KEY_POINT_SIGNS[list(STRATEGY_KEY_POINTS[strategy])]
    points = footprint_points([p.box for p in kept], signs)
    return kept, skipped, world_to_grid((points[..., 0], points[..., 1]), spec)


def build_instances(
    grid: BevGrid,
    proposals: list[Proposal],
    gamma: float,
    strategy: str = DEFAULT_STRATEGY,
    offset: np.ndarray | None = None,
) -> list[InstanceFeature]:
    """Score-filter proposals, then extract an instance feature per survivor.

    Output preserves input order; survivors outside the grid window are
    skipped with a log notice (`key_point_coords`). `offset` goes to
    `bilinear_sample`: the features are those of a grid holding
    `grid.data + offset`.
    """
    kept, skipped, coords = key_point_coords(grid.spec, proposals, gamma, strategy)
    for p in skipped:
        log.info("skipping %s proposal with center (%.2f, %.2f) outside grid window",
                 p.modality, p.box.center[0], p.box.center[1])
    features = bilinear_sample(grid, coords, offset)
    raws = features.reshape(len(kept), np.shape(coords[0])[1] * grid.spec.channels)
    return [InstanceFeature(p, raw) for p, raw in zip(kept, raws)]
