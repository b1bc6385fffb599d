"""Instance-level feature extraction from BEV grids.

Each surviving proposal is projected to its ground-plane footprint, a set of
key points is read off the footprint, every point is bilinear-sampled from
the grid, and the samples are concatenated into one flat feature vector.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, ContractError
from .geometry import Box3D, key_samples, project_to_bev, rect_corners
from .grid import BevGrid, bilinear_sample, world_to_grid
from .taxonomy import NUM_CLASSES

log = logging.getLogger(__name__)

MODALITIES = ("lidar", "camera")

SAMPLING_STRATEGIES = (
    "center",
    "center+vertices",
    "center+boundary_mid",
    "center+vertices+boundary_mid",
)

SAMPLES_PER_STRATEGY = {
    "center": 1,
    "center+vertices": 5,
    "center+boundary_mid": 5,
    "center+vertices+boundary_mid": 9,
}

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
    sampling_strategy: str

    @property
    def bev_center(self) -> tuple[float, float]:
        return (self.proposal.box.center[0], self.proposal.box.center[1])


def filter_by_score(proposals: list[Proposal], gamma: float) -> list[Proposal]:
    """Keep proposals with score >= gamma, preserving order."""
    return [p for p in proposals if p.score >= gamma]


def sample_points(box: Box3D, strategy: str) -> list[tuple[float, float]]:
    """Key points of a box footprint in the strategy's fixed concatenation order.

    Order: center, then the four corners (counter-clockwise from the +w,+l
    corner) when the strategy includes vertices, then the four boundary
    midpoints (top, bottom, left, right) when it includes them.
    """
    if strategy not in SAMPLING_STRATEGIES:
        raise ConfigurationError(
            f"unknown sampling strategy {strategy!r}; expected one of {SAMPLING_STRATEGIES}"
        )
    rect = project_to_bev(box)
    ks = key_samples(rect)
    points: list[tuple[float, float]] = [ks.center]
    if "vertices" in strategy:
        points.extend(tuple(p) for p in rect_corners(rect))
    if "boundary_mid" in strategy:
        points.extend([ks.top, ks.bottom, ks.left, ks.right])
    return points


def extract_instance(
    grid: BevGrid, proposal: Proposal, strategy: str = DEFAULT_STRATEGY
) -> InstanceFeature | None:
    """Sample one proposal's key points and concatenate the features.

    Returns None (with a log notice) when the box center falls outside the
    grid window; a clamped sample there would read unrelated border cells.
    """
    x, y = proposal.box.center[0], proposal.box.center[1]
    if not grid.spec.contains(x, y):
        log.info(
            "skipping %s proposal with center (%.2f, %.2f) outside grid window",
            proposal.modality,
            x,
            y,
        )
        return None
    parts = [
        bilinear_sample(grid, world_to_grid(p, grid.spec))
        for p in sample_points(proposal.box, strategy)
    ]
    return InstanceFeature(proposal, np.concatenate(parts), strategy)


def build_instances(
    grid: BevGrid,
    proposals: list[Proposal],
    gamma: float,
    strategy: str = DEFAULT_STRATEGY,
) -> list[InstanceFeature]:
    """Score-filter proposals, then extract an instance feature per survivor.

    Output preserves input order; out-of-window survivors are skipped.
    """
    survivors = filter_by_score(proposals, gamma)
    for p in survivors:
        if p.modality != survivors[0].modality:
            raise ConfigurationError("proposals for one grid must share a modality")
    extracted = (extract_instance(grid, p, strategy) for p in survivors)
    return [inst for inst in extracted if inst is not None]
