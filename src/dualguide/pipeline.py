"""End-to-end fusion: refine, extract instances, match, enhance.

`run_matching` is the refine-extract-match front stage every CLI command
shares (DIPM). The refine yields one context vector, not a grid: camera
instances are sampled with it as an offset. `run_fusion` runs that stage on
any camera and LiDAR grid and then enhances both in place (the dual-guided
modules); it makes no copy. The `fuse` command hands it the two grids
`synth.load_scene` read and streams the fused grid from them
(`formats.save_grid` writes the concatenation). Weight shapes follow the
channel counts of the grids given, not the config's generator depths.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import PipelineConfig
from .enhance import Projection, enhance_camera_grid, enhance_lidar_grid
from .formats import load_projection
from .grid import BevGrid, ContextWeights, global_context_refine
from .instances import SAMPLES_PER_STRATEGY, Proposal, build_instances
from .matching import PairSets, match_pairs

# Seed of the global-context weights; unlike the projections they have no file.
CONTEXT_WEIGHTS_SEED = 1
# Seed of the seeded projections: lidar_squeeze takes it, camera_squeeze
# PROJECTION_SEED + 1 and excitation PROJECTION_SEED + 2.
PROJECTION_SEED = 0


@dataclass
class FusionProjections:
    """The three affine maps the enhancement stages and cosine loss use."""

    lidar_squeeze: Projection   # lidar instance features -> camera channels
    camera_squeeze: Projection  # camera instance features -> camera channels
    excitation: Projection      # camera instance features -> lidar channels


def build_projections(
    config: PipelineConfig, camera_channels: int, lidar_channels: int
) -> FusionProjections:
    """Load projection weights from configured paths or seed them."""
    k = SAMPLES_PER_STRATEGY[config.sampling_strategy]

    def load_or_seed(path: str | None, source: int, target: int, seed: int) -> Projection:
        if path:
            return load_projection(Path(path))
        return Projection.seeded(source, target, seed)

    c_cam, c_lid = camera_channels, lidar_channels
    return FusionProjections(
        lidar_squeeze=load_or_seed(
            config.lidar_squeeze_path, k * c_lid, c_cam, PROJECTION_SEED
        ),
        camera_squeeze=load_or_seed(
            config.camera_squeeze_path, k * c_cam, c_cam, PROJECTION_SEED + 1
        ),
        excitation=load_or_seed(
            config.excitation_path, k * c_cam, c_lid, PROJECTION_SEED + 2
        ),
    )


def build_context_weights(channels: int) -> ContextWeights:
    """Seeded uniform(-s, s) context weights with s = 1/sqrt(channels)."""
    rng = np.random.default_rng(CONTEXT_WEIGHTS_SEED)
    s = 1.0 / np.sqrt(channels)
    return ContextWeights(
        value_proj=rng.uniform(-s, s, size=(channels, channels)),
        key_proj=rng.uniform(-s, s, size=channels),
    )


def run_matching(
    camera_grid: BevGrid,
    lidar_grid: BevGrid,
    camera_proposals: list[Proposal],
    lidar_proposals: list[Proposal],
    config: PipelineConfig = PipelineConfig(),
) -> PairSets:
    """Front stage: refine the camera grid, extract instances, match pairs.

    Camera instances are extracted from the context-refined camera grid, the
    LiDAR side from its raw grid. The LiDAR side takes no offset: adding 0.0
    would turn a stored -0.0 into +0.0.
    """
    context = global_context_refine(
        camera_grid, build_context_weights(camera_grid.spec.channels)
    )
    camera_instances = build_instances(
        camera_grid, camera_proposals, config.gamma, config.sampling_strategy, context
    )
    lidar_instances = build_instances(
        lidar_grid, lidar_proposals, config.gamma, config.sampling_strategy
    )
    return match_pairs(
        lidar_instances, camera_instances, config.eta, config.grouping_strategy
    )


def run_fusion(
    camera_grid: BevGrid,
    lidar_grid: BevGrid,
    camera_proposals: list[Proposal],
    lidar_proposals: list[Proposal],
    config: PipelineConfig = PipelineConfig(),
) -> PairSets:
    """Match, then enhance both grids in place; returns the pair sets.

    The grids may be contiguous arrays or channel views, such as the two
    slices of a fused buffer. Pass `grid.copy()` to keep an input, and call
    `enhance.fuse_grids(camera_grid, lidar_grid)` afterwards for the fused
    grid.
    """
    pairs = run_matching(
        camera_grid, lidar_grid, camera_proposals, lidar_proposals, config
    )
    projections = build_projections(
        config, camera_grid.spec.channels, lidar_grid.spec.channels
    )
    enhance_camera_grid(camera_grid, pairs.easy, pairs.camera_hard,
                        projections.lidar_squeeze)
    enhance_lidar_grid(lidar_grid, pairs.lidar_hard, projections.excitation)
    return pairs
