"""End-to-end fusion: refine, extract instances, match, enhance, fuse.

`run_matching` is the refine-extract-match front stage every CLI command
shares. The refine yields one context vector, not a grid: camera instances
are sampled with it as an offset. `run_fusion` runs the front stage, copies
both grids into one fused buffer, and enhances its two channel slices in
place.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import PipelineConfig
from .enhance import (
    Projection,
    enhance_camera_grid,
    enhance_lidar_grid,
    fuse_grids,
)
from .formats import load_projection
from .grid import BevGrid, ContextWeights, global_context_refine
from .instances import SAMPLES_PER_STRATEGY, InstanceFeature, Proposal, build_instances
from .losses import pair_cosine_loss
from .matching import PairSets, match_pairs


@dataclass
class FusionProjections:
    """The three affine maps the enhancement stages and cosine loss use."""

    lidar_squeeze: Projection   # lidar instance features -> camera channels
    camera_squeeze: Projection  # camera instance features -> camera channels
    excitation: Projection      # camera instance features -> lidar channels


@dataclass
class MatchStage:
    """Output of the front stage: camera context vector, instances and pairs."""

    context: np.ndarray  # the refined camera grid is the raw grid + context
    camera_instances: list[InstanceFeature]
    lidar_instances: list[InstanceFeature]
    pairs: PairSets


@dataclass
class FusionResult(MatchStage):
    """The front stage's output plus the enhanced and fused grids."""

    enhanced_camera: BevGrid
    enhanced_lidar: BevGrid
    fused: BevGrid
    cosine: float | None


def build_projections(config: PipelineConfig) -> FusionProjections:
    """Load projection weights from configured paths or seed them."""
    k = SAMPLES_PER_STRATEGY[config.sampling_strategy]
    c_cam, c_lid = config.camera_channels, config.lidar_channels

    def load_or_seed(path: str | None, source: int, target: int, seed: int) -> Projection:
        if path:
            return load_projection(Path(path))
        return Projection.seeded(source, target, seed)

    return FusionProjections(
        lidar_squeeze=load_or_seed(
            config.lidar_squeeze_path, k * c_lid, c_cam, config.projection_seed
        ),
        camera_squeeze=load_or_seed(
            config.camera_squeeze_path, k * c_cam, c_cam, config.projection_seed + 1
        ),
        excitation=load_or_seed(
            config.excitation_path, k * c_cam, c_lid, config.projection_seed + 2
        ),
    )


def build_context_weights(config: PipelineConfig) -> ContextWeights:
    """Seeded uniform(-s, s) context weights with s = 1/sqrt(channels)."""
    rng = np.random.default_rng(config.context_weights_seed)
    c = config.camera_channels
    s = 1.0 / np.sqrt(c)
    return ContextWeights(
        value_proj=rng.uniform(-s, s, size=(c, c)),
        key_proj=rng.uniform(-s, s, size=c),
    )


def run_matching(
    camera_grid: BevGrid,
    lidar_grid: BevGrid,
    camera_proposals: list[Proposal],
    lidar_proposals: list[Proposal],
    config: PipelineConfig = PipelineConfig(),
) -> MatchStage:
    """Front stage: refine the camera grid, extract instances, match pairs.

    Camera instances are extracted from the context-refined camera grid, the
    LiDAR side from its raw grid. The LiDAR side takes no offset: adding 0.0
    would turn a stored -0.0 into +0.0.
    """
    context = global_context_refine(camera_grid, build_context_weights(config))
    camera_instances = build_instances(
        camera_grid, camera_proposals, config.gamma, config.sampling_strategy, context
    )
    lidar_instances = build_instances(
        lidar_grid, lidar_proposals, config.gamma, config.sampling_strategy
    )
    pairs = match_pairs(lidar_instances, camera_instances, config.match_config())
    return MatchStage(context, camera_instances, lidar_instances, pairs)


def run_fusion(
    camera_grid: BevGrid,
    lidar_grid: BevGrid,
    camera_proposals: list[Proposal],
    lidar_proposals: list[Proposal],
    config: PipelineConfig = PipelineConfig(),
    enhance: bool = True,
) -> FusionResult:
    """Run the full fusion pipeline on in-memory inputs.

    `run_matching` supplies the pairs. The fused grid is allocated once,
    LiDAR channels first, holding copies of both input grids, which stay
    unchanged; `enhanced_lidar` and `enhanced_camera` are views of its two
    channel slices, enhanced in place. With camera_enhance_input "refined"
    the context vector is added to the camera slice first. With
    enhance=False the views keep the input grids (the no-enhancement
    baseline); matching still runs so the pair sets and cosine value stay
    reportable.
    """
    projections = build_projections(config)
    stage = run_matching(camera_grid, lidar_grid, camera_proposals, lidar_proposals, config)
    pairs = stage.pairs
    cosine = pair_cosine_loss(
        pairs.easy, projections.lidar_squeeze, projections.camera_squeeze
    )

    fused = fuse_grids(camera_grid, lidar_grid)
    c_lid = lidar_grid.spec.channels
    enhanced_lidar = BevGrid(lidar_grid.spec, fused.data[:, :, :c_lid])
    enhanced_camera = BevGrid(camera_grid.spec, fused.data[:, :, c_lid:])
    if enhance:
        if config.camera_enhance_input == "refined":
            enhanced_camera.data += stage.context
        enhance_camera_grid(enhanced_camera, pairs.easy, pairs.camera_hard,
                            projections.lidar_squeeze)
        enhance_lidar_grid(enhanced_lidar, pairs.lidar_hard, projections.excitation)
    return FusionResult(
        **vars(stage),
        enhanced_camera=enhanced_camera,
        enhanced_lidar=enhanced_lidar,
        fused=fused,
        cosine=cosine,
    )
