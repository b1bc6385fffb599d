"""End-to-end fusion: refine, extract instances, match, enhance.

`run_matching` is the refine-extract-match front stage every CLI command
shares (DIPM). The refine yields one context vector, not a grid: camera
instances are sampled with it as an offset. `run_fusion` runs that stage
and then the dual-guided modules, which enhance both grids in place; it
makes no copy. Weight shapes follow the channel counts of the grids given,
not the config's generator depths.

The CLI never loads the LiDAR grid. `open_scene` loads the scene as
`synth.load_scene` checks it, but gathers only the LiDAR cells the front
stage samples (`gather_lidar`: the bilinear corners of the key points of
the score-filtered, in-window LiDAR proposals) in one checked f32 pass
through a handle it keeps open. The LiDAR enhancement writes those cells,
and `fuse` reads the LiDAR rows once more through that handle, with the
written cells rounded in, in the one pass that writes its grid files.
"""

from __future__ import annotations

from collections.abc import Iterator
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import BinaryIO

import numpy as np

from .config import PipelineConfig
from .enhance import Projection, enhance_camera_grid, enhance_lidar_grid
from .formats import grid_blocks, load_projection, read_grid_rows
from .grid import BevGrid, ContextWeights, GatheredCells, bilinear_corners, global_context_refine
from .instances import SAMPLES_PER_STRATEGY, Proposal, build_instances, key_point_coords
from .matching import PairSets, match_pairs
from .synth import Scene, load_scene

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
    slices of a fused buffer, and the LiDAR grid may be `gather_lidar`'s.
    Pass `grid.copy()` to keep a dense input (a gathered grid does not copy),
    and call `enhance.fuse_grids(camera_grid, lidar_grid)` afterwards for
    the fused grid.
    """
    pairs = run_matching(camera_grid, lidar_grid, camera_proposals, lidar_proposals, config)
    projections = build_projections(
        config, camera_grid.spec.channels, lidar_grid.spec.channels
    )
    enhance_camera_grid(camera_grid, pairs.easy, pairs.camera_hard,
                        projections.lidar_squeeze)
    enhance_lidar_grid(lidar_grid, pairs.lidar_hard, projections.excitation)
    return pairs


def gather_lidar(
    lidar_file: BinaryIO, lidar_proposals: list[Proposal], config: PipelineConfig
) -> BevGrid:
    """The LiDAR grid of an open grid file, holding the cells `run_matching` reads.

    One f32 pass over the file (`formats.grid_blocks`, with its size and
    non-finite checks) gathers the bilinear corners of the key points of
    the proposals `build_instances` keeps under `config`. Rows read later
    (`data.read_into`) come through the same handle, with the cells written
    since (`enhance_lidar_grid`) rounded in.
    """
    blocks = grid_blocks(lidar_file)
    spec = next(blocks)
    *_, coords = key_point_coords(spec, lidar_proposals, config.gamma, config.sampling_strategy)
    r0, c0, r1, c1, _, _ = bilinear_corners(coords, spec)
    rows, cols = np.concatenate([r0, r0, r1, r1]), np.concatenate([c0, c1, c0, c1])
    read_rows = partial(read_grid_rows, lidar_file, spec)
    return BevGrid(spec, GatheredCells.gather(spec, rows, cols, blocks, read_rows))


@contextmanager
def open_scene(manifest_path: str | Path, config: PipelineConfig,
               parsed: tuple[dict, dict[str, Path]] | None = None) -> Iterator[Scene]:
    """The scene `synth.load_scene` reads, with its LiDAR grid gathered for `config`.

    Every check of `load_scene` is made, on its `parsed` manifest if given.
    The LiDAR file is read through one handle (`gather_lidar`), which stays
    open until the block exits.
    """
    with ExitStack() as files:
        def read_lidar(path: Path, proposals: list[Proposal]) -> BevGrid:
            return gather_lidar(files.enter_context(path.open("rb")), proposals, config)

        yield load_scene(manifest_path, read_lidar, parsed)
