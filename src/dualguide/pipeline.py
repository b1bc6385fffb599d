"""End-to-end fusion: refine, extract instances, match, enhance.

The front stage every CLI command shares (DIPM) has a camera half,
`camera_instances` (the global-context refine, then the camera instances),
and `run_matching`, which takes those instances, extracts the LiDAR ones
and matches the pairs. The refine yields one context vector, not a grid:
camera instances are sampled with it as an offset. `run_fusion` matches and
then runs the dual-guided modules, which enhance both grids in place; it
makes no copy. Each caller builds only the projections it applies
(`build_projections`): `run_fusion` the LiDAR squeeze and the excitation,
`loss --scene` the two squeezes. Their shapes follow the channel counts of
the grids given, not the config's generator depths, and a weight file of
another shape is refused when it is loaded.

The CLI holds neither grid past the front stage. `open_scene` loads the
scene as `synth.load_scene` checks it, but builds no annotation or manifest
object, which no stage reads (it checks them all the same). It opens each
grid file once and keeps the handle open. The camera grid is read whole,
only for the refine and the camera extraction, and of it only the bilinear
corners of the camera instance centers are kept (`gather_camera`): the
cells the Point-guide-Image enhancement reads and writes. The array is
dropped before the LiDAR file is read. Of the LiDAR grid only the cells the
front stage samples are gathered (`gather_lidar`: the bilinear corners of
the key points of the score-filtered, in-window LiDAR proposals), in one
checked f32 pass. The enhancements write the kept cells, and `fuse` reads
the rows of both grids once more through their handles, with the kept
cells rounded in, in the one pass that writes its grid files.
"""

from __future__ import annotations

from collections.abc import Iterator
from contextlib import ExitStack, contextmanager
from functools import partial
from pathlib import Path
from typing import BinaryIO

import numpy as np

from .config import PipelineConfig
from .enhance import Projection, enhance_camera_grid, enhance_lidar_grid
from .errors import ConfigurationError, DataFormatError
from .formats import grid_blocks, load_grid, load_projection, read_grid_rows
from .grid import (
    BevGrid,
    ContextWeights,
    GatheredCells,
    GridSpec,
    bilinear_corners,
    global_context_refine,
    world_to_grid,
)
from .instances import (
    SAMPLES_PER_STRATEGY,
    InstanceFeature,
    Proposal,
    build_instances,
    key_point_coords,
)
from .matching import PairSets, match_pairs
from .synth import Scene, load_scene

# Seed of the global-context weights; unlike the projections they have no file.
CONTEXT_WEIGHTS_SEED = 1
# Each projection's config path key, source and target modality, and seed.
PROJECTIONS = {
    "lidar_squeeze": ("lidar_squeeze_path", "lidar", "camera", 0),    # Point-guide-Image
    "camera_squeeze": ("camera_squeeze_path", "camera", "camera", 1),  # the cosine loss
    "excitation": ("excitation_path", "camera", "lidar", 2),           # Image-guide-Point
}


def build_projections(config: PipelineConfig, camera_channels: int, lidar_channels: int,
                      *names: str) -> tuple[Projection, ...]:
    """The projections named, in order, each loaded from its config path or seeded.

    A projection maps the K key-point features of its source modality
    (K x source channels values) onto its target modality's channels. A
    file that cannot be read, or of another shape, raises ConfigurationError
    naming the file and its key; a path resolves against the working directory.
    """
    k = SAMPLES_PER_STRATEGY[config.sampling_strategy]
    channels = {"camera": camera_channels, "lidar": lidar_channels}
    projections = []
    for name in names:
        key, source, target, seed = PROJECTIONS[name]
        n_in, n_out, path = k * channels[source], channels[target], getattr(config, key)
        try:
            projection = load_projection(path) if path else Projection.seeded(n_in, n_out, seed)
        except (OSError, DataFormatError) as exc:
            reason = getattr(exc, "strerror", None) or str(exc).removeprefix(f"{Path(path)}: ")
            raise ConfigurationError(f"{path}: {key}: {reason}") from exc
        if projection.matrix.shape != (n_out, n_in):
            raise ConfigurationError(
                f"{path}: {key} maps {projection.source_length} values to "
                f"{projection.target_channels}, the scene needs {n_in} to {n_out}")
        projections.append(projection)
    return tuple(projections)


def build_context_weights(channels: int) -> ContextWeights:
    """Seeded uniform(-s, s) context weights with s = 1/sqrt(channels)."""
    rng = np.random.default_rng(CONTEXT_WEIGHTS_SEED)
    s = 1.0 / np.sqrt(channels)
    return ContextWeights(
        value_proj=rng.uniform(-s, s, size=(channels, channels)),
        key_proj=rng.uniform(-s, s, size=channels),
    )


def camera_instances(
    camera_grid: BevGrid, camera_proposals: list[Proposal], config: PipelineConfig
) -> list[InstanceFeature]:
    """The camera half of the front stage: refine the grid, then extract its instances.

    The instances are sampled from the context-refined camera grid. The
    refine reads every cell, so the grid must be dense here.
    """
    context = global_context_refine(
        camera_grid, build_context_weights(camera_grid.spec.channels)
    )
    return build_instances(
        camera_grid, camera_proposals, config.gamma, config.sampling_strategy, context
    )


def run_matching(
    camera: list[InstanceFeature],
    lidar_grid: BevGrid,
    lidar_proposals: list[Proposal],
    config: PipelineConfig = PipelineConfig(),
) -> PairSets:
    """Front stage, given the camera instances (`camera_instances`): extract LiDAR, match.

    The LiDAR instances are extracted from the raw grid. They take no
    offset: adding 0.0 would turn a stored -0.0 into +0.0.
    """
    lidar = build_instances(lidar_grid, lidar_proposals, config.gamma, config.sampling_strategy)
    return match_pairs(lidar, camera, config.eta, config.grouping_strategy)


def run_fusion(
    camera_grid: BevGrid,
    lidar_grid: BevGrid,
    camera: list[InstanceFeature],
    lidar_proposals: list[Proposal],
    config: PipelineConfig = PipelineConfig(),
) -> PairSets:
    """Match, then enhance both grids in place; returns the pair sets.

    `camera` is `camera_instances(camera_grid, camera_proposals, config)`,
    made before any write. The grids may be contiguous arrays or channel
    views, such as the two slices of a fused buffer, or `open_scene`'s
    gathered cells. Pass `grid.copy()` to keep a dense input (a gathered
    grid does not copy), and call `enhance.fuse_grids(camera_grid,
    lidar_grid)` afterwards for the fused grid.
    """
    pairs = run_matching(camera, lidar_grid, lidar_proposals, config)
    lidar_squeeze, excitation = build_projections(
        config, camera_grid.spec.channels, lidar_grid.spec.channels, "lidar_squeeze", "excitation"
    )
    enhance_camera_grid(camera_grid, pairs.easy, pairs.camera_hard, lidar_squeeze)
    enhance_lidar_grid(lidar_grid, pairs.lidar_hard, excitation)
    return pairs


def _gather(f: BinaryIO, spec: GridSpec, coords, blocks) -> BevGrid:
    """The grid of open file `f` holding the bilinear corners of `coords`, from `blocks`."""
    r0, c0, r1, c1, _, _ = bilinear_corners(coords, spec)
    rows, cols = np.concatenate([r0, r0, r1, r1]), np.concatenate([c0, c1, c0, c1])
    read_rows = partial(read_grid_rows, f, spec)
    return BevGrid(spec, GatheredCells.gather(spec, rows, cols, blocks, read_rows))


def gather_camera(
    camera_file: BinaryIO, camera_proposals: list[Proposal], config: PipelineConfig
) -> tuple[BevGrid, list[InstanceFeature]]:
    """The camera instances of an open grid file, and its grid holding the cells enhanced.

    The grid is read whole (`load_grid`'s checks) for `camera_instances`
    alone. Only the bilinear corners of each instance center are kept:
    `enhance_camera_grid` samples there and writes the nearest cell, one of
    them. Rows read later (`data.read_into`) come through the same handle,
    with the kept cells, as `enhance_camera_grid` has since left them,
    rounded in.
    """
    dense = load_grid(camera_file)
    instances = camera_instances(dense, camera_proposals, config)
    centers = np.array([i.proposal.box.center for i in instances]).reshape(-1, 3)
    coords = world_to_grid((centers[:, 0], centers[:, 1]), dense.spec)
    return _gather(camera_file, dense.spec, coords, [(0, dense.data)]), instances


def gather_lidar(
    lidar_file: BinaryIO, lidar_proposals: list[Proposal], config: PipelineConfig
) -> BevGrid:
    """The LiDAR grid of an open grid file, holding the cells `run_matching` reads.

    One f32 pass over the file (`formats.grid_blocks`, with its size and
    non-finite checks) gathers the bilinear corners of the key points of
    the proposals `build_instances` keeps under `config`. Rows read later
    (`data.read_into`) come through the same handle, with the gathered
    cells, as `enhance_lidar_grid` has since left them, rounded in.
    """
    blocks = grid_blocks(lidar_file)
    spec = next(blocks)
    *_, coords = key_point_coords(spec, lidar_proposals, config.gamma, config.sampling_strategy)
    return _gather(lidar_file, spec, coords, blocks)


@contextmanager
def open_scene(manifest_path: str | Path, config: PipelineConfig,
               parsed: tuple[dict, dict[str, Path]] | None = None
               ) -> Iterator[tuple[Scene, list[InstanceFeature]]]:
    """`synth.load_scene`'s scene, its grids gathered for `config`, and its camera instances.

    Every check of `load_scene` is made, on its `parsed` manifest if given,
    with the same messages; the annotations and manifest objects are checked
    but not built (the scene holds None for them). Each grid file is read
    through one handle, which stays open until the block exits: the camera
    file by `gather_camera`, whose dense array is gone when it returns, and
    then the LiDAR file by `gather_lidar`.
    """
    camera: list[InstanceFeature] = []
    with ExitStack() as files:
        def read_grid(modality: str, path: Path, proposals: list[Proposal]) -> BevGrid:
            f = files.enter_context(path.open("rb"))
            if modality == "lidar":
                return gather_lidar(f, proposals, config)
            grid, instances = gather_camera(f, proposals, config)
            camera.extend(instances)
            return grid

        yield load_scene(manifest_path, read_grid, parsed, truth=False), camera
