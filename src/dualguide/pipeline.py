"""End-to-end fusion: refine, extract instances, match, enhance.

`run_matching` is the refine-extract-match front stage every CLI command
shares (DIPM). The refine yields one context vector, not a grid: camera
instances are sampled with it as an offset. `run_fusion` runs that stage
and then the dual-guided modules, which enhance both grids in place; it
makes no copy. Each caller builds only the projections it applies
(`build_projections`): `run_fusion` the LiDAR squeeze and the excitation,
`loss --scene` the two squeezes. Their shapes follow the channel counts of
the grids given, not the config's generator depths, and a weight file of
another shape is refused when it is loaded.

The CLI never loads the LiDAR grid. `open_scene` loads the scene as
`synth.load_scene` checks it, but builds no annotation or manifest object,
which no stage reads (it checks them all the same), and gathers only the
LiDAR cells the front stage samples (`gather_lidar`: the bilinear corners
of the key points of the score-filtered, in-window LiDAR proposals) in one
checked f32 pass through a handle it keeps open. The LiDAR enhancement writes those cells,
and `fuse` reads the LiDAR rows once more through that handle, with the
gathered cells rounded in, in the one pass that writes its grid files.
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
from .formats import grid_blocks, load_projection, read_grid_rows
from .grid import BevGrid, ContextWeights, GatheredCells, bilinear_corners, global_context_refine
from .instances import SAMPLES_PER_STRATEGY, Proposal, build_instances, key_point_coords
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
    lidar_squeeze, excitation = build_projections(
        config, camera_grid.spec.channels, lidar_grid.spec.channels, "lidar_squeeze", "excitation"
    )
    enhance_camera_grid(camera_grid, pairs.easy, pairs.camera_hard, lidar_squeeze)
    enhance_lidar_grid(lidar_grid, pairs.lidar_hard, excitation)
    return pairs


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
    r0, c0, r1, c1, _, _ = bilinear_corners(coords, spec)
    rows, cols = np.concatenate([r0, r0, r1, r1]), np.concatenate([c0, c1, c0, c1])
    read_rows = partial(read_grid_rows, lidar_file, spec)
    return BevGrid(spec, GatheredCells.gather(spec, rows, cols, blocks, read_rows))


@contextmanager
def open_scene(manifest_path: str | Path, config: PipelineConfig,
               parsed: tuple[dict, dict[str, Path]] | None = None) -> Iterator[Scene]:
    """The scene `synth.load_scene` reads, with its LiDAR grid gathered for `config`.

    Every check of `load_scene` is made, on its `parsed` manifest if given,
    with the same messages; the annotations and manifest objects are checked
    but not built (the scene holds None for them). The LiDAR file is read
    through one handle (`gather_lidar`), which stays open until the block
    exits.
    """
    with ExitStack() as files:
        def read_lidar(path: Path, proposals: list[Proposal]) -> BevGrid:
            return gather_lidar(files.enter_context(path.open("rb")), proposals, config)

        yield load_scene(manifest_path, read_lidar, parsed, truth=False)
