"""Synthetic scene generation and the energy-peak readout detector.

A scene is a pair of BEV grids plus proposals, annotations, and an optional
point cloud, all derived from a seeded placement of objects. Each object
imprints a Gaussian feature bump (std = half extent along each box axis)
scaled by a per-modality strength; the gap profile drives those strengths,
so "lidar-hole" objects are bright for the camera but nearly absent from
the LiDAR grid, "occluded" objects the converse, and "easy" objects strong
in both. Proposal scores track the strengths, which is what makes weak-side
proposals fall to the score filter and turn into hard instances downstream.
Sub-cell objects (cones, pedestrians) land between cell centers and lose
peak amplitude to discretization, exactly the instances that later profit
from enhancement.

Scenes also carry clutter: Gaussian bumps of moderate strength in both
grids with no proposal or annotation behind them. Clutter gives the readout
detector genuine ranking competition, so single-modality objects are not
trivially the top peaks of the fused grid.

Generation is placement, then rendering. `place_scene` draws the objects,
proposals, annotations, points and clutter, and returns them as a `Scene`
whose two grids are `RenderedRows`: each grid's bumps in order (each bump's
rows, columns and Gaussian, and its per-channel amplitude), rendered only
when rows are read. `render_rows` adds the bumps into any block of a grid's
rows; each cell gets the same additions in the same order whatever the
block, so the bytes do not depend on the split. `write_scene` is the one
scene writer: `gen` writes `write_scene(place_scene(...))`, whose grid files
`formats.save_grid` renders block by block, so no grid is ever held.
`generate_scene` renders the same scene's grids whole, in memory, and
writes the same bytes.

The readout detector turns a grid's energy map (the per-cell L2 norm across
channels: `cell_energy` of a grid in memory, or `read_cell_energy` of a grid
file, read in row blocks without holding the grid) into detections without
any learned parts: after subtracting the median cell energy as a floor,
strict local maxima become detections whose box is estimated from the
quarter-maximum support region (the connected region within 8 cells of the
peak, computed for all peaks at once): its principal axes give the yaw, and
extent = 2.4 * sqrt(eigenvalue) inverts the quarter-max cut of a Gaussian
bump whose std is the half extent. It has no class head: every detection is
READOUT_CLASS.

`load_scene` is the one scene loader. It checks both grid headers against
the manifest's grid echo before any grid is allocated, then reads each grid
into its own contiguous array, or as its caller asks: the CLI keeps of each
grid only the cells the pipeline reads and writes, and holds the camera grid
whole only through the refine and the camera extraction
(`pipeline.open_scene`).
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .config import PipelineConfig
from .errors import ConfigurationError, ContractError, DataFormatError
from .formats import (
    ANNOTATION_FIELDS,
    OBJECT_FIELDS,
    OBJECT_PROFILES,
    check_replaceable,
    grid_blocks,
    load_grid,
    load_json,
    load_points,
    load_proposals,
    read_records,
    save_annotations,
    save_grid,
    save_json,
    save_points,
    save_proposals,
    to_records,
)
from .geometry import Box3D, box_axes
from .grid import BevGrid, GridSpec, grid_to_world, world_to_grid
from .instances import Proposal
from .metrics import Annotation, Detection
from .taxonomy import NUM_CLASSES

GAP_PROFILES = (*OBJECT_PROFILES, "mixed")
# The one class the readout detector gives every detection.
READOUT_CLASS = 0
# A readout peak has residual energy >= MIN_PEAK_ENERGY. Its support region is
# the cells within SUPPORT_HALF_WIDTH rows and columns of it, 4-connected to it,
# that reach SUPPORT_LEVEL x its residual. _PEAK_CHUNK peaks at a time bound memory.
MIN_PEAK_ENERGY = 1e-6
SUPPORT_HALF_WIDTH = 8
SUPPORT_LEVEL = 0.25
_PEAK_CHUNK = 128

# Typical (heading extent, lateral extent, height) per class, in meters.
CLASS_SIZES = (
    (4.6, 1.9, 1.7),   # car
    (7.0, 2.5, 2.8),   # truck
    (6.5, 2.8, 3.2),   # construction vehicle
    (11.0, 2.9, 3.5),  # bus
    (12.0, 2.9, 3.8),  # trailer
    (0.5, 2.5, 1.0),   # barrier
    (2.1, 0.8, 1.4),   # motorcycle
    (1.7, 0.6, 1.3),   # bicycle
    (0.7, 0.7, 1.8),   # pedestrian
    (0.4, 0.4, 0.7),   # traffic cone
)

POINTS_PER_STRENGTH = 60
CLUTTER_PER_OBJECT = 1.0
CLUTTER_STRENGTH = (0.4, 0.7)
CLUTTER_SIGMA = (0.5, 1.5)


@dataclass(frozen=True)
class SceneObject:
    """Generator truth for one placed object."""

    box: Box3D
    class_id: int
    profile: str
    lidar_strength: float
    camera_strength: float
    visibility_token: int
    num_lidar_pts: int

    def __post_init__(self) -> None:
        # Its annotation checks the class id, visibility token and point count.
        Annotation(self.box, self.class_id, self.visibility_token, self.num_lidar_pts)
        if self.profile not in OBJECT_PROFILES:
            raise ContractError(f"profile {self.profile!r} not in {OBJECT_PROFILES}")
        for name in ("lidar_strength", "camera_strength"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ContractError(f"{name} {getattr(self, name)} outside [0, 1]")


@dataclass
class Scene:
    camera_grid: BevGrid
    lidar_grid: BevGrid
    camera_proposals: list[Proposal]
    lidar_proposals: list[Proposal]
    # None when loaded without them (`load_scene(..., truth=False)`).
    annotations: list[Annotation] | None
    objects: list[SceneObject] | None
    points: np.ndarray | None = None


def _strengths(rng: np.random.Generator, profile: str) -> tuple[float, float]:
    strong = lambda: float(rng.uniform(0.8, 0.95))
    weak = lambda: float(rng.uniform(0.0, 0.08))
    if profile == "easy":
        return strong(), strong()
    if profile == "lidar-hole":
        return weak(), strong()
    if profile == "occluded":
        return strong(), weak()
    raise ConfigurationError(f"unknown object profile {profile!r}")


def _visibility_token(camera_strength: float) -> int:
    if camera_strength >= 0.8:
        return 4
    if camera_strength >= 0.6:
        return 3
    if camera_strength >= 0.4:
        return 2
    return 1


@dataclass(frozen=True)
class Bump:
    """One Gaussian bump of a grid: `g[:, :, None] * amplitude` added at (row_lo, col_lo).

    `g` is the bump's (rows, cols) Gaussian, already clipped to the window;
    `amplitude` has one value per channel.
    """

    row_lo: int
    col_lo: int
    g: np.ndarray
    amplitude: np.ndarray


def _gaussian(
    spec: GridSpec, center: tuple[float, float], sigma_u: float, sigma_v: float, yaw: float
) -> tuple[int, int, np.ndarray]:
    """exp(-(du/su)^2/2 - (dv/sv)^2/2) over the cells within 3 sigma of a footprint.

    Returns the first row and column of those cells, clipped to the window,
    and the Gaussian over them.
    """
    u, v = box_axes(yaw)
    reach = 3.0 * max(sigma_u, sigma_v)
    cx, cy = center

    lo = world_to_grid((cx - reach, cy - reach), spec)
    hi = world_to_grid((cx + reach, cy + reach), spec)
    row_lo, col_lo = (max(int(math.floor(v)), 0) for v in lo)
    row_hi = min(int(math.ceil(hi[0])) + 1, spec.height_cells)
    col_hi = min(int(math.ceil(hi[1])) + 1, spec.width_cells)
    xs, ys = grid_to_world((np.arange(row_lo, row_hi), np.arange(col_lo, col_hi)), spec)
    dx = xs[None, :] - cx
    dy = ys[:, None] - cy
    du = dx * u[0] + dy * u[1]
    dv = dx * v[0] + dy * v[1]
    return row_lo, col_lo, np.exp(-0.5 * ((du / sigma_u) ** 2 + (dv / sigma_v) ** 2))


def render_rows(bumps: list[Bump], first_row: int, out: np.ndarray) -> None:
    """Add, in order, each bump's share of the rows of the f64 block `out`.

    `out` holds rows first_row .. first_row + len(out) of a grid. A cell gets
    the same additions in the same order however the grid is split into
    blocks, so rendering block by block equals one render over all rows,
    bit for bit.
    """
    last_row = first_row + len(out)
    pieces = []
    for bump in bumps:
        lo = max(bump.row_lo, first_row)
        hi = min(bump.row_lo + len(bump.g), last_row)
        if lo < hi:
            g = bump.g[lo - bump.row_lo : hi - bump.row_lo]
            pieces.append((lo - first_row, bump.col_lo, g, bump.amplitude))
    if not pieces:
        return
    channels = out.shape[2]
    scratch = np.empty(max(g.size for _, _, g, _ in pieces) * channels)
    for row, col, g, amplitude in pieces:
        rows, cols = g.shape
        product = scratch[: g.size * channels].reshape(rows, cols, channels)
        # g[:, :, None] * amplitude in about half the time of that broadcast
        # multiply: einsum adds each product once to a zeroed output. Only a
        # zero product's sign can differ, and adding a zero of either sign to
        # a block that starts at +0.0 gives the same bits.
        np.einsum("ij,k->ijk", g, amplitude, out=product)
        out[row : row + rows, col : col + cols] += product


@dataclass
class RenderedRows:
    """A grid of bumps, read only in f32 rows through `read_into`; never held whole.

    `shape` is the grid's (H, W, C), and `bumps` are added in order. A read
    renders through an f64 block of half its rows, as many bytes as `out`.
    """

    shape: tuple[int, int, int]
    bumps: list[Bump] = field(repr=False)

    def read_into(self, first_row: int, out: np.ndarray) -> None:
        """Render rows first_row onwards into `out`, a contiguous f32 (rows, W, C) array."""
        scratch = np.empty(((len(out) + 1) // 2, *self.shape[1:]))
        for r in range(0, len(out), len(scratch)):
            block = scratch[: len(out) - r]
            block.fill(0.0)
            render_rows(self.bumps, first_row + r, block)
            out[r : r + len(block)] = block


def place_scene(
    config: PipelineConfig,
    seed: int,
    n_objects: int,
    gap_profile: str = "mixed",
    with_points: bool = False,
) -> Scene:
    """Deterministically place one scene: its records, and its grids as `RenderedRows`.

    Objects are rejection-placed so their footprint circumradii never
    overlap, which keeps ground-truth boxes disjoint and easy pairs
    one-to-one. Both modalities receive a proposal per object with a
    size-relative box jitter and score = strength plus noise, clamped.
    Clutter bumps are placed last, clear of every object. An object or
    clutter bump has one Gaussian, shared by its bumps in the two grids.
    """
    if n_objects < 0 or seed < 0:
        raise ConfigurationError(f"n_objects and seed must be >= 0, got {n_objects} and {seed}")
    if gap_profile not in GAP_PROFILES:
        raise ConfigurationError(
            f"unknown gap profile {gap_profile!r}; expected one of {GAP_PROFILES}"
        )
    rng = np.random.default_rng(seed)
    camera_spec = config.camera_spec()
    lidar_spec = config.lidar_spec()

    lidar_base = rng.uniform(0.3, 1.0, size=(NUM_CLASSES, lidar_spec.channels))
    camera_base = rng.uniform(0.3, 1.0, size=(NUM_CLASSES, camera_spec.channels))

    camera_bumps: list[Bump] = []
    lidar_bumps: list[Bump] = []
    objects: list[SceneObject] = []
    camera_proposals: list[Proposal] = []
    lidar_proposals: list[Proposal] = []
    annotations: list[Annotation] = []
    placed: list[tuple[float, float, float]] = []  # (x, y, clearance radius)
    point_chunks: list[np.ndarray] = []

    x0, x1 = camera_spec.x_range
    y0, y1 = camera_spec.y_range
    n_clutter = int(round(n_objects * CLUTTER_PER_OBJECT))

    def place(radius: float) -> tuple[float, float]:
        margin = radius + 0.5
        for _attempt in range(500):
            x = float(rng.uniform(x0 + margin, x1 - margin))
            y = float(rng.uniform(y0 + margin, y1 - margin))
            if all(math.hypot(x - px, y - py) > radius + pr + 0.5 for px, py, pr in placed):
                placed.append((x, y, radius))
                return x, y
        done = f"{len(placed)} of {n_objects} objects"
        if len(placed) >= n_objects:  # objects are placed first, then clutter
            done = (f"all {n_objects} objects and {len(placed) - n_objects} "
                    f"of {n_clutter} clutter bumps")
        raise ConfigurationError(f"window too crowded: placed {done} before it filled")

    for _ in range(n_objects):
        class_id = int(rng.integers(0, NUM_CLASSES))
        base_w, base_l, base_h = CLASS_SIZES[class_id]
        scale = rng.uniform(0.9, 1.1, size=3)
        w, l, h = base_w * scale[0], base_l * scale[1], base_h * scale[2]
        yaw = float(rng.uniform(-math.pi, math.pi))

        profile = gap_profile
        if gap_profile == "mixed":
            profile = str(rng.choice(("easy", "lidar-hole", "occluded"), p=(0.4, 0.3, 0.3)))
        lidar_strength, camera_strength = _strengths(rng, profile)

        x, y = place(math.hypot(w, l) / 2.0)
        box = Box3D(center=(x, y, h / 2.0), size=(w, l, h), yaw=yaw)

        lidar_sig = lidar_base[class_id] + rng.normal(0.0, 0.05, lidar_spec.channels)
        camera_sig = camera_base[class_id] + rng.normal(0.0, 0.05, camera_spec.channels)
        gaussian = _gaussian(camera_spec, (x, y), w / 2.0, l / 2.0, yaw)
        lidar_bumps.append(Bump(*gaussian, lidar_strength * lidar_sig))
        camera_bumps.append(Bump(*gaussian, camera_strength * camera_sig))

        jitter_scale = 0.02 * min(w, l)
        for modality, strength, out in (
            ("lidar", lidar_strength, lidar_proposals),
            ("camera", camera_strength, camera_proposals),
        ):
            jitter = rng.normal(0.0, jitter_scale, size=2)
            size_jitter = 1.0 + rng.normal(0.0, 0.02, size=3)
            yaw_jitter = float(rng.normal(0.0, 0.01))
            score = float(np.clip(strength + rng.normal(0.0, 0.03), 0.0, 1.0))
            out.append(
                Proposal(
                    box=Box3D(
                        center=(x + jitter[0], y + jitter[1], box.center[2]),
                        size=tuple(np.maximum(np.array(box.size) * size_jitter, 0.05)),
                        yaw=yaw + yaw_jitter,
                    ),
                    score=score,
                    class_id=class_id,
                    modality=modality,
                )
            )

        num_pts = int(round(lidar_strength * POINTS_PER_STRENGTH))
        token = _visibility_token(camera_strength)
        annotations.append(Annotation(box, class_id, token, num_pts))
        objects.append(
            SceneObject(box, class_id, profile, lidar_strength, camera_strength, token, num_pts)
        )
        if with_points and num_pts > 0:
            local = rng.uniform(-0.5, 0.5, size=(num_pts, 3)) * np.array([w, l, h])
            u, v = box_axes(yaw)
            world = np.empty_like(local)
            world[:, 0] = x + local[:, 0] * u[0] + local[:, 1] * v[0]
            world[:, 1] = y + local[:, 0] * u[1] + local[:, 1] * v[1]
            world[:, 2] = box.center[2] + local[:, 2]
            point_chunks.append(world)

    for _ in range(n_clutter):
        sigma = float(rng.uniform(*CLUTTER_SIGMA))
        cx, cy = place(2.0 * sigma)
        yaw = float(rng.uniform(-math.pi, math.pi))
        gaussian = _gaussian(camera_spec, (cx, cy), sigma, sigma, yaw)
        for bumps, spec in ((lidar_bumps, lidar_spec), (camera_bumps, camera_spec)):
            strength = float(rng.uniform(*CLUTTER_STRENGTH))
            sig = rng.uniform(0.3, 1.0, size=spec.channels)
            bumps.append(Bump(*gaussian, strength * sig))

    points = None
    if with_points:
        points = np.concatenate(point_chunks, axis=0) if point_chunks else np.zeros((0, 3))
    grids = [BevGrid(spec, RenderedRows((spec.height_cells, spec.width_cells, spec.channels),
                                        bumps))
             for spec, bumps in ((camera_spec, camera_bumps), (lidar_spec, lidar_bumps))]
    return Scene(*grids, camera_proposals, lidar_proposals, annotations, objects, points)


def generate_scene(
    config: PipelineConfig,
    seed: int,
    n_objects: int,
    gap_profile: str = "mixed",
    with_points: bool = False,
) -> Scene:
    """Deterministically synthesize one scene: `place_scene`, then both grids rendered whole."""
    scene = place_scene(config, seed, n_objects, gap_profile, with_points)

    def whole(grid: BevGrid) -> BevGrid:
        data = np.zeros(grid.data.shape)
        render_rows(grid.data.bumps, 0, data)
        return BevGrid(grid.spec, data)

    return replace(scene, camera_grid=whole(scene.camera_grid),
                   lidar_grid=whole(scene.lidar_grid))


# The file `write_scene` writes for each `files` entry of a scene manifest,
# points.npy only for a scene with a point cloud, and the manifest's own name.
SCENE_FILE_NAMES = {
    "camera_grid": "camera.bevg",
    "lidar_grid": "lidar.bevg",
    "camera_proposals": "camera_proposals.jsonl",
    "lidar_proposals": "lidar_proposals.jsonl",
    "annotations": "annotations.jsonl",
    "points": "points.npy",
}
MANIFEST_NAME = "manifest.json"
# The `files` entries of a scene manifest that `load_scene` reads.
SCENE_FILES = tuple(SCENE_FILE_NAMES)


def write_scene(scene: Scene, out_dir: str | Path, config: PipelineConfig, seed: int,
                gap_profile: str) -> Path:
    """Persist a scene and return the manifest path.

    The manifest echoes the config's grid specs, so they must be the scene's.
    Each grid file is one `save_grid` call, so a scene from `place_scene` is
    rendered block by block as it is written.
    """
    specs = (config.camera_spec(), config.lidar_spec())
    if specs != (scene.camera_grid.spec, scene.lidar_grid.spec):
        raise ConfigurationError(
            f"config grid specs {specs} do not match the scene's "
            f"{(scene.camera_grid.spec, scene.lidar_grid.spec)}"
        )
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    files = dict(SCENE_FILE_NAMES, points=None)
    check_replaceable(out / files[key] for key in ("camera_grid", "lidar_grid"))  # before writing
    save_grid([(scene.camera_grid, out / files["camera_grid"])])
    save_grid([(scene.lidar_grid, out / files["lidar_grid"])])
    save_proposals(scene.camera_proposals, out / files["camera_proposals"])
    save_proposals(scene.lidar_proposals, out / files["lidar_proposals"])
    save_annotations(scene.annotations, out / files["annotations"])
    if scene.points is not None:
        files["points"] = SCENE_FILE_NAMES["points"]
        save_points(scene.points, out / files["points"])
    manifest = {
        "seed": seed,
        "gap_profile": gap_profile,
        "n_objects": len(scene.objects),
        "grid": {
            "height_cells": config.height_cells,
            "width_cells": config.width_cells,
            "x_range": list(config.x_range),
            "y_range": list(config.y_range),
            "camera_channels": config.camera_channels,
            "lidar_channels": config.lidar_channels,
        },
        "files": files,
        "objects": to_records(scene.objects, OBJECT_FIELDS),
    }
    manifest_path = out / MANIFEST_NAME
    save_json(manifest, manifest_path)
    return manifest_path


def scene_paths(
    manifest_path: str | Path, keys: tuple[str, ...]
) -> tuple[dict, dict[str, Path]]:
    """A scene manifest and the path of each named file it sets, checked to exist.

    Only "points" is optional: when the manifest leaves it unset it is left out.
    """
    manifest_path = Path(manifest_path)
    manifest = load_json(manifest_path)
    if not isinstance(manifest, dict):
        raise DataFormatError(
            f"{manifest_path}: expected a JSON object, got {type(manifest).__name__}"
        )
    if not isinstance(manifest.get("files"), dict):
        raise DataFormatError(f"{manifest_path}: no 'files' object")
    paths = {}
    for key in keys:
        name = manifest["files"].get(key)
        if name is None and key == "points":
            continue
        if not isinstance(name, str):
            raise DataFormatError(
                f"{manifest_path}: files entry {key!r} must be a file name, got {name!r}"
            )
        path = manifest_path.parent / name
        if not path.exists():
            raise DataFormatError(f"manifest references missing file {name!r}")
        paths[key] = path
    return manifest, paths


def load_scene(
    manifest_path: str | Path,
    read_grid: Callable[[str, Path, list[Proposal]], BevGrid] | None = None,
    parsed: tuple[dict, dict[str, Path]] | None = None,
    truth: bool = True,
) -> Scene:
    """Load a scene from its manifest, checking its files against the manifest.

    Both grid headers are checked against the manifest's grid echo before
    any payload is read or any grid allocated; a mismatch names the file
    that disagrees. Each grid is then read into its own contiguous array,
    or, when `read_grid` is given, returned by `read_grid(modality, path,
    proposals)`, camera first. `pipeline.open_scene`'s hook holds the dense
    camera grid only through the refine and the camera extraction, and keeps
    of each grid only the cells the pipeline reads and writes, so `fuse`,
    `match` and `loss` never hold both grids. Each proposal must be of the
    modality its file's manifest entry names.
    `parsed` is `scene_paths(manifest_path, SCENE_FILES)` when the caller has
    read it already. Without `truth`, the annotations and the manifest
    objects are checked alike, with the same messages, but no `Annotation`
    or `SceneObject` is built, and the scene holds None for them.
    """
    manifest, paths = parsed or scene_paths(manifest_path, SCENE_FILES)
    echo = manifest.get("grid")
    if not isinstance(echo, dict):
        raise DataFormatError(f"{manifest_path}: no 'grid' object")
    for key, channels_key in (("camera_grid", "camera_channels"), ("lidar_grid", "lidar_channels")):
        spec = next(grid_blocks(paths[key]))  # the header alone
        if (
            spec.height_cells != echo.get("height_cells")
            or spec.width_cells != echo.get("width_cells")
            or list(spec.x_range) != echo.get("x_range")
            or list(spec.y_range) != echo.get("y_range")
            or spec.channels != echo.get(channels_key)
        ):
            raise DataFormatError(
                f"grid header of {manifest['files'][key]!r} "
                "does not match the manifest's grid spec"
            )
    proposals = {m: load_proposals(paths[f"{m}_proposals"]) for m in ("camera", "lidar")}
    for modality, records in proposals.items():
        for i, p in enumerate(records):
            if p.modality != modality:
                raise DataFormatError(f"{paths[f'{modality}_proposals']}: record {i}: modality "
                                      f"must be {modality!r}, got {p.modality!r}")
    read_grid = read_grid or (lambda modality, path, records: load_grid(path))
    camera_grid, lidar_grid = (read_grid(m, paths[f"{m}_grid"], proposals[m])
                               for m in ("camera", "lidar"))
    points = load_points(paths["points"]) if "points" in paths else None
    records = manifest.get("objects", [])
    if not isinstance(records, list):
        raise DataFormatError(f"{manifest_path}: 'objects' must be a list, "
                              f"got {type(records).__name__}")
    objects = read_records(SceneObject, OBJECT_FIELDS, manifest_path, records,
                           check_only=not truth)
    annotations = read_records(Annotation, ANNOTATION_FIELDS, paths["annotations"],
                               check_only=not truth)
    return Scene(camera_grid, lidar_grid, proposals["camera"], proposals["lidar"], annotations,
                 objects, points)


def _cell_energy(spec: GridSpec, blocks) -> np.ndarray:
    """Per-cell L2 norm across channels from `(first_row, rows)` blocks.

    Each row is squared in f64, so f32 rows give the energy of their f64 cast.
    """
    energy = np.empty((spec.height_cells, spec.width_cells))
    for r, block in blocks:
        for i, row in enumerate(block):
            energy[r + i] = np.sqrt(np.square(row, dtype=np.float64).sum(axis=1))
    return energy


def cell_energy(grid: BevGrid) -> np.ndarray:
    """Per-cell L2 norm across channels, as an H x W array.

    Computed row by row, so no full-grid squared temporary is held.
    """
    return _cell_energy(grid.spec, [(0, grid.data)])


def read_cell_energy(path: str | Path) -> tuple[np.ndarray, GridSpec]:
    """`cell_energy` of a grid file and its spec, without holding the grid.

    The payload is read in f32 blocks of rows with `load_grid`'s checks and
    messages; the energy equals `cell_energy(load_grid(path))` bit for bit.
    """
    blocks = grid_blocks(path)
    spec = next(blocks)
    return _cell_energy(spec, blocks), spec


def _grow_support(windows: np.ndarray, levels: np.ndarray) -> np.ndarray:
    """Mask of each window's cells >= its level and 4-connected to its center."""
    inside = windows >= levels[:, None, None]
    region = np.zeros_like(inside)
    region[:, SUPPORT_HALF_WIDTH, SUPPORT_HALF_WIDTH] = True
    while True:  # masked 4-neighbour dilation until nothing changes
        grown = region.copy()
        grown[:, 1:] |= region[:, :-1]
        grown[:, :-1] |= region[:, 1:]
        grown[:, :, 1:] |= region[:, :, :-1]
        grown[:, :, :-1] |= region[:, :, 1:]
        grown &= inside
        if np.array_equal(grown, region):
            return region
        region = grown


def energy_peak_detections(
    energy: np.ndarray, spec: GridSpec, max_peaks: int | None = None
) -> list[Detection]:
    """Read detections off a grid's energy map as strict local maxima.

    `energy` is the H x W per-cell L2 norm across channels (`cell_energy`,
    or `read_cell_energy` of a file) over the window of `spec`. The map's
    median is subtracted as a floor. Peaks are ranked by residual energy and
    capped at `max_peaks` (0 keeps none). Each yields a box read from its
    support region, found for all peaks at once: the residual-weighted
    centroid gives the center, the support's principal axes the yaw, and
    extent = 2.4 * sqrt(binary-PCA eigenvalue) inverts the quarter-max cut of
    a Gaussian bump whose std is the half extent. Scores are residuals
    normalized by the scene maximum.
    """
    if max_peaks is not None and max_peaks < 0:
        raise ConfigurationError(f"max_peaks must be >= 0, got {max_peaks}")
    h, w = energy.shape
    k = SUPPORT_HALF_WIDTH
    residual = np.maximum(energy - float(np.median(energy)), 0.0)
    # Outside the grid is -inf: below every peak and every support level.
    padded = np.full((h + 2 * k, w + 2 * k), -np.inf)
    padded[k:-k, k:-k] = residual
    is_peak = residual >= MIN_PEAK_ENERGY
    for dr in (-1, 0, 1):
        for dc in (-1, 0, 1):
            if dr or dc:
                is_peak &= residual > padded[k + dr : k + dr + h, k + dc : k + dc + w]
    rows, cols = np.nonzero(is_peak)
    if rows.size == 0:
        return []
    peaks = residual[rows, cols]
    scores = peaks / peaks.max()
    order = np.argsort(-peaks, kind="stable")[:max_peaks]
    windows = sliding_window_view(padded, (2 * k + 1, 2 * k + 1))
    offsets = np.arange(-k, k + 1)
    detections = []
    for start in range(0, len(order), _PEAK_CHUNK):
        chunk = order[start : start + _PEAK_CHUNK]
        r, c = rows[chunk], cols[chunk]
        window = windows[r, c]
        region = _grow_support(window, SUPPORT_LEVEL * peaks[chunk])
        # x follows the window's columns and y its rows, so every sum over a
        # region's cells is a sum over its column or row totals.
        xs, ys = grid_to_world((r[:, None] + offsets, c[:, None] + offsets), spec)
        weights = np.where(region, window, 0.0)
        wsum = weights.sum(axis=(1, 2))
        cx = (weights.sum(axis=1) * xs).sum(axis=1) / wsum
        cy = (weights.sum(axis=2) * ys).sum(axis=1) / wsum
        n_col, n_row = region.sum(axis=1), region.sum(axis=2)
        n = n_col.sum(axis=1)
        dx = xs - (n_col * xs).sum(axis=1, keepdims=True) / n[:, None]
        dy = ys - (n_row * ys).sum(axis=1, keepdims=True) / n[:, None]
        cxx, cyy = (n_col * dx * dx).sum(axis=1) / n, (n_row * dy * dy).sum(axis=1) / n
        cxy = np.einsum("pij,pi,pj->p", region, dy, dx) / n
        eigvals, eigvecs = np.linalg.eigh(np.stack([cxx, cxy, cxy, cyy], 1).reshape(-1, 2, 2))
        extents = np.clip(2.4 * np.sqrt(np.maximum(eigvals, 0.0)), 0.5, 20.0)
        # A one-cell region has a zero covariance: smallest extents, and yaw 0.
        yaws = np.where(n < 2, 0.0, np.arctan2(eigvecs[:, 1, 1], eigvecs[:, 0, 1]))
        for x, y, (extent_l, extent_w), yaw, score in zip(
            cx.tolist(), cy.tolist(), extents.tolist(), yaws.tolist(), scores[chunk].tolist()
        ):
            box = Box3D(center=(x, y, 1.0), size=(extent_w, extent_l, 2.0), yaw=yaw)
            detections.append(Detection(box, READOUT_CLASS, score))
    return detections
