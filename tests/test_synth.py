"""Scene generator determinism, bookkeeping, and the readout detector."""

import json
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from numpy.lib.stride_tricks import sliding_window_view

from dualguide.config import PipelineConfig
from dualguide.enhance import fuse_grids
from dualguide import formats
from dualguide.errors import ConfigurationError, ContractError, DataFormatError
from dualguide.formats import load_grid, save_grid
from dualguide.geometry import Box3D, points_in_box
from dualguide.grid import BevGrid, GridSpec, grid_to_world
from dualguide.matching import match_pairs
from dualguide.instances import build_instances
from dualguide.metrics import Detection
from dualguide.cli import main
from dualguide.synth import (
    CLASS_SIZES,
    POINTS_PER_STRENGTH,
    READOUT_CLASS,
    Bump,
    _cell_energy,
    _grow_support,
    cell_energy,
    energy_peak_detections,
    generate_scene,
    load_scene,
    place_scene,
    read_cell_energy,
    render_rows,
    write_scene,
)

from test_geometry import rotated_iou_2d

SMALL = PipelineConfig(
    height_cells=96,
    width_cells=96,
    x_range=(-28.8, 28.8),
    y_range=(-28.8, 28.8),
    camera_channels=6,
    lidar_channels=8,
)


def readout(grid, max_peaks=None):
    """The energy readout of an in-memory grid."""
    return energy_peak_detections(cell_energy(grid), grid.spec, max_peaks)


class TestGenerateScene:
    def test_zero_objects_gives_empty_zero_scene(self):
        scene = generate_scene(SMALL, seed=1, n_objects=0)
        assert not scene.camera_grid.data.any()
        assert not scene.lidar_grid.data.any()
        assert scene.camera_proposals == [] and scene.lidar_proposals == []
        assert scene.annotations == [] and scene.objects == []

    def test_same_seed_bit_identical_files(self, tmp_path):
        for run in ("a", "b"):
            scene = generate_scene(SMALL, seed=7, n_objects=10, with_points=True)
            write_scene(scene, tmp_path / run, SMALL, 7, "mixed")
        for name in (
            "camera.bevg", "lidar.bevg", "camera.bevg.json",
            "camera_proposals.jsonl", "lidar_proposals.jsonl",
            "annotations.jsonl", "points.npy", "manifest.json",
        ):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_different_seeds_differ(self):
        a = generate_scene(SMALL, seed=1, n_objects=5)
        b = generate_scene(SMALL, seed=2, n_objects=5)
        assert not np.array_equal(a.camera_grid.data, b.camera_grid.data)

    def test_all_easy_scene_matches_completely(self):
        scene = generate_scene(SMALL, seed=3, n_objects=10, gap_profile="easy")
        camera = build_instances(scene.camera_grid, scene.camera_proposals, 0.7)
        lidar = build_instances(scene.lidar_grid, scene.lidar_proposals, 0.7)
        sets = match_pairs(lidar, camera, 0.7, "cbgs_groups")
        assert len(sets.easy) == 10
        assert sets.camera_hard == [] and sets.lidar_hard == []

    def test_annotation_bookkeeping_consistent(self):
        scene = generate_scene(SMALL, seed=4, n_objects=12, gap_profile="mixed")
        assert len(scene.annotations) == 12
        for ann, obj in zip(scene.annotations, scene.objects):
            assert ann.num_lidar_pts == int(round(obj.lidar_strength * POINTS_PER_STRENGTH))
            if obj.camera_strength >= 0.8:
                assert ann.visibility_token == 4
            elif obj.camera_strength < 0.4:
                assert ann.visibility_token in (1,)
            assert SMALL.camera_spec().contains(ann.box.center[0], ann.box.center[1])

    def test_gap_profile_drives_scores(self):
        scene = generate_scene(SMALL, seed=5, n_objects=10, gap_profile="lidar-hole")
        for p in scene.lidar_proposals:
            assert p.score < 0.2
        for p in scene.camera_proposals:
            assert p.score > 0.6

    def test_ground_truth_footprints_disjoint(self):
        scene = generate_scene(SMALL, seed=6, n_objects=12)
        boxes = [a.box for a in scene.annotations]
        for i in range(len(boxes)):
            for j in range(i + 1, len(boxes)):
                assert rotated_iou_2d(boxes[i], boxes[j]) == 0.0

    @pytest.mark.parametrize("seed, placed", [
        (1, "placed 2 of 4 objects"),
        (2, "placed all 4 objects and 3 of 4 clutter bumps"),
    ])
    def test_crowded_window_says_what_was_placed(self, seed, placed):
        tiny = PipelineConfig(height_cells=32, width_cells=32, x_range=(-9.6, 9.6),
                              y_range=(-9.6, 9.6), camera_channels=2, lidar_channels=2)
        with pytest.raises(ConfigurationError, match=f"^window too crowded: {placed} before"):
            generate_scene(tiny, seed=seed, n_objects=4)

    def test_points_match_stored_counts(self):
        scene = generate_scene(SMALL, seed=8, n_objects=10, with_points=True)
        assert scene.points is not None
        for ann in scene.annotations:
            assert points_in_box(scene.points, ann.box) == ann.num_lidar_pts
        assert len(scene.points) == sum(a.num_lidar_pts for a in scene.annotations)


class TestSceneIo:
    def test_write_load_roundtrip(self, tmp_path):
        scene = generate_scene(SMALL, seed=9, n_objects=6, with_points=True)
        manifest_path = write_scene(scene, tmp_path, SMALL, 9, "mixed")
        back = load_scene(manifest_path)
        assert json.loads(manifest_path.read_text())["seed"] == 9
        assert back.camera_proposals == scene.camera_proposals
        assert back.lidar_proposals == scene.lidar_proposals
        assert back.annotations == scene.annotations
        assert back.objects == scene.objects
        assert np.array_equal(back.points, scene.points)
        # Grid data survives the f32 round trip.
        assert np.allclose(back.camera_grid.data, scene.camera_grid.data, atol=1e-6)

    def test_missing_file_rejected(self, tmp_path):
        scene = generate_scene(SMALL, seed=10, n_objects=3)
        manifest_path = write_scene(scene, tmp_path, SMALL, 10, "mixed")
        (tmp_path / "annotations.jsonl").unlink()
        with pytest.raises(DataFormatError, match="missing file"):
            load_scene(manifest_path)

    def test_config_disagreeing_with_grids_writes_nothing(self, tmp_path):
        # The manifest echoes the config's specs; a mismatch would write a
        # scene that its own loader rejects.
        scene = generate_scene(SMALL, seed=7, n_objects=3)
        with pytest.raises(ConfigurationError, match="do not match the scene"):
            write_scene(scene, tmp_path, PipelineConfig(), 7, "mixed")
        assert list(tmp_path.iterdir()) == []

    def test_header_mismatch_rejected(self, tmp_path):
        scene = generate_scene(SMALL, seed=11, n_objects=3)
        manifest_path = write_scene(scene, tmp_path, SMALL, 11, "mixed")
        wrong = BevGrid.zeros(GridSpec(10, 10, 6, (0.0, 6.0), (0.0, 6.0)))
        save_grid([(wrong, tmp_path / "camera.bevg")])
        with pytest.raises(DataFormatError, match="manifest"):
            load_scene(manifest_path)

    @pytest.mark.parametrize("key, name", [("camera_channels", "camera.bevg"),
                                           ("lidar_channels", "lidar.bevg")])
    def test_header_mismatch_names_the_one_file(self, tmp_path, key, name):
        scene = generate_scene(SMALL, seed=11, n_objects=3)
        manifest_path = write_scene(scene, tmp_path, SMALL, 11, "mixed")
        manifest = json.loads(manifest_path.read_text())
        manifest["grid"][key] += 1
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(DataFormatError) as err:
            load_scene(manifest_path)
        assert str(err.value) == f"grid header of {name!r} does not match the manifest's grid spec"

    @pytest.mark.parametrize("command", ["load_scene", "fuse"])
    def test_a_record_fault_is_found_before_a_grid_payload_fault(self, tmp_path, capsys,
                                                                command):
        # Every record is checked before any grid payload is read.
        scene = generate_scene(SMALL, seed=12, n_objects=3)
        manifest_path = write_scene(scene, tmp_path, SMALL, 12, "mixed")
        scene.camera_grid.data[0, 0, 0] = np.nan
        save_grid([(scene.camera_grid, tmp_path / "camera.bevg")])
        with pytest.raises(DataFormatError, match=r"camera\.bevg: 1 non-finite grid values"):
            load_scene(manifest_path)
        (tmp_path / "annotations.jsonl").write_text("not json\n")
        want = f"{tmp_path / 'annotations.jsonl'}:1: invalid JSON"
        if command == "fuse":
            assert main(["fuse", "--scene", str(manifest_path),
                         "--out", str(tmp_path / "out")]) == 2
            assert want in capsys.readouterr().err
        else:
            with pytest.raises(DataFormatError, match=r"annotations\.jsonl:1: invalid JSON"):
                load_scene(manifest_path)

    def test_huge_manifest_grid_fails_before_any_grid_is_allocated(self, tmp_path):
        scene = generate_scene(SMALL, seed=11, n_objects=3)
        manifest_path = write_scene(scene, tmp_path, SMALL, 11, "mixed")
        manifest = json.loads(manifest_path.read_text())
        manifest["grid"].update(height_cells=100_000, width_cells=100_000)
        manifest_path.write_text(json.dumps(manifest))
        tracemalloc.start()
        try:
            with pytest.raises(DataFormatError, match="'camera.bevg' does not match"):
                load_scene(manifest_path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < scene.camera_grid.data.nbytes / 4


def imprint_oracle(bumps, shape) -> np.ndarray:
    """A grid rendered the way scenes were imprinted: one whole-bump add each."""
    grid = np.zeros(shape)
    for b in bumps:
        rows, cols = b.g.shape
        grid[b.row_lo : b.row_lo + rows, b.col_lo : b.col_lo + cols] += (
            b.g[:, :, None] * b.amplitude[None, None, :]
        )
    return grid


@st.composite
def bumps_and_cuts(draw):
    """Bumps over a small grid (clipped ones, empty ones, zeros), and row cuts."""
    h, w, c = draw(st.integers(1, 12)), draw(st.integers(1, 6)), draw(st.integers(1, 4))
    bumps = []
    for _ in range(draw(st.integers(0, 6))):
        row_lo, col_lo = draw(st.integers(0, h - 1)), draw(st.integers(0, w - 1))
        rows, cols = draw(st.integers(0, h - row_lo)), draw(st.integers(0, w - col_lo))
        g = draw(hnp.arrays(np.float64, (rows, cols), elements=st.floats(0.0, 1.0)))
        amplitude = draw(hnp.arrays(np.float64, c, elements=st.floats(-2.0, 2.0)))
        bumps.append(Bump(row_lo, col_lo, g, amplitude))
    cuts = sorted(draw(st.sets(st.integers(1, h - 1)))) if h > 1 else []
    return (h, w, c), bumps, cuts


class TestRenderRows:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(bumps_and_cuts())
    def test_any_row_split_renders_the_same_bits(self, case):
        shape, bumps, cuts = case
        whole = np.zeros(shape)
        render_rows(bumps, 0, whole)
        assert whole.tobytes() == imprint_oracle(bumps, shape).tobytes()
        split = np.zeros(shape)
        for lo, hi in zip([0, *cuts], [*cuts, shape[0]]):
            render_rows(bumps, lo, split[lo:hi])
        assert split.tobytes() == whole.tobytes()

    @pytest.mark.parametrize("seed", [0, 1])
    def test_scene_grids_equal_the_imprint_oracle(self, seed):
        placed = place_scene(SMALL, seed, 10)
        scene = generate_scene(SMALL, seed, 10)
        for grid, bumps in ((scene.camera_grid, placed.camera_grid.data.bumps),
                            (scene.lidar_grid, placed.lidar_grid.data.bumps)):
            assert grid.data.tobytes() == imprint_oracle(bumps, grid.data.shape).tobytes()
        with pytest.raises(ContractError, match="only a dense grid copies"):
            placed.camera_grid.copy()  # its rows are rendered only as they are read


DEEP = PipelineConfig(camera_channels=80, lidar_channels=128)
SMALL_ROW = 96 * 8 * 4  # bytes of one f32 row of a SMALL LiDAR grid


class TestGenFiles:
    """`gen` renders its grid files in row blocks, with `write_scene`'s bytes."""

    @pytest.mark.parametrize("config, seed, n_objects, points, block_bytes", [
        (SMALL, 0, 10, False, 5 * SMALL_ROW),
        (SMALL, 1, 10, True, 7 * SMALL_ROW),
        (SMALL, 2, 14, True, 16 * SMALL_ROW),
        (PipelineConfig(), 3, 60, False, formats._GRID_BLOCK_BYTES),
        (PipelineConfig(), 4, 60, True, formats._GRID_BLOCK_BYTES),
        (DEEP, 5, 60, False, formats._GRID_BLOCK_BYTES),
        (DEEP, 6, 12, True, formats._GRID_BLOCK_BYTES),
    ])
    def test_gen_writes_the_bytes_of_write_scene(self, tmp_path, config, seed, n_objects,
                                                 points, block_bytes):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({
            "height_cells": config.height_cells, "width_cells": config.width_cells,
            "x_range": list(config.x_range), "y_range": list(config.y_range),
            "camera_channels": config.camera_channels, "lidar_channels": config.lidar_channels,
        }))
        argv = ["gen", "--seed", str(seed), "--objects", str(n_objects),
                "--config", str(config_path), "--out", str(tmp_path / "gen")]
        with mock.patch.object(formats, "_GRID_BLOCK_BYTES", block_bytes):
            assert main(argv + ["--points"] * points) == 0
            spec_rows = [formats._rows_per_block(spec)
                         for spec in (config.camera_spec(), config.lidar_spec())]
        scene = generate_scene(config, seed, n_objects, with_points=points)
        write_scene(scene, tmp_path / "ref", config, seed, "mixed")
        written = {p.name: p.read_bytes() for p in (tmp_path / "gen").iterdir()}
        assert written == {p.name: p.read_bytes() for p in (tmp_path / "ref").iterdir()}
        assert ("points.npy" in written) == points

        # The case has bumps that row blocks cut and bumps that the window clips.
        placed = place_scene(config, seed, n_objects, with_points=points)
        h, w = config.height_cells, config.width_cells
        for bumps, rows in zip((placed.camera_grid.data.bumps, placed.lidar_grid.data.bumps),
                               spec_rows):
            spans = [(b.row_lo, b.row_lo + b.g.shape[0]) for b in bumps]
            assert any(lo // rows != (hi - 1) // rows for lo, hi in spans)
            assert any(b.row_lo == 0 or b.col_lo == 0 or b.row_lo + b.g.shape[0] == h
                       or b.col_lo + b.g.shape[1] == w for b in bumps)


def row_energy(spec: GridSpec, blocks) -> np.ndarray:
    """`_cell_energy` one row at a time: the reference for its steps of several rows."""
    energy = np.empty((spec.height_cells, spec.width_cells))
    for r, block in blocks:
        for i, row in enumerate(block):
            energy[r + i] = np.sqrt(np.square(row, dtype=np.float64).sum(axis=1))
    return energy


@st.composite
def energy_blocks(draw):
    """A grid's spec and its rows cut into `(first_row, rows)` blocks, f32 as read or f64."""
    h, w = draw(st.integers(1, 12)), draw(st.sampled_from((1, 2, 3, 5)))
    c = draw(st.sampled_from((1, 2, 9, 16, 33)))
    dtype = draw(st.sampled_from((np.float32, np.float64)))
    data = draw(hnp.arrays(dtype, (h, w, c), elements=st.floats(-1e6, 1e6, width=32)))
    cuts = sorted(draw(st.sets(st.integers(1, h - 1)))) if h > 1 else []
    bounds = [0, *cuts, h]
    return GridSpec(h, w, c), [(lo, data[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]


class TestEnergyPeakDetector:
    def test_empty_grid_yields_nothing(self):
        grid = BevGrid.zeros(SMALL.camera_spec())
        assert readout(grid) == []

    def test_single_object_recovered(self):
        # One object plus one clutter blob; some detection must cover the
        # object's footprint even when clutter takes the top slot.
        scene = generate_scene(SMALL, seed=12, n_objects=1, gap_profile="easy")
        dets = readout(scene.camera_grid)
        ann = scene.annotations[0]
        best = max(rotated_iou_2d(d.box, ann.box) for d in dets)
        assert best >= 0.3
        assert dets[0].score == 1.0

    def test_peak_cap_respected(self):
        scene = generate_scene(SMALL, seed=13, n_objects=8, gap_profile="easy")
        dets = readout(scene.camera_grid, max_peaks=5)
        assert len(dets) <= 5

    def test_scores_sorted_and_normalized(self):
        scene = generate_scene(SMALL, seed=14, n_objects=8)
        dets = readout(scene.lidar_grid)
        scores = [d.score for d in dets]
        assert scores == sorted(scores, reverse=True)
        assert scores[0] == 1.0
        assert all(0.0 < s <= 1.0 for s in scores)

    def test_cell_energy_equals_full_grid_expression(self):
        scene = generate_scene(SMALL, seed=16, n_objects=8)
        fused = fuse_grids(scene.camera_grid, scene.lidar_grid)
        camera_view = BevGrid(scene.camera_grid.spec, fused.data[:, :, SMALL.lidar_channels:])
        for grid in (scene.camera_grid, fused, camera_view):
            assert np.array_equal(cell_energy(grid), np.sqrt((grid.data**2).sum(axis=2)))

    def test_deterministic(self):
        scene = generate_scene(SMALL, seed=15, n_objects=6)
        a = readout(scene.camera_grid)
        b = readout(scene.camera_grid)
        assert a == b

    def test_file_energy_equals_energy_of_the_loaded_grid(self, tmp_path):
        scene = generate_scene(SMALL, seed=16, n_objects=8)
        path = tmp_path / "fused.bevg"
        save_grid([(fuse_grids(scene.camera_grid, scene.lidar_grid), path)])
        # 96 rows of 96 x 14 f32 cells: blocks of 7 rows, the last one of 5.
        with mock.patch.object(formats, "_GRID_BLOCK_BYTES", 7 * 96 * 14 * 4):
            energy, spec = read_cell_energy(path)
        grid = load_grid(path)
        assert spec == grid.spec
        assert np.array_equal(energy, cell_energy(grid))
        assert readout(grid) == energy_peak_detections(energy, spec)

    def test_file_energy_holds_no_grid(self, tmp_path):
        # 180 x 180 x 104 cells: 27 MB of f64 against 1 MB blocks of f32.
        spec = GridSpec(180, 180, 104, (-54.0, 54.0), (-54.0, 54.0))
        path = tmp_path / "big.bevg"
        save_grid([(BevGrid(spec, np.ones((180, 180, 104))), path)])
        tracemalloc.start()
        try:
            energy, _ = read_cell_energy(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.array_equal(energy, np.full((180, 180), math.sqrt(104)))
        assert peak <= 0.1 * 180 * 180 * 104 * 8

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(energy_blocks(), st.one_of(st.none(), st.integers(1, 200)))
    def test_multi_row_steps_equal_the_row_loop(self, case, budget):
        spec, blocks = case
        if budget is None:
            energy = _cell_energy(spec, blocks)
        else:
            with mock.patch("dualguide.synth._ENERGY_STEP_VALUES", budget):
                energy = _cell_energy(spec, blocks)
        assert energy.tobytes() == row_energy(spec, blocks).tobytes()


def oracle_support_region(residual: np.ndarray, peak: tuple[int, int], level: float,
                          half_width: int = 8) -> list[tuple[int, int]]:
    """Cells >= level, flood-filled (4-connected) from the peak, window-limited."""
    h, w = residual.shape
    r0, c0 = peak
    r_lo, r_hi = max(r0 - half_width, 0), min(r0 + half_width + 1, h)
    c_lo, c_hi = max(c0 - half_width, 0), min(c0 + half_width + 1, w)
    seen = {(r0, c0)}
    stack = [(r0, c0)]
    cells = []
    while stack:
        r, c = stack.pop()
        cells.append((r, c))
        for dr, dc in ((-1, 0), (1, 0), (0, -1), (0, 1)):
            nr, nc = r + dr, c + dc
            if (
                r_lo <= nr < r_hi
                and c_lo <= nc < c_hi
                and (nr, nc) not in seen
                and residual[nr, nc] >= level
            ):
                seen.add((nr, nc))
                stack.append((nr, nc))
    return cells


def boolean_grow_support(windows: np.ndarray, levels: np.ndarray) -> np.ndarray:
    """Masked 4-neighbour dilation of (P, 17, 17) booleans from each window's center
    until nothing changes: the reference for `_grow_support`'s packed rows."""
    inside = windows >= levels[:, None, None]
    region = np.zeros_like(inside)
    region[:, 8, 8] = True
    while True:
        grown = region.copy()
        grown[:, 1:] |= region[:, :-1]
        grown[:, :-1] |= region[:, 1:]
        grown[:, :, 1:] |= region[:, :, :-1]
        grown[:, :, :-1] |= region[:, :, 1:]
        grown &= inside
        if np.array_equal(grown, region):
            return region
        region = grown


def serpentine(mirror: bool, transpose: bool) -> np.ndarray:
    """A 17 x 17 snake through the center: the even rows, linked at alternating ends.

    Its 161 cells reach about 80 steps from the center, so growing the
    region takes far more passes than the window is wide.
    """
    mask = np.zeros((17, 17), dtype=bool)
    mask[::2] = True
    mask[1::4, -1 if mirror else 0] = True
    mask[3::4, 0 if mirror else -1] = True
    return mask.T if transpose else mask


@st.composite
def support_windows(draw):
    """Windows and levels: seeded random cells (integer levels make plateaus), -inf
    padding beyond up to two grid edges as the readout pads, or serpentine masks."""
    n = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        windows, levels = (rng.integers(0, 5, size=shape).astype(float) for shape in ((n, 17, 17), n))
    else:
        windows, levels = (rng.uniform(0.0, 10.0, size=shape) for shape in ((n, 17, 17), n))
    for window in windows:
        kind = draw(st.sampled_from(("random", "padded", "serpentine")))
        if kind == "padded":
            rows, cols = draw(st.integers(0, 8)), draw(st.integers(0, 8))
            window[slice(0, rows) if draw(st.booleans()) else slice(17 - rows, 17)] = -np.inf
            window[:, slice(0, cols) if draw(st.booleans()) else slice(17 - cols, 17)] = -np.inf
        elif kind == "serpentine":
            snake = serpentine(draw(st.booleans()), draw(st.booleans()))
            window[:] = np.where(snake, 11.0, -np.inf if draw(st.booleans()) else -1.0)
    return windows, levels


class TestPackedGrowth:
    """`_grow_support` on packed window rows against the boolean dilation."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(support_windows())
    def test_packed_growth_equals_boolean_dilation(self, case):
        windows, levels = case
        region = _grow_support(windows, levels)
        assert region.dtype == bool and region.shape == windows.shape
        assert np.array_equal(region, boolean_grow_support(windows, levels))

    def test_serpentine_regions_grow_to_every_cell(self):
        snakes = np.stack([serpentine(m, t) for m in (False, True) for t in (False, True)])
        region = _grow_support(np.where(snakes, 1.0, 0.0), np.full(4, 0.5))
        assert np.array_equal(region, snakes)


def oracle_peaks(grid, max_peaks=None, min_energy=1e-6):
    """The residual, the ranked and capped peak rows and columns, and the top residual."""
    energy = cell_energy(grid)
    h, w = energy.shape
    residual = np.maximum(energy - float(np.median(energy)), 0.0)
    padded = np.full((h + 2, w + 2), -np.inf)
    padded[1:-1, 1:-1] = residual
    center = padded[1:-1, 1:-1]
    is_peak = residual >= min_energy
    for dr in (-1, 0, 1):
        for dc in (-1, 0, 1):
            if dr == 0 and dc == 0:
                continue
            is_peak &= center > padded[1 + dr : 1 + dr + h, 1 + dc : 1 + dc + w]
    rows, cols = np.nonzero(is_peak)
    if rows.size == 0:
        return residual, rows, cols, None
    order = np.argsort(-residual[rows, cols], kind="stable")
    if max_peaks is not None:
        order = order[:max_peaks]
    top = float(residual[rows, cols].max())
    return residual, rows[order], cols[order], top


def oracle_detections(grid, max_peaks=None):
    """The scalar readout: a flood fill, a centroid and a PCA per peak."""
    residual, rows, cols, top = oracle_peaks(grid, max_peaks)
    detections = []
    for r, c in zip(rows.tolist(), cols.tolist()):
        cells = oracle_support_region(residual, (r, c), 0.25 * residual[r, c])
        cell_rows, cell_cols = np.array(cells).T
        weights = residual[cell_rows, cell_cols]
        xs, ys = grid_to_world((cell_rows, cell_cols), grid.spec)
        wsum = weights.sum()
        cx = float((weights * xs).sum() / wsum)
        cy = float((weights * ys).sum() / wsum)
        if len(cells) < 2:
            extent_w = extent_l = 0.5
            yaw = 0.0
        else:
            dx = xs - xs.mean()
            dy = ys - ys.mean()
            cov = np.array(
                [
                    [float((dx * dx).mean()), float((dx * dy).mean())],
                    [float((dx * dy).mean()), float((dy * dy).mean())],
                ]
            )
            eigvals, eigvecs = np.linalg.eigh(cov)
            principal = eigvecs[:, 1]
            yaw = math.atan2(principal[1], principal[0])
            extent_w = float(np.clip(2.4 * math.sqrt(max(eigvals[1], 0.0)), 0.5, 20.0))
            extent_l = float(np.clip(2.4 * math.sqrt(max(eigvals[0], 0.0)), 0.5, 20.0))
        detections.append(
            Detection(
                box=Box3D(center=(cx, cy, 1.0), size=(extent_w, extent_l, 2.0), yaw=yaw),
                class_id=READOUT_CLASS,
                score=float(residual[r, c] / top),
            )
        )
    return detections


@st.composite
def readout_grids(draw):
    """Small grids whose peaks often sit near an edge; integer levels make plateaus."""
    h, w, c = draw(st.integers(1, 24)), draw(st.integers(1, 24)), draw(st.integers(1, 2))
    level = st.integers(0, 4).map(float) if draw(st.booleans()) else st.floats(0.0, 10.0)
    data = draw(hnp.arrays(np.float64, (h, w, c), elements=level))
    return BevGrid(GridSpec(h, w, c, (-0.6 * w, 0.0), (1.0, 1.0 + 0.5 * h)), data)


def assert_matches_oracle(grid, max_peaks):
    residual, rows, cols, _ = oracle_peaks(grid, max_peaks)
    padded = np.pad(residual, 8, constant_values=-np.inf)
    windows = sliding_window_view(padded, (17, 17))[rows, cols]
    region = _grow_support(windows, 0.25 * residual[rows, cols])
    for (r, c), mask in zip(zip(rows.tolist(), cols.tolist()), region):
        cells = {(r - 8 + i, c - 8 + j) for i, j in np.argwhere(mask).tolist()}
        assert cells == set(oracle_support_region(residual, (r, c), 0.25 * residual[r, c]))

    got = readout(grid, max_peaks)
    want = oracle_detections(grid, max_peaks)
    assert len(got) == len(want) == len(rows)
    for g, o in zip(got, want):
        assert g.score == o.score and g.class_id == o.class_id
        assert np.allclose(g.box.center, o.box.center, rtol=0.0, atol=1e-9)
        assert np.allclose(g.box.size, o.box.size, rtol=0.0, atol=1e-9)
        turn = (g.box.yaw - o.box.yaw) % math.pi
        assert min(turn, math.pi - turn) <= 1e-9 or abs(o.box.size[0] - o.box.size[1]) <= 1e-9


class TestReadoutOracle:
    """The array readout against the scalar flood fill it replaced."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(readout_grids(), st.one_of(st.none(), st.integers(0, 12)))
    def test_cells_and_boxes_match_scalar_readout(self, grid, max_peaks):
        assert_matches_oracle(grid, max_peaks)

    @pytest.mark.parametrize("seed", [12, 14])
    def test_scene_grids_match_scalar_readout(self, seed):
        scene = generate_scene(SMALL, seed=seed, n_objects=10)
        fused = fuse_grids(scene.camera_grid, scene.lidar_grid)
        for grid in (scene.camera_grid, scene.lidar_grid, fused):
            assert_matches_oracle(grid, None)

    def test_many_peaks_span_several_batches(self):
        grid = BevGrid(GridSpec(60, 60, 2, (0.0, 36.0), (0.0, 36.0)),
                       np.random.default_rng(0).normal(size=(60, 60, 2)))
        assert_matches_oracle(grid, None)

    def test_negative_cap_rejected_and_zero_keeps_none(self):
        scene = generate_scene(SMALL, seed=13, n_objects=4)
        with pytest.raises(ConfigurationError, match="max_peaks must be >= 0, got -1"):
            readout(scene.camera_grid, max_peaks=-1)
        assert readout(scene.camera_grid, max_peaks=0) == []


class TestClassSizes:
    def test_table_covers_taxonomy(self):
        assert len(CLASS_SIZES) == 10
        for w, l, h in CLASS_SIZES:
            assert w > 0 and l > 0 and h > 0
