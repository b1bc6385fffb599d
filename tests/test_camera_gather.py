"""`fuse`, `match` and `loss --scene` hold the dense camera grid only through the refine.

`open_scene` reads `camera.bevg` whole through one handle, refines it and
extracts the camera instances, keeps only the bilinear corners of each
instance center (the cells the Point-guide-Image enhancement reads and
writes), and drops the array before the LiDAR gather. `fuse` reads the
camera rows again through that handle, with the written cells rounded in.
Every artifact must equal the dense library path's: `load_scene` ->
`camera_instances` -> `run_fusion` (or `run_matching`) -> `save_grid` x3 ->
`save_pair_sets`.
"""

import json
import math
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualguide import formats, pipeline
from dualguide.cli import main
from dualguide.config import PipelineConfig
from dualguide.enhance import nearest_cell
from dualguide.geometry import Box3D
from dualguide.grid import BevGrid, GatheredCells, GridSpec, bilinear_corners, world_to_grid
from dualguide.instances import Proposal
from dualguide.losses import pair_cosine_loss
from dualguide.synth import Scene, load_scene, write_scene

from test_lidar_gather import (  # noqa: F401 (handmade is a fixture)
    HEADER_BYTES,
    SMALL,
    assert_cli_matches_dense,
    handmade,
    steps,
    windows,
)


def dense_cosine(manifest, config=PipelineConfig()):
    """The cosine term `loss --scene` reports, from the dense library path."""
    scene = load_scene(manifest)
    instances = pipeline.camera_instances(scene.camera_grid, scene.camera_proposals, config)
    pairs = pipeline.run_matching(instances, scene.lidar_grid, scene.lidar_proposals, config)
    return pair_cosine_loss(pairs.easy, *pipeline.build_projections(
        config, scene.camera_grid.spec.channels, scene.lidar_grid.spec.channels,
        "lidar_squeeze", "camera_squeeze"))


def assert_all_commands_match_dense(manifest, root):
    """`fuse`, `match` and `loss --scene` give the dense path's bytes and cosine; its pairs."""
    pairs = assert_cli_matches_dense(manifest, root)
    (root / "loss.json").write_text(json.dumps(
        {b: {"cls_pred": [0.9], "cls_target": [1]} for b in ("head", "lidar", "camera")}))
    assert main(["loss", "--components", str(root / "loss.json"), "--scene", str(manifest),
                 "--out", str(root / "loss_report.json")]) == 0
    report = json.loads((root / "loss_report.json").read_text())
    cosine = dense_cosine(manifest)
    assert report["cosine"] == cosine and report["cosine_used"] == cosine
    return pairs


@pytest.mark.parametrize("seed", range(20))
def test_generated_scenes_match_the_dense_path(tmp_path, capsys, seed):
    argv = ["gen", "--seed", str(seed), "--objects", "60", "--out", str(tmp_path / "scene")]
    assert main(argv + ["--points"] * (seed % 2)) == 0
    assert_all_commands_match_dense(tmp_path / "scene" / "manifest.json", tmp_path)


def c8_shaped_scene(out_dir, seed, camera_channels, lidar_channels):
    """The criterion-8 input at the given depths: 180 x 180 noise grids, 150 shared
    and 50 single-modality proposals a side, every score >= 0.7."""
    rng = np.random.default_rng(seed)
    config = PipelineConfig(camera_channels=camera_channels, lidar_channels=lidar_channels)
    camera_data = rng.normal(size=(180, 180, camera_channels))
    camera_data[camera_data > 2.0] = -0.0  # stored -0.0 values must reach the artifacts
    camera = BevGrid(config.camera_spec(), camera_data)
    lidar = BevGrid(config.lidar_spec(), rng.normal(size=(180, 180, lidar_channels)))

    def proposal(x, y, w, l, yaw, modality):
        return Proposal(Box3D((x, y, 1.0), (w, l, 1.5), yaw), float(rng.uniform(0.7, 1.0)),
                        int(rng.integers(0, 10)), modality)

    camera_props, lidar_props = [], []
    for _ in range(150):
        x, y = rng.uniform(-48, 48, size=2)
        w, l = rng.uniform(2.0, 5.0, size=2)
        yaw = rng.uniform(-math.pi, math.pi)
        lidar_props.append(proposal(x, y, w, l, yaw, "lidar"))
        jx, jy = rng.normal(0.0, 0.05, size=2)
        camera_props.append(proposal(x + jx, y + jy, w, l, yaw, "camera"))
    for modality, out in (("camera", camera_props), ("lidar", lidar_props)):
        for _ in range(50):
            x, y = rng.uniform(-48, 48, size=2)
            w, l = rng.uniform(1.0, 4.0, size=2)
            out.append(proposal(x, y, w, l, rng.uniform(-math.pi, math.pi), modality))
    # Camera-only boxes at the window's corners and edge (clamped corners, the
    # last row and column), two sharing a cell, and one outside the window.
    for x, y in ((-53.9, -53.9), (53.9, 53.9), (53.99, 0.0), (10.1, 10.1), (10.2, 10.15),
                 (60.0, 0.0)):
        camera_props.append(proposal(x, y, 1.0, 1.0, 0.2, "camera"))
    scene = Scene(camera, lidar, camera_props, lidar_props, [], [])
    return write_scene(scene, out_dir, config, seed, "mixed")


def test_a_c8_shaped_scene_with_camera_hard_pairs_matches_the_dense_path(tmp_path, capsys):
    manifest = c8_shaped_scene(tmp_path / "scene", 8, 80, 128)
    pairs = assert_all_commands_match_dense(manifest, tmp_path)
    assert pairs.easy and pairs.camera_hard and pairs.lidar_hard


def test_open_scene_drops_the_dense_camera_array_before_the_lidar_gather(handmade,
                                                                         monkeypatch):
    arrays, load_grid, gather_lidar = [], pipeline.load_grid, pipeline.gather_lidar

    def recorded(source):
        grid = load_grid(source)
        arrays.append(weakref.ref(grid.data))
        return grid

    def gather_after_the_drop(*args):
        assert len(arrays) == 1 and arrays[0]() is None
        return gather_lidar(*args)

    monkeypatch.setattr(pipeline, "load_grid", recorded)
    monkeypatch.setattr(pipeline, "gather_lidar", gather_after_the_drop)
    with pipeline.open_scene(handmade, SMALL) as (scene, instances):
        assert isinstance(scene.camera_grid.data, GatheredCells)
        assert isinstance(scene.lidar_grid.data, GatheredCells)
        assert arrays[0]() is None
        dense = load_scene(handmade)
        want = pipeline.camera_instances(dense.camera_grid, dense.camera_proposals, SMALL)
        assert [i.proposal for i in instances] == [i.proposal for i in want]
        assert all(a.raw.tobytes() == b.raw.tobytes() for a, b in zip(instances, want))


def test_the_camera_cells_kept_are_the_corners_of_the_instance_centers(handmade):
    with pipeline.open_scene(handmade, SMALL) as (scene, instances):
        slots = scene.camera_grid.data.slots
        spec = scene.camera_grid.spec
        kept = set(zip(*(a.tolist() for a in np.nonzero(slots >= 0))))
        corners = set()
        for i in instances:
            r0, c0, r1, c1, _, _ = bilinear_corners(world_to_grid(i.bev_center, spec), spec)
            corners |= {(int(r), int(c)) for r in (r0[0], r1[0]) for c in (c0[0], c1[0])}
        assert instances and kept == corners


@pytest.mark.parametrize("command, passes", [("fuse", 2), ("match", 1)])
def test_camera_payload_is_read_once_per_pass_through_one_handle(
    handmade, tmp_path, monkeypatch, capsys, command, passes
):
    # The refine reads the whole grid; fuse reads its rows again while writing.
    camera = handmade.parent / "camera.bevg"
    rows, handles = [], set()

    def counted_blocks(grid_blocks):
        def blocks(source):
            it = grid_blocks(source)
            yield next(it)
            for first, values in it:
                if Path(getattr(source, "name", source)) == camera:
                    rows.append(len(values))
                    handles.add(id(source) if hasattr(source, "read") else None)
                yield first, values
        return blocks

    def counted_rows(f, spec, first_row, out):
        formats.read_grid_rows(f, spec, first_row, out)
        if Path(f.name) == camera:
            rows.append(len(out))
            handles.add(id(f))

    monkeypatch.setattr(formats, "grid_blocks", counted_blocks(formats.grid_blocks))
    monkeypatch.setattr(pipeline, "grid_blocks", counted_blocks(pipeline.grid_blocks))
    monkeypatch.setattr(pipeline, "read_grid_rows", counted_rows)
    assert main([command, "--scene", str(handmade), "--out", str(tmp_path / "out")]) == 0
    assert sum(rows) == passes * SMALL.height_cells
    assert len(handles) == 1 and None not in handles


@pytest.mark.parametrize("value, code", [(1234.5, 0), (float("nan"), 2)],
                         ids=["finite", "nan"])
def test_a_camera_cell_rewritten_before_the_write_pass(handmade, tmp_path, monkeypatch,
                                                       capsys, value, code):
    # A gathered cell keeps the value the front stage read; any other cell
    # is read afresh, and a NaN there fails with load_grid's message.
    assert main(["fuse", "--scene", str(handmade), "--out", str(tmp_path / "before")]) == 0
    path = handmade.parent / "camera.bevg"
    with pipeline.open_scene(handmade, SMALL) as (scene, _):
        slots = scene.camera_grid.data.slots
    gathered = sorted(zip(*(a.tolist() for a in np.nonzero(slots >= 0))))
    other = next((r, c) for r in range(16) for c in range(16) if (r, c) not in gathered)
    cell = gathered[0] if code == 0 else other
    run_fusion = pipeline.run_fusion

    def fuse_then_rewrite(*args):
        pairs = run_fusion(*args)
        with open(path, "r+b") as f:
            f.seek(HEADER_BYTES + ((cell[0] * 16 + cell[1]) * 3 + 1) * 4)
            f.write(np.float32(value).tobytes())
        return pairs

    monkeypatch.setattr("dualguide.cli.run_fusion", fuse_then_rewrite)
    assert main(["fuse", "--scene", str(handmade), "--out", str(tmp_path / "after")]) == code
    if code == 2:
        assert "camera.bevg: 1 non-finite grid values" in capsys.readouterr().err
        return
    for name in ("enhanced_camera.bevg", "fused.bevg", "pairs.json"):
        after = (tmp_path / "after" / name).read_bytes()
        assert after == (tmp_path / "before" / name).read_bytes(), name


@given(window=windows, u=steps, v=steps)
@settings(max_examples=300, deadline=None)
def test_the_nearest_cell_of_an_in_window_center_is_a_bilinear_corner(window, u, v):
    (h, w), cell, (x0, y0) = window
    spec = GridSpec(h, w, 1, (x0, x0 + w * cell), (y0, y0 + h * cell))
    x, y = x0 + min(u, w) * cell, y0 + min(v, h) * cell
    assert spec.contains(x, y)
    coord = world_to_grid((np.array([x]), np.array([y])), spec)
    r0, c0, r1, c1, _, _ = (int(a[0]) for a in bilinear_corners(coord, spec))
    rows, cols = nearest_cell(coord, spec)
    assert (int(rows[0]), int(cols[0])) in {(r0, c0), (r0, c1), (r1, c0), (r1, c1)}


@given(h=st.integers(1, 8), w=st.integers(1, 8),
       x0=st.floats(-100.0, 100.0), y0=st.floats(-100.0, 100.0),
       sx=st.floats(0.01, 10.0), sy=st.floats(0.01, 10.0),
       u=st.floats(0.0, 1.0), v=st.floats(0.0, 1.0))
@settings(max_examples=300, deadline=None)
def test_the_nearest_cell_is_a_bilinear_corner_on_any_window(h, w, x0, y0, sx, sy, u, v):
    spec = GridSpec(h, w, 1, (x0, x0 + w * sx), (y0, y0 + h * sy))
    x = min(spec.x_range[0] + u * (spec.x_range[1] - spec.x_range[0]), spec.x_range[1])
    y = min(spec.y_range[0] + v * (spec.y_range[1] - spec.y_range[0]), spec.y_range[1])
    assert spec.contains(x, y)
    coord = world_to_grid((np.array([x]), np.array([y])), spec)
    r0, c0, r1, c1, _, _ = (int(a[0]) for a in bilinear_corners(coord, spec))
    rows, cols = nearest_cell(coord, spec)
    assert (int(rows[0]), int(cols[0])) in {(r0, c0), (r0, c1), (r1, c0), (r1, c1)}
