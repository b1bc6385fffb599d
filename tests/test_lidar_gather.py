"""`fuse`, `match` and `loss --scene` read the LiDAR grid at its gathered cells.

The CLI never loads `lidar.bevg`: it gathers the cells the front stage
samples in one checked pass, writes the LiDAR enhancement into them, and
streams the rows, with the gathered cells rounded in, through the same
handle. Every artifact must equal the dense library path's: `load_scene`
-> `run_fusion` (or `run_matching`) -> `save_grid` x3 -> `save_pair_sets`.
"""

import json
import os
import struct
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualguide import cli, formats, pipeline, synth
from dualguide.cli import main
from dualguide.config import PipelineConfig
from dualguide.errors import ContractError, DataFormatError
from dualguide.formats import load_grid, save_grid, save_pair_sets
from dualguide.geometry import Box3D
from dualguide.grid import (
    BevGrid,
    GatheredCells,
    GridSpec,
    bilinear_corners,
    world_to_grid,
)
from dualguide.enhance import Projection
from dualguide.instances import (
    SAMPLES_PER_STRATEGY,
    STRATEGY_KEY_POINTS,
    Proposal,
    key_point_coords,
)
from dualguide.pipeline import camera_instances, run_fusion, run_matching
from dualguide.synth import Scene, load_scene, write_scene

from test_cli import traced_peak
from test_enhance import ref_surrounding

HEADER_BYTES = struct.calcsize("<4sIIIIdddd")
FUSE_ARTIFACTS = ("enhanced_camera.bevg", "enhanced_lidar.bevg", "fused.bevg", "pairs.json")
DEEP = {"camera_channels": 80, "lidar_channels": 128}


def dense_artifacts(manifest, out, config, enhance=True):
    """The dense library path: both grids loaded whole, enhanced, saved."""
    scene = load_scene(manifest)
    instances = camera_instances(scene.camera_grid, scene.camera_proposals, config)
    if enhance:
        pairs = run_fusion(scene.camera_grid, scene.lidar_grid, instances,
                           scene.lidar_proposals, config)
    else:
        pairs = run_matching(instances, scene.lidar_grid, scene.lidar_proposals, config)
    out.mkdir(parents=True)
    save_grid([(scene.camera_grid, out / "enhanced_camera.bevg")])
    save_grid([(scene.lidar_grid, out / "enhanced_lidar.bevg")])
    save_grid([(scene.lidar_grid, scene.camera_grid, out / "fused.bevg")])
    save_pair_sets(pairs, out / "pairs.json")
    return pairs


def assert_cli_matches_dense(manifest, root, flags=(), config=PipelineConfig()):
    """`fuse` and `match` under `flags` write the dense path's bytes; returns its pairs."""
    pairs = dense_artifacts(manifest, root / "dense", config, "--no-enhance" not in flags)
    match_flags = [f for f in flags if f != "--no-enhance"]
    assert main(["fuse", "--scene", str(manifest), "--out", str(root / "cli"), *flags]) == 0
    assert main(["match", "--scene", str(manifest), "--out", str(root / "match.json"),
                 *match_flags]) == 0
    for name in FUSE_ARTIFACTS:
        assert (root / "cli" / name).read_bytes() == (root / "dense" / name).read_bytes(), name
    assert (root / "match.json").read_bytes() == (root / "dense" / "pairs.json").read_bytes()
    return pairs


@pytest.mark.parametrize("channels", [{}, DEEP], ids=["default-depth", "80-128"])
@pytest.mark.parametrize("seed", range(10))
def test_generated_scenes_match_the_dense_path(tmp_path, capsys, seed, channels):
    argv = ["gen", "--seed", str(seed), "--objects", "12", "--out", str(tmp_path / "scene")]
    if channels:
        (tmp_path / "deep.json").write_text(json.dumps(channels))
        argv += ["--config", str(tmp_path / "deep.json")]
    assert main(argv) == 0
    assert_cli_matches_dense(tmp_path / "scene" / "manifest.json", tmp_path)


# A 16 x 16-cell window of 1 m cells with hand-placed proposals.
SMALL = PipelineConfig(height_cells=16, width_cells=16, x_range=(-8.0, 8.0),
                       y_range=(-8.0, 8.0), camera_channels=3, lidar_channels=5)
# Two LiDAR-only boxes less than a cell apart: both become LiDAR-hard pairs
# whose four surrounding cells overlap.
CLOSE_PAIR = ((0.3, 2.2), (0.6, 2.4))


def proposal(x, y, size, score, modality):
    return Proposal(Box3D((x, y, 1.0), (size, size, 1.5), 0.3), score, 0, modality)


@pytest.fixture()
def handmade(tmp_path):
    """A scene with easy, camera-hard and LiDAR-hard pairs, edge boxes and -0.0 values.

    Camera proposals score 0.96 and LiDAR ones 0.9, so gamma 0.95 filters
    out every LiDAR proposal and keeps the camera ones.
    """
    rng = np.random.default_rng(5)
    camera = BevGrid(SMALL.camera_spec(), rng.normal(size=(16, 16, 3)))
    lidar_data = rng.normal(size=(16, 16, 5))
    lidar_data[lidar_data > 1.2] = -0.0
    lidar = BevGrid(SMALL.lidar_spec(), lidar_data)
    easy = [(-4.0, -4.0, 2.0), (3.0, -3.0, 2.0), (-7.7, 7.7, 3.0)]
    camera_props = [proposal(x, y, s, 0.96, "camera") for x, y, s in easy]
    camera_props.append(proposal(-2.0, 5.0, 1.5, 0.96, "camera"))
    lidar_props = [proposal(x, y, s, 0.9, "lidar") for x, y, s in easy]
    lidar_props += [proposal(x, y, 1.0, 0.9, "lidar") for x, y in CLOSE_PAIR]
    # Key points past the window edge clamp; a center outside it is skipped.
    lidar_props += [proposal(7.6, 7.6, 3.0, 0.9, "lidar"), proposal(9.0, 0.0, 1.0, 0.9, "lidar")]
    scene = Scene(camera, lidar, camera_props, lidar_props, [], [])
    return write_scene(scene, tmp_path / "scene", SMALL, 0, "mixed")


def test_handmade_scene_matches_the_dense_path(handmade, tmp_path):
    pairs = assert_cli_matches_dense(handmade, tmp_path)
    spec = SMALL.lidar_spec()
    cells = [
        set(ref_surrounding(world_to_grid(p.anchor.bev_center, spec), spec))
        for p in pairs.lidar_hard
    ]
    centers = {p.anchor.bev_center for p in pairs.lidar_hard}
    assert {(x, y) for x, y in CLOSE_PAIR} <= centers
    assert any(a & b for i, a in enumerate(cells) for b in cells[i + 1:])
    assert (7.6, 7.6) in centers
    # The stored -0.0 values reach the artifacts.
    fused = np.fromfile(tmp_path / "cli" / "fused.bevg", dtype="<u4", offset=HEADER_BYTES)
    assert np.count_nonzero(fused == 0x80000000) > 0


def save_weight_files(root, names):
    """Weight files for the handmade grids (3 camera, 5 LiDAR channels) under `names`.

    Each is seeded, with a seed other than the pipeline's, and saved; the
    config paths naming them are returned.
    """
    k = SAMPLES_PER_STRATEGY[PipelineConfig().sampling_strategy]
    channels, paths = {"camera": 3, "lidar": 5}, {}
    for seed, name in enumerate(names, start=10):
        _, source, target, _ = pipeline.PROJECTIONS[name]
        path = root / f"{name}.proj"
        formats.save_projection(
            Projection.seeded(k * channels[source], channels[target], seed), path)
        paths[f"{name}_path"] = str(path)
    return paths


@pytest.mark.parametrize("flags, config, weights", [
    (("--no-enhance",), PipelineConfig(), ()),
    (("--sampling-strategy", "center+vertices+boundary_mid"),
     PipelineConfig(sampling_strategy="center+vertices+boundary_mid"), ()),
    (("--gamma", "0.95"), PipelineConfig(gamma=0.95), ()),
    ((), PipelineConfig(), ("lidar_squeeze", "excitation")),
    ((), PipelineConfig(), ("lidar_squeeze", "camera_squeeze", "excitation")),
], ids=["no-enhance", "all-key-points", "no-lidar-survivor", "fusion-weight-files",
        "all-weight-files"])
def test_handmade_variants_match_the_dense_path(handmade, tmp_path, flags, config, weights):
    if weights:
        paths = save_weight_files(tmp_path, weights)
        (tmp_path / "weights.json").write_text(json.dumps(paths))
        flags, config = ("--config", str(tmp_path / "weights.json")), replace(config, **paths)
    pairs = assert_cli_matches_dense(handmade, tmp_path, flags, config)
    if config.gamma == 0.95:
        assert pairs.unmatched_lidar == 0 and pairs.unmatched_camera == 4
    if weights:  # the files are applied: both grids differ from the seeded weights' run
        assert main(["fuse", "--scene", str(handmade), "--out", str(tmp_path / "seeded")]) == 0
        for name in ("enhanced_camera.bevg", "enhanced_lidar.bevg"):
            seeded = (tmp_path / "seeded" / name).read_bytes()
            assert (tmp_path / "cli" / name).read_bytes() != seeded, name


@pytest.mark.parametrize("argv, loaded", [
    (["fuse"], ["excitation.proj", "lidar_squeeze.proj"]),
    (["fuse", "--no-enhance"], []),
    (["match"], []),
    (["loss", "--components", "loss.json"], ["camera_squeeze.proj", "lidar_squeeze.proj"]),
], ids=["fuse", "fuse-no-enhance", "match", "loss"])
def test_each_command_loads_only_the_weight_files_it_applies(
    handmade, tmp_path, monkeypatch, capsys, argv, loaded
):
    paths = save_weight_files(tmp_path, pipeline.PROJECTIONS)
    (tmp_path / "weights.json").write_text(json.dumps(paths))
    (tmp_path / "loss.json").write_text(json.dumps(
        {branch: {"cls_pred": [0.9], "cls_target": [1]} for branch in ("head", "lidar", "camera")}
    ))
    calls, load_projection = [], formats.load_projection

    def counted(path):
        calls.append(Path(path).name)
        return load_projection(path)

    monkeypatch.setattr(pipeline, "load_projection", counted)
    monkeypatch.chdir(tmp_path)
    out = "out.json" if argv[0] != "fuse" else "out"
    assert main([*argv, "--scene", str(handmade), "--config", "weights.json", "--out", out]) == 0
    assert sorted(calls) == loaded


def test_symlinked_output_does_not_feed_back_into_the_lidar_read(handmade, tmp_path, capsys):
    # Writing enhanced_lidar.bevg through the link would replace the scene's
    # lidar.bevg with enhanced values: fuse refuses before writing anything.
    lidar = handmade.parent / "lidar.bevg"
    before = lidar.read_bytes()
    linked = tmp_path / "linked"
    linked.mkdir()
    (linked / "enhanced_lidar.bevg").symlink_to(lidar)
    assert main(["fuse", "--scene", str(handmade), "--out", str(linked)]) == 2
    err = capsys.readouterr().err
    assert str(linked / "enhanced_lidar.bevg") in err and str(lidar) in err
    assert lidar.read_bytes() == before
    assert [p.name for p in linked.iterdir()] == ["enhanced_lidar.bevg"]


@pytest.mark.parametrize("command, output, scene_file", [
    ("match", "pairs.json", "annotations.jsonl"),
    ("fuse", "fused.bevg.json", "manifest.json"),
    ("fuse", "pairs.json", "camera_proposals.jsonl"),
], ids=["match-out", "fuse-sidecar", "fuse-pairs"])
def test_an_output_hard_linked_to_a_scene_file_fails_before_writing(
    handmade, tmp_path, capsys, command, output, scene_file
):
    scene_file = handmade.parent / scene_file
    before = {p.name: p.read_bytes() for p in handmade.parent.iterdir()}
    out = tmp_path / "out"
    out.mkdir()
    os.link(scene_file, out / output)
    target = out / output if command == "match" else out
    assert main([command, "--scene", str(handmade), "--out", str(target)]) == 2
    err = capsys.readouterr().err
    assert str(out / output) in err and str(scene_file) in err
    assert {p.name: p.read_bytes() for p in handmade.parent.iterdir()} == before
    assert [p.name for p in out.iterdir()] == [output]


@pytest.mark.parametrize("command", ["fuse", "match"])
def test_nan_at_a_cell_no_key_point_reads_fails_before_writing(handmade, tmp_path, capsys,
                                                              command):
    spec = SMALL.lidar_spec()
    scene = load_scene(handmade)
    *_, coords = key_point_coords(spec, scene.lidar_proposals, 0.7)
    r0, c0, r1, c1, _, _ = bilinear_corners(coords, spec)
    read = set(zip(np.concatenate([r0, r0, r1, r1]).tolist(),
                   np.concatenate([c0, c1, c0, c1]).tolist()))
    cell = (0, 15)
    assert cell not in read
    path = handmade.parent / "lidar.bevg"
    raw = bytearray(path.read_bytes())
    offset = HEADER_BYTES + ((cell[0] * 16 + cell[1]) * 5 + 2) * 4
    raw[offset:offset + 4] = np.float32("nan").tobytes()
    path.write_bytes(bytes(raw))
    with pytest.raises(DataFormatError) as loaded:
        load_grid(path)
    out = tmp_path / "out"
    assert main([command, "--scene", str(handmade), "--out", str(out)]) == 2
    assert f"dualguide: error: {loaded.value}" in capsys.readouterr().err
    assert not out.exists()
    assert not (handmade.parent / "pairs.json").exists()


@pytest.mark.parametrize("command, scene_file", [
    ("eval", "annotations.jsonl"),
    ("stats", "manifest.json"),
    ("loss", "lidar_proposals.jsonl"),
])
def test_a_report_hard_linked_to_a_scene_file_fails_before_writing(
    handmade, tmp_path, capsys, command, scene_file
):
    (tmp_path / "dets.jsonl").write_text("")
    (tmp_path / "loss.json").write_text(json.dumps(
        {b: {"cls_pred": [0.9], "cls_target": [1]} for b in ("head", "lidar", "camera")}
    ))
    flags = {"eval": ["--dets", str(tmp_path / "dets.jsonl")], "stats": [],
             "loss": ["--components", str(tmp_path / "loss.json")]}[command]
    scene_file = handmade.parent / scene_file
    before = {p.name: p.read_bytes() for p in handmade.parent.iterdir()}
    out = tmp_path / "out"
    out.mkdir()
    os.link(scene_file, out / "report.json")
    argv = [command, "--scene", str(handmade), *flags, "--out", str(out / "report.json")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert str(out / "report.json") in err and str(scene_file) in err
    assert {p.name: p.read_bytes() for p in handmade.parent.iterdir()} == before


@pytest.mark.parametrize("argv, output", [
    (["eval", "--peaks-from", "{scene}/fused.bevg"], "{scene}/fused.bevg"),
    (["eval"], "{scene}/fused.bevg"),  # the default readout grid
    (["eval", "--dets", "{tmp}/dets.jsonl"], "{tmp}/dets.jsonl"),
    (["loss", "--components", "{tmp}/loss.json"], "{tmp}/loss.json"),
    (["loss", "--components", "{tmp}/loss.json", "--scene", "{manifest}"], "{tmp}/loss.json"),
], ids=["eval-peaks-from", "eval-default-grid", "eval-dets", "loss", "loss-scene"])
def test_an_output_that_is_a_command_input_fails_before_writing(handmade, tmp_path, capsys,
                                                                argv, output):
    # Inputs that are not scene files: the detections or readout grid, the components.
    assert main(["fuse", "--scene", str(handmade)]) == 0
    (tmp_path / "dets.jsonl").write_text("")
    (tmp_path / "loss.json").write_text(json.dumps(
        {b: {"cls_pred": [0.9], "cls_target": [1]} for b in ("head", "lidar", "camera")}
    ))
    names = {"scene": handmade.parent, "tmp": tmp_path, "manifest": handmade}
    output = output.format(**names)
    argv = [arg.format(**names) for arg in argv] + ["--out", output]
    if argv[0] == "eval":
        argv += ["--scene", str(handmade)]
    files = [*handmade.parent.iterdir(), tmp_path / "dets.jsonl", tmp_path / "loss.json"]
    before = {p: p.read_bytes() for p in files}
    capsys.readouterr()
    assert main(argv) == 2
    assert f"output {output} is the input {output}" in capsys.readouterr().err
    assert {p: p.read_bytes() for p in files} == before


@pytest.mark.parametrize("command, passes", [("fuse", 2), ("match", 1)])
def test_lidar_payload_is_read_once_per_pass(handmade, tmp_path, monkeypatch, capsys,
                                             command, passes):
    # fuse gathers and then writes its three grid files in one pass.
    lidar = handmade.parent / "lidar.bevg"
    rows = []

    def counted_blocks(grid_blocks):
        def blocks(source):
            it = grid_blocks(source)
            yield next(it)
            for first, values in it:
                if Path(getattr(source, "name", source)) == lidar:
                    rows.append(len(values))
                yield first, values
        return blocks

    def counted_rows(f, spec, first_row, out):
        formats.read_grid_rows(f, spec, first_row, out)
        if Path(f.name) == lidar:
            rows.append(len(out))

    for module in (formats, pipeline, synth):
        monkeypatch.setattr(module, "grid_blocks", counted_blocks(module.grid_blocks))
    monkeypatch.setattr(pipeline, "read_grid_rows", counted_rows)
    assert main([command, "--scene", str(handmade), "--out", str(tmp_path / "out")]) == 0
    assert sum(rows) == passes * SMALL.height_cells


@pytest.mark.parametrize("command", ["fuse", "match"])
def test_the_manifest_is_parsed_once(handmade, tmp_path, monkeypatch, capsys, command):
    calls, scene_paths = [], synth.scene_paths

    def counted(*args):
        calls.append(args)
        return scene_paths(*args)

    monkeypatch.setattr(cli, "scene_paths", counted)
    monkeypatch.setattr(synth, "scene_paths", counted)
    assert main([command, "--scene", str(handmade), "--out", str(tmp_path / "out")]) == 0
    assert len(calls) == 1


def test_a_lidar_value_made_non_finite_before_the_write_pass_fails(
    handmade, tmp_path, monkeypatch, capsys
):
    # The file is rewritten in place after the gather, so only the write
    # pass can see the NaN.
    path = handmade.parent / "lidar.bevg"

    def fuse_then_damage(*args):
        pairs = run_fusion(*args)
        with open(path, "r+b") as f:
            f.seek(HEADER_BYTES + ((3 * 16 + 4) * 5 + 2) * 4)
            f.write(np.float32("nan").tobytes())
        return pairs

    monkeypatch.setattr(cli, "run_fusion", fuse_then_damage)
    assert main(["fuse", "--scene", str(handmade), "--out", str(tmp_path / "out")]) == 2
    with pytest.raises(DataFormatError) as loaded:
        load_grid(path)
    assert f"dualguide: error: {loaded.value}" in capsys.readouterr().err


@pytest.mark.parametrize("value, code", [(1234.5, 0), (float("nan"), 2)],
                         ids=["finite", "nan"])
def test_a_gathered_cell_rewritten_before_the_write_pass_keeps_what_matching_read(
    handmade, tmp_path, monkeypatch, capsys, value, code
):
    # The write pass rounds in every gathered cell, so a cell no pair writes
    # keeps the value read at the gather; a NaN in its row still fails.
    assert main(["fuse", "--scene", str(handmade), "--out", str(tmp_path / "before")]) == 0
    spec = SMALL.lidar_spec()
    scene = load_scene(handmade)
    pairs = run_fusion(scene.camera_grid, scene.lidar_grid,
                       camera_instances(scene.camera_grid, scene.camera_proposals, SMALL),
                       scene.lidar_proposals, SMALL)
    written = {cell for p in pairs.lidar_hard
               for cell in ref_surrounding(world_to_grid(p.anchor.bev_center, spec), spec)}
    path = handmade.parent / "lidar.bevg"
    with open(path, "rb") as f:
        slots = pipeline.gather_lidar(f, scene.lidar_proposals, SMALL).data.slots
    gathered = set(zip(*np.nonzero(slots >= 0)))
    assert written < gathered
    row, col = min(gathered - written)

    def fuse_then_rewrite(*args):
        pairs = run_fusion(*args)
        with open(path, "r+b") as f:
            f.seek(HEADER_BYTES + ((row * 16 + col) * 5 + 2) * 4)
            f.write(np.float32(value).tobytes())
        return pairs

    monkeypatch.setattr(cli, "run_fusion", fuse_then_rewrite)
    assert main(["fuse", "--scene", str(handmade), "--out", str(tmp_path / "after")]) == code
    if code == 2:
        assert "lidar.bevg: 1 non-finite grid values" in capsys.readouterr().err
        return
    assert load_grid(path).data[row, col, 2] == value
    for name in FUSE_ARTIFACTS:
        after = (tmp_path / "after" / name).read_bytes()
        assert after == (tmp_path / "before" / name).read_bytes(), name


class TestPeakMemory:
    """Neither command holds the LiDAR grid: a deep one costs them little."""

    LIDAR_F64_BYTES = 96 * 96 * 256 * 8  # 18.9 MB; the camera grid is 0.3 MB

    @pytest.fixture(scope="class")
    def manifest(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("deep-lidar")
        config = root / "config.json"
        config.write_text(json.dumps({
            "height_cells": 96, "width_cells": 96, "x_range": [-28.8, 28.8],
            "y_range": [-28.8, 28.8], "camera_channels": 4, "lidar_channels": 256,
        }))
        assert main(["gen", "--seed", "3", "--objects", "12", "--config", str(config),
                     "--out", str(root / "scene")]) == 0
        return str(root / "scene" / "manifest.json")

    @pytest.mark.parametrize("command", ["fuse", "match"])
    def test_peak_is_below_half_the_lidar_grid(self, manifest, capsys, command):
        assert traced_peak([command, "--scene", manifest]) < 0.5 * self.LIDAR_F64_BYTES


def test_reading_a_cell_that_was_not_gathered_raises():
    spec = GridSpec(4, 4, 2, (0.0, 4.0), (0.0, 4.0))
    data = np.arange(32, dtype="<f4").reshape(4, 4, 2)
    cells = GatheredCells.gather(spec, np.array([1, 2]), np.array([3, 0]),
                                 [(0, data[:3]), (3, data[3:])], None)
    assert np.array_equal(cells[np.array([2, 1]), np.array([0, 3])], data[[2, 1], [0, 3]])
    with pytest.raises(ContractError):
        cells[np.array([1]), np.array([2])]
    # A write with one cell that was not gathered writes none of them.
    with pytest.raises(ContractError):
        cells[np.array([1, 1]), np.array([3, 2])] = np.zeros((2, 2))
    assert np.array_equal(cells[np.array([1]), np.array([3])], data[[1], [3]])


def test_a_gathered_grid_without_writes_reads_back_the_file_rows_bit_for_bit():
    rng = np.random.default_rng(21)
    grid = rng.normal(size=(5, 4, 3)).astype("<f4")
    # -0.0, the smallest subnormal of either sign and the largest subnormal.
    special = np.array([-0.0, 1e-45, -1e-45, 1.1754942e-38], "<f4")
    assert special[1] != 0.0 and special[3] < np.finfo("<f4").tiny
    grid.flat[rng.choice(grid.size, 40, replace=False)] = np.resize(special, 40)
    spec = GridSpec(5, 4, 3, (0.0, 4.0), (0.0, 5.0))
    rows, cols = np.divmod(rng.choice(20, 15, replace=False), 4)

    def read_rows(first, out):
        out[...] = grid[first:first + len(out)]

    cells = GatheredCells.gather(spec, rows, cols, [(0, grid)], read_rows)
    out = np.empty_like(grid)
    for first in range(0, 5, 2):
        cells.read_into(first, out[first:first + 2])
    assert out.tobytes() == grid.tobytes()


def test_copying_a_gathered_grid_is_a_contract_error(handmade):
    scene = load_scene(handmade)
    assert np.array_equal(scene.lidar_grid.copy().data, scene.lidar_grid.data)
    with open(handmade.parent / "lidar.bevg", "rb") as f:
        gathered = pipeline.gather_lidar(f, scene.lidar_proposals, SMALL)
        with pytest.raises(ContractError, match="only a dense grid copies"):
            gathered.copy()


@given(seed=st.integers(0, 2**32 - 1), rows_per_block=st.integers(1, 6))
@settings(max_examples=60, deadline=None)
def test_writes_read_back_in_f32_row_blocks_equal_the_saved_f64_grid(seed, rows_per_block):
    rng = np.random.default_rng(seed)
    grid = rng.normal(size=(6, 5, 3)).astype("<f4")
    grid[rng.random(size=grid.shape) < 0.2] = -0.0
    spec = GridSpec(6, 5, 3, (0.0, 5.0), (0.0, 6.0))
    gathered = np.unique(rng.integers(0, [6, 5], size=(12, 2)), axis=0)

    def read_rows(first, out):
        out[...] = grid[first:first + len(out)]

    cells = GatheredCells.gather(spec, *gathered.T, [(0, grid)], read_rows)
    dense = grid.astype(np.float64)
    # Two writes, to random subsets of the gathered cells, which may overlap.
    for _ in range(2):
        rows, cols = gathered[rng.random(len(gathered)) < 0.5].T
        updates = rng.normal(size=(len(rows), 3)) * 10.0 ** rng.integers(-8, 3)
        dense[rows, cols] = dense[rows, cols] + updates
        cells[rows, cols] = cells[rows, cols] + updates
    blocks = [np.empty((min(rows_per_block, 6 - first), 5, 3), "<f4")
              for first in range(0, 6, rows_per_block)]
    for first, block in zip(range(0, 6, rows_per_block), blocks):
        cells.read_into(first, block)
    assert np.concatenate(blocks).tobytes() == dense.astype("<f4").tobytes()


# A window of 1 to 6 cells a side, 1 x N and N x 1 included, of power-of-two
# cells from an integer origin, so that half-cell steps are exact.
windows = st.tuples(
    st.one_of(
        st.tuples(st.just(1), st.integers(1, 6)),
        st.tuples(st.integers(1, 6), st.just(1)),
        st.tuples(st.integers(1, 6), st.integers(1, 6)),
    ),
    st.sampled_from([0.25, 0.5, 1.0, 2.0]),
    st.tuples(st.integers(-8, 8), st.integers(-8, 8)),
)
# A position in cells from the window's low edge, clamped to its high edge:
# a half-cell step (the window edges, cell centers at exact-integer grid
# coordinates, cell borders) or anything between.
steps = st.one_of(st.integers(0, 12).map(lambda k: k / 2), st.floats(0.0, 6.0))


@given(window=windows, u=steps, v=steps, strategy=st.sampled_from(sorted(STRATEGY_KEY_POINTS)),
       yaw=st.floats(-4.0, 4.0), size=st.floats(0.1, 6.0))
@settings(max_examples=300, deadline=None)
def test_every_lidar_write_cell_is_a_gathered_corner(window, u, v, strategy, yaw, size):
    (h, w), cell, (x0, y0) = window
    spec = GridSpec(h, w, 1, (x0, x0 + w * cell), (y0, y0 + h * cell))
    x, y = x0 + min(u, w) * cell, y0 + min(v, h) * cell
    assert spec.contains(x, y)
    p = Proposal(Box3D((x, y, 1.0), (size, size / 2, 1.5), yaw), 0.9, 0, "lidar")
    (kept,), _, coords = key_point_coords(spec, [p], 0.7, strategy)
    center = world_to_grid((x, y), spec)
    # Every strategy samples the footprint center first, at the center's coordinates.
    assert (coords[0][0, 0], coords[1][0, 0]) == center
    r0, c0, r1, c1, _, _ = bilinear_corners(coords, spec)
    corners = set(zip(np.concatenate([r0, r0, r1, r1]).tolist(),
                      np.concatenate([c0, c1, c0, c1]).tolist()))
    assert set(ref_surrounding(center, spec)) <= corners
