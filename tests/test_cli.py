"""CLI subcommands, exit codes, and the documented command chain."""

import argparse
import gc
import json
import os
import resource
import stat
import struct
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import dualguide
from dualguide.cli import FUSE_OUTPUTS, main
from dualguide.config import load_config
from dualguide.errors import ContractError, DataFormatError
from dualguide.formats import load_grid, save_grid
from dualguide.grid import BevGrid, GridSpec
from dualguide.losses import pair_cosine_loss
from dualguide.pipeline import build_projections, camera_instances, run_fusion
from dualguide.synth import load_scene


@pytest.fixture()
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def small_config(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({
        "height_cells": 64, "width_cells": 64,
        "x_range": [-19.2, 19.2], "y_range": [-19.2, 19.2],
        "camera_channels": 5, "lidar_channels": 7,
    }))
    return str(path)


class TestExitCodes:
    def test_unknown_flag_is_usage_error(self, workdir, capsys):
        assert main(["gen", "--bogus"]) == 1
        assert "usage" in capsys.readouterr().err

    def test_unknown_command_is_usage_error(self, workdir, capsys):
        assert main(["frobnicate"]) == 1

    def test_missing_scene_is_data_error(self, workdir, capsys):
        assert main(["fuse", "--scene", "nope/manifest.json"]) == 2
        assert "error" in capsys.readouterr().err

    def test_corrupt_manifest_is_data_error(self, workdir, capsys):
        (workdir / "manifest.json").write_text("{not json")
        assert main(["fuse", "--scene", "manifest.json"]) == 2

    def test_out_of_range_eta_is_config_error(self, workdir, capsys):
        # The config is checked before the scene loads: there is no scene here.
        assert main(["match", "--eta", "2"]) == 2
        assert "eta 2.0 outside [0, 1]" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["eval", "--gamma", "0.5"],
        ["eval", "--config", "config.json"],
        ["gen", "--eta", "0.5"],
        ["gen", "--projection-seed", "3"],
        ["stats", "--grouping-strategy", "none"],
    ])
    def test_flag_the_command_does_not_read_is_usage_error(self, workdir, capsys, argv):
        assert main(argv) == 1
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_removed_config_key_is_config_error(self, workdir, capsys):
        (workdir / "config.json").write_text(json.dumps({"projection_seed": 3}))
        assert main(["fuse", "--config", "config.json"]) == 2
        assert "unknown config keys: ['projection_seed']" in capsys.readouterr().err

    @pytest.mark.parametrize("command, values, message", [
        ("gen", {"gamma": "x"}, "gamma must be a finite number, got 'x'"),
        ("gen", {"eta": True}, "eta must be a finite number, got True"),
        ("gen", {"lambdas": 5}, "lambdas must be a list of 4 numbers, got 5"),
        ("gen", {"lambdas": [0.9, 0.1, None, 0.1]}, "lambdas[2] must be a finite number"),
        ("gen", {"height_cells": 1.5}, "height_cells must be an integer, got 1.5"),
        ("gen", {"camera_channels": "8"}, "camera_channels must be a finite number, got '8'"),
        ("gen", {"x_range": [0, "a"]}, "x_range[1] must be a finite number, got 'a'"),
        ("gen", {"y_range": [0, 1, 2]}, "y_range must be a list of 2 numbers"),
        ("gen", {"grouping_strategy": 3}, "grouping_strategy must be a string, got 3"),
        ("gen", {"excitation_path": 5}, "excitation_path must be a string or null, got 5"),
        ("gen", {"lambdas": [-1, 0, 0, 0]}, "loss weights must be finite and >= 0"),
        ("gen", [0.5], "config must be a JSON object, got [0.5]"),
        ("match", {"height_cells": 1.5}, "height_cells must be an integer, got 1.5"),
        ("gen", {"height_cells": 0}, "height_cells 0 must be at least 1"),
        ("gen", {"camera_channels": -3}, "camera_channels -3 must be at least 1"),
        ("gen", {"x_range": [54, -54]}, "grid window must have positive extent"),
        ("fuse", {"height_cells": 0}, "height_cells 0 must be at least 1"),
        ("fuse", {"camera_channels": -3}, "camera_channels -3 must be at least 1"),
        ("fuse", {"x_range": [54, -54]}, "grid window must have positive extent"),
        # A size the u32 fields of a grid file header cannot hold.
        ("gen", {"height_cells": 1e20}, "height_cells 100000000000000000000 exceeds 4294967295"),
        ("fuse", {"height_cells": 1e20}, "height_cells 100000000000000000000 exceeds 4294967295"),
    ])
    def test_config_value_of_the_wrong_type_is_config_error(
        self, workdir, capsys, command, values, message
    ):
        if command in ("match", "fuse"):  # a scene the command would otherwise run on
            assert main(["gen", "--seed", "1", "--objects", "4",
                         "--config", small_config(workdir)]) == 0
        (workdir / "c.json").write_text(json.dumps(values))
        assert main([command, "--config", "c.json"]) == 2
        assert f"c.json: {message}" in capsys.readouterr().err

    def test_dets_and_peaks_from_together_is_usage_error(self, workdir, capsys):
        assert main(["eval", "--dets", "dets.jsonl", "--peaks-from", "fused.bevg"]) == 1
        assert "not allowed with" in capsys.readouterr().err

    def test_crowded_window_is_config_error(self, workdir, capsys):
        assert main(["gen", "--seed", "0", "--objects", "120"]) == 2
        err = capsys.readouterr().err
        assert "window too crowded: placed 98 of 120 objects before it filled" in err
        assert not (workdir / "scene").exists()

    def test_negative_seed_is_config_error(self, workdir, capsys):
        assert main(["gen", "--seed", "-1"]) == 2
        assert "seed must be >= 0, got 12 and -1" in capsys.readouterr().err
        assert not (workdir / "scene").exists()

    def test_non_finite_grid_is_data_error(self, workdir, capsys):
        cfg = small_config(workdir)
        assert main(["gen", "--seed", "1", "--objects", "4", "--config", cfg]) == 0
        camera = load_grid(workdir / "scene" / "camera.bevg")
        camera.data[10, 20, 3] = float("nan")
        save_grid([(camera, workdir / "scene" / "camera.bevg")])
        assert main(["fuse", "--config", cfg]) == 2
        assert "camera.bevg" in capsys.readouterr().err
        assert not (workdir / "scene" / "fused.bevg").exists()

    def test_non_finite_proposal_is_data_error(self, workdir, capsys):
        cfg = small_config(workdir)
        assert main(["gen", "--seed", "2", "--objects", "6", "--config", cfg]) == 0
        path = workdir / "scene" / "lidar_proposals.jsonl"
        records = [json.loads(line) for line in path.read_text().splitlines()]
        records[0]["x"] = float("nan")
        records[0]["score"] = 0.99
        path.write_text("".join(json.dumps(r) + "\n" for r in records))
        assert main(["fuse", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert "lidar_proposals.jsonl: record 0" in err and "'x'" in err
        assert not (workdir / "scene" / "fused.bevg").exists()

    def test_non_numeric_score_is_data_error(self, workdir, capsys):
        cfg = small_config(workdir)
        assert main(["gen", "--seed", "2", "--objects", "6", "--config", cfg]) == 0
        path = workdir / "scene" / "lidar_proposals.jsonl"
        records = [json.loads(line) for line in path.read_text().splitlines()]
        records[1]["score"] = "0.9"
        path.write_text("".join(json.dumps(r) + "\n" for r in records))
        assert main(["fuse", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert "lidar_proposals.jsonl: record 1: score must be a finite number, got '0.9'" in err
        assert not (workdir / "scene" / "fused.bevg").exists()

    def test_fractional_proposal_class_is_data_error(self, workdir, capsys):
        cfg = small_config(workdir)
        assert main(["gen", "--seed", "2", "--objects", "6", "--config", cfg]) == 0
        path = workdir / "scene" / "lidar_proposals.jsonl"
        records = [json.loads(line) for line in path.read_text().splitlines()]
        records[0]["class_id"] = 3.5
        path.write_text("".join(json.dumps(r) + "\n" for r in records))
        assert main(["fuse", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert "lidar_proposals.jsonl: record 0: class_id must be an integer, got 3.5" in err
        assert not (workdir / "scene" / "fused.bevg").exists()

    def test_fractional_detection_class_is_data_error(self, workdir, capsys):
        assert main(["gen", "--seed", "2", "--objects", "6"]) == 0
        path = workdir / "scene" / "annotations.jsonl"
        records = [json.loads(line) for line in path.read_text().splitlines()]
        index = next(i for i, r in enumerate(records) if r["class_id"] == 3)
        records[index]["class_id"] = 3.5
        for r in records:
            r["score"] = 0.9
        (workdir / "dets.jsonl").write_text("".join(json.dumps(r) + "\n" for r in records))
        assert main(["eval", "--dets", "dets.jsonl"]) == 2
        err = capsys.readouterr().err
        assert f"dets.jsonl: record {index}: class_id must be an integer, got 3.5" in err
        assert not (workdir / "scene" / "report.json").exists()

    def test_non_finite_projection_is_data_error(self, workdir, capsys):
        cfg = small_config(workdir)
        assert main(["gen", "--seed", "1", "--objects", "4", "--config", cfg]) == 0
        # lidar_squeeze maps 5 key points x 7 LiDAR channels to 5 camera channels.
        weights = np.zeros(5 * 35 + 5, dtype="<f4")
        weights[3] = np.nan
        (workdir / "squeeze.proj").write_bytes(
            struct.pack("<4sII", b"PROJ", 5, 35) + weights.tobytes()
        )
        config = json.loads((workdir / "config.json").read_text())
        config["lidar_squeeze_path"] = "squeeze.proj"
        (workdir / "config.json").write_text(json.dumps(config))
        assert main(["fuse", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert "squeeze.proj: lidar_squeeze_path: 1 non-finite projection values" in err
        assert not (workdir / "scene" / "fused.bevg").exists()

    def test_mismatched_grid_window_is_data_error(self, workdir, capsys):
        cfg = small_config(workdir)
        assert main(["gen", "--seed", "1", "--objects", "4", "--config", cfg]) == 0
        wrong = BevGrid.zeros(GridSpec(64, 64, 5, (0.0, 38.4), (-19.2, 19.2)))
        save_grid([(wrong, workdir / "scene" / "camera.bevg")])
        assert main(["fuse", "--scene", "scene/manifest.json", "--config", cfg]) == 2
        assert "manifest" in capsys.readouterr().err


def edit_records(path, edit):
    """Rewrite a JSON-lines file after `edit(records)` changes its parsed records."""
    records = [json.loads(line) for line in path.read_text().splitlines()]
    edit(records)
    path.write_text("".join(json.dumps(r) + "\n" for r in records))


def annotations_as_detections(workdir):
    """Write the scene's annotations, scored 0.9, as dets.jsonl."""
    path = workdir / "scene" / "annotations.jsonl"
    records = [{**json.loads(line), "score": 0.9} for line in path.read_text().splitlines()]
    (workdir / "dets.jsonl").write_text("".join(json.dumps(r) + "\n" for r in records))


def write_grid_header(path, h, w, c, x_range, y_range):
    path.write_bytes(
        struct.pack("<4sIIIIdddd", b"BEVG", 1, h, w, c, *x_range, *y_range)
        + np.zeros(h * w * c, dtype="<f4").tobytes()
    )


def grid_payload(path):
    """The f32 payload of a grid file as an (H, W, C) array, read past its header."""
    header, raw = struct.Struct("<4sIIIIdddd"), path.read_bytes()
    _, _, h, w, c, *_ = header.unpack_from(raw)
    return np.frombuffer(raw, dtype="<f4", offset=header.size).reshape(h, w, c)


class TestInputBoundary:
    """Each bad input exits 2 naming the file (and the record), and writes no report."""

    @pytest.fixture()
    def scene(self, workdir):
        assert main(["gen", "--seed", "2", "--objects", "6"]) == 0
        annotations_as_detections(workdir)
        return workdir / "scene"

    def eval_fails(self, capsys, scene, *expected):
        assert main(["eval", "--dets", "dets.jsonl"]) == 2
        err = capsys.readouterr().err
        assert all(text in err for text in expected), err
        assert not (scene / "report.json").exists()

    def test_integer_too_large_for_a_float(self, scene, capsys):
        edit_records(scene / "annotations.jsonl", lambda r: r[3].update(num_lidar_pts=10**400))
        self.eval_fails(
            capsys, scene, "annotations.jsonl: record 3: num_lidar_pts must be a finite number"
        )

    @pytest.mark.parametrize("name", ["annotations.jsonl", "dets.jsonl"])
    @pytest.mark.parametrize("class_id", [99, -1])
    def test_class_id_out_of_range(self, scene, capsys, name, class_id):
        path = scene / name if name == "annotations.jsonl" else scene.parent / name
        edit_records(path, lambda r: r[1].update(class_id=class_id))
        self.eval_fails(capsys, scene, f"{name}: record 1: class_id {class_id} outside [0, 9]")

    def test_record_not_an_object(self, scene, capsys):
        path = scene / "annotations.jsonl"
        path.write_text(path.read_text() + "[1, 2, 3]\n")
        self.eval_fails(
            capsys, scene, "annotations.jsonl: record 6: expected a JSON object, got list"
        )

    @pytest.mark.parametrize("argv, name", [
        (["eval", "--dets", "dets.jsonl"], "dets.jsonl:1"),
        (["match"], "scene/manifest.json"),
        (["gen", "--config", "deep.json", "--out", "new"], "deep.json"),
        (["match", "--config", "deep.json"], "deep.json"),
    ], ids=["json-lines", "manifest", "gen-config", "match-config"])
    def test_nesting_too_deep_is_invalid_json(self, scene, capsys, argv, name):
        (scene.parent / name.removesuffix(":1")).write_text("[" * 100_000 + "\n")
        before = snapshot(scene.parent)
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"dualguide: error: {name}: invalid JSON (maximum recursion"), err
        assert err.count("\n") == 1
        assert snapshot(scene.parent) == before

    @pytest.mark.parametrize("name", ["annotations.jsonl", "manifest.json"])
    def test_bytes_not_utf8(self, scene, capsys, name):
        path = scene / name
        path.write_bytes(path.read_bytes().replace(b'"', b'"\xff', 1))
        self.eval_fails(capsys, scene, f"{name}: not UTF-8 text")

    def test_nan_window_bound_in_grid_header(self, workdir, capsys):
        assert main(["gen", "--seed", "2", "--objects", "6"]) == 0
        write_grid_header(workdir / "bad.bevg", 4, 4, 2, (0.0, float("nan")), (0.0, 4.0))
        assert main(["eval", "--peaks-from", "bad.bevg"]) == 2
        err = capsys.readouterr().err
        assert "bad.bevg: bad grid header: grid window must be finite" in err
        assert not (workdir / "scene" / "report.json").exists()

    def test_zero_dimension_in_grid_header(self, workdir, capsys):
        assert main(["gen", "--seed", "2", "--objects", "6"]) == 0
        write_grid_header(workdir / "bad.bevg", 0, 4, 2, (0.0, 4.0), (0.0, 4.0))
        assert main(["eval", "--peaks-from", "bad.bevg"]) == 2
        err = capsys.readouterr().err
        assert "bad.bevg: bad grid header: grid dimensions must be positive" in err

    @pytest.mark.parametrize("damage", ["truncated", "non-finite"])
    def test_readout_file_gives_the_load_grid_message(self, workdir, capsys, damage):
        assert main(["gen", "--seed", "2", "--objects", "6"]) == 0
        path = workdir / "scene" / "camera.bevg"
        if damage == "truncated":
            path.write_bytes(path.read_bytes()[:-10])
        else:
            grid = load_grid(path)
            grid.data[3, 4, 1] = grid.data[90, 2, 0] = float("nan")
            save_grid([(grid, path)])
        with pytest.raises(DataFormatError) as expected:
            load_grid(path)
        capsys.readouterr()
        assert main(["eval", "--peaks-from", str(path)]) == 2
        assert capsys.readouterr().err == f"dualguide: error: {expected.value}\n"
        assert not (workdir / "scene" / "report.json").exists()


class TestPointCloud:
    """A bad points.npy exits 2 naming the file, and no command writes its output."""

    @pytest.fixture()
    def points(self, workdir):
        assert main(["gen", "--seed", "1", "--objects", "6", "--points"]) == 0
        return workdir / "scene" / "points.npy"

    @pytest.mark.parametrize("command", ["stats", "fuse"])
    @pytest.mark.parametrize("damage, expected", [
        ("garbage", "not a point cloud"),
        ("two-columns", "expected floats of shape (N, 3), got float64"),
        ("nan", "1 non-finite point coordinates"),
    ], ids=["garbage", "two-columns", "nan"])
    def test_bad_point_cloud_is_data_error(self, points, capsys, command, damage, expected):
        if damage == "garbage":
            points.write_bytes(bytes(range(256)) * 4)
        else:
            cloud = np.load(points)
            if damage == "two-columns":
                cloud = cloud[:, :2]
            else:
                cloud[2, 1] = np.nan
            np.save(points, cloud)
        assert main([command]) == 2
        err = capsys.readouterr().err
        assert f"points.npy: {expected}" in err, err
        for name in ("pairs.json", "fused.bevg", "stats.json"):
            assert not (points.parent / name).exists()

    @pytest.mark.parametrize("command", ["stats", "fuse"])
    def test_header_larger_than_the_file_fails_before_allocating(self, workdir, capsys,
                                                                 command):
        # Small grids, so that what fuse loads before the points stays small.
        cfg = small_config(workdir)
        assert main(["gen", "--seed", "1", "--objects", "6", "--points", "--config", cfg]) == 0
        points = workdir / "scene" / "points.npy"
        with points.open("wb") as f:
            np.lib.format.write_array_header_1_0(
                f, {"descr": "<f8", "fortran_order": False, "shape": (2_000_000, 3)}
            )
            f.write(np.zeros((6, 3)).tobytes())
        assert points.stat().st_size == 272
        argv = [command, "--config", cfg] if command == "fuse" else [command]
        assert traced_peak(argv, code=2) < 1_000_000
        assert "points.npy: file is 272 bytes, header implies 48000128" in capsys.readouterr().err


def without(table, key):
    return {k: v for k, v in table.items() if k != key}


def first_object(**fields):
    """A manifest edit that keeps the first object alone, with `fields` set."""
    return lambda m: {**m, "objects": [{**m["objects"][0], **fields}]}


class TestManifestShape:
    """A manifest of the wrong shape exits 2 naming the manifest."""

    @pytest.fixture()
    def manifest(self, workdir):
        assert main(["gen", "--seed", "2", "--objects", "6"]) == 0
        return workdir / "scene" / "manifest.json"

    @pytest.mark.parametrize("command, edit, expected", [
        ("eval", lambda m: without(m, "files"), "no 'files' object"),
        ("eval", lambda m: {**m, "files": {**m["files"], "annotations": 5}},
         "files entry 'annotations' must be a file name, got 5"),
        ("eval", lambda m: [m], "expected a JSON object, got list"),
        ("fuse", lambda m: without(m, "grid"), "no 'grid' object"),
        ("fuse", lambda m: {**m, "files": without(m["files"], "lidar_grid")},
         "files entry 'lidar_grid' must be a file name, got None"),
        ("fuse", lambda m: {**m, "files": without(m["files"], "camera_proposals")},
         "files entry 'camera_proposals' must be a file name, got None"),
        ("fuse", lambda m: {**m, "objects": 5}, "'objects' must be a list, got int"),
        ("match", lambda m: {**m, "objects": [without(m["objects"][0], "x"), *m["objects"][1:]]},
         "object 0 has no field 'x'"),
        ("match", lambda m: {**m, "objects": [*m["objects"][:2], 7]},
         "object 2: expected a JSON object, got int"),
        ("fuse", first_object(yaw="0.5"),
         "object 0: box field 'yaw' must be a finite number, got '0.5'"),
        ("match", first_object(class_id="car"),
         "object 0: class_id must be a finite number, got 'car'"),
        ("fuse", first_object(class_id=10),
         "object 0: class_id 10 outside [0, 9]"),
        ("match", first_object(lidar_strength=float("nan")),
         "object 0: lidar_strength must be a finite number, got nan"),
        ("fuse", first_object(camera_strength=1.5),
         "object 0: camera_strength 1.5 outside [0, 1]"),
        ("match", first_object(profile=[1]),
         "object 0: profile must be a string, got [1]"),
        ("fuse", first_object(profile="mixed"),
         "object 0: profile 'mixed' not in ('easy', 'lidar-hole', 'occluded')"),
        ("match", first_object(visibility_token=9.5),
         "object 0: visibility_token must be an integer, got 9.5"),
        ("fuse", first_object(visibility_token=0),
         "object 0: visibility token 0 not in 1..4"),
        ("match", first_object(num_lidar_pts=-3),
         "object 0: num_lidar_pts must be >= 0"),
    ], ids=["no-files", "entry-not-a-name", "top-level-list", "no-grid", "no-lidar-grid",
            "no-camera-proposals", "objects-not-a-list", "object-without-x",
            "object-not-an-object", "object-yaw-not-a-number", "object-class-not-a-number",
            "object-class-out-of-range", "object-strength-nan", "object-strength-above-1",
            "object-profile-not-a-string", "object-profile-unknown",
            "object-token-not-an-integer", "object-token-out-of-range",
            "object-negative-point-count"])
    def test_bad_shape_is_data_error(self, manifest, capsys, command, edit, expected):
        manifest.write_text(json.dumps(edit(json.loads(manifest.read_text()))))
        assert main([command]) == 2
        err = capsys.readouterr().err
        assert f"scene/manifest.json: {expected}" in err, err
        assert not (manifest.parent / "report.json").exists()
        assert not (manifest.parent / "fused.bevg").exists()
        assert not (manifest.parent / "pairs.json").exists()

    @pytest.mark.parametrize("command", ["fuse", "match"])
    @pytest.mark.parametrize("key, name, other", [
        ("camera_channels", "camera.bevg", "lidar.bevg"),
        ("lidar_channels", "lidar.bevg", "camera.bevg"),
    ])
    def test_grid_header_mismatch_names_the_one_file(self, manifest, capsys, command, key,
                                                     name, other):
        data = json.loads(manifest.read_text())
        data["grid"][key] += 1
        manifest.write_text(json.dumps(data))
        assert main([command]) == 2
        err = capsys.readouterr().err
        assert f"grid header of {name!r} does not match the manifest's grid spec" in err
        assert other not in err
        assert not (manifest.parent / "fused.bevg").exists()
        assert not (manifest.parent / "pairs.json").exists()

    def test_points_entry_optional(self, manifest):
        data = json.loads(manifest.read_text())
        manifest.write_text(json.dumps({**data, "files": without(data["files"], "points")}))
        assert main(["stats"]) == 0


def fresh_process(workdir, args, env=(), **kwargs):
    """`python *args` in a new process in workdir, importing this checkout's dualguide."""
    src = str(Path(dualguide.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
           **dict(env)}
    return subprocess.run([sys.executable, *args], cwd=workdir, env=env, capture_output=True,
                          text=True, **kwargs)


class TestFailedWrite:
    """A write that fails (here: a file-size limit, as a full disk would) names its file."""

    @pytest.mark.parametrize("command, limit, names", [
        ("gen", 400_000, ("camera.bevg",)),
        ("fuse", 400_000, FUSE_OUTPUTS),
        ("match", 1_000, ("pairs.json",)),
    ])
    def test_exit_2_names_the_file(self, workdir, command, limit, names):
        if command != "gen":
            assert main(["gen", "--seed", "7", "--objects", "12"]) == 0

        def limit_file_size():  # in the child only
            resource.setrlimit(resource.RLIMIT_FSIZE, (limit, limit))

        done = fresh_process(workdir, ["-m", "dualguide.cli", command],
                             preexec_fn=limit_file_size)
        assert done.returncode == 2, done.stderr
        (line,) = done.stderr.splitlines()
        assert line.startswith("dualguide: error: [Errno 27] File too large: "), line
        assert any(f"scene/{name}'" in line for name in names), line


def snapshot(root):
    """Every path under root, with the bytes of each file (None for a directory)."""
    return {p: p.read_bytes() if p.is_file() else None for p in sorted(root.rglob("*"))}


class TestWrongKindPath:
    """A path of the wrong kind exits 2 with one line naming it, and writes nothing.

    The wrong kind is a directory where a file is read, or a file where
    `--out` makes a directory.
    """

    @pytest.fixture()
    def root(self, workdir):
        assert main(["gen", "--seed", "2", "--objects", "6"]) == 0
        (workdir / "s1").mkdir()
        (workdir / "taken.txt").write_text("kept\n")
        return workdir

    def fails_in_one_line(self, capsys, root, argv, named):
        before = snapshot(root)
        capsys.readouterr()
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("dualguide: error: ") and err.count("\n") == 1, err
        assert f"'{named}'" in err and "Traceback" not in err, err
        assert snapshot(root) == before

    @pytest.mark.parametrize("argv, named", [
        (["fuse", "--scene", "s1"], "s1"),
        (["match", "--scene", "s1"], "s1"),
        (["eval", "--scene", "s1"], "s1"),
        (["stats", "--scene", "s1"], "s1"),
        (["loss", "--components", "s1"], "s1"),
        (["eval", "--dets", "s1"], "s1"),
        (["eval", "--peaks-from", "s1"], "s1"),
        (["fuse", "--config", "s1"], "s1"),
        (["gen", "--config", "s1", "--out", "new"], "s1"),
        (["fuse", "--out", "taken.txt"], "taken.txt"),
        (["gen", "--out", "taken.txt"], "taken.txt"),
    ], ids=["fuse-scene", "match-scene", "eval-scene", "stats-scene", "loss-components",
            "eval-dets", "eval-peaks-from", "fuse-config", "gen-config", "fuse-out", "gen-out"])
    def test_path_of_the_wrong_kind(self, root, capsys, argv, named):
        self.fails_in_one_line(capsys, root, argv, named)

    @pytest.mark.parametrize("command, key", [("fuse", "camera_grid"), ("eval", "annotations")])
    def test_manifest_entry_naming_a_directory(self, root, capsys, command, key):
        manifest = root / "scene" / "manifest.json"
        data = json.loads(manifest.read_text())
        manifest.write_text(json.dumps({**data, "files": {**data["files"], key: "sub"}}))
        (root / "scene" / "sub").mkdir()
        self.fails_in_one_line(capsys, root, [command], "scene/sub")


def swap_entry(scene):
    """The manifest's camera_proposals entry names the LiDAR proposals file."""
    manifest = scene / "manifest.json"
    data = json.loads(manifest.read_text())
    data["files"]["camera_proposals"] = data["files"]["lidar_proposals"]
    manifest.write_text(json.dumps(data))


def flip_record(scene):
    """One camera proposal says it is a LiDAR one."""
    edit_records(scene / "camera_proposals.jsonl", lambda r: r[2].update(modality="lidar"))


class TestProposalSlots:
    """Each proposals file holds its manifest slot's modality, or the command exits 2.

    A camera slot naming the LiDAR file, or one record of the wrong modality,
    would otherwise match LiDAR proposals against themselves.
    """

    @pytest.fixture()
    def root(self, workdir):
        assert main(["gen", "--seed", "3", "--objects", "12"]) == 0
        comp = {branch: {"cls_pred": [0.9], "cls_target": [1]}
                for branch in ("head", "lidar", "camera")}
        (workdir / "loss.json").write_text(json.dumps(comp))
        return workdir

    @pytest.mark.parametrize("argv", [
        ["fuse", "--out", "out"],
        ["match", "--out", "pairs.json"],
        ["loss", "--components", "loss.json", "--scene", "scene/manifest.json",
         "--out", "report.json"],
    ], ids=["fuse", "match", "loss"])
    @pytest.mark.parametrize("damage, expected", [
        (swap_entry, "lidar_proposals.jsonl: record 0: modality must be 'camera', got 'lidar'"),
        (flip_record, "camera_proposals.jsonl: record 2: modality must be 'camera', got 'lidar'"),
    ], ids=["swapped-entry", "flipped-record"])
    def test_wrong_modality_fails_before_writing(self, root, capsys, argv, damage, expected):
        damage(root / "scene")
        before = snapshot(root)
        assert main(argv) == 2
        assert expected in capsys.readouterr().err
        assert snapshot(root) == before


# Each projection's (rows, cols) on `small_config` scenes: 5 key points
# (center+boundary_mid) of 5 camera or 7 LiDAR channels.
SMALL_SHAPES = {"lidar_squeeze": (5, 35), "camera_squeeze": (5, 25), "excitation": (7, 25)}


def write_projection(path, rows, cols):
    """A zero-weight projection file of the given shape."""
    weights = np.zeros(rows * cols + rows, dtype="<f4")
    path.write_bytes(struct.pack("<4sII", b"PROJ", rows, cols) + weights.tobytes())


class TestGenConfig:
    """`gen` reads its config before writing, and refuses to write over it."""

    @pytest.fixture()
    def root(self, workdir):
        assert main(["gen", "--seed", "2", "--objects", "4", "--out", "scene"]) == 0
        return workdir

    @pytest.mark.parametrize("config, flags", [
        ("scene/manifest.json", []),
        ("scene/camera_proposals.jsonl", []),
        ("scene/points.npy", ["--points"]),
    ], ids=["manifest", "proposals", "points"])
    def test_gen_refuses_to_overwrite_its_config(self, root, capsys, config, flags):
        # Any valid config, at the path of a file gen writes: gen reads it, then refuses.
        (root / config).write_text(json.dumps({"camera_channels": 4}))
        before = snapshot(root)
        assert main(["gen", "--config", config, "--out", "scene", *flags]) == 2
        err = capsys.readouterr().err
        assert err == f"dualguide: error: output {config} is the input {config}\n"
        assert snapshot(root) == before

    def test_gen_writes_over_a_config_named_points_without_points(self, root, capsys):
        # Without --points, gen writes no points.npy: a config there is no output.
        (root / "scene" / "points.npy").write_text(json.dumps({"camera_channels": 4}))
        assert main(["gen", "--config", "scene/points.npy", "--out", "scene"]) == 0
        assert json.loads((root / "scene" / "points.npy").read_text()) == {"camera_channels": 4}


class TestWeightFiles:
    """Each command reads the weight files of the projections it applies, and no other.

    A file of another shape exits 2 naming the file and its config key.
    """

    LOSS = ["loss", "--components", "loss.json", "--scene", "scene/manifest.json"]

    @pytest.fixture()
    def root(self, workdir):
        assert main(["gen", "--seed", "8", "--objects", "8", "--config",
                     small_config(workdir)]) == 0
        comp = {branch: {"cls_pred": [0.9], "cls_target": [1]}
                for branch in ("head", "lidar", "camera")}
        (workdir / "loss.json").write_text(json.dumps(comp))
        return workdir

    @staticmethod
    def config(root, **paths):
        """`small_config` with the weight paths given; its file name."""
        data = json.loads((root / "config.json").read_text())
        (root / "weights.json").write_text(json.dumps({**data, **paths}))
        return "weights.json"

    @pytest.mark.parametrize("argv, name", [
        (["fuse", "--out", "out"], "lidar_squeeze"),
        (["fuse", "--out", "out"], "excitation"),
        ([*LOSS, "--out", "report.json"], "lidar_squeeze"),
        ([*LOSS, "--out", "report.json"], "camera_squeeze"),
    ], ids=["fuse-lidar_squeeze", "fuse-excitation", "loss-lidar_squeeze",
            "loss-camera_squeeze"])
    @pytest.mark.parametrize("wrong", ["rows", "cols"])
    def test_a_file_of_another_shape_fails_before_writing(self, root, capsys, argv, name,
                                                          wrong):
        rows, cols = SMALL_SHAPES[name]
        rows, cols = rows + (wrong == "rows"), cols + (wrong == "cols")
        write_projection(root / "bad.proj", rows, cols)
        config = self.config(root, **{f"{name}_path": "bad.proj"})
        before = snapshot(root)
        assert main([*argv, "--config", config]) == 2
        err = capsys.readouterr().err
        assert f"bad.proj: {name}_path maps {cols} values to {rows}, the scene needs" in err, err
        assert "Traceback" not in err and err.count("\n") == 1
        assert snapshot(root) == before

    @pytest.mark.parametrize("argv, name", [
        (["fuse", "--out", "out"], "lidar_squeeze"),
        (["fuse", "--out", "out"], "excitation"),
        ([*LOSS, "--out", "report.json"], "lidar_squeeze"),
        ([*LOSS, "--out", "report.json"], "camera_squeeze"),
    ], ids=["fuse-lidar_squeeze", "fuse-excitation", "loss-lidar_squeeze",
            "loss-camera_squeeze"])
    @pytest.mark.parametrize("path, reason", [
        ("missing.proj", "No such file or directory"),
        ("dirw", "Is a directory"),
        ("short.proj", "truncated projection header"),
    ], ids=["missing", "directory", "truncated"])
    def test_a_file_that_cannot_be_read_names_its_key(self, root, capsys, argv, name, path,
                                                      reason):
        (root / "dirw").mkdir()
        (root / "short.proj").write_bytes(b"PROJ\x01\x00\x00")
        config = self.config(root, **{f"{name}_path": path})
        before = snapshot(root)
        assert main([*argv, "--config", config]) == 2
        err = capsys.readouterr().err
        assert err == f"dualguide: error: {path}: {name}_path: {reason}\n"
        assert snapshot(root) == before

    @pytest.mark.parametrize("argv, name, output", [
        (["match", "--out", "weights.json"], None, "weights.json"),
        (["loss", "--components", "loss.json", "--out", "weights.json"], None, "weights.json"),
        (["fuse", "--out", "out"], "lidar_squeeze", "out/pairs.json"),
        (["fuse", "--out", "out"], "excitation", "out/fused.bevg"),
        ([*LOSS, "--out", "w.proj"], "lidar_squeeze", "w.proj"),
        ([*LOSS, "--out", "w.proj"], "camera_squeeze", "w.proj"),
    ], ids=["match-config", "loss-config", "fuse-lidar_squeeze", "fuse-excitation",
            "loss-lidar_squeeze", "loss-camera_squeeze"])
    def test_an_output_that_is_the_config_or_a_weight_file_fails_before_writing(
        self, root, capsys, argv, name, output
    ):
        # Each weight file is of the shape the command applies, so only the check refuses it.
        (root / "out").mkdir()
        if name:
            write_projection(root / output, *SMALL_SHAPES[name])
        config = self.config(root, **({f"{name}_path": output} if name else {}))
        before = snapshot(root)
        assert main([*argv, "--config", config]) == 2
        err = capsys.readouterr().err
        assert err == f"dualguide: error: output {output} is the input {output}\n"
        assert snapshot(root) == before

    @pytest.mark.parametrize("argv, out, unread", [
        (["fuse"], "{}", ("camera_squeeze",)),
        (["fuse", "--no-enhance"], "{}", tuple(SMALL_SHAPES)),
        (["match"], "{}/pairs.json", tuple(SMALL_SHAPES)),
        (LOSS, "{}/report.json", ("excitation",)),
    ], ids=["fuse", "fuse-no-enhance", "match", "loss"])
    def test_a_path_the_command_does_not_apply_is_not_read(self, root, capsys, argv, out,
                                                           unread):
        config = self.config(root, **{f"{name}_path": "missing.proj" for name in unread})
        for run, cfg in (("base", "config.json"), ("out", config)):
            (root / run).mkdir()
            assert main([*argv, "--out", out.format(run), "--config", cfg]) == 0
        written = sorted(p.name for p in (root / "out").iterdir())
        assert written and written == sorted(p.name for p in (root / "base").iterdir())
        for name in written:
            assert (root / "out" / name).read_bytes() == (root / "base" / name).read_bytes()


class TestMaxPeaks:
    def test_negative_cap_is_config_error(self, workdir, capsys):
        assert main(["gen", "--seed", "2", "--objects", "6"]) == 0
        assert main(["fuse"]) == 0
        assert main(["eval", "--max-peaks", "-1"]) == 2
        assert "max_peaks must be >= 0, got -1" in capsys.readouterr().err
        assert not (workdir / "scene" / "report.json").exists()
        assert main(["eval", "--max-peaks", "0"]) == 0
        assert "n_det=0" in capsys.readouterr().out

    def test_cap_with_detection_file_is_usage_error(self, workdir, capsys):
        assert main(["gen", "--seed", "2", "--objects", "6"]) == 0
        annotations_as_detections(workdir)
        for cap in ("3", "0"):
            assert main(["eval", "--dets", "dets.jsonl", "--max-peaks", cap]) == 1
            assert "--max-peaks caps the readout, which --dets replaces" in capsys.readouterr().err
        assert not (workdir / "scene" / "report.json").exists()


class TestCommandChain:
    def test_gen_fuse_eval_default_paths(self, workdir, capsys):
        cfg = small_config(workdir)
        assert main(["gen", "--seed", "7", "--objects", "12", "--config", cfg]) == 0
        assert (workdir / "scene" / "manifest.json").exists()
        assert main(["fuse", "--config", cfg]) == 0
        for name in ("enhanced_camera.bevg", "enhanced_lidar.bevg", "fused.bevg", "pairs.json"):
            assert (workdir / "scene" / name).exists()
        assert main(["eval", "--axis", "distance"]) == 0
        report = json.loads((workdir / "scene" / "report.json").read_text())
        assert report["axis"] == "distance"
        assert len(report["bins"]) == 3

    def test_fused_grid_has_combined_channels(self, workdir):
        cfg = small_config(workdir)
        main(["gen", "--seed", "2", "--objects", "5", "--config", cfg])
        main(["fuse", "--config", cfg])
        fused = load_grid(workdir / "scene" / "fused.bevg")
        assert fused.spec.channels == 12

    def test_match_writes_pair_dump(self, workdir):
        cfg = small_config(workdir)
        main(["gen", "--seed", "3", "--objects", "6", "--config", cfg])
        assert main(["match", "--config", cfg, "--out", "pairs.json"]) == 0
        pairs = json.loads((workdir / "pairs.json").read_text())
        assert set(pairs) == {
            "easy", "camera_hard", "lidar_hard", "unmatched_lidar", "unmatched_camera"
        }
        for pair in pairs["easy"]:
            assert set(pair) == {"kind", "anchor_idx", "guide_idx", "similarity", "classes"}
            assert pair["similarity"] >= 0.7

    def test_match_and_fuse_write_identical_pairs(self, workdir):
        cfg = small_config(workdir)
        main(["gen", "--seed", "9", "--objects", "10", "--config", cfg])
        assert main(["match", "--config", cfg, "--out", "match_pairs.json"]) == 0
        assert main(["fuse", "--config", cfg]) == 0
        pairs = (workdir / "scene" / "pairs.json").read_bytes()
        assert json.loads(pairs)["easy"]
        assert (workdir / "match_pairs.json").read_bytes() == pairs

    def test_no_enhance_writes_the_raw_concatenation(self, workdir):
        cfg = small_config(workdir)
        main(["gen", "--seed", "9", "--objects", "10", "--config", cfg])
        assert main(["fuse", "--config", cfg, "--out", "plain"]) == 0
        assert main(["fuse", "--config", cfg, "--out", "raw", "--no-enhance"]) == 0
        scene, raw = workdir / "scene", workdir / "raw"
        lidar, camera = grid_payload(scene / "lidar.bevg"), grid_payload(scene / "camera.bevg")
        assert np.array_equal(
            grid_payload(raw / "fused.bevg"), np.concatenate([lidar, camera], axis=2)
        )
        assert np.array_equal(grid_payload(raw / "enhanced_lidar.bevg"), lidar)
        assert np.array_equal(grid_payload(raw / "enhanced_camera.bevg"), camera)
        pairs = (raw / "pairs.json").read_bytes()
        assert json.loads(pairs)["easy"]
        assert (workdir / "plain" / "pairs.json").read_bytes() == pairs

    def test_stats_reports_histogram(self, workdir, capsys):
        cfg = small_config(workdir)
        main(["gen", "--seed", "4", "--objects", "8", "--points", "--config", cfg])
        assert main(["stats"]) == 0
        stats = json.loads((workdir / "scene" / "stats.json").read_text())
        assert stats["buckets"] == ["0", "1", "2-4", "5-9", "10-49", "50+"]
        total = sum(sum(row) for row in stats["counts"].values())
        assert total == 8

    def test_eval_accepts_detection_file(self, workdir):
        cfg = small_config(workdir)
        main(["gen", "--seed", "5", "--objects", "4", "--config", cfg])
        from dualguide.formats import load_annotations, save_detections
        from dualguide.metrics import Detection

        anns = load_annotations(workdir / "scene" / "annotations.jsonl")
        dets = [Detection(a.box, a.class_id, 0.9) for a in anns]
        save_detections(dets, workdir / "dets.jsonl")
        assert main(["eval", "--dets", "dets.jsonl", "--axis", "size", "--out", "r.json"]) == 0
        report = json.loads((workdir / "r.json").read_text())
        assert report["axis"] == "size"

    def test_eval_and_stats_read_only_what_they_use(self, workdir, capsys):
        cfg = small_config(workdir)
        main(["gen", "--seed", "5", "--objects", "4", "--points", "--config", cfg])
        from dualguide.formats import load_annotations, save_detections
        from dualguide.metrics import Detection

        anns = load_annotations(workdir / "scene" / "annotations.jsonl")
        save_detections([Detection(a.box, a.class_id, 0.9) for a in anns], workdir / "dets.jsonl")
        for name in ("camera.bevg", "lidar.bevg", "camera_proposals.jsonl"):
            (workdir / "scene" / name).unlink()
        assert main(["eval", "--dets", "dets.jsonl"]) == 0
        assert main(["stats"]) == 0
        (workdir / "scene" / "points.npy").unlink()
        assert main(["eval", "--dets", "dets.jsonl"]) == 0
        assert main(["stats"]) == 2
        (workdir / "scene" / "annotations.jsonl").unlink()
        assert main(["eval", "--dets", "dets.jsonl"]) == 2
        err = capsys.readouterr().err
        assert "manifest references missing file 'points.npy'" in err
        assert "manifest references missing file 'annotations.jsonl'" in err

    def test_readout_eval_is_class_agnostic(self, workdir, capsys):
        # The readout labels every peak class 0; scored class-aware, the
        # annotations of other classes read as misses (mAP 0.0 at recall 1.0).
        assert main(["gen", "--seed", "2", "--objects", "6"]) == 0
        assert main(["fuse"]) == 0
        capsys.readouterr()
        assert main(["eval"]) == 0
        assert "mAP is class-agnostic" in capsys.readouterr().out
        report = json.loads((workdir / "scene" / "report.json").read_text())
        assert report["class_agnostic"] is True
        (only,) = report["bins"]
        assert only["mean_ap"] == pytest.approx(0.8)
        assert only["recall"]["0.3"] == 1.0
        assert only["n_gt"] == 6
        annotations_as_detections(workdir)
        assert main(["eval", "--dets", "dets.jsonl"]) == 0
        assert "class-agnostic" not in capsys.readouterr().out
        report = json.loads((workdir / "scene" / "report.json").read_text())
        assert report["class_agnostic"] is False
        assert report["bins"][0]["mean_ap"] == 1.0

    def test_eval_without_detections_or_fused_grid_fails(self, workdir, capsys):
        cfg = small_config(workdir)
        main(["gen", "--seed", "6", "--objects", "4", "--config", cfg])
        assert main(["eval"]) == 2


class TestLossCommand:
    def test_components_only(self, workdir, capsys):
        comp = {
            "head": {"cls_pred": [0.9, 0.1], "cls_target": [1, 0],
                     "box_pred": [1.0, 2.0], "box_target": [1.5, 2.0]},
            "lidar": {"cls_pred": [0.8], "cls_target": [1]},
            "camera": {"cls_pred": [0.7], "cls_target": [1]},
            "cosine": 0.25,
        }
        (workdir / "loss.json").write_text(json.dumps(comp))
        assert main(["loss", "--components", "loss.json", "--out", "out.json"]) == 0
        report = json.loads((workdir / "out.json").read_text())
        assert report["cosine"] == 0.25
        assert report["history_max"] == 0.25
        expected = (
            0.99 * report["head"]
            + 1e-4 * report["lidar"]
            + 1e-4 * report["camera"]
            + 1e-2 * 0.25
        )
        assert report["total"] == pytest.approx(expected)

    def test_empty_cosine_uses_history(self, workdir):
        comp = {
            "head": {"cls_pred": [0.9], "cls_target": [1]},
            "lidar": {"cls_pred": [0.9], "cls_target": [1]},
            "camera": {"cls_pred": [0.9], "cls_target": [1]},
        }
        (workdir / "loss.json").write_text(json.dumps(comp))
        assert main(["loss", "--components", "loss.json", "--history", "0.4",
                     "--out", "out.json"]) == 0
        report = json.loads((workdir / "out.json").read_text())
        assert report["cosine"] is None
        assert report["cosine_used"] == 0.4
        assert report["history_max"] == 0.4

    def test_scene_supplies_cosine(self, workdir):
        cfg = small_config(workdir)
        main(["gen", "--seed", "8", "--objects", "8", "--config", cfg])
        comp = {
            "head": {"cls_pred": [0.9], "cls_target": [1]},
            "lidar": {"cls_pred": [0.9], "cls_target": [1]},
            "camera": {"cls_pred": [0.9], "cls_target": [1]},
        }
        (workdir / "loss.json").write_text(json.dumps(comp))
        assert main(["loss", "--components", "loss.json", "--scene", "scene/manifest.json",
                     "--config", cfg, "--out", "out.json"]) == 0
        report = json.loads((workdir / "out.json").read_text())
        assert report["cosine"] is None or 0.0 <= report["cosine"] <= 2.0

    def test_scene_cosine_matches_run_fusion(self, workdir):
        cfg = small_config(workdir)
        main(["gen", "--seed", "8", "--objects", "8", "--config", cfg])
        comp = {branch: {"cls_pred": [0.9], "cls_target": [1]}
                for branch in ("head", "lidar", "camera")}
        (workdir / "loss.json").write_text(json.dumps(comp))
        assert main(["loss", "--components", "loss.json", "--scene", "scene/manifest.json",
                     "--config", cfg, "--out", "out.json"]) == 0
        report = json.loads((workdir / "out.json").read_text())
        scene = load_scene(workdir / "scene" / "manifest.json")
        config = load_config(cfg)
        instances = camera_instances(scene.camera_grid, scene.camera_proposals, config)
        pairs = run_fusion(scene.camera_grid, scene.lidar_grid, instances,
                           scene.lidar_proposals, config)
        cosine = pair_cosine_loss(
            pairs.easy, *build_projections(config, 5, 7, "lidar_squeeze", "camera_squeeze")
        )
        assert cosine is not None
        assert report["cosine"] == cosine

    @pytest.mark.parametrize("flag, value", [
        ("--gamma", "0.5"),
        ("--eta", "0.5"),
        ("--sampling-strategy", "center"),
        ("--grouping-strategy", "none"),
    ])
    def test_pipeline_flag_without_scene_is_usage_error(self, workdir, capsys, flag, value):
        comp = {branch: {"cls_pred": [0.9], "cls_target": [1]}
                for branch in ("head", "lidar", "camera")}
        (workdir / "loss.json").write_text(json.dumps(comp))
        assert main(["loss", "--components", "loss.json", flag, value]) == 1
        assert f"{flag} needs --scene" in capsys.readouterr().err

    def test_missing_section_is_data_error(self, workdir):
        (workdir / "loss.json").write_text(json.dumps({"head": {}}))
        assert main(["loss", "--components", "loss.json"]) == 2

    @pytest.mark.parametrize("edit, key", [
        (lambda c: [c], "expected a JSON object"),
        (lambda c: {**c, "head": [1]}, "section 'head' must be a JSON object"),
        (lambda c: {**c, "camera": {"cls_pred": ["a"], "cls_target": [1]}}, "camera.cls_pred"),
        (lambda c: {**c, "lidar": {"box_pred": [float("nan")], "box_target": [0.0]}},
         "lidar.box_pred"),
        (lambda c: {**c, "head": {"cls_pred": [0.9, 0.1], "cls_target": [[1], [0, 1]]}},
         "head.cls_target"),
        (lambda c: {**c, "head": {"cls_pred": [0.9]}}, "head.cls_target"),
        (lambda c: {**c, "cosine": "x"}, "cosine must be a finite number"),
        (lambda c: {**c, "cosine": float("nan")}, "cosine must be a finite number"),
        (lambda c: {**c, "cosine": -5}, "cosine must be in [0, 2]"),
        (lambda c: {**c, "cosine": 2.5}, "cosine must be in [0, 2]"),
        # Finite inputs whose L1 term overflows.
        (lambda c: {**c, "head": {"box_pred": [1e308], "box_target": [-1e308]}},
         "head overflows to inf"),
    ], ids=["top-level-list", "section-list", "string-pred", "nan-pred", "ragged-target",
            "no-target", "string-cosine", "nan-cosine", "negative-cosine", "cosine-above-2",
            "l1-overflow"])
    def test_bad_components_are_data_errors(self, workdir, capsys, edit, key):
        # json.dumps writes a NaN as JSON's NaN literal, which json.loads accepts.
        comp = {branch: {"cls_pred": [0.9], "cls_target": [1]}
                for branch in ("head", "lidar", "camera")}
        (workdir / "loss.json").write_text(json.dumps(edit(comp)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy's overflow warning fails the case
            assert main(["loss", "--components", "loss.json", "--out", "out.json"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("dualguide: error: loss.json: ") and key in err
        assert len(err.splitlines()) == 1
        assert not (workdir / "out.json").exists()

    def test_overflowing_lambdas_are_config_errors(self, workdir, capsys):
        # Every component is finite, so the message names the config, not the components.
        comp = {branch: {"box_pred": [2.0], "box_target": [0.0]}
                for branch in ("head", "lidar", "camera")}
        (workdir / "loss.json").write_text(json.dumps(comp))
        (workdir / "config.json").write_text(json.dumps({"lambdas": [1e308, 1e308, 1, 1]}))
        argv = ["loss", "--components", "loss.json", "--config", "config.json", "--out", "out.json"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("dualguide: error: config.json: lambdas [1e+308, 1e+308, 1, 1]")
        assert "overflow the total to inf" in err and len(err.splitlines()) == 1
        assert not (workdir / "out.json").exists()

    @pytest.mark.parametrize("value", ["nan", "inf", "-0.5"])
    def test_history_must_be_finite_and_non_negative(self, workdir, capsys, value):
        comp = {branch: {"cls_pred": [0.9], "cls_target": [1]}
                for branch in ("head", "lidar", "camera")}
        (workdir / "loss.json").write_text(json.dumps(comp))
        argv = ["loss", "--components", "loss.json", f"--history={value}", "--out", "out.json"]
        assert main(argv) == 2
        assert "--history must be a finite number >= 0" in capsys.readouterr().err
        assert not (workdir / "out.json").exists()


def traced_peak(argv, code=0):
    """The tracemalloc peak of `main(argv)`, after one untraced warm-up call."""
    assert main(argv) == code  # pays one-off allocations (imports, caches)
    gc.collect()
    tracemalloc.start()
    try:
        assert main(argv) == code
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestPeakMemory:
    """`fuse` and `match` hold the camera grid alone; `gen` and `eval`'s readout hold none."""

    CHANNELS = {"camera_channels": 48, "lidar_channels": 80}
    FUSED_BYTES = 128 * 128 * (48 + 80) * 8  # 16.8 MB of f64

    @pytest.fixture(scope="class")
    def gen_argv(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("deep")
        config = root / "config.json"
        config.write_text(json.dumps({
            "height_cells": 128, "width_cells": 128,
            "x_range": [-38.4, 38.4], "y_range": [-38.4, 38.4], **self.CHANNELS,
        }))
        return ["gen", "--seed", "4", "--objects", "12", "--config", str(config),
                "--out", str(root / "scene")]

    @pytest.fixture(scope="class")
    def manifest(self, gen_argv):
        assert main(gen_argv) == 0
        return str(Path(gen_argv[-1]) / "manifest.json")

    def test_gen_holds_no_grid(self, gen_argv, capsys):
        # Either f64 grid alone is 6.3 MB (camera) or 10.5 MB (LiDAR).
        assert traced_peak(gen_argv) <= 0.25 * self.FUSED_BYTES

    @pytest.mark.parametrize("command", ["fuse", "match"])
    def test_fuse_and_match_hold_no_lidar_or_fused_grid(self, manifest, capsys, command):
        # The 6.3 MB camera grid plus row blocks: 7.9 MB. The 10.5 MB f64
        # LiDAR grid or the fused grid, held again, would exceed the bound.
        assert traced_peak([command, "--scene", manifest]) <= 0.6 * self.FUSED_BYTES

    def test_eval_readout_holds_no_grid(self, manifest, capsys):
        assert main(["fuse", "--scene", manifest]) == 0
        assert traced_peak(["eval", "--scene", manifest]) <= 0.25 * self.FUSED_BYTES


class TestDeterminism:
    def test_gen_fuse_eval_twice_byte_identical(self, workdir):
        cfg = small_config(workdir)
        for out in ("run_a", "run_b"):
            scene_dir = f"{out}/scene"
            assert main(["gen", "--seed", "7", "--objects", "10", "--out", scene_dir,
                         "--config", cfg]) == 0
            assert main(["fuse", "--scene", f"{scene_dir}/manifest.json", "--config", cfg]) == 0
            assert main(["eval", "--scene", f"{scene_dir}/manifest.json",
                         "--axis", "distance"]) == 0
        names = [
            "manifest.json", "camera.bevg", "lidar.bevg",
            "camera_proposals.jsonl", "lidar_proposals.jsonl", "annotations.jsonl",
            "enhanced_camera.bevg", "enhanced_lidar.bevg", "fused.bevg",
            "pairs.json", "report.json",
        ]
        for name in names:
            a = (workdir / "run_a" / "scene" / name).read_bytes()
            b = (workdir / "run_b" / "scene" / name).read_bytes()
            assert a == b, f"{name} differs between identical runs"

    def test_gen_fuse_rerun_in_place_byte_identical(self, workdir):
        cfg = small_config(workdir)
        scene = workdir / "scene"

        def gen_fuse():
            assert main(["gen", "--seed", "7", "--objects", "10", "--config", cfg]) == 0
            assert main(["fuse", "--config", cfg]) == 0
            return {p.name: p.read_bytes() for p in scene.iterdir()}

        first = gen_fuse()
        # The link keeps the first fused.bevg, so its inode number is not reused.
        (workdir / "first_fused.bevg").hardlink_to(scene / "fused.bevg")
        assert gen_fuse() == first
        assert (scene / "fused.bevg").stat().st_ino != (workdir / "first_fused.bevg").stat().st_ino
        assert (workdir / "first_fused.bevg").read_bytes() == first["fused.bevg"]


class TestOneParser:
    """`main` builds its parser once per process, and each call parses afresh."""

    def test_a_later_call_builds_no_parser(self, workdir, capsys, monkeypatch):
        main(["gen", "--bogus"])  # the process's first call, if no test made one before
        built = []
        init = argparse.ArgumentParser.__init__
        monkeypatch.setattr(argparse.ArgumentParser, "__init__",
                            lambda self, *a, **kw: built.append(self) or init(self, *a, **kw))
        cfg = small_config(workdir)
        assert main(["gen", "--seed", "2", "--objects", "5", "--config", cfg]) == 0
        assert main(["eval", "--bogus"]) == 1
        assert main(["match", "--help"]) == 0
        assert built == []

    def test_flags_do_not_leak_between_calls(self, workdir, capsys):
        cfg = small_config(workdir)
        assert main(["gen", "--seed", "9", "--objects", "10", "--config", cfg]) == 0
        assert main(["fuse", "--no-enhance", "--config", cfg]) == 0
        raw = (workdir / "scene" / "fused.bevg").read_bytes()
        assert main(["fuse", "--config", cfg]) == 0
        assert fresh_process(workdir, ["-m", "dualguide.cli", "fuse", "--config", cfg,
                                       "--out", "fresh"]).returncode == 0
        for name in FUSE_OUTPUTS:
            fresh = (workdir / "fresh" / name).read_bytes()
            assert (workdir / "scene" / name).read_bytes() == fresh, name
        assert (workdir / "fresh" / "fused.bevg").read_bytes() != raw  # the flag mattered

        assert main(["eval", "--max-peaks", "3", "--out", "capped.json"]) == 0
        assert main(["eval"]) == 0
        assert fresh_process(workdir, ["-m", "dualguide.cli", "eval",
                                       "--out", "fresh.json"]).returncode == 0
        report = (workdir / "scene" / "report.json").read_bytes()
        assert report == (workdir / "fresh.json").read_bytes()
        assert report != (workdir / "capped.json").read_bytes()

    @pytest.mark.parametrize("argv", [
        ["gen", "--bogus"],
        ["frobnicate"],
        ["gen", "--profile", "foggy"],
        ["eval", "--dets", "d.jsonl", "--peaks-from", "g.bevg"],
        ["eval", "--dets", "d.jsonl", "--max-peaks", "3"],
        ["loss", "--components", "c.json", "--gamma", "0.5"],
    ])
    def test_a_usage_error_reads_the_same_on_every_call(self, workdir, capsys, monkeypatch,
                                                        argv):
        monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage to the terminal width
        first = fresh_process(workdir, ["-m", "dualguide.cli", *argv])
        assert first.returncode == 1 and "usage: dualguide" in first.stderr
        for _ in range(2):
            assert main(argv) == 1
            assert capsys.readouterr().err == first.stderr

    @pytest.mark.parametrize("argv", [["--help"], ["fuse", "--help"]])
    def test_help_exits_0(self, workdir, capsys, argv):
        assert main(argv) == 0
        assert capsys.readouterr().out.startswith("usage: dualguide")

    @pytest.mark.parametrize("error", [KeyError("files"), ContractError("shapes differ")])
    def test_an_error_raised_inside_a_command_propagates(self, workdir, capsys, monkeypatch,
                                                         error):
        cfg = small_config(workdir)
        assert main(["gen", "--seed", "2", "--objects", "5", "--config", cfg]) == 0

        def fail(*args, **kwargs):
            raise error

        monkeypatch.setattr("dualguide.cli.run_matching", fail)
        with pytest.raises(type(error)):
            main(["match", "--config", cfg])


def test_dualguide_log_is_read_on_every_call(workdir):
    cfg = small_config(workdir)
    script = f"""import os
from dualguide.cli import main
main(["gen", "--seed", "9", "--objects", "10", "--config", {cfg!r}])
os.environ["DUALGUIDE_LOG"] = "info"
main(["fuse", "--config", {cfg!r}])
os.environ["DUALGUIDE_LOG"] = "error"
main(["fuse", "--config", {cfg!r}])
"""
    calls = fresh_process(workdir, ["-c", script], {"DUALGUIDE_LOG": "error"})
    alone = fresh_process(workdir, ["-m", "dualguide.cli", "fuse", "--config", cfg],
                          {"DUALGUIDE_LOG": "info"})
    assert calls.returncode == alone.returncode == 0
    assert alone.stderr.startswith("INFO dualguide: fused "), alone.stderr
    assert calls.stderr == alone.stderr


class TestOutputKind:
    """A grid output whose target is not a regular file exits 2 and is not replaced."""

    @pytest.fixture()
    def root(self, workdir):
        assert main(["gen", "--seed", "2", "--objects", "6"]) == 0
        os.mkfifo(workdir / "pipe")
        return workdir

    @pytest.mark.parametrize("command, name", [
        ("gen", "camera.bevg"), ("gen", "lidar.bevg"),
        ("fuse", "enhanced_lidar.bevg"), ("fuse", "fused.bevg"),
    ])
    @pytest.mark.parametrize("linked", [False, True], ids=["fifo", "link-to-fifo"])
    def test_a_fifo_is_refused_before_anything_is_written(self, root, capsys, command, name,
                                                          linked):
        path = root / "scene" / name
        path.unlink(missing_ok=True)
        if linked:
            path.symlink_to(root / "pipe")
        else:
            os.mkfifo(path)
        before = snapshot(root)
        capsys.readouterr()
        # gen writes another seed's scene, so a grid it rewrote would show.
        assert main([command] + (["--seed", "3"] if command == "gen" else [])) == 2
        assert capsys.readouterr().err == (
            f"dualguide: error: [Errno 17] not a regular file, so not replaced: 'scene/{name}'\n")
        assert snapshot(root) == before
        assert all(stat.S_ISFIFO(os.stat(p).st_mode) for p in (path, root / "pipe"))

    def test_a_directory_at_a_sidecar_path_is_refused_before_any_grid_is_written(
            self, root, capsys):
        (root / "scene" / "fused.bevg.json").mkdir()
        before = snapshot(root)
        assert main(["fuse"]) == 2
        assert "fused.bevg.json'" in capsys.readouterr().err
        assert snapshot(root) == before
