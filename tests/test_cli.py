"""CLI subcommands, exit codes, and the documented command chain."""

import json
import struct

import numpy as np
import pytest

from dualguide.cli import main
from dualguide.config import load_config
from dualguide.formats import load_grid, save_grid
from dualguide.grid import BevGrid, GridSpec
from dualguide.pipeline import run_fusion
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

    def test_crowded_window_is_config_error(self, workdir, capsys):
        assert main(["gen", "--seed", "0", "--objects", "120"]) == 2
        err = capsys.readouterr().err
        assert "window too crowded: placed 98 of 120 objects before it filled" in err
        assert not (workdir / "scene").exists()

    def test_non_finite_grid_is_data_error(self, workdir, capsys):
        cfg = small_config(workdir)
        assert main(["gen", "--seed", "1", "--objects", "4", "--config", cfg]) == 0
        camera = load_grid(workdir / "scene" / "camera.bevg")
        camera.data[10, 20, 3] = float("nan")
        save_grid(camera, workdir / "scene" / "camera.bevg")
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
        assert "squeeze.proj: 1 non-finite projection values" in capsys.readouterr().err
        assert not (workdir / "scene" / "fused.bevg").exists()

    def test_mismatched_grid_window_is_data_error(self, workdir, capsys):
        cfg = small_config(workdir)
        assert main(["gen", "--seed", "1", "--objects", "4", "--config", cfg]) == 0
        wrong = BevGrid.zeros(GridSpec(64, 64, 5, (0.0, 38.4), (-19.2, 19.2)))
        save_grid(wrong, workdir / "scene" / "camera.bevg")
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


def without(table, key):
    return {k: v for k, v in table.items() if k != key}


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
        ("fuse", lambda m: {**m, "objects": [{**m["objects"][0], "yaw": "0.5"}]},
         "object 0: box field 'yaw' must be a finite number, got '0.5'"),
    ], ids=["no-files", "entry-not-a-name", "top-level-list", "no-grid", "no-lidar-grid",
            "no-camera-proposals", "objects-not-a-list", "object-without-x",
            "object-not-an-object", "object-yaw-not-a-number"])
    def test_bad_shape_is_data_error(self, manifest, capsys, command, edit, expected):
        manifest.write_text(json.dumps(edit(json.loads(manifest.read_text()))))
        assert main([command]) == 2
        err = capsys.readouterr().err
        assert f"scene/manifest.json: {expected}" in err, err
        assert not (manifest.parent / "report.json").exists()
        assert not (manifest.parent / "fused.bevg").exists()
        assert not (manifest.parent / "pairs.json").exists()

    def test_points_entry_optional(self, manifest):
        data = json.loads(manifest.read_text())
        manifest.write_text(json.dumps({**data, "files": without(data["files"], "points")}))
        assert main(["stats"]) == 0


class TestMaxPeaks:
    def test_negative_cap_is_config_error(self, workdir, capsys):
        assert main(["gen", "--seed", "2", "--objects", "6"]) == 0
        assert main(["fuse"]) == 0
        assert main(["eval", "--max-peaks", "-1"]) == 2
        assert "max_peaks must be >= 0, got -1" in capsys.readouterr().err
        assert not (workdir / "scene" / "report.json").exists()
        assert main(["eval", "--max-peaks", "0"]) == 0
        assert "n_det=0" in capsys.readouterr().out


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
        scene, _ = load_scene(workdir / "scene" / "manifest.json")
        result = run_fusion(scene.camera_grid, scene.lidar_grid, scene.camera_proposals,
                            scene.lidar_proposals, load_config(cfg))
        assert result.cosine is not None
        assert report["cosine"] == result.cosine

    def test_missing_section_is_data_error(self, workdir):
        (workdir / "loss.json").write_text(json.dumps({"head": {}}))
        assert main(["loss", "--components", "loss.json"]) == 2


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
