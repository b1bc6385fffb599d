"""File format round-trips and corruption handling."""

import json
import struct
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from dualguide import formats
from dualguide.config import PipelineConfig, config_from_dict, load_config
from dualguide.enhance import Projection
from dualguide.errors import ConfigurationError, DataFormatError
from dualguide.formats import (
    GRID_MAGIC,
    load_annotations,
    load_detections,
    load_grid,
    load_json,
    load_projection,
    load_proposals,
    save_annotations,
    save_detections,
    save_grid,
    save_projection,
    save_proposals,
)
from dualguide.geometry import Box3D
from dualguide.grid import BevGrid, GridSpec
from dualguide.instances import Proposal
from dualguide.metrics import Annotation, Detection
from dualguide.synth import generate_scene, write_scene


def f32_grid(rng, h=5, w=7, c=3):
    spec = GridSpec(h, w, c, (-2.0, 5.0), (0.0, 10.0))
    data = rng.normal(size=(h, w, c)).astype(np.float32).astype(np.float64)
    return BevGrid(spec, data)


class TestGridFormat:
    def test_roundtrip_bitwise(self, tmp_path):
        grid = f32_grid(np.random.default_rng(0))
        path = tmp_path / "g.bevg"
        save_grid(grid, path)
        back = load_grid(path)
        assert back.spec == grid.spec
        assert np.array_equal(back.data, grid.data)

    def test_save_is_idempotent_after_load(self, tmp_path):
        rng = np.random.default_rng(1)
        spec = GridSpec(4, 4, 2, (0.0, 4.0), (0.0, 4.0))
        grid = BevGrid(spec, rng.normal(size=(4, 4, 2)))  # not f32-representable
        p1, p2 = tmp_path / "a.bevg", tmp_path / "b.bevg"
        save_grid(grid, p1)
        save_grid(load_grid(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_sidecar_mirrors_header(self, tmp_path):
        grid = f32_grid(np.random.default_rng(2))
        path = tmp_path / "g.bevg"
        save_grid(grid, path)
        sidecar = json.loads((tmp_path / "g.bevg.json").read_text())
        assert sidecar["height_cells"] == grid.spec.height_cells
        assert sidecar["width_cells"] == grid.spec.width_cells
        assert sidecar["channels"] == grid.spec.channels
        assert tuple(sidecar["x_range"]) == grid.spec.x_range

    def test_truncated_file_rejected(self, tmp_path):
        grid = f32_grid(np.random.default_rng(3))
        path = tmp_path / "g.bevg"
        save_grid(grid, path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) - 10])
        with pytest.raises(DataFormatError, match="bytes"):
            load_grid(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_rejected(self, tmp_path, value):
        grid = f32_grid(np.random.default_rng(3))
        grid.data[1, 2, 0] = value
        path = tmp_path / "g.bevg"
        save_grid(grid, path)
        with pytest.raises(DataFormatError, match=r"g\.bevg: 1 non-finite"):
            load_grid(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "g.bevg"
        path.write_bytes(b"NOPE" + b"\x00" * 100)
        with pytest.raises(DataFormatError, match="magic"):
            load_grid(path)

    def test_version_mismatch_rejected(self, tmp_path):
        grid = f32_grid(np.random.default_rng(4))
        path = tmp_path / "g.bevg"
        save_grid(grid, path)
        blob = bytearray(path.read_bytes())
        blob[4:8] = struct.pack("<I", 99)
        path.write_bytes(bytes(blob))
        with pytest.raises(DataFormatError, match="version"):
            load_grid(path)

    def test_trailing_garbage_rejected(self, tmp_path):
        grid = f32_grid(np.random.default_rng(5))
        path = tmp_path / "g.bevg"
        save_grid(grid, path)
        path.write_bytes(path.read_bytes() + b"xx")
        with pytest.raises(DataFormatError):
            load_grid(path)

    def test_magic_constant(self):
        assert GRID_MAGIC == b"BEVG"

    def test_load_holds_no_full_grid_f32_copy(self, tmp_path):
        # 180 x 180 x 104 cells: 27 MB of f64 against 1 MB blocks of f32.
        spec = GridSpec(180, 180, 104, (-54.0, 54.0), (-54.0, 54.0))
        path = tmp_path / "big.bevg"
        save_grid(BevGrid(spec, np.ones((180, 180, 104))), path)
        tracemalloc.start()
        try:
            grid = load_grid(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.array_equal(grid.data, np.ones((180, 180, 104)))
        assert peak <= 1.1 * grid.data.nbytes

    @pytest.mark.parametrize("block_bytes", [1, 100, 1 << 20])
    def test_non_finite_values_counted_across_blocks(self, tmp_path, block_bytes):
        grid = f32_grid(np.random.default_rng(3), h=6)
        grid.data[0, 0, 0] = grid.data[3, 6, 2] = np.nan
        grid.data[5, 1, 1] = np.inf
        path = tmp_path / "g.bevg"
        save_grid(grid, path)
        with mock.patch.object(formats, "_GRID_BLOCK_BYTES", block_bytes):
            with pytest.raises(DataFormatError, match=r"g\.bevg: 3 non-finite grid values"):
                load_grid(path)


@st.composite
def grids_and_views(draw):
    """A grid over a whole C-contiguous array, or over a channel slice of one."""
    h, w, c = draw(st.integers(1, 6)), draw(st.integers(1, 6)), draw(st.integers(1, 4))
    extra = draw(st.integers(0, 3))
    values = draw(hnp.arrays(
        np.float64, (h, w, c + extra),
        elements=st.floats(-1e30, 1e30, allow_nan=False, allow_infinity=False),
    ))
    start = draw(st.integers(0, extra))
    return BevGrid(GridSpec(h, w, c, (-2.0, 5.0), (0.0, 10.0)), values[:, :, start : start + c])


class TestGridFormatProperties:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(grids_and_views(), st.integers(1, 256))
    def test_streamed_save_equals_whole_payload(self, tmp_path_factory, grid, block_bytes):
        path = tmp_path_factory.mktemp("grid") / "g.bevg"
        # Small blocks so that multi-block writes and reads and ragged last
        # blocks occur.
        with mock.patch.object(formats, "_GRID_BLOCK_BYTES", block_bytes):
            save_grid(grid, path)
            back = load_grid(path)
        spec = grid.spec
        header = struct.pack(
            "<4sIIIIdddd", GRID_MAGIC, 1, spec.height_cells, spec.width_cells,
            spec.channels, *spec.x_range, *spec.y_range,
        )
        assert path.read_bytes() == header + grid.data.astype("<f4").tobytes()
        assert back.spec == spec
        assert np.array_equal(back.data, grid.data.astype(np.float32).astype(np.float64))


def valid_input_files(out):
    """One small valid file per loader, written under `out`."""
    rng = np.random.default_rng(11)
    config = PipelineConfig(height_cells=16, width_cells=16, x_range=(-19.2, 19.2),
                            y_range=(-19.2, 19.2), camera_channels=2, lidar_channels=3)
    scene = generate_scene(config, seed=3, n_objects=3)
    manifest = write_scene(scene, out / "scene", config, 3, "mixed")
    save_grid(f32_grid(rng, h=3, w=4, c=2), out / "g.bevg")
    save_projection(Projection(rng.normal(size=(3, 4)), rng.normal(size=3)), out / "p.proj")
    save_detections(
        [Detection(a.box, a.class_id, 0.5) for a in scene.annotations], out / "d.jsonl"
    )
    return {
        "grid": (load_grid, out / "g.bevg"),
        "projection": (load_projection, out / "p.proj"),
        "proposals": (load_proposals, out / "scene" / "lidar_proposals.jsonl"),
        "annotations": (load_annotations, out / "scene" / "annotations.jsonl"),
        "detections": (load_detections, out / "d.jsonl"),
        "manifest": (load_json, manifest),
    }


class TestLoaderFuzz:
    """Truncated or byte-flipped copies of valid files load or raise DataFormatError."""

    @pytest.fixture(scope="class")
    def inputs(self, tmp_path_factory):
        return valid_input_files(tmp_path_factory.mktemp("valid"))

    @pytest.mark.parametrize("kind", [
        "grid", "projection", "proposals", "annotations", "detections", "manifest",
    ])
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_loader_returns_or_raises_data_format_error(self, inputs, tmp_path_factory, kind,
                                                        data):
        load, path = inputs[kind]
        blob = bytearray(path.read_bytes())
        at = data.draw(st.integers(0, len(blob) - 1))
        if data.draw(st.booleans()):
            blob = blob[:at]
        else:
            blob[at] ^= data.draw(st.integers(1, 255))
        garbled = tmp_path_factory.mktemp("fuzz") / path.name
        garbled.write_bytes(bytes(blob))
        try:
            load(garbled)
        except DataFormatError:
            pass

    def test_valid_inputs_load(self, inputs):
        for load, path in inputs.values():
            load(path)


finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def boxes(draw):
    positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
    return Box3D(
        center=(draw(finite), draw(finite), draw(finite)),
        size=(draw(positive), draw(positive), draw(positive)),
        yaw=draw(st.floats(-1e3, 1e3)),
        velocity=(draw(finite), draw(finite)),
    )


unit = st.floats(0.0, 1.0)
class_ids = st.integers(0, 9)
proposals = st.builds(Proposal, boxes(), unit, class_ids, st.sampled_from(["lidar", "camera"]))
annotations = st.builds(Annotation, boxes(), class_ids, st.integers(1, 4), st.integers(0, 10**6))
detections = st.builds(Detection, boxes(), class_ids, unit)


class TestRoundTripProperties:
    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(st.integers(1, 6).flatmap(lambda rows: st.tuples(
        hnp.arrays(np.float64, (rows, 5), elements=st.floats(-1e30, 1e30)),
        hnp.arrays(np.float64, rows, elements=st.floats(-1e30, 1e30)),
    )))
    def test_projection_survives_save_load_rounded_to_f32(self, tmp_path_factory, weights):
        matrix, bias = weights
        path = tmp_path_factory.mktemp("proj") / "p.proj"
        save_projection(Projection(matrix, bias), path)
        back = load_projection(path)
        assert np.array_equal(back.matrix, matrix.astype(np.float32).astype(np.float64))
        assert np.array_equal(back.bias, bias.astype(np.float32).astype(np.float64))

    @pytest.mark.parametrize("save, load, items", [
        (save_proposals, load_proposals, proposals),
        (save_annotations, load_annotations, annotations),
        (save_detections, load_detections, detections),
    ])
    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_records_survive_save_load(self, tmp_path_factory, save, load, items, data):
        records = data.draw(st.lists(items, max_size=5))
        path = tmp_path_factory.mktemp("jsonl") / "records.jsonl"
        save(records, path)
        assert load(path) == records


class TestProjectionFormat:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(6)
        proj = Projection(
            rng.normal(size=(3, 5)).astype(np.float32).astype(np.float64),
            rng.normal(size=3).astype(np.float32).astype(np.float64),
        )
        path = tmp_path / "p.proj"
        save_projection(proj, path)
        back = load_projection(path)
        assert np.array_equal(back.matrix, proj.matrix)
        assert np.array_equal(back.bias, proj.bias)

    def test_non_finite_weights_rejected(self, tmp_path):
        path = tmp_path / "p.proj"
        matrix = np.array([[1.0, np.nan, 0.0], [0.0, 1.0, 0.0]], dtype="<f4")
        bias = np.array([np.inf, 0.0], dtype="<f4")
        path.write_bytes(struct.pack("<4sII", b"PROJ", 2, 3) + matrix.tobytes() + bias.tobytes())
        with pytest.raises(DataFormatError, match=r"p\.proj: 2 non-finite projection values"):
            load_projection(path)

    def test_truncation_rejected(self, tmp_path):
        path = tmp_path / "p.proj"
        save_projection(Projection(np.eye(4), np.zeros(4)), path)
        path.write_bytes(path.read_bytes()[:-4])
        with pytest.raises(DataFormatError):
            load_projection(path)


class TestJsonLines:
    def test_proposals_roundtrip(self, tmp_path):
        rng = np.random.default_rng(7)
        proposals = [
            Proposal(
                Box3D(
                    tuple(rng.uniform(-10, 10, 3)),
                    tuple(rng.uniform(0.5, 4, 3)),
                    float(rng.uniform(-3, 3)),
                    tuple(rng.uniform(-2, 2, 2)),
                ),
                float(rng.uniform(0, 1)),
                int(rng.integers(0, 10)),
                "lidar" if rng.uniform() < 0.5 else "camera",
            )
            for _ in range(10)
        ]
        path = tmp_path / "p.jsonl"
        save_proposals(proposals, path)
        assert load_proposals(path) == proposals

    def test_annotations_roundtrip(self, tmp_path):
        anns = [
            Annotation(Box3D((1, 2, 0.5), (2, 3, 1), 0.3), 4, 2, 17),
            Annotation(Box3D((-5, 0, 1.0), (1, 1, 2), -1.0), 9, 4, 0),
        ]
        path = tmp_path / "a.jsonl"
        save_annotations(anns, path)
        assert load_annotations(path) == anns

    def test_detections_roundtrip(self, tmp_path):
        dets = [Detection(Box3D((0, 1, 0.5), (1, 2, 1), 0.1), 3, 0.75)]
        path = tmp_path / "d.jsonl"
        save_detections(dets, path)
        assert load_detections(path) == dets

    def test_empty_roundtrip(self, tmp_path):
        path = tmp_path / "e.jsonl"
        save_proposals([], path)
        assert load_proposals(path) == []

    def test_invalid_json_line_reports_position(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"x": 1}\nnot json\n')
        with pytest.raises(DataFormatError, match="bad.jsonl:2"):
            load_proposals(path)

    def test_missing_field_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps({"x": 1.0, "y": 2.0}) + "\n")
        with pytest.raises(DataFormatError):
            load_proposals(path)

    @pytest.mark.parametrize("key, value", [("x", float("nan")), ("yaw", float("inf")),
                                            ("vy", float("-inf")), ("w", "2.0")])
    @pytest.mark.parametrize("save, load, item", [
        (save_proposals, load_proposals, Proposal(Box3D((0, 1, 0.5), (1, 2, 1), 0.1), 0.5, 3, "lidar")),
        (save_annotations, load_annotations, Annotation(Box3D((0, 1, 0.5), (1, 2, 1), 0.1), 3)),
        (save_detections, load_detections, Detection(Box3D((0, 1, 0.5), (1, 2, 1), 0.1), 3, 0.75)),
    ])
    def test_non_finite_box_field_rejected(self, tmp_path, save, load, item, key, value):
        path = tmp_path / "boxes.jsonl"
        save([item, item], path)
        records = [json.loads(line) for line in path.read_text().splitlines()]
        records[1][key] = value
        path.write_text("".join(json.dumps(r) + "\n" for r in records))
        with pytest.raises(DataFormatError, match=f"boxes.jsonl: record 1: box field '{key}'"):
            load(path)

    @pytest.mark.parametrize("value", ["1", None, True, float("nan")])
    @pytest.mark.parametrize("save, load, item, key", [
        (save_proposals, load_proposals, Proposal(Box3D((0, 1, 0.5), (1, 2, 1), 0.1), 0.5, 3, "lidar"), "score"),
        (save_proposals, load_proposals, Proposal(Box3D((0, 1, 0.5), (1, 2, 1), 0.1), 0.5, 3, "lidar"), "class_id"),
        (save_annotations, load_annotations, Annotation(Box3D((0, 1, 0.5), (1, 2, 1), 0.1), 3), "class_id"),
        (save_annotations, load_annotations, Annotation(Box3D((0, 1, 0.5), (1, 2, 1), 0.1), 3), "visibility_token"),
        (save_annotations, load_annotations, Annotation(Box3D((0, 1, 0.5), (1, 2, 1), 0.1), 3), "num_lidar_pts"),
        (save_detections, load_detections, Detection(Box3D((0, 1, 0.5), (1, 2, 1), 0.1), 3, 0.75), "class_id"),
        (save_detections, load_detections, Detection(Box3D((0, 1, 0.5), (1, 2, 1), 0.1), 3, 0.75), "score"),
    ])
    def test_non_numeric_field_rejected(self, tmp_path, save, load, item, key, value):
        path = tmp_path / "records.jsonl"
        save([item, item], path)
        records = [json.loads(line) for line in path.read_text().splitlines()]
        records[1][key] = value
        path.write_text("".join(json.dumps(r) + "\n" for r in records))
        with pytest.raises(DataFormatError, match=f"records.jsonl: record 1: {key} must be a finite number"):
            load(path)

    @pytest.mark.parametrize("save, load, item, key", [
        (save_proposals, load_proposals, Proposal(Box3D((0, 1, 0.5), (1, 2, 1), 0.1), 0.5, 3, "lidar"), "class_id"),
        (save_annotations, load_annotations, Annotation(Box3D((0, 1, 0.5), (1, 2, 1), 0.1), 3), "class_id"),
        (save_annotations, load_annotations, Annotation(Box3D((0, 1, 0.5), (1, 2, 1), 0.1), 3), "visibility_token"),
        (save_annotations, load_annotations, Annotation(Box3D((0, 1, 0.5), (1, 2, 1), 0.1), 3), "num_lidar_pts"),
        (save_detections, load_detections, Detection(Box3D((0, 1, 0.5), (1, 2, 1), 0.1), 3, 0.75), "class_id"),
    ])
    def test_fractional_id_rejected_integral_float_stored_as_int(self, tmp_path, save, load, item, key):
        path = tmp_path / "records.jsonl"
        save([item, item], path)
        records = [json.loads(line) for line in path.read_text().splitlines()]
        records[0][key] = 2.0
        records[1][key] = 2.5
        path.write_text("".join(json.dumps(r) + "\n" for r in records))
        with pytest.raises(DataFormatError, match=f"records.jsonl: record 1: {key} must be an integer, got 2.5"):
            load(path)
        path.write_text(json.dumps(records[0]) + "\n")
        value = getattr(load(path)[0], key)
        assert value == 2 and type(value) is int


class TestConfig:
    def test_defaults_match_reference_settings(self):
        config = PipelineConfig()
        assert config.gamma == 0.7
        assert config.eta == 0.7
        assert config.lambdas == (0.99, 1e-4, 1e-4, 1e-2)
        assert config.sampling_strategy == "center+boundary_mid"
        assert config.grouping_strategy == "cbgs_groups"
        assert config.camera_spec().cell_size_x == pytest.approx(0.6)

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigurationError):
            config_from_dict({"gamme": 0.5})

    def test_file_plus_overrides(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"gamma": 0.4, "eta": 0.6}))
        config = load_config(path, eta=0.9)
        assert config.gamma == 0.4
        assert config.eta == 0.9

    def test_invalid_values_rejected(self):
        with pytest.raises(ConfigurationError):
            PipelineConfig(gamma=1.5)
        with pytest.raises(ConfigurationError):
            PipelineConfig(sampling_strategy="everything")
        with pytest.raises(ConfigurationError, match=r"^eta 2.0 outside \[0, 1\]$"):
            PipelineConfig(eta=2.0)
        with pytest.raises(ConfigurationError, match=r"^unknown grouping strategy 'loose'$"):
            PipelineConfig(grouping_strategy="loose")
