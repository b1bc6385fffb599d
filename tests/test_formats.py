"""File format round-trips and corruption handling."""

import json
import os
import struct
import tracemalloc
from dataclasses import fields, replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from dualguide import formats
from dualguide.config import PipelineConfig, config_from_dict, load_config
from dualguide.enhance import Projection, fuse_grids
from dualguide.errors import ConfigurationError, DataFormatError
from dualguide.formats import (
    ANNOTATION_FIELDS,
    DETECTION_FIELDS,
    GRID_MAGIC,
    OBJECT_FIELDS,
    PROPOSAL_FIELDS,
    load_annotations,
    load_detections,
    load_grid,
    load_json,
    load_points,
    load_projection,
    load_proposals,
    read_records,
    save_annotations,
    save_detections,
    save_grid,
    save_json,
    save_projection,
    save_proposals,
    to_records,
)
from dualguide.geometry import Box3D
from dualguide.grid import BevGrid, GatheredCells, GridSpec
from dualguide.instances import Proposal
from dualguide.metrics import Annotation, Detection
from dualguide.synth import (
    Bump,
    RenderedRows,
    SceneObject,
    generate_scene,
    render_rows,
    write_scene,
)


def f32_grid(rng, h=5, w=7, c=3):
    spec = GridSpec(h, w, c, (-2.0, 5.0), (0.0, 10.0))
    data = rng.normal(size=(h, w, c)).astype(np.float32).astype(np.float64)
    return BevGrid(spec, data)


class TestGridFormat:
    def test_roundtrip_bitwise(self, tmp_path):
        grid = f32_grid(np.random.default_rng(0))
        path = tmp_path / "g.bevg"
        save_grid([(grid, path)])
        back = load_grid(path)
        assert back.spec == grid.spec
        assert np.array_equal(back.data, grid.data)

    def test_save_is_idempotent_after_load(self, tmp_path):
        rng = np.random.default_rng(1)
        spec = GridSpec(4, 4, 2, (0.0, 4.0), (0.0, 4.0))
        grid = BevGrid(spec, rng.normal(size=(4, 4, 2)))  # not f32-representable
        p1, p2 = tmp_path / "a.bevg", tmp_path / "b.bevg"
        save_grid([(grid, p1)])
        save_grid([(load_grid(p1), p2)])
        assert p1.read_bytes() == p2.read_bytes()

    def test_sidecar_mirrors_header(self, tmp_path):
        grid = f32_grid(np.random.default_rng(2))
        path = tmp_path / "g.bevg"
        save_grid([(grid, path)])
        sidecar = json.loads((tmp_path / "g.bevg.json").read_text())
        assert sidecar["height_cells"] == grid.spec.height_cells
        assert sidecar["width_cells"] == grid.spec.width_cells
        assert sidecar["channels"] == grid.spec.channels
        assert tuple(sidecar["x_range"]) == grid.spec.x_range

    def test_truncated_file_rejected(self, tmp_path):
        grid = f32_grid(np.random.default_rng(3))
        path = tmp_path / "g.bevg"
        save_grid([(grid, path)])
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) - 10])
        with pytest.raises(DataFormatError, match="bytes"):
            load_grid(path)

    def test_file_shrinking_after_the_size_check_rejected(self, tmp_path):
        # 200 KB of payload, past what the file object reads ahead with the header.
        grid = f32_grid(np.random.default_rng(3), h=240, c=30)
        path = tmp_path / "g.bevg"
        save_grid([(grid, path)])
        with mock.patch.object(formats, "_GRID_BLOCK_BYTES", 2 * 7 * 30 * 4):  # 2 rows a block
            with path.open("rb") as f:
                blocks = formats.GridFile(f).blocks()
                with path.open("r+b") as g:
                    g.truncate(path.stat().st_size - 10)
                with pytest.raises(DataFormatError,
                                   match=r"g\.bevg: payload ends before row 240"):
                    list(blocks)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_rejected(self, tmp_path, value):
        grid = f32_grid(np.random.default_rng(3))
        grid.data[1, 2, 0] = value
        path = tmp_path / "g.bevg"
        save_grid([(grid, path)])
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
        save_grid([(grid, path)])
        blob = bytearray(path.read_bytes())
        blob[4:8] = struct.pack("<I", 99)
        path.write_bytes(bytes(blob))
        with pytest.raises(DataFormatError, match="version"):
            load_grid(path)

    def test_trailing_garbage_rejected(self, tmp_path):
        grid = f32_grid(np.random.default_rng(5))
        path = tmp_path / "g.bevg"
        save_grid([(grid, path)])
        path.write_bytes(path.read_bytes() + b"xx")
        with pytest.raises(DataFormatError):
            load_grid(path)

    def test_magic_constant(self):
        assert GRID_MAGIC == b"BEVG"

    def test_load_holds_no_full_grid_f32_copy(self, tmp_path):
        # 180 x 180 x 104 cells: 27 MB of f64 against 1 MB blocks of f32.
        spec = GridSpec(180, 180, 104, (-54.0, 54.0), (-54.0, 54.0))
        path = tmp_path / "big.bevg"
        save_grid([(BevGrid(spec, np.ones((180, 180, 104))), path)])
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
        save_grid([(grid, path)])
        with mock.patch.object(formats, "_GRID_BLOCK_BYTES", block_bytes):
            with pytest.raises(DataFormatError, match=r"g\.bevg: 3 non-finite grid values"):
                load_grid(path)

    @pytest.mark.parametrize("h", [1, 3, 4, 6, 9])
    def test_concatenated_save_equals_saving_the_fused_grid(self, tmp_path, h):
        rng = np.random.default_rng(h)
        spec = GridSpec(h, 7, 3, (-2.0, 5.0), (0.0, 10.0))
        camera = BevGrid(spec, rng.normal(size=(h, 7, 5))[:, :, 1:4])  # a strided view
        lidar = BevGrid(replace(spec, channels=4), rng.normal(size=(h, 7, 4)))
        # 7 columns x 7 channels of f32 at 4 rows per block: heights 6 and 9
        # end in a short block, and heights up to 4 are one block.
        with mock.patch.object(formats, "_GRID_BLOCK_BYTES", 4 * 7 * 7 * 4):
            save_grid([(lidar, camera, tmp_path / "streamed.bevg")])
            save_grid([(fuse_grids(camera, lidar), tmp_path / "fused.bevg")])
        for suffix in ("", ".json"):
            assert ((tmp_path / f"streamed.bevg{suffix}").read_bytes()
                    == (tmp_path / f"fused.bevg{suffix}").read_bytes())

    @pytest.mark.parametrize("existing", [False, True])
    def test_concatenated_save_rejects_different_windows(self, tmp_path, existing):
        grid = f32_grid(np.random.default_rng(8))
        other = BevGrid.zeros(GridSpec(5, 7, 2, (-2.0, 6.0), (0.0, 10.0)))
        path = tmp_path / "g.bevg"
        if existing:
            save_grid([(grid, path)])
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        with pytest.raises(ConfigurationError, match="cover different windows"):
            save_grid([(grid, other, path)])
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    def test_save_over_a_grid_writes_a_new_file(self, tmp_path):
        rng = np.random.default_rng(12)
        path, fresh, link = tmp_path / "g.bevg", tmp_path / "fresh.bevg", tmp_path / "old.bevg"
        save_grid([(f32_grid(rng), path)])
        old_bytes = path.read_bytes()
        os.link(path, link)  # also keeps the old inode's number from being reused
        grid = f32_grid(rng, h=6)
        save_grid([(grid, path)])
        save_grid([(grid, fresh)])
        assert path.read_bytes() == fresh.read_bytes()
        assert path.stat().st_ino != link.stat().st_ino
        assert link.read_bytes() == old_bytes

    def test_save_through_a_symlink_writes_its_target(self, tmp_path):
        rng = np.random.default_rng(13)
        target = tmp_path / "data" / "g.bevg"
        target.parent.mkdir()
        save_grid([(f32_grid(rng), target)])
        link = tmp_path / "link.bevg"
        link.symlink_to("data/g.bevg")
        grid = f32_grid(rng, c=5)  # a sidecar describing the old grid would say 3
        save_grid([(grid, link)])
        save_grid([(grid, tmp_path / "fresh.bevg")])
        assert link.is_symlink() and os.readlink(link) == "data/g.bevg"
        assert target.read_bytes() == (tmp_path / "fresh.bevg").read_bytes()
        # The sidecar goes beside the grid it describes, not beside the link.
        assert ((tmp_path / "data" / "g.bevg.json").read_bytes()
                == (tmp_path / "fresh.bevg.json").read_bytes())
        assert json.loads((tmp_path / "data" / "g.bevg.json").read_text())["channels"] == 5
        assert not (tmp_path / "link.bevg.json").exists()


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
            save_grid([(grid, path)])
            back = load_grid(path)
        spec = grid.spec
        header = struct.pack(
            "<4sIIIIdddd", GRID_MAGIC, 1, spec.height_cells, spec.width_cells,
            spec.channels, *spec.x_range, *spec.y_range,
        )
        assert path.read_bytes() == header + grid.data.astype("<f4").tobytes()
        assert back.spec == spec
        assert np.array_equal(back.data, grid.data.astype(np.float32).astype(np.float64))


    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_one_pass_equals_separate_saves(self, tmp_path_factory, data):
        """Several outputs in one pass leave each file and sidecar as separate saves would.

        The outputs draw on dense grids, channel views, a grid of rendered
        bumps and a gathered grid with written cells, at block heights down
        to one row, so that blocks cut bumps; the separate saves take the
        dense twins of the last two. Two of the names resolve to one realpath
        (a symlink, or a name given twice), and one is another output's
        sidecar. The one pass reads each of the gathered grid's rows from its
        file once if an output holds it, else never.
        """
        root = tmp_path_factory.mktemp("outputs")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        h, w = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 6))
        window = GridSpec(h, w, 1, (-2.0, 5.0), (0.0, 10.0))

        def values(c):
            v = rng.normal(size=(h, w, c)) * 10.0 ** rng.integers(-3, 4)
            v[rng.random(size=v.shape) < 0.2] = -0.0
            return v

        grids = []
        for _ in range(data.draw(st.integers(1, 3))):
            c, extra = data.draw(st.integers(1, 4)), data.draw(st.integers(0, 2))
            start = data.draw(st.integers(0, extra))
            grids.append(BevGrid(replace(window, channels=c),
                                 values(c + extra)[:, :, start : start + c]))
        bumps = []
        for _ in range(data.draw(st.integers(0, 4))):
            row_lo, col_lo = data.draw(st.integers(0, h - 1)), data.draw(st.integers(0, w - 1))
            g = rng.random((data.draw(st.integers(0, h - row_lo)),
                            data.draw(st.integers(0, w - col_lo))))
            bumps.append(Bump(row_lo, col_lo, g, rng.normal(size=2) * 10.0 ** rng.integers(-3, 4)))
        rendered = BevGrid(replace(window, channels=2), RenderedRows((h, w, 2), bumps))
        grids.append(rendered)
        twins = {id(rendered): BevGrid(rendered.spec, np.zeros((h, w, 2)))}
        render_rows(bumps, 0, twins[id(rendered)].data)
        source = root / "source.bevg"
        save_grid([(BevGrid(replace(window, channels=3), values(3)), source)])
        with open(source, "rb") as f:
            source_file = formats.GridFile(f)
            spec = source_file.spec
            cells = np.unique(rng.integers(0, [h, w], size=(6, 2)), axis=0)
            gathered = GatheredCells.gather(spec, *cells.T, source_file.blocks(),
                                            source_file.read_into)
            twin = load_grid(source)  # the dense grid the gathered one stands for
            rows, cols = cells[rng.random(len(cells)) < 0.5].T
            updates = rng.normal(size=(len(rows), 3))
            gathered[rows, cols] = gathered[rows, cols] + updates
            twin.data[rows, cols] = twin.data[rows, cols] + updates
            grids.append(BevGrid(spec, gathered))
            twins[id(grids[-1])] = twin
            rows_read = []

            def counted(first_row, out, read=gathered.read_rows):
                rows_read.append(len(out))
                read(first_row, out)

            gathered.read_rows = counted

            names = ["a.bevg", "b.bevg", "link.bevg", "a.bevg.json"]
            outputs = data.draw(st.lists(st.tuples(
                st.lists(st.sampled_from(grids), min_size=1, max_size=3),
                st.sampled_from(names),
            ), min_size=1, max_size=4))
            row_bytes = sum(w * sum(g.spec.channels for g in gs) * 4 for gs, _ in outputs)
            block_bytes = data.draw(st.integers(1, 2 * h * row_bytes))
            written = {}
            for side in ("one", "apart"):
                out = root / side
                out.mkdir()
                (out / "link.bevg").symlink_to("a.bevg")
                with mock.patch.object(formats, "_GRID_BLOCK_BYTES", block_bytes):
                    if side == "one":
                        save_grid([(*gs, out / name) for gs, name in outputs])
                    else:
                        for gs, name in outputs:
                            save_grid([(*(twins.get(id(g), g) for g in gs), out / name)])
                written[side] = {
                    p.name: os.readlink(p) if p.is_symlink() else p.read_bytes()
                    for p in out.iterdir()
                }
        assert written["one"] == written["apart"]
        holds = any(g is grids[-1] for gs, _ in outputs for g in gs)
        assert sum(rows_read) == (h if holds else 0)


    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_grid_file_reads_agree_and_fail_alike(self, tmp_path_factory, data):
        """`GridFile.read_into` over any rows, `blocks` and `load` read the same values.

        At any block height. A non-finite value fails each read with the
        count it read (`read_into` its rows', `blocks` and `load` the whole
        file's), and a payload cut short after the file was opened fails each
        read that reaches the cut with the row its read would have ended at.
        """
        h, w, c = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 6)), data.draw(
            st.integers(1, 4))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        values = (rng.normal(size=(h, w, c)) * 10.0 ** rng.integers(-3, 4)).astype("<f4")
        values[rng.random(size=values.shape) < 0.2] = -0.0
        spec = GridSpec(h, w, c, (-2.0, 5.0), (0.0, 10.0))
        row_bytes = w * c * 4
        block_bytes = data.draw(st.integers(1, 2 * h * row_bytes))
        rows_per_block = max(1, block_bytes // row_bytes)
        first = data.draw(st.integers(0, h - 1))
        n = data.draw(st.integers(1, h - first))
        fault = data.draw(st.sampled_from(["none", "non-finite", "truncated"]))
        if fault == "non-finite":
            cells = data.draw(st.lists(st.integers(0, values.size - 1), min_size=1, unique=True))
            values.flat[cells] = rng.choice([np.nan, np.inf, -np.inf], size=len(cells))
        path = tmp_path_factory.mktemp("grid") / "g.bevg"
        save_grid([(BevGrid(spec, values), path)])

        def whole(read):
            out = np.empty_like(values)
            for r, block in read():
                out[r : r + len(block)] = block
            return out.tobytes()

        # Unbuffered, so that a read sees a cut made after the file was opened.
        with mock.patch.object(formats, "_GRID_BLOCK_BYTES", block_bytes), \
                open(path, "rb", buffering=0) as f:
            grid_file = formats.GridFile(f)
            assert grid_file.spec == spec and grid_file.shape == (h, w, c)
            if fault == "truncated":
                kept = data.draw(st.integers(0, h * row_bytes - 1))
                os.truncate(path, formats._GRID_HEADER.size + kept)
            rows = np.empty((n, w, c), "<f4")
            got_rows = outcome(lambda: grid_file.read_into(first, rows) or rows.tobytes())
            got_blocks = outcome(lambda: whole(grid_file.blocks))
            got_load = outcome(lambda: whole(lambda: [(0, grid_file.load().data.astype("<f4"))]))
            assert outcome(lambda: grid_file.read_into(first, rows) or rows.tobytes()) == got_rows

        if fault == "truncated":
            ends = [min(r + rows_per_block, h) for r in range(0, h, rows_per_block)]
            cut = next(end for end in ends if end * row_bytes > kept)
            want_whole = ("error", f"{path}: payload ends before row {cut}")
            want_rows = (("error", f"{path}: payload ends before row {first + n}")
                         if (first + n) * row_bytes > kept else None)
        else:
            bad = int(np.count_nonzero(~np.isfinite(values)))
            in_rows = int(np.count_nonzero(~np.isfinite(values[first : first + n])))
            want_whole = ("error", f"{path}: {bad} non-finite grid values") if bad else None
            want_rows = (("error", f"{path}: {in_rows} non-finite grid values")
                         if in_rows else None)
        assert got_rows == (want_rows or ("ok", repr(values[first : first + n].tobytes())))
        assert got_blocks == got_load == (want_whole or ("ok", repr(values.tobytes())))


def valid_input_files(out):
    """One small valid file per loader, written under `out`."""
    rng = np.random.default_rng(11)
    config = PipelineConfig(height_cells=16, width_cells=16, x_range=(-19.2, 19.2),
                            y_range=(-19.2, 19.2), camera_channels=2, lidar_channels=3)
    scene = generate_scene(config, seed=3, n_objects=3)
    manifest = write_scene(scene, out / "scene", config, 3, "mixed")
    save_grid([(f32_grid(rng, h=3, w=4, c=2), out / "g.bevg")])
    save_projection(Projection(rng.normal(size=(3, 4)), rng.normal(size=3)), out / "p.proj")
    save_detections(
        [Detection(a.box, a.class_id, 0.5) for a in scene.annotations], out / "d.jsonl"
    )
    np.save(out / "points.npy", rng.normal(size=(6, 3)))
    return {
        "grid": (load_grid, out / "g.bevg"),
        "projection": (load_projection, out / "p.proj"),
        "proposals": (load_proposals, out / "scene" / "lidar_proposals.jsonl"),
        "annotations": (load_annotations, out / "scene" / "annotations.jsonl"),
        "detections": (load_detections, out / "d.jsonl"),
        "manifest": (load_json, manifest),
        "points": (load_points, out / "points.npy"),
    }


class TestLoaderFuzz:
    """Truncated or byte-flipped copies of valid files load or raise DataFormatError."""

    @pytest.fixture(scope="class")
    def inputs(self, tmp_path_factory):
        return valid_input_files(tmp_path_factory.mktemp("valid"))

    @pytest.mark.parametrize("kind", [
        "grid", "projection", "proposals", "annotations", "detections", "manifest", "points",
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
def boxes(draw, velocity=True):
    positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
    return Box3D(
        center=(draw(finite), draw(finite), draw(finite)),
        size=(draw(positive), draw(positive), draw(positive)),
        yaw=draw(st.floats(-1e3, 1e3)),
        velocity=(draw(finite), draw(finite)) if velocity else (0.0, 0.0),
    )


unit = st.floats(0.0, 1.0)
class_ids = st.integers(0, 9)
proposals = st.builds(Proposal, boxes(), unit, class_ids, st.sampled_from(["lidar", "camera"]))
annotations = st.builds(Annotation, boxes(), class_ids, st.integers(1, 4), st.integers(0, 10**6))
detections = st.builds(Detection, boxes(), class_ids, unit)
scene_objects = st.builds(SceneObject, boxes(velocity=False), class_ids,
                          st.sampled_from(["easy", "lidar-hole", "occluded"]), unit, unit,
                          st.integers(1, 4), st.integers(0, 10**6))


def save_objects(objects, path):
    """Manifest objects, written as `write_scene` writes them."""
    save_json({"objects": to_records(objects, OBJECT_FIELDS)}, path)


def load_objects(path):
    """Manifest objects, read as `load_scene` reads them."""
    return read_records(SceneObject, OBJECT_FIELDS, path, load_json(path)["objects"])


def write_reference_records(records, path):
    path.write_text("".join(json.dumps(r, sort_keys=True) + "\n" for r in records))


def reference_box(box):
    return {"x": box.center[0], "y": box.center[1], "z": box.center[2], "w": box.size[0],
            "l": box.size[1], "h": box.size[2], "yaw": box.yaw, "vx": box.velocity[0],
            "vy": box.velocity[1]}


# The per-kind writers the one record writer replaced, keyed by its entry points.
REFERENCE_WRITERS = {
    save_proposals: lambda items, path: write_reference_records([
        {**reference_box(p.box), "score": p.score, "class_id": p.class_id,
         "modality": p.modality} for p in items], path),
    save_annotations: lambda items, path: write_reference_records([
        {**reference_box(a.box), "class_id": a.class_id, "visibility_token": a.visibility_token,
         "num_lidar_pts": a.num_lidar_pts} for a in items], path),
    save_detections: lambda items, path: write_reference_records([
        {**reference_box(d.box), "class_id": d.class_id, "score": d.score} for d in items], path),
    save_objects: lambda items, path: save_json({"objects": [
        {"class_id": o.class_id, "profile": o.profile, "lidar_strength": o.lidar_strength,
         "camera_strength": o.camera_strength, "visibility_token": o.visibility_token,
         "num_lidar_pts": o.num_lidar_pts,
         **{k: v for k, v in reference_box(o.box).items() if k not in ("vx", "vy")}}
        for o in items]}, path),
}


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
        (save_objects, load_objects, scene_objects),
    ])
    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_records_survive_save_load(self, tmp_path_factory, save, load, items, data):
        """The writer writes the reference writer's text, and the reader reads it back."""
        records = data.draw(st.lists(items, max_size=5))
        root = tmp_path_factory.mktemp("records")
        save(records, root / "records")
        REFERENCE_WRITERS[save](records, root / "reference")
        assert (root / "records").read_text() == (root / "reference").read_text()
        assert load(root / "records") == records


# Values a corrupted record field may take: non-numbers, non-finite numbers,
# floats in integer fields (3.0 is read as 3), ints in float fields (kept as
# ints), out-of-range numbers, integers beyond float64, and unknown names.
CORRUPT_VALUES = (float("nan"), float("inf"), -float("inf"), None, [], {}, True, False, "x",
                  "easy", "camera", "foggy", 3, 3.0, 3.5, 0, 0.0, -0.0, -1, 5, 10, 1.5, 2**70,
                  -(2**70), 10**400, 1e308)
KINDS = {
    "proposals": (Proposal, PROPOSAL_FIELDS, proposals),
    "annotations": (Annotation, ANNOTATION_FIELDS, annotations),
    "detections": (Detection, DETECTION_FIELDS, detections),
    "objects": (SceneObject, OBJECT_FIELDS, scene_objects),
}
BOX = Box3D((0.5, 1.0, 0.5), (1.0, 2.0, 1.5), 0.1, (0.5, -0.5))
VALID_ITEMS = {
    "proposals": Proposal(BOX, 0.5, 3, "lidar"),
    "annotations": Annotation(BOX, 3, 2, 17),
    "detections": Detection(BOX, 3, 0.75),
    "objects": SceneObject(replace(BOX, velocity=(0.0, 0.0)), 3, "occluded", 0.9, 0.05, 2, 17),
}


@st.composite
def record_lists(draw, fields, items):
    """Records of valid items, then some corrupted: a field's value, a field, or the object."""
    records = to_records(draw(st.lists(items, min_size=1, max_size=4)), fields)
    keys = st.sampled_from(formats._BOX_KEYS) | st.sampled_from([name for name, _, _ in fields])
    values = st.sampled_from([float("nan"), float("inf"), -float("inf")]) | st.sampled_from(
        CORRUPT_VALUES)
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, len(records) - 1))
        edit = draw(st.sampled_from(["value", "value", "value", "drop", "not-an-object"]))
        key = draw(keys)
        if not isinstance(records[i], dict):
            continue
        if edit == "value":
            records[i] = {**records[i], key: draw(values)}
        elif edit == "drop":
            records[i] = {k: v for k, v in records[i].items() if k != key}
        else:
            records[i] = draw(st.sampled_from([[1.0], 5, "record", None]))
    return records


def outcome(read):
    """`("ok", repr(result))`, or `("error", message)` of a DataFormatError."""
    try:
        return "ok", repr(read())
    except DataFormatError as exc:
        return "error", str(exc)


class TestColumnCheck:
    """The column check accepts only what the per-record loop accepts, and reads the same items."""

    @pytest.mark.parametrize("kind", list(KINDS))
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_column_path_agrees_with_the_loop(self, kind, data):
        build, fields, items = KINDS[kind]
        records = data.draw(record_lists(fields, items))
        loop = outcome(lambda: formats._record_loop(build, fields, records, "r.jsonl", "object"))
        if formats._column_checked(records, fields) is not None:
            assert loop[0] == "ok"
        assert outcome(lambda: read_records(build, fields, "r.jsonl", records)) == loop
        checked = outcome(lambda: read_records(build, fields, "r.jsonl", records,
                                               check_only=True))
        assert checked == (("ok", "None") if loop[0] == "ok" else loop)

    @pytest.mark.parametrize("kind", list(KINDS))
    def test_each_field_holding_each_value_agrees_with_the_loop(self, kind):
        build, fields, _ = KINDS[kind]
        valid = to_records([VALID_ITEMS[kind]] * 2, fields)
        for key in [*formats._BOX_KEYS, *(name for name, _, _ in fields)]:
            for value in CORRUPT_VALUES:
                records = [valid[0], {**valid[1], key: value}]
                loop = outcome(lambda: formats._record_loop(build, fields, records, "r", "object"))
                if formats._column_checked(records, fields) is not None:
                    assert loop[0] == "ok", (key, value)
                assert outcome(lambda: read_records(build, fields, "r", records)) == loop

    @pytest.mark.parametrize("kind", list(KINDS))
    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_valid_records_pass_the_column_check(self, kind, data):
        _, fields, items = KINDS[kind]
        records = to_records(data.draw(st.lists(items, min_size=1, max_size=4)), fields)
        assert formats._column_checked(records, fields) is not None

    def test_an_integral_float_goes_to_the_loop_and_reads_as_an_int(self):
        records = to_records([Detection(Box3D((0, 1, 0.5), (1, 2, 1), 0.1), 3, 0.75)],
                             DETECTION_FIELDS)
        assert formats._column_checked(records, DETECTION_FIELDS) is not None
        records[0]["class_id"] = 3.0
        assert formats._column_checked(records, DETECTION_FIELDS) is None
        value = read_records(Detection, DETECTION_FIELDS, "d.jsonl", records)[0].class_id
        assert value == 3 and type(value) is int

    def test_a_json_int_box_field_stays_an_int(self, tmp_path):
        path = tmp_path / "p.jsonl"
        path.write_text(json.dumps({"x": 1, "y": 2.0, "z": 0, "w": 2, "l": 1.5, "h": 1, "yaw": 0,
                                    "score": 1, "class_id": 4, "modality": "lidar"}) + "\n")
        (p,) = load_proposals(path)
        assert repr(p) == repr(Proposal(Box3D((1, 2.0, 0), (2, 1.5, 1), 0), 1, 4, "lidar"))
        assert type(p.box.center[0]) is int and type(p.score) is int

    @pytest.mark.parametrize("line", ['  {"x": 1}', "", "   ", '{"x": 1} ', "\ufeff{}",
                                      '{"x": 1} {"y": 2}', "[1, 2", "NaN"])
    def test_a_line_the_scanner_does_not_read_whole_gets_the_loads_outcome(self, tmp_path, line):
        path = tmp_path / "r.jsonl"
        path.write_text(line + "\n")
        try:
            expected = ("ok", repr([json.loads(line)] if line.strip() else []))
        except ValueError as exc:
            expected = ("error", f"{path}:1: invalid JSON ({exc})")
        assert outcome(lambda: formats._json_lines(path)) == expected


class TestJsonWriter:
    def test_save_json_writes_the_text_and_a_newline(self, tmp_path):
        # Keys and strings holding brackets, commas, escapes, quotes and
        # non-ASCII characters, empty containers, signed zeros and big ints.
        value = {"b": [1, {"c": []}, -0.0, 10**40], "a": {}, "é": "x, [y]",
                 "[k,": {"q\"{": 'a"b', "back\\slash": ["{,}", "\u2028", "\x00"]}}
        save_json(value, tmp_path / "v.json")
        text = (tmp_path / "v.json").read_text()
        assert text == json.dumps(value, sort_keys=True, indent=2) + "\n"
        assert text.isascii() and json.loads(text) == value


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

    def test_lines_end_at_newline_alone(self, tmp_path):
        # JSON allows U+2028, U+2029 and U+0085 raw in a string, where
        # str.splitlines would cut its line in two.
        anns = [Annotation(Box3D((float(i), 2, 0.5), (2, 3, 1), 0.3), 4, 2, 17)
                for i in range(6)]
        records = to_records(anns, ANNOTATION_FIELDS)
        for record, note in zip(records, ("a\u2028b", "\u2029", "c\u0085")):
            record["note"] = note
        lines = [json.dumps(r, ensure_ascii=False) for r in records]
        path = tmp_path / "a.jsonl"
        path.write_bytes("".join(line + "\r\n" for line in lines).encode("utf-8"))
        assert "\u2028" in path.read_text(encoding="utf-8")
        assert load_annotations(path) == anns
        lines[4] = "not json"
        path.write_bytes("".join(line + "\r\n" for line in lines).encode("utf-8"))
        with pytest.raises(DataFormatError, match=r"a\.jsonl:5: invalid JSON"):
            load_annotations(path)

    def test_missing_field_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps({"x": 1.0, "y": 2.0}) + "\n")
        with pytest.raises(DataFormatError, match="bad.jsonl: record 0 has no field 'z'"):
            load_proposals(path)

    @pytest.mark.parametrize("table, cls", [
        (PROPOSAL_FIELDS, Proposal), (ANNOTATION_FIELDS, Annotation),
        (DETECTION_FIELDS, Detection), (OBJECT_FIELDS, SceneObject),
    ])
    def test_field_table_names_the_dataclass_fields_after_the_box(self, table, cls):
        # The reader builds each item positionally from its table.
        assert [f.name for f in fields(cls)] == ["box", *(name for name, _, _ in table)]

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

    @pytest.mark.parametrize("key", ["height_cells", "width_cells", "camera_channels",
                                     "lidar_channels"])
    def test_a_grid_size_a_grid_file_header_cannot_hold_is_refused(self, key):
        # The header holds H, W and C as u32.
        assert getattr(config_from_dict({key: 2**32 - 1}), key) == 2**32 - 1
        with pytest.raises(ConfigurationError, match=f"^{key} 4294967296 exceeds 4294967295$"):
            config_from_dict({key: 2**32})

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
