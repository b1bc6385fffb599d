"""End-to-end fusion pipeline wiring."""

import gc
import itertools
import json
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualguide.config import PipelineConfig
from dualguide.enhance import Projection, fuse_grids
from dualguide.errors import ConfigurationError, DataFormatError
from dualguide.formats import pair_sets_to_dict, save_projection
from dualguide.grid import BevGrid, GridSpec, global_context_refine
from dualguide.instances import build_instances
from dualguide.matching import match_pairs
from dualguide.pipeline import (
    build_context_weights,
    build_projections,
    camera_instances,
    open_scene,
    run_fusion,
    run_matching,
)
from dualguide.synth import generate_scene, load_scene, write_scene

SMALL = PipelineConfig(
    height_cells=64,
    width_cells=64,
    x_range=(-19.2, 19.2),
    y_range=(-19.2, 19.2),
    camera_channels=5,
    lidar_channels=7,
)


@pytest.fixture(scope="module")
def scene():
    return generate_scene(SMALL, seed=21, n_objects=8, gap_profile="mixed")


def run(scene, config=SMALL):
    """`run_fusion` on copies of the scene's grids: the pairs and the two enhanced grids."""
    camera, lidar = scene.camera_grid.copy(), scene.lidar_grid.copy()
    instances = camera_instances(camera, scene.camera_proposals, config)
    pairs = run_fusion(camera, lidar, instances, scene.lidar_proposals, config)
    return pairs, camera, lidar


class TestRunFusion:
    def test_matching_alone_keeps_the_grids_and_gives_the_same_pairs(self, scene):
        camera, lidar = scene.camera_grid.data.copy(), scene.lidar_grid.data.copy()
        instances = camera_instances(scene.camera_grid, scene.camera_proposals, SMALL)
        pairs = run_matching(instances, scene.lidar_grid, scene.lidar_proposals, SMALL)
        assert np.array_equal(scene.camera_grid.data, camera)
        assert np.array_equal(scene.lidar_grid.data, lidar)
        assert pair_sets_to_dict(pairs) == pair_sets_to_dict(run(scene)[0])

    def test_camera_instances_come_from_refined_grid(self, scene):
        pairs = run(scene)[0]
        context = global_context_refine(
            scene.camera_grid, build_context_weights(SMALL.camera_channels)
        )
        refined = BevGrid(scene.camera_grid.spec, scene.camera_grid.data + context)
        camera = build_instances(
            refined, scene.camera_proposals, SMALL.gamma, SMALL.sampling_strategy
        )
        lidar = build_instances(
            scene.lidar_grid, scene.lidar_proposals, SMALL.gamma, SMALL.sampling_strategy
        )
        members = [(p.guide, p.guide_idx) for p in pairs.easy + pairs.lidar_hard]
        members += [(p.anchor, p.anchor_idx) for p in pairs.camera_hard]
        assert members, "scene should produce pairs with camera members"
        for got, idx in members:
            assert np.array_equal(got.raw, camera[idx].raw)
        want = match_pairs(lidar, camera, SMALL.eta, SMALL.grouping_strategy)
        assert pair_sets_to_dict(pairs) == pair_sets_to_dict(want)

    def test_enhancement_changes_grids_when_pairs_exist(self, scene):
        pairs, camera, lidar = run(scene)
        assert pairs.easy, "scene should produce easy pairs"
        assert not np.array_equal(camera.data, scene.camera_grid.data)
        if pairs.lidar_hard:
            assert not np.array_equal(lidar.data, scene.lidar_grid.data)

    def test_deterministic(self, scene):
        (_, *a), (_, *b) = run(scene), run(scene)
        assert all(np.array_equal(x.data, y.data) for x, y in zip(a, b))

    def test_sizes_come_from_the_grids_not_the_config(self, scene):
        # A config whose generator depths disagree with the grids still runs,
        # with weights sized from the grids.
        want_pairs, *want = run(scene)
        got_pairs, *got = run(scene, config=replace(SMALL, camera_channels=16, lidar_channels=24))
        for a, b in zip(got, want):
            assert a.spec == b.spec and np.array_equal(a.data, b.data)
        assert pair_sets_to_dict(got_pairs) == pair_sets_to_dict(want_pairs)

    def test_allocates_no_grid(self, scene):
        camera, lidar = scene.camera_grid.copy(), scene.lidar_grid.copy()

        def fusion():
            instances = camera_instances(camera, scene.camera_proposals, SMALL)
            run_fusion(camera, lidar, instances, scene.lidar_proposals, SMALL)

        fusion()  # first call pays one-off allocations (imports, caches)
        gc.collect()
        tracemalloc.start()
        try:
            fusion()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # The refine's H x W attention vector is 1/12 of the two 5/7-channel
        # grids; a copy of the smaller grid would be 5/12.
        assert peak <= 0.25 * (camera.data.nbytes + lidar.data.nbytes)

    def test_all_finite(self, scene):
        _, camera, lidar = run(scene)
        context = global_context_refine(
            scene.camera_grid, build_context_weights(SMALL.camera_channels)
        )
        assert np.isfinite(context).all()
        for grid in (camera, lidar):
            assert np.isfinite(grid.data).all()


DEEP_SMALL = replace(SMALL, camera_channels=80, lidar_channels=128)


def case_config(seed):
    """Scene seeds alternate 5/7 and 80/128 channels."""
    return (SMALL, DEEP_SMALL)[seed % 2]


def refine_case(seed):
    """Camera and LiDAR grids: seeds 0-19 noise of several depths, 20-29 scenes."""
    if seed >= 20:
        scene = generate_scene(case_config(seed), seed, 10, "mixed")
        return scene.camera_grid, scene.lidar_grid
    rng = np.random.default_rng(seed)
    h, w = (int(n) for n in rng.integers(4, 72, size=2))
    c_cam, c_lid = ((80, 128), (5, 7), (16, 24), (33, 1))[seed % 4]
    spec = GridSpec(h, w, c_cam, (0.0, float(w)), (0.0, float(h)))
    camera = BevGrid(spec, rng.normal(size=(h, w, c_cam)) * rng.uniform(0.1, 10.0))
    lidar = BevGrid(replace(spec, channels=c_lid), rng.normal(size=(h, w, c_lid)))
    return camera, lidar


class TestRefineOnFusedSlice:
    """The context of a camera slice of a fused grid is the contiguous grid's."""

    @pytest.mark.parametrize("seed", range(30))
    def test_equals_the_contiguous_refine(self, seed):
        camera, lidar = refine_case(seed)
        view = BevGrid(camera.spec, fuse_grids(camera, lidar).data[:, :, lidar.spec.channels:])
        weights = build_context_weights(camera.spec.channels)
        assert np.array_equal(global_context_refine(view, weights),
                              global_context_refine(camera, weights))

    def test_copies_nothing(self):
        camera, lidar = refine_case(0)  # 80 camera channels of 208
        view = BevGrid(camera.spec, fuse_grids(camera, lidar).data[:, :, 128:])
        weights = build_context_weights(80)
        tracemalloc.start()
        try:
            global_context_refine(view, weights)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.05 * view.data.nbytes


class TestRunFusionOnFusedViews:
    """`run_fusion` on the channel views of a fused buffer enhances the buffer
    exactly as it enhances contiguous grids."""

    @pytest.mark.parametrize("seed", range(20, 30))
    def test_equals_the_contiguous_run(self, seed):
        config = case_config(seed)
        scene = generate_scene(config, seed, 10, "mixed")
        c_l = config.lidar_channels
        fused = fuse_grids(scene.camera_grid, scene.lidar_grid)
        raw = fused.data.copy()

        def fusion(camera, lidar):
            instances = camera_instances(camera, scene.camera_proposals, config)
            return run_fusion(camera, lidar, instances, scene.lidar_proposals, config)

        got = fusion(BevGrid(scene.camera_grid.spec, fused.data[:, :, c_l:]),
                     BevGrid(scene.lidar_grid.spec, fused.data[:, :, :c_l]))
        want = fusion(scene.camera_grid, scene.lidar_grid)
        assert pair_sets_to_dict(got) == pair_sets_to_dict(want)
        assert fused.data.tobytes() == fuse_grids(scene.camera_grid, scene.lidar_grid).data.tobytes()
        assert not np.array_equal(fused.data, raw), "the scene should enhance some cell"


class TestProjectionWiring:
    def test_shapes_follow_strategy_and_channels(self):
        lidar_squeeze, camera_squeeze, excitation = build_projections(
            SMALL, 5, 7, "lidar_squeeze", "camera_squeeze", "excitation"
        )
        k = 5  # center+boundary_mid
        assert lidar_squeeze.matrix.shape == (5, k * 7)
        assert camera_squeeze.matrix.shape == (5, k * 5)
        assert excitation.matrix.shape == (7, k * 5)

    def test_weight_files_override_seeding(self, tmp_path):
        proj = Projection(np.zeros((5, 35)), np.zeros(5))
        path = tmp_path / "squeeze.proj"
        save_projection(proj, path)
        cfg = replace(SMALL, lidar_squeeze_path=str(path))
        lidar_squeeze, camera_squeeze = build_projections(
            cfg, 5, 7, "lidar_squeeze", "camera_squeeze"
        )
        assert np.array_equal(lidar_squeeze.matrix, proj.matrix)
        assert np.array_equal(
            camera_squeeze.matrix,
            build_projections(SMALL, 5, 7, "camera_squeeze")[0].matrix,
        )


# Key points per sampling strategy, and each projection's seed, source and
# target modality: the seeded weights every artifact is pinned to.
KEY_POINTS = {"center": 1, "center+vertices": 5, "center+boundary_mid": 5,
              "center+vertices+boundary_mid": 9}
SEEDED = {"lidar_squeeze": (0, "lidar", "camera"), "camera_squeeze": (1, "camera", "camera"),
          "excitation": (2, "camera", "lidar")}
# Every order of every subset of the three names, the empty one included.
NAME_ORDERS = [order for n in range(4) for order in itertools.permutations(SEEDED, n)]


def reference_projection(name, strategy, camera_channels, lidar_channels):
    """uniform(-s, s) matrix then bias, s = 1/sqrt(fan-in), from the name's seed."""
    seed, source, target = SEEDED[name]
    channels = {"camera": camera_channels, "lidar": lidar_channels}
    n_in, n_out = KEY_POINTS[strategy] * channels[source], channels[target]
    rng = np.random.default_rng(seed)
    s = 1.0 / np.sqrt(n_in)
    return rng.uniform(-s, s, size=(n_out, n_in)), rng.uniform(-s, s, size=n_out)


class TestBuildProjections:
    @pytest.mark.parametrize("names", NAME_ORDERS, ids=lambda names: ",".join(names) or "none")
    @pytest.mark.parametrize("strategy", list(KEY_POINTS))
    def test_seeded_weights_are_the_pinned_ones(self, strategy, names):
        config = PipelineConfig(sampling_strategy=strategy)
        for camera_channels, lidar_channels in ((5, 7), (16, 24), (80, 128), (3, 1)):
            built = build_projections(config, camera_channels, lidar_channels, *names)
            assert len(built) == len(names)
            for name, projection in zip(names, built):
                matrix, bias = reference_projection(name, strategy, camera_channels,
                                                    lidar_channels)
                assert projection.matrix.tobytes() == matrix.tobytes(), name
                assert projection.bias.tobytes() == bias.tobytes(), name

    @pytest.mark.parametrize("name", list(SEEDED))
    @pytest.mark.parametrize("wrong", ["rows", "cols"])
    def test_a_weight_file_of_another_shape_names_the_file_and_key(self, tmp_path, name, wrong):
        matrix, bias = reference_projection(name, SMALL.sampling_strategy, 5, 7)
        rows, cols = matrix.shape[0] + (wrong == "rows"), matrix.shape[1] + (wrong == "cols")
        path = tmp_path / "bad.proj"
        save_projection(Projection(np.zeros((rows, cols)), np.zeros(rows)), path)
        config = replace(SMALL, **{f"{name}_path": str(path)})
        with pytest.raises(ConfigurationError) as refused:
            build_projections(config, 5, 7, name)
        assert str(refused.value) == (
            f"{path}: {name}_path maps {cols} values to {rows}, "
            f"the scene needs {matrix.shape[1]} to {matrix.shape[0]}"
        )

    def test_a_path_of_a_projection_not_named_is_not_read(self, tmp_path):
        missing = str(tmp_path / "missing.proj")
        config = replace(SMALL, camera_squeeze_path=missing, excitation_path=missing)
        (lidar_squeeze,) = build_projections(config, 5, 7, "lidar_squeeze")
        assert lidar_squeeze.matrix.tobytes() == reference_projection(
            "lidar_squeeze", SMALL.sampling_strategy, 5, 7)[0].tobytes()
        with pytest.raises(ConfigurationError) as raised:
            build_projections(config, 5, 7, "lidar_squeeze", "excitation")
        assert str(raised.value) == f"{missing}: excitation_path: No such file or directory"
        assert isinstance(raised.value.__cause__, FileNotFoundError)


# Values a corrupted annotation or manifest object field may take.
BAD_VALUES = (float("nan"), float("inf"), None, [], True, "x", "foggy", "mixed", 3.0, 3.5, -1, 0,
              5, 10, 1.5, 2**70, 10**400)


class TestOpenScene:
    """`open_scene` checks what `load_scene` checks, building no annotation or object."""

    @pytest.fixture(scope="class")
    def written(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("open")
        manifest = write_scene(generate_scene(SMALL, seed=5, n_objects=4), root, SMALL, 5, "mixed")
        return manifest, manifest.read_text(), (root / "annotations.jsonl").read_text()

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_a_corrupt_annotation_or_object_gets_the_same_message(self, written, data):
        manifest, manifest_text, annotations_text = written
        doc, records = json.loads(manifest_text), [
            json.loads(line) for line in annotations_text.splitlines()]
        target = data.draw(st.sampled_from([doc["objects"], records]))
        i = data.draw(st.integers(0, len(target) - 1))
        key = data.draw(st.sampled_from(sorted(target[i])))
        target[i] = {**target[i], key: data.draw(st.sampled_from(BAD_VALUES))}
        manifest.write_text(json.dumps(doc))
        (manifest.parent / "annotations.jsonl").write_text(
            "".join(json.dumps(r) + "\n" for r in records))

        def outcome(load):
            try:
                return load()
            except DataFormatError as exc:
                return str(exc)

        def open_it():
            with open_scene(manifest, SMALL) as (scene, _):
                assert scene.annotations is None and scene.objects is None
                return scene

        loaded, opened = outcome(lambda: load_scene(manifest)), outcome(open_it)
        if isinstance(loaded, str):
            assert opened == loaded
        else:
            assert not isinstance(opened, str), opened
