"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Budgets and tolerances are fixed here, not configurable.
"""

import json
import math
import time

import numpy as np
import pytest

from dualguide.config import PipelineConfig
from dualguide.enhance import (
    Projection,
    enhance_camera_grid,
    enhance_lidar_grid,
    fuse_grids,
    pair_distance_weights,
)
from dualguide.geometry import Box3D, center_distance_bev
from dualguide.grid import BevGrid, GridSpec
from dualguide.instances import Proposal, build_instances
from dualguide.losses import LossWeights, RunningMax, composite_loss, pair_cosine_loss
from dualguide.matching import match_by_overlap, match_by_similarity, match_pairs
from dualguide.metrics import (
    Annotation,
    Detection,
    average_precision,
    partition_items,
    recall_at_iou,
    visibility_histogram,
)
from dualguide.pipeline import camera_instances, run_fusion
from dualguide.synth import generate_scene

from test_enhance import (
    camera_hard_pair,
    easy_pair,
    identity,
    lidar_hard_pair,
    ref_camera_enhance,
    ref_lidar_enhance,
)
from test_geometry import aa_iou, mc_iou, random_rect, rotated_iou_2d
from test_losses import easy_pair as cosine_pair
from test_matching import overlap_oracle, random_scene
from test_metrics import (
    MIXED_AP_AT_2M,
    MIXED_DETS,
    MIXED_GTS,
    derive_ap_101,
)
from test_synth import readout


def report(name: str, ok: bool, detail: str = "") -> None:
    tag = "PASS" if ok else "FAIL"
    print(f"[{tag}] {name}" + (f" ({detail})" if detail else ""))
    assert ok, f"{name}: {detail}"


def test_criterion_1_rotated_iou_oracles():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst_mc = 0.0
    for _ in range(200):
        a, b = random_rect(rng), random_rect(rng)
        exact = rotated_iou_2d(a, b)
        approx = mc_iou(a, b, 10**6, rng)
        worst_mc = max(worst_mc, abs(exact - approx))
    mc_ok = worst_mc <= 2e-3

    worst_aa = 0.0
    for _ in range(200):
        a = random_rect(rng, yaw_zero=True)
        b = random_rect(rng, yaw_zero=True)
        worst_aa = max(worst_aa, abs(rotated_iou_2d(a, b) - aa_iou(a, b)))
    aa_ok = worst_aa <= 1e-12
    elapsed = time.perf_counter() - start
    report(
        "criterion 1: rotated IoU vs Monte-Carlo and closed form",
        mc_ok and aa_ok and elapsed < 30.0,
        f"max MC dev {worst_mc:.2e}, max closed-form dev {worst_aa:.2e}, {elapsed:.1f}s",
    )


def test_criterion_2_matching_oracles():
    rng = np.random.default_rng(102)
    stage1_ok = True
    stage2_ok = True
    monotone_ok = True
    for _ in range(500):
        lidar, camera = random_scene(rng, int(rng.integers(0, 9)), int(rng.integers(0, 9)))
        eta = float(rng.uniform(0.05, 0.7))
        pairs, um_l, um_c, m_l, m_c = match_by_overlap(lidar, camera, eta)
        got = sorted((p.anchor_idx, p.guide_idx, p.similarity) for p in pairs)
        expected = sorted((i, j, v) for v, i, j in overlap_oracle(lidar, camera, eta))
        if got != expected:
            stage1_ok = False

        hard = match_by_similarity(um_c, m_c, m_l, "camera_hard")
        for (idx, inst), pair in zip(um_c, hard):
            dots = [float(np.dot(inst.raw, m.raw)) for _, m in m_c]
            t = max(range(len(dots)), key=lambda k: (dots[k], -k)) if dots else None
            if t is None:
                stage2_ok = False
            elif pair.guide_idx != m_l[t][0] or pair.similarity != pytest.approx(dots[t]):
                stage2_ok = False

        counts = [
            len(match_by_overlap(lidar, camera, e)[0]) for e in (0.1, 0.3, 0.5, 0.7, 0.9)
        ]
        if counts != sorted(counts, reverse=True):
            monotone_ok = False
    report(
        "criterion 2: matching equals brute-force oracles on 500 scenes",
        stage1_ok and stage2_ok and monotone_ok,
        f"stage1={stage1_ok} stage2={stage2_ok} eta-monotone={monotone_ok}",
    )


def test_criterion_3_enhancement_transliteration():
    rng = np.random.default_rng(103)
    ok = True
    for scene_idx in range(100):
        spec = GridSpec(8, 8, 3, (0.0, 8.0), (0.0, 8.0))
        grid = BevGrid(spec, rng.normal(size=(8, 8, 3)))
        proj = Projection(rng.normal(size=(3, 3)), rng.normal(size=3))
        # Cluster half the scenes so write cells collide, exercising the
        # original-read vs enhanced-read distinction.
        span = (3.0, 5.0) if scene_idx % 2 else (0.5, 7.5)

        def pt():
            return (float(rng.uniform(*span)), float(rng.uniform(*span)))

        easy = [
            easy_pair(pt(), pt(), rng.normal(size=3), rng.normal(size=3))
            for _ in range(int(rng.integers(0, 4)))
        ]
        c_hard = [
            camera_hard_pair(pt(), pt(), rng.normal(size=3), rng.normal(size=3))
            for _ in range(int(rng.integers(0, 4)))
        ]
        l_hard = [
            lidar_hard_pair(pt(), pt(), rng.normal(size=3), rng.normal(size=3))
            for _ in range(int(rng.integers(0, 5)))
        ]
        cam_out = enhance_camera_grid(grid.copy(), easy, c_hard, proj)
        if not np.array_equal(cam_out.data, ref_camera_enhance(grid, easy, c_hard, proj)):
            ok = False
        lid_out = enhance_lidar_grid(grid.copy(), l_hard, proj)
        if not np.array_equal(lid_out.data, ref_lidar_enhance(grid, l_hard, proj)):
            ok = False
    report(
        "criterion 3: enhancements bit-identical to stepwise references",
        ok,
        "100 random 8x8 scenes incl. overlapping writes",
    )


def test_criterion_4_distance_weight_formula():
    pairs = [
        lidar_hard_pair((0, 0), (2, 0), [1.0], [1.0]),
        lidar_hard_pair((0, 0), (4, 0), [1.0], [1.0]),
        lidar_hard_pair((0, 0), (6, 0), [1.0], [1.0]),
    ]
    distances = [center_distance_bev(p.anchor.proposal.box, p.guide.proposal.box) for p in pairs]
    spread = pair_distance_weights(pairs)
    exact = distances == [2.0, 4.0, 6.0] and spread == [1.0, 0.5, 0.0]
    single = pair_distance_weights(pairs[:1]) == [1.0]
    equal = pair_distance_weights(
        [lidar_hard_pair((0, 0), (3, 0), [1.0], [1.0]) for _ in range(4)]
    ) == [1.0] * 4
    report(
        "criterion 4: min-max distance weights",
        exact and single and equal,
        f"{distances} -> {spread}, degenerate all-1.0",
    )


def test_criterion_5_loss_suite():
    proj = identity(2)
    identical = pair_cosine_loss([cosine_pair([1.0, 2.0], [1.0, 2.0])], proj)
    orthogonal = pair_cosine_loss([cosine_pair([1.0, 0.0], [0.0, 1.0])], proj)
    antiparallel = pair_cosine_loss([cosine_pair([1.0, 1.0], [-1.0, -1.0])], proj)
    cos_ok = (
        abs(identical - 0.0) <= 1e-12
        and abs(orthogonal - 1.0) <= 1e-12
        and abs(antiparallel - 2.0) <= 1e-12
    )

    total, _ = composite_loss(1.0, 1.0, 1.0, 1.0, LossWeights(), RunningMax())
    total_ok = total == 1.0002

    weights = LossWeights(0.0, 0.0, 0.0, 1.0)
    history = RunningMax()
    used = []
    for cos in (0.4, None, 0.1):
        value, history = composite_loss(0, 0, 0, cos, weights, history)
        used.append(value)
    sequence_ok = used == [0.4, 0.4, 0.1] and history.max_seen == 0.4

    report(
        "criterion 5: cosine extremes, weighted total, empty-batch fallback",
        cos_ok and total_ok and sequence_ok,
        f"cos=({identical},{orthogonal},{antiparallel}), total={total}, seq={used}",
    )


def test_criterion_6_metric_oracles():
    ap = average_precision(MIXED_DETS, MIXED_GTS, 0, 2.0)
    ap_ok = (
        ap == pytest.approx(MIXED_AP_AT_2M, abs=1e-12)
        and ap == pytest.approx(derive_ap_101([1, 0, 1, 0], 3), abs=1e-12)
    )

    gts = [
        Annotation(Box3D((0.0, 0.0, 0.5), (1, 1, 1), 0.0), 0, 4, 10),
        Annotation(Box3D((10.0, 0.0, 0.5), (2, 2, 1), 0.0), 0, 4, 10),
        Annotation(Box3D((20.0, 0.0, 0.5), (1, 1, 1), 0.0), 0, 4, 10),
    ]
    dets = [
        Detection(Box3D((0.0, 0.0, 0.5), (1, 1, 1), 0.0), 0, 0.9),
        Detection(Box3D((10.5, 0.0, 0.5), (2, 2, 1), 0.0), 0, 0.8),
        Detection(Box3D((20.45, 0.0, 0.5), (1, 1, 1), 0.0), 0, 0.7),
    ]
    recalls = recall_at_iou(dets, gts, (0.3, 0.5, 0.7))
    recall_ok = (
        recalls[0.3] == pytest.approx(1.0)
        and recalls[0.5] == pytest.approx(2.0 / 3.0)
        and recalls[0.7] == pytest.approx(1.0 / 3.0)
    )

    config = PipelineConfig(
        height_cells=96, width_cells=96, x_range=(-28.8, 28.8), y_range=(-28.8, 28.8),
        camera_channels=6, lidar_channels=8,
    )
    partition_ok = True
    histogram_ok = True
    for seed in (51, 52, 53):
        scene = generate_scene(config, seed, 15, "mixed", with_points=True)
        for axis in ("distance", "visibility", "size"):
            bins = partition_items(scene.annotations, axis)
            if sorted(id(a) for b in bins for a in b) != sorted(id(a) for a in scene.annotations):
                partition_ok = False
        expected = {token: [0] * 6 for token in (1, 2, 3, 4)}
        from dualguide.metrics import point_count_bucket

        for obj in scene.objects:
            expected[obj.visibility_token][point_count_bucket(obj.num_lidar_pts)] += 1
        if visibility_histogram(scene.annotations, scene.points) != expected:
            histogram_ok = False
        if visibility_histogram(scene.annotations) != expected:
            histogram_ok = False
    report(
        "criterion 6: metric values vs hand enumeration, partitions, histogram",
        ap_ok and recall_ok and partition_ok and histogram_ok,
        f"AP={ap:.6f} (56/101), recalls={[recalls[t] for t in (0.3, 0.5, 0.7)]}",
    )


def test_criterion_7_enhancement_benefit():
    # Harness: 20 seeded mixed scenes; the fixed score-readout detector
    # (energy_peak_detections, capped at the ground-truth count) runs on the
    # fused grid with and without enhancement; recall@IoU0.3 is compared.
    config = PipelineConfig(
        height_cells=96, width_cells=96, x_range=(-28.8, 28.8), y_range=(-28.8, 28.8),
        camera_channels=6, lidar_channels=8, grouping_strategy="collision_cost",
    )
    deltas = []
    non_regressions = 0
    for seed in range(20):
        scene = generate_scene(config, seed, 14, "mixed")
        baseline = fuse_grids(scene.camera_grid, scene.lidar_grid)
        run_fusion(
            scene.camera_grid, scene.lidar_grid,
            camera_instances(scene.camera_grid, scene.camera_proposals, config),
            scene.lidar_proposals, config,
        )
        enhanced = fuse_grids(scene.camera_grid, scene.lidar_grid)
        cap = len(scene.annotations)
        r_enh = recall_at_iou(
            readout(enhanced, max_peaks=cap), scene.annotations, (0.3,)
        )[0.3]
        r_base = recall_at_iou(
            readout(baseline, max_peaks=cap), scene.annotations, (0.3,)
        )[0.3]
        deltas.append(r_enh - r_base)
        non_regressions += r_enh >= r_base
    mean_delta = float(np.mean(deltas))
    report(
        "criterion 7: enhancement lifts fused-grid recall@IoU0.3",
        non_regressions >= 16 and mean_delta > 0.0,
        f"{non_regressions}/20 seeds non-regressing, mean delta {mean_delta:+.4f}",
    )


def test_criterion_8_latency_budgets(tmp_path):
    rng = np.random.default_rng(108)
    camera_spec = GridSpec(180, 180, 80)
    lidar_spec = GridSpec(180, 180, 128)
    camera_grid = BevGrid(camera_spec, rng.normal(size=(180, 180, 80)))
    lidar_grid = BevGrid(lidar_spec, rng.normal(size=(180, 180, 128)))

    # 150 objects seen by both modalities (jittered copies, so easy pairs
    # actually form and stage 2 has matched pools to search) plus 50
    # single-modality proposals each.
    def proposal(x, y, w, l, yaw, class_id, modality):
        return Proposal(
            Box3D((x, y, 1.0), (w, l, 1.5), yaw),
            float(rng.uniform(0.7, 1.0)),
            class_id,
            modality,
        )

    camera_props, lidar_props = [], []
    for _ in range(150):
        x, y = (float(v) for v in rng.uniform(-48, 48, size=2))
        w, l = (float(v) for v in rng.uniform(2.0, 5.0, size=2))
        yaw = float(rng.uniform(-math.pi, math.pi))
        class_id = int(rng.integers(0, 10))
        lidar_props.append(proposal(x, y, w, l, yaw, class_id, "lidar"))
        jx, jy = (float(v) for v in rng.normal(0.0, 0.05, size=2))
        camera_props.append(proposal(x + jx, y + jy, w, l, yaw, class_id, "camera"))
    for modality, out in (("camera", camera_props), ("lidar", lidar_props)):
        for _ in range(50):
            x, y = (float(v) for v in rng.uniform(-48, 48, size=2))
            w, l = (float(v) for v in rng.uniform(1.0, 4.0, size=2))
            out.append(
                proposal(x, y, w, l, float(rng.uniform(-math.pi, math.pi)),
                         int(rng.integers(0, 10)), modality)
            )
    camera_inst = build_instances(camera_grid, camera_props, 0.7)
    lidar_inst = build_instances(lidar_grid, lidar_props, 0.7)
    match_pairs(lidar_inst[:5], camera_inst[:5], 0.7, "cbgs_groups")  # warm-up

    t0 = time.perf_counter()
    sets = match_pairs(lidar_inst, camera_inst, 0.7, "cbgs_groups")
    match_ms = (time.perf_counter() - t0) * 1000

    squeeze = Projection.seeded(5 * 128, 80, 1)
    excite = Projection.seeded(5 * 80, 128, 2)
    camera_copy, lidar_copy = camera_grid.copy(), lidar_grid.copy()
    t0 = time.perf_counter()
    enhance_camera_grid(camera_copy, sets.easy, sets.camera_hard, squeeze)
    enhance_lidar_grid(lidar_copy, sets.lidar_hard, excite)
    enhance_ms = (time.perf_counter() - t0) * 1000

    from dualguide.cli import main
    from dualguide.synth import Scene, write_scene

    big = PipelineConfig(camera_channels=80, lidar_channels=128)
    scene = Scene(camera_grid, lidar_grid, camera_props, lidar_props, [], [])
    manifest = write_scene(scene, tmp_path / "scene", big, 0, "mixed")
    t0 = time.perf_counter()
    code = main(["fuse", "--scene", str(manifest), "--out", str(tmp_path / "out")])
    fuse_s = time.perf_counter() - t0

    report(
        "criterion 8: latency budgets (match < 50 ms, enhance < 200 ms, fuse < 5 s)",
        match_ms < 50.0 and enhance_ms < 200.0 and code == 0 and fuse_s < 5.0,
        f"match {match_ms:.1f} ms, enhance {enhance_ms:.1f} ms, fuse {fuse_s:.2f} s, "
        f"{len(sets.easy)}/{len(sets.camera_hard)}/{len(sets.lidar_hard)} pairs",
    )


def test_criterion_9_pipeline_determinism(tmp_path, monkeypatch):
    from dualguide.cli import main

    monkeypatch.chdir(tmp_path)
    names = [
        "manifest.json", "camera.bevg", "lidar.bevg", "camera.bevg.json",
        "camera_proposals.jsonl", "lidar_proposals.jsonl", "annotations.jsonl",
        "enhanced_camera.bevg", "enhanced_lidar.bevg", "fused.bevg",
        "pairs.json", "report.json",
    ]
    for run in ("run_a", "run_b"):
        scene = f"{run}/manifest.json"
        assert main(["gen", "--seed", "7", "--objects", "12", "--out", run]) == 0
        assert main(["fuse", "--scene", scene]) == 0
        assert main(["eval", "--scene", scene, "--axis", "visibility"]) == 0
    identical = all(
        (tmp_path / "run_a" / n).read_bytes() == (tmp_path / "run_b" / n).read_bytes()
        for n in names
    )
    report(
        "criterion 9: gen/fuse/eval artifacts byte-identical across runs",
        identical,
        f"{len(names)} artifacts compared",
    )
