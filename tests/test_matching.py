"""Two-stage pair matching against brute-force oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualguide.errors import ConfigurationError
from dualguide.geometry import Box3D
from dualguide.instances import InstanceFeature, Proposal
from dualguide.matching import (
    PAIR_CAMERA_HARD,
    PAIR_EASY,
    PAIR_LIDAR_HARD,
    InstancePair,
    filter_pairs_by_group,
    match_by_overlap,
    match_by_similarity,
    match_pairs,
)
from dualguide.taxonomy import CAR, PEDESTRIAN, TRAFFIC_CONE

from test_geometry import rotated_iou_2d


def make_instance(x, y, w=2.0, l=2.0, yaw=0.0, score=0.9, class_id=0,
                  modality="lidar", raw=None):
    prop = Proposal(Box3D((x, y, 1.0), (w, l, 1.5), yaw), score, class_id, modality)
    if raw is None:
        raw = np.zeros(4)
    return InstanceFeature(prop, np.asarray(raw, dtype=np.float64))


def random_scene(rng, n_lidar, n_camera, span=12.0):
    def side(n, modality):
        return [
            make_instance(
                rng.uniform(0, span),
                rng.uniform(0, span),
                w=rng.uniform(1.0, 3.0),
                l=rng.uniform(1.0, 3.0),
                yaw=rng.uniform(-math.pi, math.pi),
                class_id=int(rng.integers(0, 10)),
                modality=modality,
                raw=rng.normal(size=4),
            )
            for _ in range(n)
        ]

    return side(n_lidar, "lidar"), side(n_camera, "camera")


def overlap_oracle(lidar, camera, eta):
    """Repeated global argmax with removal; no sorting shared with the matcher."""
    iou = [[rotated_iou_2d(a.proposal.box, b.proposal.box) for b in camera] for a in lidar]
    taken_l, taken_c = set(), set()
    result = []
    while True:
        best = None
        for i in range(len(lidar)):
            if i in taken_l:
                continue
            for j in range(len(camera)):
                if j in taken_c or iou[i][j] < eta:
                    continue
                if best is None or iou[i][j] > best[0]:
                    best = (iou[i][j], i, j)
        if best is None:
            return result
        taken_l.add(best[1])
        taken_c.add(best[2])
        result.append(best)


class TestOverlapMatching:
    def test_identical_box_pairs_up(self):
        lidar = [make_instance(0, 0)]
        camera = [make_instance(0, 0, modality="camera")]
        pairs, um_l, um_c, m_l, m_c = match_by_overlap(lidar, camera, 0.7)
        assert len(pairs) == 1
        assert pairs[0].similarity == pytest.approx(1.0)
        assert pairs[0].kind == PAIR_EASY
        assert not um_l and not um_c

    def test_disjoint_boxes_all_unmatched(self):
        lidar = [make_instance(0, 0)]
        camera = [make_instance(20, 20, modality="camera")]
        pairs, um_l, um_c, _, _ = match_by_overlap(lidar, camera, 0.7)
        assert pairs == []
        assert len(um_l) == 1 and len(um_c) == 1

    @pytest.mark.parametrize("gap", [1.2, 2.0])
    def test_disjoint_footprints_never_pair_at_eta_zero(self, gap):
        # 1 x 1 m footprints: at 1.2 m apart the circumradius prune keeps the
        # pair and its IoU reads 0.0; at 2.0 m apart the prune drops it.
        lidar = [make_instance(0.0, 0.0, w=1.0, l=1.0)]
        camera = [make_instance(gap, 0.0, w=1.0, l=1.0, modality="camera")]
        pairs, um_l, um_c, _, _ = match_by_overlap(lidar, camera, 0.0)
        assert pairs == []
        assert len(um_l) == 1 and len(um_c) == 1

    def test_greedy_resolves_contention(self):
        # L1 overlaps C0 more than L0 does; greedy hands C0 to L1 and
        # leaves L0 its second choice C1.
        lidar = [make_instance(0.0, 0.0), make_instance(0.3, 0.0)]
        camera = [
            make_instance(0.4, 0.0, modality="camera"),
            make_instance(-0.6, 0.0, modality="camera"),
        ]
        pairs, _, _, _, _ = match_by_overlap(lidar, camera, 0.1)
        by_lidar = {p.anchor_idx: p.guide_idx for p in pairs}
        assert by_lidar == {1: 0, 0: 1}

    def test_matches_rescan_oracle_on_random_scenes(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            lidar, camera = random_scene(rng, int(rng.integers(0, 9)), int(rng.integers(0, 9)))
            eta = float(rng.uniform(0.05, 0.6))
            pairs, _, _, _, _ = match_by_overlap(lidar, camera, eta)
            got = sorted((p.anchor_idx, p.guide_idx, p.similarity) for p in pairs)
            expected = sorted((i, j, v) for v, i, j in overlap_oracle(lidar, camera, eta))
            assert got == expected

    def test_injective_and_above_threshold(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            lidar, camera = random_scene(rng, 8, 8)
            eta = 0.3
            pairs, um_l, um_c, m_l, m_c = match_by_overlap(lidar, camera, eta)
            anchors = [p.anchor_idx for p in pairs]
            guides = [p.guide_idx for p in pairs]
            assert len(set(anchors)) == len(anchors)
            assert len(set(guides)) == len(guides)
            assert all(p.similarity >= eta for p in pairs)
            assert len(pairs) + len(um_l) == len(lidar)
            assert len(pairs) + len(um_c) == len(camera)

    def test_raising_eta_never_adds_pairs(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            lidar, camera = random_scene(rng, 6, 6)
            counts = [
                len(match_by_overlap(lidar, camera, eta)[0])
                for eta in (0.1, 0.3, 0.5, 0.7, 0.9)
            ]
            assert counts == sorted(counts, reverse=True)


class TestSimilarityMatching:
    def test_empty_matched_list_yields_nothing(self):
        unmatched = [(0, make_instance(0, 0, raw=[1, 0, 0, 0]))]
        assert match_by_similarity(unmatched, [], [], PAIR_CAMERA_HARD) == []

    def test_picks_identical_vector(self):
        matched_cam = [
            (0, make_instance(0, 0, modality="camera", raw=[0, 1, 0, 0])),
            (1, make_instance(1, 0, modality="camera", raw=[0, 0, 1, 0])),
            (2, make_instance(2, 0, modality="camera", raw=[1, 0, 0, 0])),
        ]
        matched_lid = [
            (0, make_instance(0, 0, raw=[1, 1, 1, 1])),
            (1, make_instance(1, 0, raw=[2, 2, 2, 2])),
            (2, make_instance(2, 0, raw=[3, 3, 3, 3])),
        ]
        unmatched = [(5, make_instance(5, 5, modality="camera", raw=[1, 0, 0, 0]))]
        pairs = match_by_similarity(unmatched, matched_cam, matched_lid, PAIR_CAMERA_HARD)
        assert len(pairs) == 1
        assert pairs[0].guide_idx == 2
        assert np.allclose(pairs[0].guide.raw, [3, 3, 3, 3])
        assert pairs[0].kind == PAIR_CAMERA_HARD

    def test_tie_breaks_to_lowest_index(self):
        matched = [
            (0, make_instance(0, 0, raw=[1, 0, 0, 0])),
            (1, make_instance(1, 0, raw=[1, 0, 0, 0])),
        ]
        counterpart = [
            (0, make_instance(0, 0, modality="camera", raw=[9, 9, 9, 9])),
            (1, make_instance(1, 0, modality="camera", raw=[8, 8, 8, 8])),
        ]
        unmatched = [(3, make_instance(3, 3, raw=[2, 0, 0, 0]))]
        pairs = match_by_similarity(unmatched, matched, counterpart, PAIR_LIDAR_HARD)
        assert pairs[0].guide_idx == 0

    def test_matches_double_loop_oracle(self):
        rng = np.random.default_rng(14)
        for _ in range(100):
            n_u, n_m = int(rng.integers(1, 6)), int(rng.integers(1, 5))
            unmatched = [
                (i, make_instance(i, 0, raw=rng.normal(size=4))) for i in range(n_u)
            ]
            matched = [
                (i, make_instance(i, 5, raw=rng.normal(size=4))) for i in range(n_m)
            ]
            counterpart = [
                (i, make_instance(i, 9, modality="camera", raw=rng.normal(size=4)))
                for i in range(n_m)
            ]
            pairs = match_by_similarity(unmatched, matched, counterpart, PAIR_LIDAR_HARD)
            for (idx, inst), pair in zip(unmatched, pairs):
                best_t, best_dot = None, None
                for t in range(n_m):
                    dot = float(np.dot(inst.raw, matched[t][1].raw))
                    if best_dot is None or dot > best_dot:
                        best_t, best_dot = t, dot
                assert pair.anchor_idx == idx
                assert pair.guide_idx == counterpart[best_t][0]
                assert pair.similarity == pytest.approx(best_dot)

    def test_length_mismatch_rejected(self):
        unmatched = [(0, make_instance(0, 0, raw=[1, 0, 0, 0]))]
        matched = [(0, make_instance(0, 5, raw=np.ones(6)))]
        counterpart = [(0, make_instance(0, 9, modality="camera"))]
        with pytest.raises(ConfigurationError):
            match_by_similarity(unmatched, matched, counterpart, PAIR_LIDAR_HARD)


class TestGroupFilter:
    def pair_of(self, class_a, class_b):
        return InstancePair(
            make_instance(0, 0, class_id=class_a),
            make_instance(0, 0, class_id=class_b, modality="camera"),
            PAIR_EASY,
            0.9,
        )

    def test_pedestrian_cone_kept_by_both_groupings(self):
        pair = self.pair_of(PEDESTRIAN, TRAFFIC_CONE)
        assert filter_pairs_by_group([pair], "collision_cost") == [pair]
        assert filter_pairs_by_group([pair], "cbgs_groups") == [pair]

    def test_car_pedestrian_dropped_unless_none(self):
        pair = self.pair_of(CAR, PEDESTRIAN)
        assert filter_pairs_by_group([pair], "collision_cost") == []
        assert filter_pairs_by_group([pair], "cbgs_groups") == []
        assert filter_pairs_by_group([pair], "none") == [pair]

    def test_none_is_identity(self):
        rng = np.random.default_rng(15)
        pairs = [
            self.pair_of(int(rng.integers(0, 10)), int(rng.integers(0, 10)))
            for _ in range(20)
        ]
        assert filter_pairs_by_group(pairs, "none") == pairs


class TestMatchPairs:
    def test_empty_camera_side(self):
        lidar = [make_instance(0, 0), make_instance(5, 5)]
        sets = match_pairs(lidar, [], 0.7, "none")
        assert sets.easy == [] and sets.camera_hard == [] and sets.lidar_hard == []
        assert sets.unmatched_lidar == 2

    def test_perfectly_aligned_boxes_all_easy(self):
        n = 5
        lidar = [make_instance(3.0 * i, 0, class_id=i % 3) for i in range(n)]
        camera = [
            make_instance(3.0 * i, 0, class_id=i % 3, modality="camera") for i in range(n)
        ]
        sets = match_pairs(lidar, camera, 0.7, "cbgs_groups")
        assert len(sets.easy) == n
        assert sets.camera_hard == [] and sets.lidar_hard == []

    def test_hand_enumerated_mixed_scene(self):
        # Two cross-modal overlaps and two isolated instances per side.
        lidar = [
            make_instance(0.0, 0.0, raw=[1, 0, 0, 0]),        # L0, easy with C0
            make_instance(10.0, 10.0, raw=[0, 1, 0, 0]),      # L1, easy with C1
            make_instance(20.0, 0.0, raw=[0.9, 0.1, 0, 0]),   # L2, hard; nearest L0
            make_instance(30.0, 0.0, raw=[0.1, 0.9, 0, 0]),   # L3, hard; nearest L1
        ]
        camera = [
            make_instance(0.1, 0.0, modality="camera", raw=[0, 0, 1, 0]),       # C0
            make_instance(10.0, 10.1, modality="camera", raw=[0, 0, 0, 1]),     # C1
            make_instance(0.0, 20.0, modality="camera", raw=[0, 0, 1, 0.2]),    # C2 ~ C0
            make_instance(0.0, 30.0, modality="camera", raw=[0, 0, 0.2, 1]),    # C3 ~ C1
        ]
        sets = match_pairs(lidar, camera, 0.5, "none")
        assert {(p.anchor_idx, p.guide_idx) for p in sets.easy} == {(0, 0), (1, 1)}
        # C2's features align with C0, whose easy LiDAR partner is L0.
        ch = {(p.anchor_idx, p.guide_idx) for p in sets.camera_hard}
        assert ch == {(2, 0), (3, 1)}
        # L2 aligns with L0 -> camera guide C0; L3 with L1 -> C1.
        lh = {(p.anchor_idx, p.guide_idx) for p in sets.lidar_hard}
        assert lh == {(2, 0), (3, 1)}
        assert sets.unmatched_lidar == 2 and sets.unmatched_camera == 2

    def test_hard_counts_before_filter(self):
        rng = np.random.default_rng(16)
        for _ in range(30):
            lidar, camera = random_scene(rng, 6, 5)
            sets = match_pairs(lidar, camera, 0.2, "none")
            n_easy = len(sets.easy)
            if n_easy > 0:
                assert len(sets.camera_hard) == len(camera) - n_easy
                assert len(sets.lidar_hard) == len(lidar) - n_easy
            else:
                assert sets.camera_hard == [] and sets.lidar_hard == []

    def test_permutation_invariance_up_to_order(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            lidar, camera = random_scene(rng, 6, 6)
            sets_a = match_pairs(lidar, camera, 0.3, "none")
            perm_l = list(rng.permutation(len(lidar)))
            perm_c = list(rng.permutation(len(camera)))
            sets_b = match_pairs(
                [lidar[i] for i in perm_l],
                [camera[j] for j in perm_c],
                0.3, "none",
            )

            def canonical(pairs):
                return sorted(
                    (
                        p.kind,
                        round(p.anchor.bev_center[0], 9),
                        round(p.anchor.bev_center[1], 9),
                        round(p.guide.bev_center[0], 9),
                        round(p.guide.bev_center[1], 9),
                        round(p.similarity, 9),
                    )
                    for p in pairs
                )

            assert canonical(sets_a.easy) == canonical(sets_b.easy)
            assert canonical(sets_a.camera_hard) == canonical(sets_b.camera_hard)
            assert canonical(sets_a.lidar_hard) == canonical(sets_b.lidar_hard)

    def test_deterministic(self):
        rng = np.random.default_rng(18)
        lidar, camera = random_scene(rng, 7, 7)
        a = match_pairs(lidar, camera, 0.3, "cbgs_groups")
        b = match_pairs(lidar, camera, 0.3, "cbgs_groups")
        assert [(p.anchor_idx, p.guide_idx, p.similarity) for p in a.easy] == [
            (p.anchor_idx, p.guide_idx, p.similarity) for p in b.easy
        ]


@st.composite
def matching_scenes(draw):
    """LiDAR and camera instances, some camera boxes jittered copies of LiDAR ones."""
    coord, extent = st.floats(0.0, 6.0), st.floats(0.5, 3.0)

    def instance(modality, near=None):
        if near is None:
            x, y, w, l = draw(coord), draw(coord), draw(extent), draw(extent)
            yaw = draw(st.floats(-math.pi, math.pi))
        else:
            box = near.proposal.box
            jitter = st.floats(-0.3, 0.3)
            x, y = box.center[0] + draw(jitter), box.center[1] + draw(jitter)
            w, l = box.size[0] * draw(st.floats(0.8, 1.2)), box.size[1] * draw(st.floats(0.8, 1.2))
            yaw = box.yaw + draw(jitter)
        raw = draw(st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3))
        return make_instance(x, y, w, l, yaw, class_id=draw(st.integers(0, 9)),
                             modality=modality, raw=raw)

    lidar = [instance("lidar") for _ in range(draw(st.integers(0, 8)))]
    camera = []
    for _ in range(draw(st.integers(0, 8))):
        near = draw(st.sampled_from(lidar)) if lidar and draw(st.booleans()) else None
        camera.append(instance("camera", near))
    return lidar, camera


class TestMatchingProperties:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(matching_scenes(), st.floats(0.05, 0.9))
    def test_easy_pairs_one_to_one_and_indices_consistent(self, scene, eta):
        lidar, camera = scene
        sets = match_pairs(lidar, camera, eta, "none")
        anchors = [p.anchor_idx for p in sets.easy]
        guides = [p.guide_idx for p in sets.easy]
        assert len(set(anchors)) == len(anchors) and len(set(guides)) == len(guides)
        for p in sets.easy:
            assert p.anchor is lidar[p.anchor_idx] and p.guide is camera[p.guide_idx]
            iou = rotated_iou_2d(p.anchor.proposal.box, p.guide.proposal.box)
            assert p.similarity == iou >= eta
        assert len(sets.easy) + sets.unmatched_lidar == len(lidar)
        assert len(sets.easy) + sets.unmatched_camera == len(camera)
        # Every unmatched instance links to the counterpart of an easy pair.
        for hard, anchor_side, guide_side, matched, counterparts, unmatched in (
            (sets.camera_hard, camera, lidar, guides, anchors, sets.unmatched_camera),
            (sets.lidar_hard, lidar, camera, anchors, guides, sets.unmatched_lidar),
        ):
            assert len(hard) == (unmatched if sets.easy else 0)
            assert len({p.anchor_idx for p in hard}) == len(hard)
            for p in hard:
                assert p.anchor is anchor_side[p.anchor_idx] and p.anchor_idx not in matched
                assert p.guide is guide_side[p.guide_idx] and p.guide_idx in counterparts
