"""Detection metrics: AP/recall values, stratified reports, histograms."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualguide.geometry import Box3D, center_distance_bev, overlap_ious
from dualguide.metrics import (
    AXES,
    AXIS_BINS,
    DIST_THRESHOLDS,
    IOU_THRESHOLDS,
    Annotation,
    BinMetrics,
    Detection,
    StratifiedReport,
    _greedy_hits,
    _interpolated_ap,
    _mean_of_table,
    _sorted_candidates,
    bin_index,
    point_count_bucket,
    stratified_eval,
    visibility_histogram,
)
from dualguide.taxonomy import NUM_CLASSES

from test_geometry import oracle_iou


def gt(x, y, class_id=0, w=1.0, l=1.0, h=1.0, yaw=0.0, token=4, pts=10):
    return Annotation(Box3D((x, y, h / 2), (w, l, h), yaw), class_id, token, pts)


def det(x, y, score, class_id=0, w=1.0, l=1.0, h=1.0, yaw=0.0):
    return Detection(Box3D((x, y, h / 2), (w, l, h), yaw), class_id, score)


def flat(dets, gts):
    """The one bin of the `none` axis: every detection against every annotation."""
    return stratified_eval(dets, gts, "none").bins[0]


def derive_ap_101(tp_sequence, n_gt):
    """Reference 101-point AP from an ordered TP/FP flag sequence."""
    tps = np.cumsum(tp_sequence)
    fps = np.cumsum([1 - t for t in tp_sequence])
    precisions = tps / (tps + fps)
    recalls = tps / n_gt
    total = 0.0
    for r in np.linspace(0.0, 1.0, 101):
        candidates = [p for p, rec in zip(precisions, recalls) if rec >= r]
        total += max(candidates) if candidates else 0.0
    return total / 101


def oracle_interpolated_ap(hits, n_gt):
    """101-point interpolated AP summed by a Python loop, left to right."""
    cum_tp = np.cumsum(hits)
    precision = cum_tp / np.arange(1, len(hits) + 1)
    recall = cum_tp / n_gt
    envelope = np.append(np.maximum.accumulate(precision[::-1])[::-1], 0.0)
    ap = 0.0
    for best in envelope[np.searchsorted(recall, np.linspace(0.0, 1.0, 101))].tolist():
        ap += best
    return ap / 101.0


# The committed mixed scene: three ground-truth objects on a line and four
# detections in descending score whose match pattern at threshold 2 m is
# TP, FP, TP, FP (the last detection hits an already-claimed object).
MIXED_GTS = [gt(0.0, 0.0), gt(10.0, 0.0), gt(20.0, 0.0)]
MIXED_DETS = [
    det(0.2, 0.0, 0.9),
    det(30.0, 0.0, 0.8),
    det(10.4, 0.0, 0.7),
    det(0.3, 0.0, 0.6),
]
MIXED_AP_AT_2M = 56.0 / 101.0  # = derive_ap_101([1, 0, 1, 0], 3)
# The mixed scene with its third detection 0.6 m from its object: at 0.5 m
# the pattern is TP, FP, FP, FP, and from 1 m up TP, FP, TP, FP.
TIGHT_DETS = MIXED_DETS[:2] + [det(10.6, 0.0, 0.7)] + MIXED_DETS[3:]
TIGHT_AP_AT_HALF_M = 34.0 / 101.0  # = derive_ap_101([1, 0, 0, 0], 3)


class TestAveragePrecision:
    def test_single_close_detection_is_perfect(self):
        ap = flat([det(0.3, 0.0, 0.9)], [gt(0.0, 0.0)]).ap[0]
        assert ap[0.5] == 1.0 and ap[4.0] == 1.0

    def test_far_detection_scores_zero(self):
        assert flat([det(5.0, 0.0, 0.9)], [gt(0.0, 0.0)]).ap[0][4.0] == 0.0

    def test_mixed_scene_matches_committed_derivation(self):
        ap = flat(MIXED_DETS, MIXED_GTS).ap[0]
        assert ap[2.0] == pytest.approx(MIXED_AP_AT_2M, abs=1e-12)
        assert ap[2.0] == pytest.approx(derive_ap_101([1, 0, 1, 0], 3), abs=1e-12)
        tight = flat(TIGHT_DETS, MIXED_GTS).ap[0]
        assert tight[0.5] == pytest.approx(TIGHT_AP_AT_HALF_M, abs=1e-12)
        assert tight[0.5] == pytest.approx(derive_ap_101([1, 0, 0, 0], 3), abs=1e-12)
        assert tight[1.0] == pytest.approx(MIXED_AP_AT_2M, abs=1e-12)

    def test_no_gt_no_det_is_skipped(self):
        # Class 0 has neither while class 1 has both.
        ap = flat([det(0, 0, 0.5, class_id=1)], [gt(0, 0, class_id=1)]).ap
        assert ap[0] == dict.fromkeys(DIST_THRESHOLDS, None)
        assert ap[1] == dict.fromkeys(DIST_THRESHOLDS, 1.0)

    def test_detections_without_gt_score_zero(self):
        assert flat([det(0, 0, 0.5)], []).ap[0][2.0] == 0.0

    def test_gt_without_detections_scores_zero(self):
        assert flat([], [gt(0, 0)]).ap[0][2.0] == 0.0

    def test_monotone_in_distance_threshold(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            gts = [gt(rng.uniform(0, 30), rng.uniform(0, 30)) for _ in range(5)]
            dets = [
                det(rng.uniform(0, 30), rng.uniform(0, 30), float(rng.uniform(0.1, 1)))
                for _ in range(8)
            ]
            aps = [flat(dets, gts).ap[0][t] for t in (0.5, 1.0, 2.0, 4.0)]
            assert aps == sorted(aps)

    def test_duplicates_never_increase_ap(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            gts = [gt(rng.uniform(0, 20), rng.uniform(0, 20)) for _ in range(4)]
            dets = [
                det(rng.uniform(0, 20), rng.uniform(0, 20), float(rng.uniform(0.1, 1)))
                for _ in range(5)
            ]
            base = flat(dets, gts).ap[0][2.0]
            doubled = flat(dets + dets, gts).ap[0][2.0]
            assert doubled <= base + 1e-12

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(st.lists(st.booleans(), min_size=1, max_size=300), st.integers(0, 40))
    def test_interpolated_ap_equals_the_loop_sum(self, flags, extra_gt):
        hits = np.array(flags, dtype=bool)
        n_gt = max(1, int(hits.sum())) + extra_gt
        got, want = _interpolated_ap(hits, n_gt), oracle_interpolated_ap(hits, n_gt)
        assert type(got) is float and got.hex() == want.hex()

    def test_score_scaling_invariance(self):
        scaled = [
            Detection(d.box, d.class_id, d.score * 0.5) for d in MIXED_DETS
        ]
        assert flat(scaled, MIXED_GTS).ap[0][2.0] == pytest.approx(MIXED_AP_AT_2M, abs=1e-12)


class TestMeanAp:
    def test_perfect_predictions(self):
        gts = [gt(0, 0, class_id=0), gt(5, 5, class_id=1)]
        dets = [det(0, 0, 1.0, class_id=0), det(5, 5, 1.0, class_id=1)]
        assert flat(dets, gts).mean_ap == 1.0

    def test_no_detections(self):
        assert flat([], [gt(0, 0)]).mean_ap == 0.0

    def test_mixed_scene_value(self):
        expected = (MIXED_AP_AT_2M + 3 * 56.0 / 101.0) / 4.0
        # thresholds 0.5/1/2/4: at 0.5 and above the same TP pattern holds
        report = flat(MIXED_DETS, MIXED_GTS)
        assert report.mean_ap == pytest.approx(sum(report.ap[0].values()) / 4.0)
        assert report.mean_ap == pytest.approx(expected)

    def test_no_data_is_the_no_data_bin(self):
        empty = flat([], [])
        assert empty.no_data and empty.ap == {} and empty.mean_ap is None
        assert empty.recall == {t: None for t in IOU_THRESHOLDS}
        near = stratified_eval([], [], "distance").bins[0]
        assert near.to_dict() == {**empty.to_dict(), "label": "0-20m"}


def oracle_average_precision(dets, gts, class_id, dist_threshold):
    """The nested-loop AP: every distance recomputed for each detection and threshold."""
    cls_dets = [d for d in dets if d.class_id == class_id]
    cls_gts = [g for g in gts if g.class_id == class_id]
    if not cls_dets and not cls_gts:
        return None
    if not cls_gts or not cls_dets:
        return 0.0

    gt_used = [False] * len(cls_gts)
    tp = np.zeros(len(cls_dets))
    fp = np.zeros(len(cls_dets))
    order = sorted(range(len(cls_dets)), key=lambda i: (-cls_dets[i].score, i))
    for rank, det_idx in enumerate(order):
        det = cls_dets[det_idx]
        best_dist = None
        best_gt = -1
        for gi, gt in enumerate(cls_gts):
            if gt_used[gi]:
                continue
            dist = center_distance_bev(det.box, gt.box)
            if dist <= dist_threshold and (best_dist is None or dist < best_dist):
                best_dist = dist
                best_gt = gi
        if best_gt >= 0:
            gt_used[best_gt] = True
            tp[rank] = 1.0
        else:
            fp[rank] = 1.0

    cum_tp = np.cumsum(tp)
    cum_fp = np.cumsum(fp)
    precision = cum_tp / (cum_tp + cum_fp)
    recall = cum_tp / len(cls_gts)

    ap = 0.0
    for r in np.linspace(0.0, 1.0, 101):
        mask = recall >= r
        ap += float(precision[mask].max()) if mask.any() else 0.0
    return ap / 101.0


def seeded_ap_scene(seed):
    """Multi-class ground truth; exact-threshold, tied, jittered, duplicate and stray detections.

    Half the points sit on a half-metre lattice, so a detection offset by a
    threshold along an axis lies exactly that far away. Each tie cluster
    puts one detection exactly d m from two ground truths of its class.
    """
    rng = np.random.default_rng(seed)

    def point():
        if rng.uniform() < 0.5:
            return tuple(float(v) for v in rng.integers(-6, 7, 2) * 0.5)
        return tuple(float(v) for v in rng.uniform(-6, 6, 2))

    gts = [gt(*point(), class_id=int(rng.integers(0, 4))) for _ in range(rng.integers(0, 16))]
    dets = []
    for _ in range(int(rng.integers(0, 3))):
        (x, y), d, cls = point(), float(rng.choice(DIST_THRESHOLDS)), int(rng.integers(0, 4))
        pair = [gt(x + d, y, class_id=cls), gt(x, y - d, class_id=cls)]
        gts += pair if rng.uniform() < 0.5 else pair[::-1]
        dets.append((x, y, cls))
    for g in gts:
        x, y = g.box.center[0], g.box.center[1]
        for _ in range(int(rng.integers(0, 4))):
            kind = int(rng.integers(0, 3))
            if kind == 0:
                offset = float(rng.choice(DIST_THRESHOLDS)) * float(rng.choice([-1.0, 1.0]))
                dx, dy = (offset, 0.0) if rng.uniform() < 0.5 else (0.0, offset)
            elif kind == 1:
                dx, dy = (float(v) for v in rng.normal(0.0, float(rng.choice([0.3, 1.5])), 2))
            else:
                dx = dy = 0.0
            cls = g.class_id if rng.uniform() < 0.8 else int(rng.integers(0, 4))
            dets.append((x + dx, y + dy, cls))
    dets += [(*point(), int(rng.integers(0, 4))) for _ in range(rng.integers(0, 6))]
    if dets:
        dets += [dets[int(i)] for i in rng.integers(0, len(dets), int(rng.integers(0, 4)))]
    scores = rng.choice([0.3, 0.5, 0.8, 0.9], size=len(dets))
    return [det(x, y, float(s), class_id=c) for (x, y, c), s in zip(dets, scores)], gts


class TestApOracle:
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(st.integers(0, 2**32 - 1))
    def test_report_ap_equals_nested_loop_oracle(self, seed):
        dets, gts = seeded_ap_scene(seed)
        # A report with neither detections nor ground truth is the no-data bin.
        assert flat(dets, gts).ap == ({
            c: {t: oracle_average_precision(dets, gts, c, t) for t in DIST_THRESHOLDS}
            for c in range(NUM_CLASSES)
        } if dets or gts else {})

    def test_detection_exactly_at_threshold_matches(self):
        for t in DIST_THRESHOLDS:
            assert flat([det(2.0 + t, 1.0, 0.9)], [gt(2.0, 1.0)]).ap[0][t] == 1.0
            assert oracle_average_precision([det(2.0 + t, 1.0, 0.9)], [gt(2.0, 1.0)], 0, t) == 1.0

    def test_equal_distance_ties_go_to_lowest_index(self):
        # The first detection is 1 m from both; taking g0 leaves g1 for the second.
        gts = [gt(1, 0), gt(-1, 0)]
        dets = [det(0, 0, 0.9), det(-1.5, 0, 0.8)]
        assert oracle_average_precision(dets, gts, 0, 1.0) == 1.0
        assert flat(dets, gts).ap[0][1.0] == 1.0


def dense_oracle_recall(dets, gts, thresholds):
    """Class-agnostic greedy recall over the full scalar-oracle IoU matrix."""
    iou = [[oracle_iou(d.box, g.box) for g in gts] for d in dets]
    order = sorted(range(len(dets)), key=lambda i: (-dets[i].score, i))
    recalls = {}
    for threshold in thresholds:
        used = [False] * len(gts)
        matched = 0
        for i in order:
            best_j, best_iou = -1, -1.0
            for j in range(len(gts)):
                if used[j] or iou[i][j] < threshold:
                    continue
                if iou[i][j] > best_iou:
                    best_iou, best_j = iou[i][j], j
            if best_j >= 0:
                used[best_j] = True
                matched += 1
        recalls[threshold] = matched / len(gts)
    return recalls


def seeded_recall_scene(seed):
    """Ground truth plus jittered, exact and stray detections with tied scores."""
    rng = np.random.default_rng(seed)

    def box(x, y, w, l, yaw):
        return Box3D((x, y, 0.5), (w, l, 1.0), yaw)

    gts = [
        Annotation(
            box(*rng.uniform(-12, 12, 2), *rng.uniform(0.5, 4.0, 2), rng.uniform(-np.pi, np.pi)),
            int(rng.integers(0, 10)),
        )
        for _ in range(int(rng.integers(1, 25)))
    ]
    dets = []
    for g in gts:
        (x, y, _), (w, l, _), yaw = g.box.center, g.box.size, g.box.yaw
        for _ in range(int(rng.integers(0, 3))):
            sigma = float(rng.choice([0.0, 0.05, 0.3, 1.0]))
            jx, jy = rng.normal(0.0, sigma, 2) if sigma else (0.0, 0.0)
            dets.append(box(x + jx, y + jy, w, l, yaw + rng.normal(0.0, sigma / 5)))
    dets += [
        box(*rng.uniform(-12, 12, 2), *rng.uniform(0.5, 4.0, 2), rng.uniform(-np.pi, np.pi))
        for _ in range(int(rng.integers(0, 10)))
    ]
    scores = rng.choice([0.3, 0.5, 0.8, 0.9], size=len(dets))
    return [Detection(b, 0, float(s)) for b, s in zip(dets, scores)], gts


class TestRecallAtIou:
    def test_detections_equal_gt(self):
        gts = [gt(0, 0), gt(10, 0, w=2, l=2), gt(20, 5, yaw=0.7)]
        dets = [det(g.box.center[0], g.box.center[1], 0.9,
                    w=g.box.size[0], l=g.box.size[1], yaw=g.box.yaw) for g in gts]
        recalls = flat(dets, gts).recall
        assert all(v == 1.0 for v in recalls.values())

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(st.integers(0, 2**32 - 1))
    def test_pruned_recall_equals_dense_oracle(self, seed):
        dets, gts = seeded_recall_scene(seed)
        assert flat(dets, gts).recall == dense_oracle_recall(dets, gts, IOU_THRESHOLDS)

    def test_equal_iou_ties_go_to_lowest_index(self):
        # The first detection has IoU 1/3 with both; taking g0 leaves g1 for the
        # second (IoU 0.818), so 0.3 recalls both. Above 1/3 only the second matches.
        gts = [gt(1, 0, w=2, l=2), gt(-1, 0, w=2, l=2)]
        dets = [det(0, 0, 0.9, w=2, l=2), det(-1.2, 0, 0.8, w=2, l=2)]
        expected = {0.3: 1.0, 0.5: 0.5, 0.7: 0.5}
        assert dense_oracle_recall(dets, gts, IOU_THRESHOLDS) == expected
        assert flat(dets, gts).recall == expected

    def test_detection_exactly_at_threshold_matches(self):
        # Overlap 1.5 of union 3.0: the clip and shoelace are exact on these corners.
        gts = [gt(0.0, 0.0, w=1.5, l=1.5)]
        dets = [det(0.5, 0.0, 0.9, w=1.5, l=1.5)]
        expected = {0.3: 1.0, 0.5: 1.0, 0.7: 0.0}
        assert dense_oracle_recall(dets, gts, IOU_THRESHOLDS) == expected
        assert flat(dets, gts).recall == expected

    def test_no_detections(self):
        recalls = flat([], [gt(0, 0)]).recall
        assert all(v == 0.0 for v in recalls.values())

    def test_no_gt_undefined(self):
        recalls = flat([det(0, 0, 0.9)], []).recall
        assert all(v is None for v in recalls.values())

    def test_pruned_pairs_clear_no_threshold(self):
        # A pair the circumradius prune leaves out has IoU 0, which no threshold clears.
        assert min(IOU_THRESHOLDS) > 0.0
        assert flat([det(0, 0, 0.9)], [gt(5, 0)]).recall == dict.fromkeys(IOU_THRESHOLDS, 0.0)

    def test_partial_overlap_scene_hand_counted(self):
        gts = [gt(0, 0), gt(10, 0, w=2, l=2), gt(20, 0)]
        dets = [
            det(0.0, 0.0, 0.9),                  # IoU 1.0 with g0
            det(10.5, 0.0, 0.8, w=2, l=2),       # IoU 0.6 with g1
            det(20.45, 0.0, 0.7),                # IoU ~0.379 with g2
            det(0.2, 0.0, 0.6),                  # g0 already matched
        ]
        recalls = flat(dets, gts).recall
        assert recalls[0.3] == pytest.approx(1.0)
        assert recalls[0.5] == pytest.approx(2.0 / 3.0)
        assert recalls[0.7] == pytest.approx(1.0 / 3.0)

    def test_monotone_in_iou_threshold(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            gts = [
                gt(rng.uniform(0, 20), rng.uniform(0, 20), w=rng.uniform(1, 3), l=rng.uniform(1, 3))
                for _ in range(4)
            ]
            dets = [
                det(
                    g.box.center[0] + rng.normal(0, 0.5),
                    g.box.center[1] + rng.normal(0, 0.5),
                    float(rng.uniform(0.1, 1)),
                    w=g.box.size[0],
                    l=g.box.size[1],
                )
                for g in gts
            ]
            recalls = flat(dets, gts).recall
            assert recalls[0.3] >= recalls[0.5] >= recalls[0.7]

    def test_duplicates_leave_recall_unchanged(self):
        gts = [gt(0, 0), gt(10, 0)]
        dets = [det(0.1, 0, 0.9), det(10.2, 0, 0.8)]
        base = flat(dets, gts).recall
        doubled = flat(dets + dets, gts).recall
        assert base == doubled


class TestPartitioning:
    def test_none_is_one_bin_of_everything(self):
        assert AXES == ("none", "distance", "visibility", "size")
        assert bin_index(gt(100, -100, w=4, l=4, h=4, token=1), "none") == 0
        assert bin_index(det(100, -100, 0.5), "none") == 0

    def test_distance_bins(self):
        assert bin_index(gt(10, 10), "distance") == 0  # ~14.1 m
        assert bin_index(gt(15, 15), "distance") == 1  # ~21.2 m
        assert bin_index(gt(40, 10), "distance") == 2

    def test_size_bins(self):
        assert bin_index(gt(0, 0, w=2, l=4, h=1.5), "size") == 1  # 12 m^3
        assert bin_index(gt(0, 0, w=1, l=1, h=1), "size") == 0
        assert bin_index(gt(0, 0, w=4, l=4, h=2), "size") == 2

    def test_visibility_bins(self):
        assert bin_index(gt(0, 0, token=4), "visibility") == 0
        assert bin_index(gt(0, 0, token=2), "visibility") == 1

    def test_bins_partition_input_exactly(self):
        rng = np.random.default_rng(3)
        items = [
            gt(rng.uniform(-50, 50), rng.uniform(-50, 50),
               w=rng.uniform(0.3, 4), l=rng.uniform(0.3, 4), h=rng.uniform(0.3, 4),
               token=int(rng.integers(1, 5)))
            for _ in range(100)
        ]
        dets = [Detection(a.box, a.class_id, 0.5) for a in items[::2]]
        for axis in AXES:
            bins = stratified_eval(dets, items, axis).bins
            assert sum(b.n_gt for b in bins) == len(items)
            # Every visibility bin scores the full detection set.
            assert sum(b.n_det for b in bins) == len(dets) * (len(bins) if axis == "visibility" else 1)


def oracle_greedy_hits(affinity, order, floor):
    """The per-row argmax greedy: which detections, taken in `order`, claim a ground truth.

    Each detection takes the unclaimed ground truth (column) of highest
    affinity when that affinity is >= `floor`; argmax keeps the lowest index
    among equal affinities. Returns one flag per entry of `order`.
    """
    used = np.zeros(affinity.shape[1], dtype=bool)
    hits = np.zeros(len(order), dtype=bool)
    for rank, i in enumerate(order):
        open_affinity = np.where(used, -np.inf, affinity[i])
        j = int(np.argmax(open_affinity))
        if open_affinity[j] >= floor:
            used[j] = hits[rank] = True
    return hits


def oracle_evaluate(dets, gts, label="all"):
    """The per-bin evaluator: a distance matrix per class and an IoU matrix, for this bin alone."""
    if not dets and not gts:
        return BinMetrics(label, 0, 0, {}, None, {t: None for t in IOU_THRESHOLDS})

    def score_order(items):
        return sorted(range(len(items)), key=lambda i: (-items[i].score, i))

    table = {}
    for c in range(NUM_CLASSES):
        cls_dets = [d for d in dets if d.class_id == c]
        cls_gts = [g for g in gts if g.class_id == c]
        if not cls_dets and not cls_gts:
            table[c] = {t: None for t in DIST_THRESHOLDS}
        elif not cls_dets or not cls_gts:
            table[c] = {t: 0.0 for t in DIST_THRESHOLDS}
        else:
            neg_dist = -np.array(
                [[center_distance_bev(d.box, g.box) for g in cls_gts] for d in cls_dets]
            )
            order = score_order(cls_dets)
            table[c] = {
                t: oracle_interpolated_ap(oracle_greedy_hits(neg_dist, order, -t),
                                          len(cls_gts))
                for t in DIST_THRESHOLDS
            }
    if gts:
        di, gj, pair_iou = overlap_ious([d.box for d in dets], [g.box for g in gts])
        iou = np.zeros((len(dets), len(gts)))
        iou[di, gj] = pair_iou
        order = score_order(dets)
        recall = {
            t: int(oracle_greedy_hits(iou, order, t).sum()) / len(gts) for t in IOU_THRESHOLDS
        }
    else:
        recall = {t: None for t in IOU_THRESHOLDS}
    return BinMetrics(label, len(gts), len(dets), table, _mean_of_table(table), recall)


def oracle_stratified_eval(dets, gts, axis):
    """`oracle_evaluate` on each bin's items; visibility bins take every detection."""
    return StratifiedReport(axis, [
        oracle_evaluate(
            list(dets) if axis == "visibility" else [d for d in dets if bin_index(d, axis) == k],
            [g for g in gts if bin_index(g, axis) == k], label)
        for k, label in enumerate(AXIS_BINS[axis][0])
    ])


# Values of the greedy property's affinity tables: ties, -inf, and a floor
# can equal any finite one.
AFFINITY_VALUES = (-np.inf, -2.0, -1.0, -0.5, 0.0, 0.3, 0.5, 1.0)


class TestGreedyHits:
    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_candidate_sort_equals_per_row_argmax(self, data):
        n_rows, n_cols = data.draw(st.integers(0, 7)), data.draw(st.integers(0, 7))
        cells = st.lists(st.sampled_from(AFFINITY_VALUES), min_size=n_cols, max_size=n_cols)
        rows_of_cells = data.draw(st.lists(cells, min_size=n_rows, max_size=n_rows))
        affinity = np.array(rows_of_cells, dtype=np.float64).reshape(n_rows, n_cols)
        # Floors are finite, as every caller's is: a threshold of the table or not.
        floor = data.draw(st.sampled_from(AFFINITY_VALUES[1:]) | st.floats(-3.0, 3.0))
        det_in = np.array(data.draw(st.lists(st.booleans(), min_size=n_rows, max_size=n_rows)),
                          dtype=bool)
        gt_in = np.array(data.draw(st.lists(st.booleans(), min_size=n_cols, max_size=n_cols)),
                         dtype=bool)

        rows, cols = np.nonzero(np.ones(affinity.shape, dtype=bool))
        table = _sorted_candidates(rows, cols, affinity[rows, cols])
        got = _greedy_hits(table, det_in, gt_in, floor)
        sub = affinity[np.ix_(det_in, gt_in)]
        expected = (
            oracle_greedy_hits(sub, range(len(sub)), floor) if sub.shape[1]
            else np.zeros(len(sub), dtype=bool)
        )
        assert np.array_equal(got[det_in], expected)
        assert not got[~det_in].any()


def seeded_report_scene(seed):
    """Ground truth across every axis's bins, and detections that test the matching rules.

    Half the centers sit on a half-metre lattice, so bin edges (20 m, 40 m)
    and thresholds are hit exactly and distances tie; each tie cluster puts
    a detection exactly d m from two ground truths of its class. Sizes
    include volumes on the 10 m^3 edge. Detections are exact, threshold-
    offset or jittered copies (some of another class), strays and
    duplicates, with scores from four values. A small reach leaves the far
    distance bins empty.
    """
    rng = np.random.default_rng(seed)
    reach = float(rng.choice([15.0, 35.0, 55.0]))
    sizes = ((1.0, 1.0, 1.0), (2.0, 4.0, 1.5), (4.0, 4.0, 2.0), (1.0, 2.0, 5.0))

    def point():
        if rng.uniform() < 0.5:
            return tuple(float(v) for v in rng.integers(-2 * reach, 2 * reach + 1, 2) * 0.5)
        return tuple(float(v) for v in rng.uniform(-reach, reach, 2))

    def box(x, y, size=None, yaw=None):
        if size is None:
            size = sizes[int(rng.integers(len(sizes)))] if rng.uniform() < 0.7 else tuple(
                float(v) for v in rng.uniform(0.5, 4.0, 3))
        if yaw is None:
            yaw = 0.0 if rng.uniform() < 0.5 else float(rng.uniform(-np.pi, np.pi))
        return Box3D((x, y, size[2] / 2), size, yaw)

    def annotation(x, y, cls):
        return Annotation(box(x, y), cls, int(rng.integers(1, 5)))

    gts = [annotation(*point(), int(rng.integers(0, 4))) for _ in range(rng.integers(0, 20))]
    dets = []
    for _ in range(int(rng.integers(0, 3))):
        (x, y), d, cls = point(), float(rng.choice(DIST_THRESHOLDS)), int(rng.integers(0, 4))
        gts += [annotation(x + d, y, cls), annotation(x, y - d, cls)]
        dets.append((box(x, y), cls))
    for g in gts:
        (x, y, _), size, yaw = g.box.center, g.box.size, g.box.yaw
        for _ in range(int(rng.integers(0, 4))):
            kind = int(rng.integers(0, 3))
            if kind == 0:
                offset = float(rng.choice(DIST_THRESHOLDS)) * float(rng.choice([-1.0, 1.0]))
                dx, dy = (offset, 0.0) if rng.uniform() < 0.5 else (0.0, offset)
            elif kind == 1:
                dx, dy = (float(v) for v in rng.normal(0.0, float(rng.choice([0.3, 1.5])), 2))
            else:
                dx = dy = 0.0
            cls = g.class_id if rng.uniform() < 0.8 else int(rng.integers(0, 4))
            dets.append((box(x + dx, y + dy, size, yaw), cls))
    dets += [(box(*point()), int(rng.integers(0, 4))) for _ in range(rng.integers(0, 6))]
    if dets:
        dets += [dets[int(i)] for i in rng.integers(0, len(dets), int(rng.integers(0, 4)))]
    scores = rng.choice([0.3, 0.5, 0.8, 0.9], size=len(dets))
    return [Detection(b, c, float(s)) for (b, c), s in zip(dets, scores)], gts


class TestReportOracle:
    @settings(max_examples=120, deadline=None, derandomize=True, database=None)
    @given(st.integers(0, 2**32 - 1))
    def test_stratified_eval_equals_per_bin_oracle(self, seed):
        dets, gts = seeded_report_scene(seed)
        for axis in AXES:
            got = stratified_eval(dets, gts, axis).to_dict()
            assert got == oracle_stratified_eval(dets, gts, axis).to_dict()

    def test_generator_reaches_every_case(self):
        """The property's scenes include empty bins, ties and cross-class detections."""
        empty_bin = tied_scores = cross_class = far_bin = False
        for seed in range(40):
            dets, gts = seeded_report_scene(seed)
            for axis in AXES:
                bins = stratified_eval(dets, gts, axis).bins
                empty_bin |= any(b.no_data for b in bins)
                far_bin |= axis == "distance" and bins[2].n_gt > 0
            scores = [d.score for d in dets]
            tied_scores |= len(set(scores)) < len(scores)
            cross_class |= any(
                d.class_id != g.class_id and d.box.center == g.box.center
                for d in dets for g in gts
            )
        assert empty_bin and tied_scores and cross_class and far_bin


class TestStratifiedEval:
    def test_single_bin_equals_unstratified(self):
        gts = [gt(3, 4, class_id=0), gt(5, 1, class_id=1)]
        dets = [det(3.2, 4.0, 0.9, class_id=0), det(5.0, 1.3, 0.8, class_id=1)]
        report = stratified_eval(dets, gts, "distance")
        unstratified = flat(dets, gts)
        near = report.bins[0]
        assert near.mean_ap == pytest.approx(unstratified.mean_ap)
        assert near.recall == unstratified.recall
        assert report.bins[1].no_data and report.bins[2].no_data

    def test_three_bin_scene_matches_prefiltered_metrics(self):
        rng = np.random.default_rng(4)
        gts, dets = [], []
        for lo, hi in ((2, 18), (22, 38), (42, 52)):
            for _ in range(4):
                x = float(rng.uniform(lo, hi))
                gts.append(gt(x, 0.0))
                dets.append(det(x + float(rng.normal(0, 0.5)), 0.0, float(rng.uniform(0.3, 1))))
        report = stratified_eval(dets, gts, "distance")
        for i, b in enumerate(report.bins):
            manual_gts = [g for g in gts if bin_index(g, "distance") == i]
            manual_dets = [d for d in dets if bin_index(d, "distance") == i]
            expected = oracle_average_precision(manual_dets, manual_gts, 0, 2.0)
            got = b.ap[0][2.0]
            if expected is None:
                assert got is None
            else:
                assert got == pytest.approx(expected, abs=1e-12)

    def test_visibility_masks_gt_only(self):
        gts = [gt(0, 0, token=4), gt(10, 0, token=2)]
        dets = [det(0.1, 0, 0.9), det(10.1, 0, 0.8)]
        report = stratified_eval(dets, gts, "visibility")
        assert [b.n_gt for b in report.bins] == [1, 1]
        # Both bins see the full detection set.
        assert [b.n_det for b in report.bins] == [2, 2]

    def test_text_rendering_smoke(self):
        gts = [gt(0, 0)]
        dets = [det(0.1, 0, 0.9)]
        text = stratified_eval(dets, gts, "distance").to_text()
        assert "0-20m" in text and "no-data" in text


class TestVisibilityHistogram:
    def test_bucket_edges(self):
        for count, bucket in ((0, 0), (1, 1), (2, 2), (4, 2), (5, 3), (9, 3), (10, 4), (49, 4), (50, 5), (500, 5)):
            assert point_count_bucket(count) == bucket

    def test_stored_counts_path(self):
        anns = [gt(0, 0, token=4, pts=0), gt(5, 0, token=4, pts=3), gt(9, 0, token=2, pts=60)]
        table = visibility_histogram(anns)
        assert table[4][0] == 1 and table[4][2] == 1
        assert table[2][5] == 1
        assert sum(sum(row) for row in table.values()) == 3

    def test_measured_counts_path(self):
        box_a = gt(0.0, 0.0, token=3, pts=999)  # stored count is ignored
        pts = np.array([[0.0, 0.0, 0.5], [0.1, 0.1, 0.5], [50.0, 50.0, 0.5]])
        table = visibility_histogram([box_a], points=pts)
        assert table[3][2] == 1  # two points inside -> bucket "2-4"

    def test_empty_annotations(self):
        table = visibility_histogram([])
        assert all(sum(row) == 0 for row in table.values())
