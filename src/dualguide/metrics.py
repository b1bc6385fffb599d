"""Detection metrics: center-distance AP, rotated-IoU recall, stratified reports.

AP matches detections to ground truth by BEV center distance (greedy in
descending score, nearest unmatched ground truth within the threshold) and
integrates the precision-recall curve with 101-point interpolation. Recall
uses class-agnostic greedy rotated-IoU matching. Reports can be stratified
by ego distance, visibility, or object size; the visibility axis masks only
the ground truth while the other two mask both sides.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError
from .geometry import (
    Box3D,
    center_distance_bev,
    overlap_candidates,
    points_in_box,
    project_to_bev,
    rotated_iou_pairs,
    volume,
)
from .taxonomy import NUM_CLASSES

DIST_THRESHOLDS = (0.5, 1.0, 2.0, 4.0)
IOU_THRESHOLDS = (0.3, 0.5, 0.7)

DISTANCE_BIN_EDGES = (0.0, 20.0, 40.0)
DISTANCE_BIN_LABELS = ("0-20m", "20-40m", "40m+")
SIZE_BIN_EDGES = (0.0, 10.0, 30.0)
SIZE_BIN_LABELS = ("0-10m3", "10-30m3", "30m3+")
VISIBILITY_BIN_LABELS = ("token=4", "token=1/2/3")

POINT_BUCKETS = ("0", "1", "2-4", "5-9", "10-49", "50+")

AXES = ("distance", "visibility", "size")


@dataclass(frozen=True)
class Annotation:
    box: Box3D
    class_id: int
    visibility_token: int = 4
    num_lidar_pts: int = 0

    def __post_init__(self) -> None:
        if self.visibility_token not in (1, 2, 3, 4):
            raise ContractError(f"visibility token {self.visibility_token} not in 1..4")
        if self.num_lidar_pts < 0:
            raise ContractError("num_lidar_pts must be >= 0")


@dataclass(frozen=True)
class Detection:
    box: Box3D
    class_id: int
    score: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.score <= 1.0:
            raise ContractError(f"score {self.score} outside [0, 1]")


def _score_order(dets: list[Detection]) -> list[int]:
    return sorted(range(len(dets)), key=lambda i: (-dets[i].score, i))


def average_precision(
    dets: list[Detection],
    gts: list[Annotation],
    class_id: int,
    dist_threshold: float,
) -> float | None:
    """101-point interpolated AP for one class at one center-distance threshold.

    Returns None when neither detections nor ground truth of the class exist
    (the class is skipped from means); 0.0 when ground truth is missing but
    detections exist, or no detection matches.
    """
    cls_dets = [d for d in dets if d.class_id == class_id]
    cls_gts = [g for g in gts if g.class_id == class_id]
    if not cls_dets and not cls_gts:
        return None
    if not cls_gts or not cls_dets:
        return 0.0

    gt_used = [False] * len(cls_gts)
    tp = np.zeros(len(cls_dets))
    fp = np.zeros(len(cls_dets))
    for rank, det_idx in enumerate(_score_order(cls_dets)):
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


def ap_table(
    dets: list[Detection],
    gts: list[Annotation],
    classes: tuple[int, ...] = tuple(range(NUM_CLASSES)),
    thresholds: tuple[float, ...] = DIST_THRESHOLDS,
) -> dict[int, dict[float, float | None]]:
    """Per-class, per-threshold AP values (None marks skipped classes)."""
    return {
        c: {t: average_precision(dets, gts, c, t) for t in thresholds}
        for c in classes
    }


def mean_ap(
    dets: list[Detection],
    gts: list[Annotation],
    classes: tuple[int, ...] = tuple(range(NUM_CLASSES)),
    thresholds: tuple[float, ...] = DIST_THRESHOLDS,
) -> float:
    """Mean over classes of the mean AP over distance thresholds.

    Classes absent from both detections and ground truth do not enter the
    mean; 0.0 when every class is absent.
    """
    return _mean_of_table(ap_table(dets, gts, classes, thresholds))


def _mean_of_table(table: dict[int, dict[float, float | None]]) -> float:
    per_class = []
    for row in table.values():
        values = [v for v in row.values() if v is not None]
        if values:
            per_class.append(sum(values) / len(values))
    if not per_class:
        return 0.0
    return sum(per_class) / len(per_class)


def recall_at_iou(
    dets: list[Detection],
    gts: list[Annotation],
    iou_thresholds: tuple[float, ...] = IOU_THRESHOLDS,
) -> dict[float, float | None]:
    """Class-agnostic recall per rotated-IoU threshold.

    Detections are consumed in descending score; each takes the unmatched
    ground truth of highest IoU when that IoU clears the threshold. None is
    reported when there is no ground truth at all.
    """
    if not gts:
        return {t: None for t in iou_thresholds}
    det_rects = [project_to_bev(d.box) for d in dets]
    gt_rects = [project_to_bev(g.box) for g in gts]
    order = _score_order(dets)
    # Cells the circumradius prune skips stay 0, below every positive threshold.
    di, gj = overlap_candidates(det_rects, gt_rects)
    iou = np.zeros((len(dets), len(gts)))
    iou[di, gj] = rotated_iou_pairs([det_rects[i] for i in di], [gt_rects[j] for j in gj])

    recalls: dict[float, float | None] = {}
    for threshold in iou_thresholds:
        used = np.zeros(len(gts), dtype=bool)
        matched = 0
        for i in order:
            # argmax keeps the lowest index among equal IoUs.
            open_iou = np.where(used | (iou[i] < threshold), -1.0, iou[i])
            best_j = int(np.argmax(open_iou))
            if open_iou[best_j] >= 0.0:
                used[best_j] = True
                matched += 1
        recalls[threshold] = matched / len(gts)
    return recalls


def _ego_distance(box: Box3D) -> float:
    return float(np.hypot(box.center[0], box.center[1]))


def bin_index(item: Annotation | Detection, axis: str) -> int:
    """Which bin of the axis an item falls in."""
    if axis == "distance":
        d = _ego_distance(item.box)
        return 2 if d >= DISTANCE_BIN_EDGES[2] else (1 if d >= DISTANCE_BIN_EDGES[1] else 0)
    if axis == "size":
        v = volume(item.box)
        return 2 if v >= SIZE_BIN_EDGES[2] else (1 if v >= SIZE_BIN_EDGES[1] else 0)
    if axis == "visibility":
        if not isinstance(item, Annotation):
            raise ContractError("visibility bins apply to annotations only")
        return 0 if item.visibility_token == 4 else 1
    raise ContractError(f"unknown axis {axis!r}; expected one of {AXES}")


def axis_labels(axis: str) -> tuple[str, ...]:
    if axis == "distance":
        return DISTANCE_BIN_LABELS
    if axis == "size":
        return SIZE_BIN_LABELS
    if axis == "visibility":
        return VISIBILITY_BIN_LABELS
    raise ContractError(f"unknown axis {axis!r}; expected one of {AXES}")


def partition_items(items: list, axis: str) -> list[list]:
    """Split items into the axis's bins; the bins partition the input exactly."""
    bins: list[list] = [[] for _ in axis_labels(axis)]
    for item in items:
        bins[bin_index(item, axis)].append(item)
    return bins


@dataclass
class BinMetrics:
    label: str
    n_gt: int
    n_det: int
    ap: dict[int, dict[float, float | None]]
    mean_ap: float | None
    recall: dict[float, float | None]

    @property
    def no_data(self) -> bool:
        return self.n_gt == 0 and self.n_det == 0

    def to_dict(self) -> dict:
        return {
            "label": self.label,
            "n_gt": self.n_gt,
            "n_det": self.n_det,
            "no_data": self.no_data,
            "ap": {str(c): {str(t): v for t, v in row.items()} for c, row in self.ap.items()},
            "mean_ap": self.mean_ap,
            "recall": {str(t): v for t, v in self.recall.items()},
        }


@dataclass
class StratifiedReport:
    axis: str
    bins: list[BinMetrics] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {"axis": self.axis, "bins": [b.to_dict() for b in self.bins]}

    def to_text(self) -> str:
        lines = [f"axis: {self.axis}"]
        header = f"{'bin':>12} {'n_gt':>6} {'n_det':>6} {'mAP':>8}" + "".join(
            f" {'R@' + str(t):>8}" for t in IOU_THRESHOLDS
        )
        lines.append(header)
        for b in self.bins:
            if b.no_data:
                lines.append(f"{b.label:>12} {b.n_gt:>6} {b.n_det:>6} {'no-data':>8}")
                continue
            cells = f"{b.label:>12} {b.n_gt:>6} {b.n_det:>6} {b.mean_ap:>8.4f}"
            for t in IOU_THRESHOLDS:
                r = b.recall.get(t)
                cells += f" {r:>8.4f}" if r is not None else f" {'-':>8}"
            lines.append(cells)
        return "\n".join(lines)


def evaluate(
    dets: list[Detection],
    gts: list[Annotation],
    classes: tuple[int, ...] = tuple(range(NUM_CLASSES)),
) -> BinMetrics:
    """Unstratified metrics over one detection/ground-truth set."""
    table = ap_table(dets, gts, classes)
    m = _mean_of_table(table) if (dets or gts) else None
    rec = recall_at_iou(dets, gts) if gts else {t: None for t in IOU_THRESHOLDS}
    return BinMetrics("all", len(gts), len(dets), table, m, rec)


def stratified_eval(
    dets: list[Detection],
    gts: list[Annotation],
    axis: str,
    classes: tuple[int, ...] = tuple(range(NUM_CLASSES)),
) -> StratifiedReport:
    """Per-bin metrics along one axis.

    The visibility axis evaluates the full detection set against each ground
    truth subset; distance and size place detections into matching bins too.
    """
    labels = axis_labels(axis)
    gt_bins = partition_items(gts, axis)
    if axis == "visibility":
        det_bins = [list(dets) for _ in labels]
    else:
        det_bins = partition_items(dets, axis)

    report = StratifiedReport(axis)
    for label, bin_dets, bin_gts in zip(labels, det_bins, gt_bins):
        if not bin_dets and not bin_gts:
            report.bins.append(
                BinMetrics(label, 0, 0, {}, None, {t: None for t in IOU_THRESHOLDS})
            )
            continue
        table = ap_table(bin_dets, bin_gts, classes)
        report.bins.append(
            BinMetrics(
                label,
                len(bin_gts),
                len(bin_dets),
                table,
                _mean_of_table(table),
                recall_at_iou(bin_dets, bin_gts),
            )
        )
    return report


def point_count_bucket(count: int) -> int:
    """Bucket index for a per-annotation point count."""
    if count < 0:
        raise ContractError("point count must be >= 0")
    if count == 0:
        return 0
    if count == 1:
        return 1
    if count <= 4:
        return 2
    if count <= 9:
        return 3
    if count <= 49:
        return 4
    return 5


def visibility_histogram(
    annotations: list[Annotation],
    points: np.ndarray | None = None,
) -> dict[int, list[int]]:
    """Count annotations per (visibility token, point-count bucket).

    When a point cloud is supplied the per-box counts are measured from it;
    otherwise the stored num_lidar_pts values are used. Buckets follow
    POINT_BUCKETS.
    """
    table = {token: [0] * len(POINT_BUCKETS) for token in (1, 2, 3, 4)}
    for ann in annotations:
        count = (
            points_in_box(points, ann.box) if points is not None else ann.num_lidar_pts
        )
        table[ann.visibility_token][point_count_bucket(count)] += 1
    return table
