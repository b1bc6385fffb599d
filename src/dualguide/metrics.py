"""Detection metrics: center-distance AP, rotated-IoU recall, stratified reports.

AP and recall share one greedy matcher: detections in descending score
each claim the unclaimed ground truth of highest affinity that clears a
floor. AP matches within a class by BEV center distance (affinity -d, floor
-t, so the nearest ground truth within t m; one distance matrix per class
serves all four thresholds) and integrates the precision-recall curve with
101-point interpolation. Recall matches class-agnostically by rotated IoU.
Reports can be stratified by ego distance, visibility, or object size; the
visibility axis masks only the ground truth while the other two mask both
sides. `evaluate` is the one evaluator of a bin.
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
        if not 0 <= self.class_id < NUM_CLASSES:
            raise ContractError(f"class_id {self.class_id} outside [0, {NUM_CLASSES - 1}]")
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
        if not 0 <= self.class_id < NUM_CLASSES:
            raise ContractError(f"class_id {self.class_id} outside [0, {NUM_CLASSES - 1}]")


def _score_order(dets: list[Detection]) -> list[int]:
    return sorted(range(len(dets)), key=lambda i: (-dets[i].score, i))


def _greedy_hits(affinity: np.ndarray, order: list[int], floor: float) -> np.ndarray:
    """Which detections, taken in `order`, claim a ground truth.

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


def _interpolated_ap(hits: np.ndarray, n_gt: int) -> float:
    """101-point interpolated AP of a ranked hit sequence."""
    cum_tp = np.cumsum(hits)
    precision = cum_tp / np.arange(1, len(hits) + 1)
    recall = cum_tp / n_gt
    # Ranks at recall >= r are a suffix (recall never falls): take suffix maxima, 0 past the end.
    envelope = np.append(np.maximum.accumulate(precision[::-1])[::-1], 0.0)
    ap = 0.0
    for best in envelope[np.searchsorted(recall, np.linspace(0.0, 1.0, 101))].tolist():
        ap += best
    return ap / 101.0


def _class_aps(
    dets: list[Detection], gts: list[Annotation], class_id: int, thresholds: tuple[float, ...]
) -> dict[float, float | None]:
    """AP of one class at each center-distance threshold (see average_precision)."""
    dets = [d for d in dets if d.class_id == class_id]
    gts = [g for g in gts if g.class_id == class_id]
    if not dets and not gts:
        return {t: None for t in thresholds}
    if not dets or not gts:
        return {t: 0.0 for t in thresholds}
    # One distance matrix serves every threshold; -d >= -t is exactly d <= t.
    neg_dist = -np.array([[center_distance_bev(d.box, g.box) for g in gts] for d in dets])
    order = _score_order(dets)
    return {t: _interpolated_ap(_greedy_hits(neg_dist, order, -t), len(gts)) for t in thresholds}


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
    return _class_aps(dets, gts, class_id, (dist_threshold,))[dist_threshold]


def ap_table(
    dets: list[Detection], gts: list[Annotation]
) -> dict[int, dict[float, float | None]]:
    """Per-class, per-threshold AP values (None marks skipped classes)."""
    return {c: _class_aps(dets, gts, c, DIST_THRESHOLDS) for c in range(NUM_CLASSES)}


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
    return {t: int(_greedy_hits(iou, order, t).sum()) / len(gts) for t in iou_thresholds}


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


def evaluate(dets: list[Detection], gts: list[Annotation], label: str = "all") -> BinMetrics:
    """Metrics over one detection/ground-truth set; the one evaluator of a bin."""
    if not dets and not gts:
        return BinMetrics(label, 0, 0, {}, None, {t: None for t in IOU_THRESHOLDS})
    table = ap_table(dets, gts)
    return BinMetrics(
        label, len(gts), len(dets), table, _mean_of_table(table), recall_at_iou(dets, gts)
    )


def stratified_eval(dets: list[Detection], gts: list[Annotation], axis: str) -> StratifiedReport:
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
    return StratifiedReport(
        axis, [evaluate(d, g, label) for label, d, g in zip(labels, det_bins, gt_bins)]
    )


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
