"""Detection metrics: center-distance AP, rotated-IoU recall, stratified reports.

A report computes its pairwise tables once and masks each bin out of them.
One greedy matcher walks a table's candidates by detection score, then
descending affinity, then ground-truth index: each detection claims its
first unclaimed candidate that clears the floor. AP pairs same-class items
by BEV center distance (affinity -d, floor -t) with 101-point interpolation;
recall pairs items of any class by rotated IoU. The visibility axis masks
only the ground truth; distance and size mask both sides.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ContractError
from .geometry import Box3D, overlap_ious, points_in_box, volume
from .taxonomy import NUM_CLASSES

DIST_THRESHOLDS = (0.5, 1.0, 2.0, 4.0)
IOU_THRESHOLDS = (0.3, 0.5, 0.7)

# Per axis: the bin labels, each bin's lower edge, and the measure binned
# (ego distance in m, 4 - visibility token, volume in m^3).
AXIS_BINS = {
    "distance": (
        ("0-20m", "20-40m", "40m+"), (0.0, 20.0, 40.0),
        lambda item: float(np.hypot(item.box.center[0], item.box.center[1])),
    ),
    "visibility": (("token=4", "token=1/2/3"), (0, 1), lambda item: 4 - item.visibility_token),
    "size": (("0-10m3", "10-30m3", "30m3+"), (0.0, 10.0, 30.0), lambda item: volume(item.box)),
}
AXES = tuple(AXIS_BINS)

POINT_BUCKETS = ("0", "1", "2-4", "5-9", "10-49", "50+")
POINT_BUCKET_EDGES = (0, 1, 2, 5, 10, 50)


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


def _sorted_candidates(rows: np.ndarray, cols: np.ndarray, affinity: np.ndarray) -> tuple:
    """(row, col, affinity) candidates sorted by row, then -affinity, then col."""
    order = np.lexsort((cols, -affinity, rows))
    return rows[order], cols[order], affinity[order]


def _greedy_hits(table: tuple, det_in: np.ndarray, gt_in: np.ndarray, floor: float) -> np.ndarray:
    """Which detections (rows, in rank order) claim a ground truth (column).

    Walks the `_sorted_candidates` of masked-in rows and columns with affinity
    >= `floor`: each row claims the column of its first unclaimed candidate.
    """
    rows, cols, affinity = table
    keep = det_in[rows] & gt_in[cols] & (affinity >= floor)
    hits, claimed, last = np.zeros(len(det_in), dtype=bool), set(), -1
    for r, c in zip(rows[keep].tolist(), cols[keep].tolist()):
        if r != last and c not in claimed:
            claimed.add(c)
            hits[r], last = True, r
    return hits


def _interpolated_ap(hits: np.ndarray, n_gt: int) -> float:
    """101-point interpolated AP of a ranked hit sequence."""
    cum_tp = np.cumsum(hits)
    precision = cum_tp / np.arange(1, len(hits) + 1)
    recall = cum_tp / n_gt
    # Ranks at recall >= r are a suffix (recall never falls): take suffix maxima, 0 past the end.
    envelope = np.append(np.maximum.accumulate(precision[::-1])[::-1], 0.0)
    # cumsum adds left to right like a running sum; np.sum's pairwise order would not.
    best = envelope[np.searchsorted(recall, np.linspace(0.0, 1.0, 101))]
    return float(np.cumsum(best)[-1]) / 101.0


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
    tables = _PairTables(dets, gts, dist_thresholds=(dist_threshold,))
    return tables.class_aps(tables.all_dets, tables.all_gts)[class_id][dist_threshold]


def ap_table(dets: list[Detection], gts: list[Annotation]) -> dict[int, dict[float, float | None]]:
    """Per-class, per-threshold AP values (None marks skipped classes)."""
    tables = _PairTables(dets, gts)
    return tables.class_aps(tables.all_dets, tables.all_gts)


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
    reported when there is no ground truth at all. Thresholds must be > 0.
    """
    if not all(t > 0.0 for t in iou_thresholds):
        raise ContractError(f"IoU thresholds must be > 0, got {iou_thresholds}")
    tables = _PairTables(dets, gts, iou_thresholds=iou_thresholds)
    return tables.recalls(tables.all_dets, tables.all_gts)


def _axis_bins(axis: str) -> tuple:
    if axis not in AXIS_BINS:
        raise ContractError(f"unknown axis {axis!r}; expected one of {AXES}")
    return AXIS_BINS[axis]


def bin_index(item: Annotation | Detection, axis: str) -> int:
    """Which bin of the axis an item falls in: the last whose lower edge it reaches."""
    _, edges, measure = _axis_bins(axis)
    if axis == "visibility" and not isinstance(item, Annotation):
        raise ContractError("visibility bins apply to annotations only")
    # lo=1: a value below the first edge still lands in the first bin.
    return bisect_right(edges, measure(item), 1) - 1


def partition_items(items: list, axis: str) -> list[list]:
    """Split items into the axis's bins; the bins partition the input exactly."""
    bins: list[list] = [[] for _ in _axis_bins(axis)[0]]
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


class _PairTables:
    """One report's pairwise tables, each built on first use.

    Rows are the detections by descending score (index breaks ties), columns
    the ground truths; each table keeps the pairs that can clear its floors.
    """

    def __init__(self, dets: list[Detection], gts: list[Annotation],
                 dist_thresholds: tuple = DIST_THRESHOLDS, iou_thresholds: tuple = IOU_THRESHOLDS):
        self.dets = sorted(dets, key=lambda d: -d.score)  # stable: index breaks ties
        self.gts, self.dist_thresholds, self.iou_thresholds = gts, dist_thresholds, iou_thresholds
        self.det_class = np.array([d.class_id for d in self.dets])
        self.gt_class = np.array([g.class_id for g in gts])
        self.all_dets, self.all_gts = np.ones(len(dets), dtype=bool), np.ones(len(gts), dtype=bool)

    @cached_property
    def dist(self) -> tuple:
        det_xy = np.array([d.box.center[:2] for d in self.dets], dtype=np.float64).reshape(-1, 2)
        gt_xy = np.array([g.box.center[:2] for g in self.gts], dtype=np.float64).reshape(-1, 2)
        dx, dy = (np.subtract.outer(det_xy[:, k], gt_xy[:, k]) for k in (0, 1))
        # No distance is below a coordinate difference, so this box keeps every pair in reach.
        reach = max(self.dist_thresholds)
        same = np.equal.outer(self.det_class, self.gt_class)
        rows, cols = np.nonzero(same & (abs(dx) <= reach) & (abs(dy) <= reach))
        # math.hypot as in center_distance_bev; np.hypot's bits are not guaranteed to match.
        dist = np.array(list(map(math.hypot, dx[rows, cols].tolist(), dy[rows, cols].tolist())))
        return _sorted_candidates(rows, cols, -dist)

    @cached_property
    def iou(self) -> tuple:
        # Pairs the circumradius prune leaves out have IoU 0, below every threshold.
        rows, cols, iou = overlap_ious([d.box for d in self.dets], [g.box for g in self.gts])
        keep = iou >= min(self.iou_thresholds, default=math.inf)
        return _sorted_candidates(rows[keep], cols[keep], iou[keep])

    def class_aps(self, det_in: np.ndarray, gt_in: np.ndarray) -> dict:
        """AP per class and distance threshold over the masked rows and columns.

        Only same-class pairs are candidates, so one walk per threshold serves
        every class; -d >= -t is exactly d <= t.
        """
        hits = {t: _greedy_hits(self.dist, det_in, gt_in, -t) for t in self.dist_thresholds}
        table = {}
        for c in range(NUM_CLASSES):
            det_c = det_in & (self.det_class == c)
            n_gt = int(np.count_nonzero(gt_in & (self.gt_class == c)))
            if det_c.any() and n_gt:
                table[c] = {t: _interpolated_ap(h[det_c], n_gt) for t, h in hits.items()}
            else:
                table[c] = dict.fromkeys(hits, 0.0 if det_c.any() or n_gt else None)
        return table

    def recalls(self, det_in: np.ndarray, gt_in: np.ndarray) -> dict:
        """Recall per IoU threshold over the masked rows and columns; None without ground truth."""
        n_gt = int(np.count_nonzero(gt_in))
        hits = {t: _greedy_hits(self.iou, det_in, gt_in, t) for t in self.iou_thresholds if n_gt}
        return {t: int(hits[t].sum()) / n_gt if n_gt else None for t in self.iou_thresholds}

    def bin_metrics(self, det_in: np.ndarray, gt_in: np.ndarray, label: str) -> BinMetrics:
        n_det, n_gt = int(np.count_nonzero(det_in)), int(np.count_nonzero(gt_in))
        table = self.class_aps(det_in, gt_in) if n_det or n_gt else {}
        mean_ap = _mean_of_table(table) if table else None
        return BinMetrics(label, n_gt, n_det, table, mean_ap, self.recalls(det_in, gt_in))


def evaluate(dets: list[Detection], gts: list[Annotation], label: str = "all") -> BinMetrics:
    """Metrics over one detection/ground-truth set, as one bin."""
    tables = _PairTables(dets, gts)
    return tables.bin_metrics(tables.all_dets, tables.all_gts, label)


def stratified_eval(dets: list[Detection], gts: list[Annotation], axis: str) -> StratifiedReport:
    """Per-bin metrics along one axis, each bin masked out of one set of tables.

    The visibility axis evaluates the full detection set against each ground
    truth subset; distance and size place detections into matching bins too.
    """
    labels = _axis_bins(axis)[0]
    tables = _PairTables(dets, gts)
    gt_bin = np.array([bin_index(g, axis) for g in gts])
    det_bin = None if axis == "visibility" else np.array([bin_index(d, axis) for d in tables.dets])
    return StratifiedReport(axis, [
        tables.bin_metrics(tables.all_dets if det_bin is None else det_bin == k, gt_bin == k, label)
        for k, label in enumerate(labels)
    ])


def point_count_bucket(count: int) -> int:
    """Bucket index for a per-annotation point count."""
    if count < 0:
        raise ContractError("point count must be >= 0")
    return bisect_right(POINT_BUCKET_EDGES, count) - 1


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
