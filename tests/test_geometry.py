"""Boxes, footprints, rotated IoU, and point-in-box tests."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualguide.errors import ContractError
from dualguide.geometry import (
    CORNER_SIGNS,
    KEY_POINT_SIGNS,
    Box3D,
    center_distance_bev,
    footprint_points,
    normalize_yaw,
    overlap_ious,
    points_in_box,
    volume,
)
from dualguide.instances import STRATEGY_KEY_POINTS


def flat_box(center: tuple, extent: tuple, yaw: float) -> Box3D:
    """A 1 m tall box on the ground whose footprint has this center, (w, l) extent and yaw."""
    return Box3D((*center, 0.0), (*extent, 1.0), yaw)


def area(box: Box3D) -> float:
    """Footprint area w * l."""
    return box.size[0] * box.size[1]


def rotated_iou_2d(a: Box3D, b: Box3D) -> float:
    """IoU of one footprint pair through `overlap_ious`; 0 when the prune drops it."""
    iou = overlap_ious([a], [b])[2]
    return float(iou[0]) if len(iou) else 0.0


def aligned_ious(first: list[Box3D], second: list[Box3D]) -> np.ndarray:
    """IoU of each pair (first[k], second[k]) through `overlap_ious`, 0 where it prunes the pair.

    Each block of 32 pairs is scored as one cross product, of which the diagonal is kept.
    """
    block = 32
    out = np.zeros(len(first))
    for s in range(0, len(first), block):
        i, j, iou = overlap_ious(first[s:s + block], second[s:s + block])
        out[s + i[i == j]] = iou[i == j]
    return out


def oracle_corners(rect: Box3D) -> np.ndarray:
    """Scalar footprint corners: the reference the batched kernel must equal."""
    u = np.array([math.cos(rect.yaw), math.sin(rect.yaw)])
    v = np.array([-math.sin(rect.yaw), math.cos(rect.yaw)])
    hw, hl = rect.size[0] / 2.0, rect.size[1] / 2.0
    c = np.array(rect.center[:2])
    return np.array(
        [
            c + hw * u + hl * v,
            c - hw * u + hl * v,
            c - hw * u - hl * v,
            c + hw * u - hl * v,
        ]
    )


def oracle_key_samples(rect: Box3D) -> dict[str, tuple[float, float]]:
    """Scalar footprint center and boundary-line midpoints, one coordinate at a time."""
    cx, cy = rect.center[:2]
    u = np.array([math.cos(rect.yaw), math.sin(rect.yaw)])
    v = np.array([-math.sin(rect.yaw), math.cos(rect.yaw)])
    hw, hl = rect.size[0] / 2.0, rect.size[1] / 2.0
    return {
        "center": (cx, cy),
        "top": (cx + hl * v[0], cy + hl * v[1]),
        "bottom": (cx - hl * v[0], cy - hl * v[1]),
        "left": (cx - hw * u[0], cy - hw * u[1]),
        "right": (cx + hw * u[0], cy + hw * u[1]),
    }


def oracle_strategy_points(rect: Box3D, strategy: str) -> np.ndarray:
    """(K, 2) scalar key points of a footprint in a strategy's concatenation order.

    Center, then the four corners when the strategy includes vertices, then
    the top, bottom, left and right midpoints when it includes them.
    """
    ks = oracle_key_samples(rect)
    points = [ks["center"]]
    if "vertices" in strategy:
        points.extend(tuple(p) for p in oracle_corners(rect))
    if "boundary_mid" in strategy:
        points.extend([ks["top"], ks["bottom"], ks["left"], ks["right"]])
    return np.array(points)


def oracle_polygon_area(poly: list[tuple[float, float]]) -> float:
    """Shoelace area of a counter-clockwise polygon, summed vertex by vertex."""
    area = 0.0
    n = len(poly)
    for i in range(n):
        x1, y1 = poly[i]
        x2, y2 = poly[(i + 1) % n]
        area += x1 * y2 - y1 * x2
    return 0.5 * area


def oracle_clip_polygon(
    poly: list[tuple[float, float]], a: tuple[float, float], b: tuple[float, float]
) -> list[tuple[float, float]]:
    """Clip a convex polygon against the half-plane left of directed edge a->b."""
    out: list[tuple[float, float]] = []
    ex, ey = b[0] - a[0], b[1] - a[1]

    def inside(p: tuple[float, float]) -> float:
        return ex * (p[1] - a[1]) - ey * (p[0] - a[0])

    n = len(poly)
    for i in range(n):
        p, q = poly[i], poly[(i + 1) % n]
        sp, sq = inside(p), inside(q)
        if sp >= 0.0:
            out.append(p)
        if (sp > 0.0 and sq < 0.0) or (sp < 0.0 and sq > 0.0):
            t = sp / (sp - sq)
            out.append((p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1])))
    return out


def oracle_iou(a: Box3D, b: Box3D) -> float:
    """Scalar Sutherland-Hodgman rotated IoU, one pair at a time."""
    poly = [tuple(p) for p in oracle_corners(a)]
    clip = [tuple(p) for p in oracle_corners(b)]
    inter = 0.0
    for i in range(4):
        if len(poly) < 3:
            break
        poly = oracle_clip_polygon(poly, clip[i], clip[(i + 1) % 4])
    else:
        if len(poly) >= 3:
            inter = abs(oracle_polygon_area(poly))
    union = area(a) + area(b) - inter
    if union <= 0.0:
        return 0.0
    return inter / union


# Rows per Monte-Carlo draw: each temporary of a block stays near cache size
# (0.5 MB), where one (n, 2) draw of n = 10**6 made 8 MB ones.
MC_BLOCK = 1 << 16


def mc_iou(a: Box3D, b: Box3D, n: int, rng: np.random.Generator) -> float:
    """Monte-Carlo IoU: uniform samples over the bounding box of both rects.

    The samples are drawn and tested in blocks of MC_BLOCK rows; the blocks
    draw the same numbers, in the same order, as one (n, 2) draw would.
    """
    corners = np.vstack([oracle_corners(a), oracle_corners(b)])
    lo, hi = corners.min(axis=0), corners.max(axis=0)

    def inside(x: np.ndarray, y: np.ndarray, rect: Box3D) -> np.ndarray:
        rel_x, rel_y = x - rect.center[0], y - rect.center[1]
        cos_y, sin_y = math.cos(rect.yaw), math.sin(rect.yaw)
        du = rel_x * cos_y + rel_y * sin_y
        dv = -rel_x * sin_y + rel_y * cos_y
        return (np.abs(du) <= rect.size[0] / 2.0) & (np.abs(dv) <= rect.size[1] / 2.0)

    hits = 0
    for start in range(0, n, MC_BLOCK):
        x, y = rng.uniform(lo, hi, size=(min(MC_BLOCK, n - start), 2)).T
        in_a = inside(x, y, a)
        # A sample outside a is outside the intersection, so only a's samples test b.
        hits += int(np.count_nonzero(inside(x[in_a], y[in_a], b)))
    box_area = float(np.prod(hi - lo))
    inter = box_area * (hits / n)  # the mean of the inside-both mask
    union = area(a) + area(b) - inter
    return inter / union if union > 0 else 0.0


def aa_iou(a: Box3D, b: Box3D) -> float:
    """Closed-form IoU for two yaw-0 rects."""
    ax0 = a.center[0] - a.size[0] / 2
    ax1 = a.center[0] + a.size[0] / 2
    ay0 = a.center[1] - a.size[1] / 2
    ay1 = a.center[1] + a.size[1] / 2
    bx0 = b.center[0] - b.size[0] / 2
    bx1 = b.center[0] + b.size[0] / 2
    by0 = b.center[1] - b.size[1] / 2
    by1 = b.center[1] + b.size[1] / 2
    iw = max(0.0, min(ax1, bx1) - max(ax0, bx0))
    ih = max(0.0, min(ay1, by1) - max(ay0, by0))
    inter = iw * ih
    union = area(a) + area(b) - inter
    return inter / union if union > 0 else 0.0


def random_rect(rng: np.random.Generator, yaw_zero: bool = False) -> Box3D:
    return flat_box(
        (rng.uniform(-3, 3), rng.uniform(-3, 3)),
        (rng.uniform(0.5, 3.0), rng.uniform(0.5, 3.0)),
        0.0 if yaw_zero else rng.uniform(-math.pi, math.pi),
    )


def point_in_convex_polygon(point, corners) -> bool:
    """Cross-product sign test against a counter-clockwise polygon."""
    for i in range(len(corners)):
        ax, ay = corners[i]
        bx, by = corners[(i + 1) % len(corners)]
        if (bx - ax) * (point[1] - ay) - (by - ay) * (point[0] - ax) < -1e-9:
            return False
    return True


class TestBox3D:
    def test_rejects_nonpositive_size(self):
        with pytest.raises(ContractError):
            Box3D((0, 0, 0), (1.0, 0.0, 1.0), 0.0)

    def test_yaw_normalized(self):
        box = Box3D((0, 0, 0), (1, 1, 1), 3.0 * math.pi)
        assert -math.pi < box.yaw <= math.pi
        assert box.yaw == pytest.approx(math.pi)
        assert normalize_yaw(-math.pi) == pytest.approx(math.pi)


def key_points(rect: Box3D) -> np.ndarray:
    """All nine key points of one footprint, in KEY_POINT_SIGNS row order."""
    return footprint_points([rect], KEY_POINT_SIGNS)[0]


class TestKeyPoints:
    def test_axis_aligned_positions(self):
        pts = key_points(flat_box((0, 0), (2, 4), 0.0))
        center, top, bottom, left, right = pts[0], pts[5], pts[6], pts[7], pts[8]
        assert tuple(center) == (0, 0)
        assert tuple(left) == pytest.approx((-1, 0))
        assert tuple(right) == pytest.approx((1, 0))
        assert tuple(bottom) == pytest.approx((0, -2))
        assert tuple(top) == pytest.approx((0, 2))

    def test_quarter_turn_rotates_points(self):
        pts = key_points(flat_box((0, 0), (2, 4), math.pi / 2))
        assert tuple(pts[8]) == pytest.approx((0, 1))
        assert tuple(pts[5]) == pytest.approx((-2, 0))

    def test_points_lie_on_or_inside_rect(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            rect = random_rect(rng)
            corners = oracle_corners(rect)
            for p in key_points(rect):
                assert point_in_convex_polygon(p, corners)

    def test_midpoints_at_half_extent_from_center(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            rect = random_rect(rng)
            pts = key_points(rect)
            dist = np.linalg.norm(pts[5:] - np.array(rect.center[:2]), axis=1)
            half_w, half_l = rect.size[0] / 2, rect.size[1] / 2
            assert dist == pytest.approx([half_l, half_l, half_w, half_w], abs=1e-9)

    def test_deterministic(self):
        rect = flat_box((1.3, -0.7), (1.9, 4.6), 0.83)
        assert np.array_equal(key_points(rect), key_points(rect))

    @pytest.mark.parametrize("strategy", list(STRATEGY_KEY_POINTS))
    def test_bit_identical_to_scalar_oracle(self, strategy):
        rng = np.random.default_rng(24)
        rects = [random_rect(rng) for _ in range(300)]
        rects += [random_rect(rng, yaw_zero=True) for _ in range(50)]
        # Window-scale centers, where c +/- h*u rounds at a coarser step.
        rects += [
            flat_box((rng.uniform(-54, 54), rng.uniform(-54, 54)), r.size[:2], r.yaw)
            for r in rects[:100]
        ]
        signs = KEY_POINT_SIGNS[list(STRATEGY_KEY_POINTS[strategy])]
        expected = np.array([oracle_strategy_points(r, strategy) for r in rects])
        assert np.array_equal(footprint_points(rects, signs), expected)


class TestRotatedIou:
    def test_identical_rects(self):
        rect = flat_box((1, 2), (2, 3), 0.4)
        assert rotated_iou_2d(rect, rect) == pytest.approx(1.0, abs=1e-12)

    def test_shifted_unit_squares(self):
        a = flat_box((0, 0), (1, 1), 0.0)
        b = flat_box((0.5, 0), (1, 1), 0.0)
        assert rotated_iou_2d(a, b) == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_disjoint_rects(self):
        a = flat_box((0, 0), (1, 1), 0.0)
        b = flat_box((5, 5), (1, 1), 0.7)
        assert rotated_iou_2d(a, b) == 0.0

    def test_square_vs_rotated_square_against_monte_carlo(self):
        a = flat_box((0, 0), (1, 1), 0.0)
        b = flat_box((0, 0), (1, 1), math.pi / 4)
        rng = np.random.default_rng(3)
        assert rotated_iou_2d(a, b) == pytest.approx(mc_iou(a, b, 10**6, rng), abs=2e-3)
        # Closed form: intersection is a regular octagon, area 8*(sqrt(2)-1)/2.
        octagon = 2.0 * (math.sqrt(2.0) - 1.0)
        assert rotated_iou_2d(a, b) == pytest.approx(octagon / (2.0 - octagon), abs=1e-12)

    def test_symmetry_and_range(self):
        rng = np.random.default_rng(4)
        for _ in range(300):
            a, b = random_rect(rng), random_rect(rng)
            iou_ab = rotated_iou_2d(a, b)
            iou_ba = rotated_iou_2d(b, a)
            assert 0.0 <= iou_ab <= 1.0
            assert abs(iou_ab - iou_ba) <= 1e-12

    def test_matches_axis_aligned_formula_when_yaws_zero(self):
        rng = np.random.default_rng(5)
        for _ in range(1000):
            a = random_rect(rng, yaw_zero=True)
            b = random_rect(rng, yaw_zero=True)
            assert abs(rotated_iou_2d(a, b) - aa_iou(a, b)) <= 1e-12

    def test_invariant_under_common_rigid_motion(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            a, b = random_rect(rng), random_rect(rng)
            theta = rng.uniform(-math.pi, math.pi)
            tx, ty = rng.uniform(-10, 10, size=2)
            cos_t, sin_t = math.cos(theta), math.sin(theta)

            def moved(r: Box3D) -> Box3D:
                x, y = r.center[:2]
                return flat_box(
                    (x * cos_t - y * sin_t + tx, x * sin_t + y * cos_t + ty),
                    r.size[:2],
                    r.yaw + theta,
                )

            assert rotated_iou_2d(moved(a), moved(b)) == pytest.approx(
                rotated_iou_2d(a, b), abs=1e-9
            )


def touching_rect(rng: np.random.Generator, a: Box3D, corner: bool) -> Box3D:
    """A footprint with a's heading placed against a's +w edge, or its (+w, +l) corner."""
    w, l = rng.uniform(0.5, 3.0), rng.uniform(0.5, 3.0)
    u = np.array([math.cos(a.yaw), math.sin(a.yaw)])
    v = np.array([-math.sin(a.yaw), math.cos(a.yaw)])
    along = (a.size[0] + w) / 2.0
    across = (a.size[1] + l) / 2.0 if corner else rng.uniform(-0.5, 0.5)
    center = np.array(a.center[:2]) + along * u + across * v
    return flat_box((float(center[0]), float(center[1])), (w, l), a.yaw)


def oracle_pair_set(rng: np.random.Generator, kind: str, n: int):
    """n seeded footprint pairs of one kind, as two aligned lists."""
    first, second = [], []
    for _ in range(n):
        a = random_rect(rng, yaw_zero=kind.endswith("axis_aligned"))
        if kind == "random":
            b = random_rect(rng)
        elif kind == "near_coincident":
            jx, jy = rng.normal(0.0, 0.05, size=2)
            b = flat_box((a.center[0] + jx, a.center[1] + jy), a.size[:2], a.yaw)
        elif kind == "identical":
            b = a
        elif kind.startswith("edge_touching"):
            b = touching_rect(rng, a, corner=False)
        elif kind.startswith("corner_touching"):
            b = touching_rect(rng, a, corner=True)
        else:  # disjoint
            shift = 10.0 + rng.uniform(0.0, 5.0)
            b = flat_box((a.center[0] + shift, a.center[1] - shift), a.size[:2], rng.uniform(-3, 3))
        first.append(a)
        second.append(b)
    return first, second


ORACLE_PAIR_KINDS = {
    "random": 6000,
    "near_coincident": 6000,
    "identical": 2000,
    "edge_touching": 1500,
    "edge_touching_axis_aligned": 500,
    "corner_touching": 1500,
    "corner_touching_axis_aligned": 500,
    "disjoint": 2000,
}


class TestBatchedKernel:
    def test_bit_identical_to_scalar_oracle(self):
        rng = np.random.default_rng(20)
        total = 0
        for kind, n in ORACLE_PAIR_KINDS.items():
            first, second = oracle_pair_set(rng, kind, n)
            expected = np.array([oracle_iou(a, b) for a, b in zip(first, second)])
            # The kernel caps the oracle's rounding overshoot above 1.
            assert np.array_equal(aligned_ious(first, second), np.minimum(expected, 1.0)), kind
            total += n
        assert total >= 20000

    def test_pair_kinds_reach_their_geometry(self):
        rng = np.random.default_rng(21)
        ious = {
            kind: aligned_ious(*oracle_pair_set(rng, kind, 200))
            for kind in ORACLE_PAIR_KINDS
        }
        assert (ious["identical"] > 1.0 - 1e-12).all()
        assert (ious["near_coincident"] > 0.5).all()
        assert (ious["disjoint"] == 0.0).all()
        for kind in ORACLE_PAIR_KINDS:
            if "touching" in kind:
                assert (ious[kind] < 1e-9).all()

    def test_corners_bit_identical_to_scalar_oracle(self):
        rng = np.random.default_rng(22)
        rects = [random_rect(rng) for _ in range(500)]
        expected = np.array([oracle_corners(r) for r in rects])
        assert np.array_equal(footprint_points(rects, CORNER_SIGNS), expected)

    def test_scalar_call_is_one_element_batch(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            a, b = random_rect(rng), random_rect(rng)
            assert rotated_iou_2d(a, b) == oracle_iou(a, b)

    def test_identical_footprints_never_exceed_one(self):
        # The scalar oracle reads 1.0000000000000013 here.
        rect = flat_box((0.0, 1.0), (0.1, 0.1), 0.0)
        assert oracle_iou(rect, rect) > 1.0
        assert rotated_iou_2d(rect, rect) == 1.0


def assert_matches_oracle(a: list[Box3D], b: list[Box3D]) -> int:
    """Check `overlap_ious(a, b)` against the scalar oracle; returns how many pairs it kept.

    The pairs come in row-major order, each IoU equals the capped oracle's bit
    for bit, and every pair left out has oracle IoU 0.
    """
    ia, ib, iou = overlap_ious(a, b)
    kept = list(zip(ia.tolist(), ib.tolist()))
    assert kept == sorted(set(kept))
    expected = np.array([min(oracle_iou(a[i], b[j]), 1.0) for i, j in kept], dtype=np.float64)
    assert iou.tobytes() == expected.tobytes()
    left_out = {(i, j) for i in range(len(a)) for j in range(len(b))} - set(kept)
    assert all(oracle_iou(a[i], b[j]) == 0.0 for i, j in left_out)
    return len(kept)


finite_rects = st.builds(
    flat_box,
    center=st.tuples(st.floats(-20, 20), st.floats(-20, 20)),
    extent=st.tuples(st.floats(0.1, 10), st.floats(0.1, 10)),
    yaw=st.floats(-math.pi, math.pi),
)


class TestOverlapIous:
    def test_keeps_every_overlapping_pair_in_row_major_order(self):
        rng = np.random.default_rng(25)
        a = [random_rect(rng) for _ in range(40)]
        b = [random_rect(rng) for _ in range(30)]
        assert 0 < assert_matches_oracle(a, b) < len(a) * len(b)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.lists(finite_rects, max_size=8), st.lists(finite_rects, max_size=8))
    def test_random_footprint_sets_match_capped_oracle(self, a, b):
        assert_matches_oracle(a, b)

    def test_boxes_of_any_height_score_their_footprints(self):
        rng = np.random.default_rng(0)
        boxes = []
        for _ in range(20):
            w, l, h = rng.uniform(0.2, 5.0, size=3)
            boxes.append(Box3D((*rng.uniform(-3, 3, size=2), rng.uniform(-2, 2)), (w, l, h),
                               rng.uniform(-3, 3)))
        assert assert_matches_oracle(boxes, boxes) >= len(boxes)

    def test_empty_side(self):
        rect = flat_box((0, 0), (1, 1), 0.0)
        for a, b in (([], [rect]), ([rect], []), ([], [])):
            ia, ib, iou = overlap_ious(a, b)
            assert ia.shape == ib.shape == iou.shape == (0,)
            assert ia.dtype == ib.dtype == np.intp


def shoelace_tolerance(*rects: Box3D) -> float:
    """Rounding bound of an IoU whose shoelace sums absolute coordinates.

    Each cross term carries an error of about eps * (|center| + radius)^2,
    which is large next to a small footprint far from the origin.
    """
    eps = np.finfo(np.float64).eps
    return max(
        64 * eps * (math.hypot(*r.center[:2]) + math.hypot(*r.size[:2])) ** 2 / area(r)
        for r in rects
    )


class TestIouProperties:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(finite_rects, finite_rects)
    def test_symmetric_and_in_unit_interval(self, a, b):
        iou_ab, iou_ba = rotated_iou_2d(a, b), rotated_iou_2d(b, a)
        assert 0.0 <= iou_ab <= 1.0
        assert iou_ab == pytest.approx(iou_ba, abs=shoelace_tolerance(a, b))
        assert iou_ab == min(oracle_iou(a, b), 1.0)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(finite_rects)
    def test_identical_footprints_have_unit_iou(self, rect):
        assert rotated_iou_2d(rect, rect) == pytest.approx(1.0, abs=shoelace_tolerance(rect))


footprint_fields = st.tuples(
    st.floats(-20, 20), st.floats(-20, 20), st.floats(0.1, 10), st.floats(0.1, 10),
    st.floats(-math.pi, math.pi),
)
# z, h, vx and vy: the attributes plane geometry must not read.
vertical_fields = st.tuples(
    st.floats(-5, 5), st.floats(0.1, 5), st.floats(-30, 30), st.floats(-30, 30)
)


def lifted(footprint: tuple, vertical: tuple) -> Box3D:
    x, y, w, l, yaw = footprint
    z, h, vx, vy = vertical
    return Box3D((x, y, z), (w, l, h), yaw, (vx, vy))


class TestVerticalAttributes:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.lists(st.tuples(footprint_fields, vertical_fields, vertical_fields), max_size=8))
    def test_geometry_ignores_them(self, rows):
        first = [lifted(f, v) for f, v, _ in rows]
        second = [lifted(f, v) for f, _, v in rows]
        points = (footprint_points(boxes, KEY_POINT_SIGNS) for boxes in (first, second))
        assert len(set(p.tobytes() for p in points)) == 1
        ious = [overlap_ious(first, first), overlap_ious(second, second)]
        assert [x.tobytes() for x in ious[0]] == [x.tobytes() for x in ious[1]]


class TestCenterDistance:
    def test_identical_centers(self):
        a = Box3D((1, 1, 0), (1, 1, 1), 0.0)
        b = Box3D((1, 1, 9), (2, 2, 2), 1.0)
        assert center_distance_bev(a, b) == 0.0

    def test_three_four_five(self):
        a = Box3D((0, 0, 0), (1, 1, 1), 0.0)
        b = Box3D((3, 4, 0), (1, 1, 1), 0.0)
        assert center_distance_bev(a, b) == pytest.approx(5.0)

    def test_symmetric(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            a = Box3D(tuple(rng.uniform(-10, 10, 3)), (1, 1, 1), 0.0)
            b = Box3D(tuple(rng.uniform(-10, 10, 3)), (1, 1, 1), 0.0)
            assert center_distance_bev(a, b) == center_distance_bev(b, a)


class TestVolume:
    def test_basic(self):
        assert volume(Box3D((0, 0, 0), (2, 4, 1.5), 0.0)) == pytest.approx(12.0)
        assert volume(Box3D((0, 0, 0), (1, 1, 1), 0.0)) == pytest.approx(1.0)

    def test_cone_scale_box_in_small_range(self):
        v = volume(Box3D((0, 0, 0), (0.3, 0.3, 0.7), 0.0))
        assert v == pytest.approx(0.063)
        assert 0.01 < v < 1.69

    def test_always_positive(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            assert volume(Box3D((0, 0, 0), tuple(rng.uniform(0.01, 10, 3)), 0.0)) > 0


class TestPointsInBox:
    def test_center_counted(self):
        box = Box3D((1, 2, 3), (2, 2, 2), 0.5)
        assert points_in_box(np.array([[1.0, 2.0, 3.0]]), box) == 1

    def test_face_point_counted(self):
        box = Box3D((0, 0, 0), (2, 4, 2), 0.0)
        assert points_in_box(np.array([[1.0, 0.0, 0.0]]), box) == 1
        assert points_in_box(np.array([[0.0, 2.0, 0.0]]), box) == 1
        assert points_in_box(np.array([[0.0, 0.0, 1.0]]), box) == 1
        assert points_in_box(np.array([[1.0 + 1e-9, 0.0, 0.0]]), box) == 0

    def test_matches_interval_test_for_axis_aligned_box(self):
        rng = np.random.default_rng(9)
        box = Box3D((1.0, -2.0, 0.5), (3.0, 2.0, 1.5), 0.0)
        pts = rng.uniform(-4, 4, size=(10**4, 3))
        expected = int(
            (
                (np.abs(pts[:, 0] - 1.0) <= 1.5)
                & (np.abs(pts[:, 1] + 2.0) <= 1.0)
                & (np.abs(pts[:, 2] - 0.5) <= 0.75)
            ).sum()
        )
        assert points_in_box(pts, box) == expected

    def test_invariant_under_common_rigid_motion(self):
        rng = np.random.default_rng(10)
        box = Box3D((0.5, -1.0, 0.2), (2.0, 3.0, 1.0), 0.3)
        pts = rng.uniform(-3, 3, size=(2000, 3))
        base = points_in_box(pts, box)
        theta = 1.1
        cos_t, sin_t = math.cos(theta), math.sin(theta)
        moved_pts = pts.copy()
        moved_pts[:, 0] = pts[:, 0] * cos_t - pts[:, 1] * sin_t + 5.0
        moved_pts[:, 1] = pts[:, 0] * sin_t + pts[:, 1] * cos_t - 2.0
        moved_box = Box3D(
            (
                box.center[0] * cos_t - box.center[1] * sin_t + 5.0,
                box.center[0] * sin_t + box.center[1] * cos_t - 2.0,
                box.center[2],
            ),
            box.size,
            box.yaw + theta,
        )
        assert points_in_box(moved_pts, moved_box) == base

    def test_empty_input(self):
        assert points_in_box(np.zeros((0, 3)), Box3D((0, 0, 0), (1, 1, 1), 0.0)) == 0
