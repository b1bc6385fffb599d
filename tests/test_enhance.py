"""Enhancement stages against literal step-by-step reference executions.

The reference executors below materialize every intermediate the enhancement
procedures describe (including the expanded per-pair grid copies) and apply
the writes one line at a time, so the tests can require bit-identical
output, covering the read-original vs read-enhanced distinction.
"""

import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualguide.config import PipelineConfig
from dualguide.enhance import (
    Projection,
    enhance_camera_grid,
    enhance_lidar_grid,
    fuse_grids,
    member_of,
    nearest_cell,
    pair_distance_weights,
)
from dualguide.errors import ConfigurationError
from dualguide.formats import save_grid
from dualguide.geometry import Box3D, center_distance_bev
from dualguide.grid import BevGrid, GridSpec
from dualguide.instances import InstanceFeature, Proposal
from dualguide.matching import (
    PAIR_CAMERA_HARD,
    PAIR_EASY,
    PAIR_LIDAR_HARD,
    InstancePair,
)
from dualguide.pipeline import gather_lidar


def make_instance(x, y, modality, raw, w=1.5, l=1.5):
    prop = Proposal(Box3D((x, y, 1.0), (w, l, 1.0), 0.0), 0.9, 0, modality)
    return InstanceFeature(prop, np.asarray(raw, dtype=np.float64))


def easy_pair(lidar_xy, camera_xy, lidar_raw, camera_raw):
    return InstancePair(
        make_instance(*lidar_xy, "lidar", lidar_raw),
        make_instance(*camera_xy, "camera", camera_raw),
        PAIR_EASY,
        0.9,
    )


def camera_hard_pair(camera_xy, lidar_xy, camera_raw, lidar_raw):
    return InstancePair(
        make_instance(*camera_xy, "camera", camera_raw),
        make_instance(*lidar_xy, "lidar", lidar_raw),
        PAIR_CAMERA_HARD,
        0.5,
    )


def lidar_hard_pair(lidar_xy, camera_xy, lidar_raw, camera_raw):
    return InstancePair(
        make_instance(*lidar_xy, "lidar", lidar_raw),
        make_instance(*camera_xy, "camera", camera_raw),
        PAIR_LIDAR_HARD,
        0.5,
    )


def ref_bilinear(data, spec, coord):
    h, w = spec.height_cells, spec.width_cells
    r = min(max(coord[0], 0.0), float(h - 1))
    c = min(max(coord[1], 0.0), float(w - 1))
    r0 = min(int(math.floor(r)), h - 2) if h > 1 else 0
    c0 = min(int(math.floor(c)), w - 2) if w > 1 else 0
    r1, c1 = min(r0 + 1, h - 1), min(c0 + 1, w - 1)
    fr, fc = r - r0, c - c0
    return (
        (1.0 - fr) * (1.0 - fc) * data[r0, c0]
        + (1.0 - fr) * fc * data[r0, c1]
        + fr * (1.0 - fc) * data[r1, c0]
        + fr * fc * data[r1, c1]
    )


def ref_world_to_grid(point, spec):
    row = (point[1] - spec.y_range[0]) / spec.cell_size_y - 0.5
    col = (point[0] - spec.x_range[0]) / spec.cell_size_x - 0.5
    return row, col


def ref_round_cell(coord, spec):
    r = int(math.floor(coord[0] + 0.5))
    c = int(math.floor(coord[1] + 0.5))
    return (
        min(max(r, 0), spec.height_cells - 1),
        min(max(c, 0), spec.width_cells - 1),
    )


def ref_camera_enhance(grid, easy_pairs, camera_hard_pairs, proj):
    """Stepwise reference for the camera enhancement procedure."""
    spec = grid.spec
    base = grid.data
    enhanced = base.copy()

    squeezed = [proj.matrix @ member_of(p, "lidar").raw + proj.bias for p in easy_pairs]
    if easy_pairs:
        expanded1 = np.repeat(base.copy()[None], len(easy_pairs), axis=0)
    for idx, pair in enumerate(easy_pairs):
        coord = ref_world_to_grid(member_of(pair, "camera").bev_center, spec)
        gs = ref_bilinear(expanded1[idx], spec, coord)
        gs_enh = gs * squeezed[idx]
        cell = ref_round_cell(coord, spec)
        enhanced[cell] = base[cell] + gs_enh

    squeezed_h = [
        proj.matrix @ member_of(p, "lidar").raw + proj.bias for p in camera_hard_pairs
    ]
    if camera_hard_pairs:
        expanded2 = np.repeat(base.copy()[None], len(camera_hard_pairs), axis=0)
    for idx, pair in enumerate(camera_hard_pairs):
        coord = ref_world_to_grid(member_of(pair, "camera").bev_center, spec)
        gs = ref_bilinear(expanded2[idx], spec, coord)
        gs_enh = gs * squeezed_h[idx]
        cell = ref_round_cell(coord, spec)
        enhanced[cell] = enhanced[cell] + gs_enh
    return enhanced


def ref_surrounding(coord, spec):
    r0, c0 = int(math.floor(coord[0])), int(math.floor(coord[1]))
    cells = []
    for r in (r0, r0 + 1):
        for c in (c0, c0 + 1):
            rc = (
                min(max(r, 0), spec.height_cells - 1),
                min(max(c, 0), spec.width_cells - 1),
            )
            if rc not in cells:
                cells.append(rc)
    return sorted(cells)


def ref_lidar_enhance(grid, pairs, proj):
    """Stepwise reference for the LiDAR enhancement procedure."""
    spec = grid.spec
    base = grid.data
    enhanced = base.copy()
    excited = [proj.matrix @ member_of(p, "camera").raw + proj.bias for p in pairs]
    dist = [
        math.hypot(
            p.anchor.bev_center[0] - p.guide.bev_center[0],
            p.anchor.bev_center[1] - p.guide.bev_center[1],
        )
        for p in pairs
    ]
    if dist and max(dist) > min(dist):
        lo, hi = min(dist), max(dist)
        w = [1.0 - (d - lo) / (hi - lo) for d in dist]
    else:
        w = [1.0] * len(dist)
    for idx, pair in enumerate(pairs):
        coord = ref_world_to_grid(member_of(pair, "lidar").bev_center, spec)
        weighted = excited[idx] * w[idx]
        for cell in ref_surrounding(coord, spec):
            enhanced[cell] = base[cell] + weighted
    return enhanced


def identity(n):
    return Projection(np.eye(n), np.zeros(n))


def changed_cells(data, base):
    """The (row, col) cells at which `data` differs from `base` in any channel."""
    return set(zip(*np.nonzero((data != base).any(axis=2))))


def lidar_enhanced(grid, pairs, proj):
    """A copy of `grid`, enhanced by `enhance_lidar_grid`."""
    return enhance_lidar_grid(grid.copy(), pairs, proj)


def small_grid(rng, c=3, n=8):
    spec = GridSpec(n, n, c, x_range=(0.0, float(n)), y_range=(0.0, float(n)))
    return BevGrid(spec, rng.normal(size=(n, n, c)))


class TestProjection:
    def test_identity(self):
        proj = identity(4)
        v = np.array([1.0, -2.0, 0.5, 3.0])
        assert np.array_equal(proj.apply(v), v)

    def test_zero_matrix_returns_bias(self):
        proj = Projection(np.zeros((3, 5)), np.array([1.0, 2.0, 3.0]))
        assert np.array_equal(proj.apply(np.ones(5)), [1.0, 2.0, 3.0])

    def test_matches_dot_product_loop(self):
        rng = np.random.default_rng(0)
        proj = Projection(rng.normal(size=(4, 6)), rng.normal(size=4))
        v = rng.normal(size=6)
        expected = np.array(
            [sum(proj.matrix[i, j] * v[j] for j in range(6)) + proj.bias[i] for i in range(4)]
        )
        assert np.allclose(proj.apply(v), expected, atol=1e-12)

    def test_source_length_enforced(self):
        proj = identity(3)
        with pytest.raises(ConfigurationError):
            proj.apply(np.ones(4))

    def test_seeded_is_deterministic_and_bounded(self):
        a = Projection.seeded(8, 4, seed=5)
        b = Projection.seeded(8, 4, seed=5)
        assert np.array_equal(a.matrix, b.matrix) and np.array_equal(a.bias, b.bias)
        s = 1.0 / math.sqrt(8)
        assert np.abs(a.matrix).max() <= s and np.abs(a.bias).max() <= s


class TestPairDistanceWeights:
    def test_formula_on_spread_distances(self):
        pairs = [
            lidar_hard_pair((0, 0), (2, 0), [1.0], [1.0]),
            lidar_hard_pair((0, 0), (4, 0), [1.0], [1.0]),
            lidar_hard_pair((0, 0), (6, 0), [1.0], [1.0]),
        ]
        distances = [center_distance_bev(p.anchor.proposal.box, p.guide.proposal.box)
                     for p in pairs]
        assert distances == pytest.approx([2.0, 4.0, 6.0])
        assert pair_distance_weights(pairs) == pytest.approx([1.0, 0.5, 0.0])

    def test_single_pair_degenerates_to_one(self):
        pairs = [lidar_hard_pair((0, 0), (3, 4), [1.0], [1.0])]
        assert pair_distance_weights(pairs) == [1.0]

    def test_equal_distances_all_one(self):
        pairs = [
            lidar_hard_pair((0, 0), (0, 5), [1.0], [1.0]),
            lidar_hard_pair((1, 1), (1, 6), [1.0], [1.0]),
        ]
        assert pair_distance_weights(pairs) == [1.0, 1.0]

    def test_bounds_and_extremes(self):
        rng = np.random.default_rng(1)
        pairs = [
            lidar_hard_pair((0, 0), (float(rng.uniform(1, 9)), 0), [1.0], [1.0])
            for _ in range(10)
        ]
        weights = pair_distance_weights(pairs)
        distances = [center_distance_bev(p.anchor.proposal.box, p.guide.proposal.box)
                     for p in pairs]
        assert all(0.0 <= w <= 1.0 for w in weights)
        assert weights[int(np.argmin(distances))] == 1.0
        assert weights[int(np.argmax(distances))] == 0.0

    def test_empty(self):
        assert pair_distance_weights([]) == []


class TestCameraEnhancement:
    def test_no_pairs_is_identity(self):
        rng = np.random.default_rng(2)
        grid = small_grid(rng)
        out = enhance_camera_grid(grid.copy(), [], [], identity(3))
        assert np.array_equal(out.data, grid.data)

    def test_single_pair_with_unit_guide(self):
        rng = np.random.default_rng(3)
        grid = small_grid(rng)
        pair = easy_pair((2.5, 3.5), (2.5, 3.5), np.ones(3), np.zeros(3))
        out = enhance_camera_grid(grid.copy(), [pair], [], identity(3))
        # Scaling by an all-ones guide adds exactly the sampled feature.
        from dualguide.grid import bilinear_sample, world_to_grid

        coord = world_to_grid((2.5, 3.5), grid.spec)
        cell = nearest_cell(coord, grid.spec)
        expected = grid.data[cell] + bilinear_sample(grid, coord)
        assert np.array_equal(out.data[cell], expected)

    def test_bit_identical_to_reference_on_random_scenes(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            grid = small_grid(rng)
            proj = Projection(rng.normal(size=(3, 3)), rng.normal(size=3))
            n_easy, n_hard = int(rng.integers(0, 4)), int(rng.integers(0, 4))
            easy = [
                easy_pair(
                    (rng.uniform(0.5, 7.5), rng.uniform(0.5, 7.5)),
                    (rng.uniform(0.5, 7.5), rng.uniform(0.5, 7.5)),
                    rng.normal(size=3),
                    rng.normal(size=3),
                )
                for _ in range(n_easy)
            ]
            hard = [
                camera_hard_pair(
                    (rng.uniform(0.5, 7.5), rng.uniform(0.5, 7.5)),
                    (rng.uniform(0.5, 7.5), rng.uniform(0.5, 7.5)),
                    rng.normal(size=3),
                    rng.normal(size=3),
                )
                for _ in range(n_hard)
            ]
            out = enhance_camera_grid(grid.copy(), easy, hard, proj)
            expected = ref_camera_enhance(grid, easy, hard, proj)
            assert np.array_equal(out.data, expected)

    def test_overlapping_easy_pairs_do_not_compound(self):
        rng = np.random.default_rng(5)
        grid = small_grid(rng)
        proj = identity(3)
        # Two easy pairs landing on the same cell: the later write still
        # reads the original grid, so only the last survives.
        p1 = easy_pair((3.0, 3.0), (3.4, 3.4), np.full(3, 2.0), np.zeros(3))
        p2 = easy_pair((3.0, 3.0), (3.45, 3.45), np.full(3, 3.0), np.zeros(3))
        out = enhance_camera_grid(grid.copy(), [p1, p2], [], proj)
        expected = ref_camera_enhance(grid, [p1, p2], [], proj)
        assert np.array_equal(out.data, expected)

    def test_hard_pairs_accumulate_on_shared_cell(self):
        rng = np.random.default_rng(6)
        grid = small_grid(rng)
        proj = identity(3)
        p1 = camera_hard_pair((4.4, 4.4), (0, 0), np.zeros(3), np.full(3, 1.0))
        p2 = camera_hard_pair((4.45, 4.45), (0, 0), np.zeros(3), np.full(3, 1.0))
        out = enhance_camera_grid(grid.copy(), [], [p1, p2], proj)
        expected = ref_camera_enhance(grid, [], [p1, p2], proj)
        assert np.array_equal(out.data, expected)
        # Both updates must be present at the shared cell.
        cell = nearest_cell((3.9, 3.9), grid.spec)
        assert not np.allclose(out.data[cell], grid.data[cell])

    def test_zero_projection_leaves_values_unchanged(self):
        rng = np.random.default_rng(7)
        grid = small_grid(rng)
        proj = Projection(np.zeros((3, 3)), np.zeros(3))
        easy = [easy_pair((2, 2), (2, 2), rng.normal(size=3), rng.normal(size=3))]
        hard = [camera_hard_pair((5, 5), (2, 2), rng.normal(size=3), rng.normal(size=3))]
        out = enhance_camera_grid(grid.copy(), easy, hard, proj)
        assert np.array_equal(out.data, grid.data)

    def test_only_addressed_cells_change(self):
        rng = np.random.default_rng(8)
        grid = small_grid(rng)
        proj = Projection(rng.normal(size=(3, 3)), rng.normal(size=3))
        easy = [
            easy_pair((2.2, 2.8), (2.2, 2.8), rng.normal(size=3), rng.normal(size=3))
        ]
        hard = [
            camera_hard_pair((6.1, 1.7), (2.2, 2.8), rng.normal(size=3), rng.normal(size=3))
        ]
        out = enhance_camera_grid(grid.copy(), easy, hard, proj)
        addressed = set()
        for pair in easy + hard:
            coord = ref_world_to_grid(member_of(pair, "camera").bev_center, grid.spec)
            addressed.add(ref_round_cell(coord, grid.spec))
        changed = set(zip(*np.nonzero((out.data != grid.data).any(axis=2))))
        assert changed <= addressed

    def test_projection_channel_mismatch_rejected(self):
        grid = small_grid(np.random.default_rng(9))
        with pytest.raises(ConfigurationError):
            enhance_camera_grid(grid, [], [], identity(4))


class TestLidarEnhancement:
    def test_no_pairs_is_identity(self):
        rng = np.random.default_rng(10)
        grid = small_grid(rng)
        out = lidar_enhanced(grid, [], identity(3))
        assert np.array_equal(out.data, grid.data)

    def test_single_pair_adds_projected_guide_to_neighbors(self):
        rng = np.random.default_rng(11)
        grid = small_grid(rng)
        guide_raw = rng.normal(size=3)
        pair = lidar_hard_pair((3.2, 4.7), (6.0, 6.0), np.zeros(3), guide_raw)
        out = lidar_enhanced(grid, [pair], identity(3))
        coord = ref_world_to_grid((3.2, 4.7), grid.spec)
        for cell in ref_surrounding(coord, grid.spec):
            assert np.array_equal(out.data[cell], grid.data[cell] + guide_raw)

    def test_bit_identical_to_reference_with_overlaps(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            grid = small_grid(rng)
            proj = Projection(rng.normal(size=(3, 3)), rng.normal(size=3))
            n = int(rng.integers(0, 5))
            pairs = [
                lidar_hard_pair(
                    (rng.uniform(1.0, 4.0), rng.uniform(1.0, 4.0)),
                    (rng.uniform(0.5, 7.5), rng.uniform(0.5, 7.5)),
                    rng.normal(size=3),
                    rng.normal(size=3),
                )
                for _ in range(n)
            ]
            out = lidar_enhanced(grid, pairs, proj)
            expected = ref_lidar_enhance(grid, pairs, proj)
            assert np.array_equal(out.data, expected)

    def test_shared_cells_last_write_wins(self):
        rng = np.random.default_rng(13)
        grid = small_grid(rng)
        proj = identity(3)
        # Neighbor quadruples of these two centers overlap at cells (3, 3)..
        p1 = lidar_hard_pair((3.1, 3.1), (0.0, 0.0), np.zeros(3), np.full(3, 5.0))
        p2 = lidar_hard_pair((3.9, 3.9), (7.0, 7.0), np.zeros(3), np.full(3, 11.0))
        out = lidar_enhanced(grid, [p1, p2], proj)
        expected = ref_lidar_enhance(grid, [p1, p2], proj)
        assert np.array_equal(out.data, expected)
        # The shared cell holds the second pair's (weighted) value, not a sum.
        coord2 = ref_world_to_grid((3.9, 3.9), grid.spec)
        shared = set(ref_surrounding(ref_world_to_grid((3.1, 3.1), grid.spec), grid.spec))
        shared &= set(ref_surrounding(coord2, grid.spec))
        assert shared
        weights = pair_distance_weights([p1, p2])
        for cell in shared:
            assert np.array_equal(out.data[cell], grid.data[cell] + np.full(3, 11.0) * weights[1])

    def test_deterministic(self):
        rng = np.random.default_rng(14)
        grid = small_grid(rng)
        proj = Projection(rng.normal(size=(3, 3)), rng.normal(size=3))
        pairs = [
            lidar_hard_pair((2.5, 2.5), (5.0, 5.0), rng.normal(size=3), rng.normal(size=3)),
            lidar_hard_pair((5.5, 1.5), (1.0, 6.0), rng.normal(size=3), rng.normal(size=3)),
        ]
        a = lidar_enhanced(grid, pairs, proj)
        b = lidar_enhanced(grid, pairs, proj)
        assert np.array_equal(a.data, b.data)

    # The cells a pair writes: the floor cell of its center in grid coordinates
    # and the next row and column, each clamped into the grid.
    @pytest.mark.parametrize("shape, coord, cells", [
        ((6, 8), (2.25, 5.75), {(2, 5), (2, 6), (3, 5), (3, 6)}),
        ((8, 8), (4.0, 4.0), {(4, 4), (4, 5), (5, 4), (5, 5)}),
        ((6, 8), (-0.25, 3.25), {(0, 3), (0, 4)}),
        ((6, 8), (2.5, -0.5), {(2, 0), (3, 0)}),
        ((6, 8), (-0.5, -0.25), {(0, 0)}),
        ((6, 8), (5.375, 0.25), {(5, 0), (5, 1)}),
        ((6, 8), (1.5, 7.0), {(1, 7), (2, 7)}),
        ((6, 8), (5.5, 7.5), {(5, 7)}),
        ((1, 5), (0.0, 1.5), {(0, 1), (0, 2)}),
        ((1, 5), (-0.5, 4.5), {(0, 4)}),
        ((4, 1), (2.25, 0.0), {(2, 0), (3, 0)}),
        ((1, 1), (0.25, -0.25), {(0, 0)}),
    ], ids=["interior", "exact-integer", "below-row-0", "left-of-col-0", "low-corner",
            "top-edge", "right-edge", "top-right-corner", "one-row", "one-row-end",
            "one-column", "one-cell"])
    def test_a_pair_writes_the_clamped_floor_cells_of_its_center(self, shape, coord, cells):
        h, w = shape
        grid = BevGrid(GridSpec(h, w, 3, (0.0, float(w)), (0.0, float(h))),
                       np.random.default_rng(18).normal(size=(h, w, 3)))
        assert ref_world_to_grid((coord[1] + 0.5, coord[0] + 0.5), grid.spec) == coord
        assert set(ref_surrounding(coord, grid.spec)) == cells
        pair = lidar_hard_pair((coord[1] + 0.5, coord[0] + 0.5), (0.0, 0.0), np.zeros(3),
                               np.ones(3))
        out = lidar_enhanced(grid, [pair], identity(3))
        assert np.array_equal(out.data, ref_lidar_enhance(grid, [pair], identity(3)))
        assert changed_cells(out.data, grid.data) == cells

    @pytest.mark.parametrize("order", [(0, 1), (1, 0)], ids=["in-order", "reversed"])
    def test_a_shared_cell_takes_the_later_pair_in_either_order(self, order):
        grid = small_grid(np.random.default_rng(19))
        proj = Projection(np.diag([1.0, 2.0, 3.0]), np.zeros(3))
        # Grid centers (2.6, 2.6) and (3.4, 3.4): (3, 3) is the one cell both write.
        both = [lidar_hard_pair((3.1, 3.1), (0.0, 0.0), np.zeros(3), np.full(3, 5.0)),
                lidar_hard_pair((3.9, 3.9), (7.0, 7.0), np.zeros(3), np.full(3, 11.0))]
        pairs = [both[i] for i in order]
        out = lidar_enhanced(grid, pairs, proj)
        assert np.array_equal(out.data, ref_lidar_enhance(grid, pairs, proj))
        assert changed_cells(out.data, grid.data) == {
            (r, c) for r in (2, 3, 4) for c in (2, 3, 4)} - {(2, 4), (4, 2)}
        later = proj.apply(pairs[1].guide.raw) * pair_distance_weights(pairs)[1]
        assert np.array_equal(out.data[3, 3], grid.data[3, 3] + later)


def random_pairs(rng, make, n):
    return [
        make(
            (rng.uniform(0.5, 7.5), rng.uniform(0.5, 7.5)),
            (rng.uniform(0.5, 7.5), rng.uniform(0.5, 7.5)),
            rng.normal(size=3),
            rng.normal(size=3),
        )
        for _ in range(n)
    ]


def enhance_camera(grid, proj, rng):
    easy = random_pairs(rng, easy_pair, 3)
    hard = random_pairs(rng, camera_hard_pair, 3)
    return enhance_camera_grid(grid, easy, hard, proj)


def enhance_lidar(grid, proj, rng):
    return enhance_lidar_grid(grid, random_pairs(rng, lidar_hard_pair, 4), proj)


@pytest.mark.parametrize("enhance", [enhance_camera, enhance_lidar])
def test_enhancing_a_channel_view_of_a_fused_grid_changes_only_that_view(enhance):
    rng = np.random.default_rng(16)
    grid = small_grid(rng)
    other = small_grid(rng)
    proj = Projection(rng.normal(size=(3, 3)), rng.normal(size=3))
    fused = fuse_grids(grid, other)  # other's channels first, then grid's
    view = BevGrid(grid.spec, fused.data[:, :, 3:])
    got = enhance(view, proj, np.random.default_rng(17))
    want = enhance(grid.copy(), proj, np.random.default_rng(17))
    assert got is view
    assert not np.array_equal(want.data, grid.data)
    assert np.array_equal(fused.data[:, :, 3:], want.data)
    assert np.array_equal(fused.data[:, :, :3], other.data)


# Centers on a half-cell lattice that reaches one cell past every edge, so
# the outer ones clamp, or in a 2 x 2-cell cluster, where writes collide.
lattice = st.integers(-2, 18).map(lambda k: k * 0.5)
cluster = st.sampled_from([3.0, 3.5, 4.0, 4.5])
centers = st.one_of(st.tuples(lattice, lattice), st.tuples(cluster, cluster))
raws = st.lists(st.floats(-4.0, 4.0), min_size=3, max_size=3)
pair_args = st.tuples(centers, centers, raws, raws)


@given(
    seed=st.integers(0, 2**32 - 1),
    easy=st.lists(pair_args, max_size=4),
    hard=st.lists(pair_args, max_size=4),
    lidar_hard=st.lists(pair_args, max_size=5),
)
@settings(max_examples=150, deadline=None)
def test_in_place_enhancement_equals_references_and_touches_only_addressed_cells(
    seed, easy, hard, lidar_hard
):
    rng = np.random.default_rng(seed)
    grid = small_grid(rng)
    proj = Projection(rng.normal(size=(3, 3)), rng.normal(size=3))
    easy = [easy_pair(*args) for args in easy]
    hard = [camera_hard_pair(*args) for args in hard]
    lidar_hard = [lidar_hard_pair(*args) for args in lidar_hard]

    def center(pair, modality):
        return ref_world_to_grid(member_of(pair, modality).bev_center, grid.spec)

    camera = grid.copy()
    assert enhance_camera_grid(camera, easy, hard, proj) is camera
    assert np.array_equal(camera.data, ref_camera_enhance(grid, easy, hard, proj))
    addressed = {ref_round_cell(center(p, "camera"), grid.spec) for p in easy + hard}
    assert changed_cells(camera.data, grid.data) <= addressed

    lidar = grid.copy()
    assert enhance_lidar_grid(lidar, lidar_hard, proj) is lidar
    assert np.array_equal(lidar.data, ref_lidar_enhance(grid, lidar_hard, proj))
    addressed = {
        cell for p in lidar_hard for cell in ref_surrounding(center(p, "lidar"), grid.spec)
    }
    assert changed_cells(lidar.data, grid.data) <= addressed


@st.composite
def lidar_hard_scenes(draw):
    """A grid of 1 to 6 one-meter cells a side from the origin, 0 to 8 pairs and a seed.

    Each pair's LiDAR and camera centers lie in the window: on a quarter-cell
    lattice (cell centers, cell borders and the window edges), or anywhere.
    """
    h, w = draw(st.integers(1, 6)), draw(st.integers(1, 6))

    def position(n):
        return st.one_of(st.integers(0, 4 * n).map(lambda k: k / 4), st.floats(0.0, float(n)))

    points = st.tuples(position(w), position(h))
    pairs = draw(st.lists(st.tuples(points, points), max_size=8))
    return h, w, pairs, draw(st.integers(0, 2**32 - 1))


@pytest.mark.parametrize("gathered", [False, True], ids=["dense", "gathered"])
@given(scene=lidar_hard_scenes())
@settings(max_examples=100, deadline=None, derandomize=True, database=None)
def test_lidar_enhancement_equals_the_reference_on_dense_and_gathered_grids(gathered, scene):
    h, w, centers, seed = scene
    rng = np.random.default_rng(seed)
    # f32 values, which a grid file holds exactly.
    grid = BevGrid(GridSpec(h, w, 3, (0.0, float(w)), (0.0, float(h))),
                   rng.normal(size=(h, w, 3)).astype(np.float32))
    proj = Projection(rng.normal(size=(3, 3)), rng.normal(size=3))
    pairs = [lidar_hard_pair(lidar, camera, rng.normal(size=3), rng.normal(size=3))
             for lidar, camera in centers]
    expected = ref_lidar_enhance(grid, pairs, proj)
    if not gathered:
        assert np.array_equal(lidar_enhanced(grid, pairs, proj).data, expected)
        return
    # The grid as `fuse` holds it: the cells `gather_lidar` reads from the file,
    # and every row read back through `read_into`.
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "lidar.bevg"
        save_grid([(grid, path)])
        with path.open("rb") as f:
            lidar = gather_lidar(f, [p.anchor.proposal for p in pairs], PipelineConfig())
            assert enhance_lidar_grid(lidar, pairs, proj) is lidar
            rows = np.empty((h, w, 3), "<f4")
            for r in range(h):
                lidar.data.read_into(r, rows[r:r + 1])
    assert rows.tobytes() == expected.astype("<f4").tobytes()


class TestFuse:
    def test_channel_layout(self):
        rng = np.random.default_rng(15)
        spec_l = GridSpec(4, 4, 2, (0.0, 4.0), (0.0, 4.0))
        spec_c = GridSpec(4, 4, 3, (0.0, 4.0), (0.0, 4.0))
        lidar = BevGrid(spec_l, rng.normal(size=(4, 4, 2)))
        camera = BevGrid(spec_c, rng.normal(size=(4, 4, 3)))
        fused = fuse_grids(camera, lidar)
        assert fused.spec.channels == 5
        assert np.array_equal(fused.data[:, :, :2], lidar.data)
        assert np.array_equal(fused.data[:, :, 2:], camera.data)

    def test_zero_grids_fuse_to_zero(self):
        spec = GridSpec(3, 3, 2, (0.0, 3.0), (0.0, 3.0))
        fused = fuse_grids(BevGrid.zeros(spec), BevGrid.zeros(spec))
        assert not fused.data.any()

    def test_window_mismatch_rejected(self):
        a = BevGrid.zeros(GridSpec(4, 4, 2, (0.0, 4.0), (0.0, 4.0)))
        b = BevGrid.zeros(GridSpec(4, 4, 2, (0.0, 8.0), (0.0, 4.0)))
        with pytest.raises(ConfigurationError):
            fuse_grids(a, b)
