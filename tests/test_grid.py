"""Grid container, coordinate transforms, sampling, and context refinement."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from dualguide.errors import ConfigurationError
from dualguide.grid import (
    BevGrid,
    GridSpec,
    bilinear_sample,
    global_context_refine,
    grid_to_world,
    world_to_grid,
)

from test_enhance import ref_bilinear


def small_spec(h=6, w=8, c=3):
    return GridSpec(h, w, c, x_range=(0.0, float(w)), y_range=(0.0, float(h)))


# Fractional, exact-integer and out-of-window coordinates.
sample_coords = st.one_of(
    st.floats(-20.0, 20.0, allow_nan=False), st.integers(-3, 7).map(float)
)


@st.composite
def grids_and_points(draw):
    """A grid of 1 to 4 rows and columns and up to 12 (row, col) points."""
    h, w, c = draw(st.integers(1, 4)), draw(st.integers(1, 4)), draw(st.integers(1, 3))
    data = draw(hnp.arrays(np.float64, (h, w, c), elements=st.floats(-1e3, 1e3)))
    points = draw(st.lists(st.tuples(sample_coords, sample_coords), max_size=12))
    return BevGrid(small_spec(h, w, c), data), points


class TestGridSpec:
    def test_rejects_bad_dimensions(self):
        with pytest.raises(ConfigurationError):
            GridSpec(0, 4, 2)
        with pytest.raises(ConfigurationError):
            GridSpec(4, 4, 2, x_range=(1.0, 1.0))

    def test_cell_sizes(self):
        spec = GridSpec(180, 180, 2, (-54.0, 54.0), (-54.0, 54.0))
        assert spec.cell_size_x == pytest.approx(0.6)
        assert spec.cell_size_y == pytest.approx(0.6)

    def test_grid_shape_enforced(self):
        spec = small_spec()
        with pytest.raises(ConfigurationError):
            BevGrid(spec, np.zeros((6, 8, 4)))


class TestWorldToGrid:
    def test_first_cell_center_maps_to_origin(self):
        spec = small_spec()
        point = (0.5 * spec.cell_size_x, 0.5 * spec.cell_size_y)
        assert world_to_grid(point, spec) == pytest.approx((0.0, 0.0))

    def test_window_center_on_default_grid(self):
        spec = GridSpec(180, 180, 1, (-54.0, 54.0), (-54.0, 54.0))
        assert world_to_grid((0.0, 0.0), spec) == pytest.approx((89.5, 89.5))

    def test_window_max_lands_outside_sample_domain(self):
        spec = small_spec()
        row, col = world_to_grid((spec.x_range[1], spec.y_range[1]), spec)
        assert (row, col) == pytest.approx((spec.height_cells - 0.5, spec.width_cells - 0.5))
        assert row > spec.height_cells - 1 and col > spec.width_cells - 1

    def test_roundtrip_in_window(self):
        spec = GridSpec(180, 180, 1, (-54.0, 54.0), (-54.0, 54.0))
        rng = np.random.default_rng(7)
        for _ in range(200):
            x = rng.uniform(*spec.x_range)
            y = rng.uniform(*spec.y_range)
            x2, y2 = grid_to_world(world_to_grid((x, y), spec), spec)
            assert abs(x2 - x) <= 1e-9 and abs(y2 - y) <= 1e-9


class TestBilinearSample:
    def test_lattice_point_is_exact(self):
        spec = small_spec()
        rng = np.random.default_rng(0)
        grid = BevGrid(spec, rng.normal(size=(6, 8, 3)))
        assert np.array_equal(bilinear_sample(grid, (3.0, 7.0)), grid.data[3, 7])

    def test_midpoint_symmetry(self):
        spec = GridSpec(2, 2, 1, (0.0, 2.0), (0.0, 2.0))
        grid = BevGrid(spec, np.array([[[0.0], [0.0]], [[1.0], [1.0]]]))
        assert bilinear_sample(grid, (0.5, 0.5))[0] == pytest.approx(0.5)

    def test_affine_fields_reproduced_exactly(self):
        spec = small_spec(c=2)
        rows, cols = np.meshgrid(np.arange(6.0), np.arange(8.0), indexing="ij")
        data = np.stack([cols, 2.0 * rows - 3.0 * cols + 1.0], axis=2)
        grid = BevGrid(spec, data)
        rng = np.random.default_rng(1)
        for _ in range(1000):
            r = rng.uniform(0, 5)
            c = rng.uniform(0, 7)
            got = bilinear_sample(grid, (r, c))
            assert abs(got[0] - c) <= 1e-12
            assert abs(got[1] - (2.0 * r - 3.0 * c + 1.0)) <= 1e-12

    def test_ramp_column_sample(self):
        spec = small_spec(c=1)
        cols = np.tile(np.arange(8.0), (6, 1))[:, :, None]
        grid = BevGrid(spec, cols)
        for k in range(6):
            assert bilinear_sample(grid, (float(k), 2.3))[0] == pytest.approx(2.3, abs=1e-12)

    def test_output_is_convex_combination(self):
        spec = small_spec()
        rng = np.random.default_rng(2)
        grid = BevGrid(spec, rng.normal(size=(6, 8, 3)))
        for _ in range(300):
            r = rng.uniform(-1, 7)
            c = rng.uniform(-1, 9)
            rc = min(max(r, 0.0), 5.0)
            cc = min(max(c, 0.0), 7.0)
            r0, c0 = int(np.floor(rc)), int(np.floor(cc))
            r1, c1 = min(r0 + 1, 5), min(c0 + 1, 7)
            corners = grid.data[[r0, r0, r1, r1], [c0, c1, c0, c1]]
            got = bilinear_sample(grid, (r, c))
            assert np.all(got >= corners.min(axis=0) - 1e-12)
            assert np.all(got <= corners.max(axis=0) + 1e-12)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(grids_and_points())
    def test_arrays_bit_identical_to_scalar_reference(self, grid_points):
        grid, points = grid_points
        rows = np.array([p[0] for p in points], dtype=np.float64)
        cols = np.array([p[1] for p in points], dtype=np.float64)
        expected = [ref_bilinear(grid.data, grid.spec, p) for p in points]
        got = bilinear_sample(grid, (rows, cols))
        assert got.shape == (len(points), grid.spec.channels)
        for k, ref in enumerate(expected):
            assert got[k].tobytes() == ref.tobytes()
        # Any coordinate shape: (n, 1) in, (n, 1, C) out, same values.
        column = bilinear_sample(grid, (rows[:, None], cols[:, None]))
        assert column.tobytes() == got.tobytes()
        for p, ref in zip(points, expected):
            assert bilinear_sample(grid, p).tobytes() == ref.tobytes()

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(grids_and_points(), st.data())
    def test_offset_bit_identical_to_sampling_the_shifted_grid(self, grid_points, data):
        grid, points = grid_points
        offset = data.draw(
            hnp.arrays(np.float64, grid.spec.channels, elements=st.floats(-1e3, 1e3))
        )
        coord = (
            np.array([p[0] for p in points], dtype=np.float64),
            np.array([p[1] for p in points], dtype=np.float64),
        )
        shifted = BevGrid(grid.spec, grid.data + offset)
        got = bilinear_sample(grid, coord, offset)
        assert got.tobytes() == bilinear_sample(shifted, coord).tobytes()

    def test_no_offset_keeps_a_stored_negative_zero(self):
        grid = BevGrid(small_spec(1, 1, 1), np.array([[[-0.0]]]))
        assert np.signbit(bilinear_sample(grid, (0.0, 0.0))[0])
        assert not np.signbit(bilinear_sample(grid, (0.0, 0.0), np.zeros(1))[0])

    def test_out_of_range_clamps_to_border(self):
        spec = small_spec()
        rng = np.random.default_rng(3)
        grid = BevGrid(spec, rng.normal(size=(6, 8, 3)))
        assert np.array_equal(bilinear_sample(grid, (-5.0, -5.0)), grid.data[0, 0])
        assert np.array_equal(bilinear_sample(grid, (50.0, 50.0)), grid.data[5, 7])


class TestGlobalContextRefine:
    def test_zero_value_projection_is_identity(self):
        spec = small_spec()
        rng = np.random.default_rng(5)
        grid = BevGrid(spec, rng.normal(size=(6, 8, 3)))
        context = global_context_refine(grid, np.zeros((3, 3)), rng.normal(size=3))
        assert np.array_equal(grid.data + context, grid.data)

    def test_single_position_identity_value_doubles(self):
        spec = GridSpec(1, 1, 3, (0.0, 1.0), (0.0, 1.0))
        grid = BevGrid(spec, np.array([[[1.0, -2.0, 0.5]]]))
        context = global_context_refine(grid, np.eye(3), np.array([0.3, -0.1, 2.0]))
        assert np.allclose(grid.data + context, 2.0 * grid.data, atol=1e-12)

    def test_matches_explicit_loop_reference(self):
        spec = GridSpec(2, 2, 3, (0.0, 2.0), (0.0, 2.0))
        rng = np.random.default_rng(6)
        grid = BevGrid(spec, rng.normal(size=(2, 2, 3)))
        value_proj, key_proj = rng.normal(size=(3, 3)), rng.normal(size=3)

        # Independent reference: explicit loops over every position.
        logits = []
        for r in range(2):
            for c in range(2):
                logits.append(float(np.dot(key_proj, grid.data[r, c])))
        exp = np.exp(np.array(logits) - max(logits))
        attn = exp / exp.sum()
        context = np.zeros(3)
        for p, (r, c) in enumerate([(0, 0), (0, 1), (1, 0), (1, 1)]):
            context += attn[p] * (value_proj @ grid.data[r, c])
        expected = grid.data + context

        context = global_context_refine(grid, value_proj, key_proj)
        assert np.allclose(grid.data + context, expected, atol=1e-10)
        assert context.shape == (3,)

    def test_dimension_mismatch_rejected(self):
        spec = small_spec()
        grid = BevGrid.zeros(spec)
        with pytest.raises(ConfigurationError, match=r"\(4, 4\) and \(4,\) do not fit 3 channels"):
            global_context_refine(grid, np.eye(4), np.zeros(4))

