"""Score filtering and key-point instance feature extraction."""

import logging
import math

import numpy as np
import pytest

from dualguide.errors import ConfigurationError
from dualguide.geometry import Box3D
from dualguide.grid import BevGrid, GridSpec, bilinear_sample, world_to_grid
from dualguide.instances import (
    SAMPLES_PER_STRATEGY,
    SAMPLING_STRATEGIES,
    Proposal,
    build_instances,
    filter_by_score,
)

from test_geometry import oracle_strategy_points


def make_spec(c=3):
    return GridSpec(10, 10, c, x_range=(0.0, 10.0), y_range=(0.0, 10.0))


def make_proposal(x=5.0, y=5.0, score=0.9, class_id=0, modality="camera", w=2.0, l=3.0, yaw=0.0):
    return Proposal(Box3D((x, y, 1.0), (w, l, 2.0), yaw), score, class_id, modality)


class TestScoreFilter:
    def test_boundary_score_kept(self):
        proposals = [make_proposal(score=s) for s in (0.6, 0.7, 0.9)]
        kept = filter_by_score(proposals, 0.7)
        assert [p.score for p in kept] == [0.7, 0.9]

    def test_zero_threshold_keeps_all(self):
        proposals = [make_proposal(score=s) for s in (0.0, 0.5, 1.0)]
        assert filter_by_score(proposals, 0.0) == proposals

    def test_threshold_one_keeps_only_perfect(self):
        proposals = [make_proposal(score=s) for s in (0.999, 1.0)]
        assert [p.score for p in filter_by_score(proposals, 1.0)] == [1.0]


def extract_one(grid, proposal, strategy="center+boundary_mid"):
    """The instance of one proposal, or None when it is skipped."""
    insts = build_instances(grid, [proposal], gamma=0.0, strategy=strategy)
    return insts[0] if insts else None


def reference_sample(grid, point):
    """Scalar bilinear sample at a world point, weights summed in the kernel's order."""
    spec = grid.spec
    h, w = spec.height_cells, spec.width_cells
    r = (point[1] - spec.y_range[0]) / spec.cell_size_y - 0.5
    c = (point[0] - spec.x_range[0]) / spec.cell_size_x - 0.5
    r = min(max(r, 0.0), float(h - 1))
    c = min(max(c, 0.0), float(w - 1))
    r0, c0 = min(int(math.floor(r)), h - 2), min(int(math.floor(c)), w - 2)
    fr, fc = r - r0, c - c0
    out = np.zeros(spec.channels)
    for dr, dc, wgt in (
        (0, 0, (1 - fr) * (1 - fc)),
        (0, 1, (1 - fr) * fc),
        (1, 0, fr * (1 - fc)),
        (1, 1, fr * fc),
    ):
        out += wgt * grid.data[r0 + dr, c0 + dc]
    return out


class TestExtractInstance:
    def test_feature_length_per_strategy(self):
        grid = BevGrid.zeros(make_spec())
        for strategy in SAMPLING_STRATEGIES:
            inst = extract_one(grid, make_proposal(), strategy)
            assert inst.raw.shape == (3 * SAMPLES_PER_STRATEGY[strategy],)

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown sampling strategy 'corners_only'"):
            build_instances(BevGrid.zeros(make_spec()), [make_proposal()], 0.0, "corners_only")

    def test_constant_grid_repeats_value(self):
        spec = make_spec()
        grid = BevGrid(spec, np.full((10, 10, 3), 2.5))
        inst = extract_one(grid, make_proposal(), "center+boundary_mid")
        assert inst is not None
        assert inst.raw.shape == (15,)
        assert np.allclose(inst.raw, 2.5)

    def test_ramp_field_gives_analytic_columns(self):
        spec = make_spec(c=1)
        cols = np.tile(np.arange(10.0), (10, 1))[:, :, None]
        grid = BevGrid(spec, cols)
        # Axis-aligned box at (5, 5): key points at x = 5, 5, 5, 4, 6.
        inst = extract_one(grid, make_proposal(), "center+boundary_mid")
        # column = x - 0.5 under this window (cell size 1, origin 0)
        assert np.allclose(inst.raw, [4.5, 4.5, 4.5, 3.5, 5.5], atol=1e-12)

    @pytest.mark.parametrize("strategy", SAMPLING_STRATEGIES)
    def test_matches_per_point_reference(self, strategy):
        rng = np.random.default_rng(0)
        spec = make_spec()
        grid = BevGrid(spec, rng.normal(size=(10, 10, 3)))
        proposals = [make_proposal(x=4.2, y=6.1, yaw=0.7, w=1.8, l=3.1)]
        # Boxes near and across the window edge, whose key points clamp.
        for _ in range(30):
            x, y = rng.uniform(0.0, 10.0, size=2)
            w, l = rng.uniform(0.3, 6.0, size=2)
            proposals.append(make_proposal(x=x, y=y, w=w, l=l, yaw=rng.uniform(-3, 3)))
        insts = build_instances(grid, proposals, 0.0, strategy)
        assert len(insts) == len(proposals)
        for inst, prop in zip(insts, proposals):
            points = oracle_strategy_points(prop.box, strategy)
            expected = np.concatenate([reference_sample(grid, p) for p in points])
            assert np.array_equal(inst.raw, expected)

    def test_repeated_extraction_bit_identical(self):
        rng = np.random.default_rng(1)
        grid = BevGrid(make_spec(), rng.normal(size=(10, 10, 3)))
        prop = make_proposal(x=3.3, y=7.7, yaw=-0.9)
        a = extract_one(grid, prop)
        b = extract_one(grid, prop)
        assert np.array_equal(a.raw, b.raw)

    def test_center_outside_window_skipped(self, caplog):
        grid = BevGrid.zeros(make_spec())
        with caplog.at_level(logging.INFO, logger="dualguide.instances"):
            assert extract_one(grid, make_proposal(x=11.0)) is None
        assert "camera proposal with center (11.00, 5.00) outside grid window" in caplog.text

    def test_center_only_equals_bilinear_at_center(self):
        rng = np.random.default_rng(2)
        grid = BevGrid(make_spec(), rng.normal(size=(10, 10, 3)))
        prop = make_proposal(x=2.7, y=8.1)
        inst = extract_one(grid, prop, "center")
        expected = bilinear_sample(grid, world_to_grid((2.7, 8.1), grid.spec))
        assert np.array_equal(inst.raw, expected)


class TestBuildInstances:
    def test_empty_input(self):
        assert build_instances(BevGrid.zeros(make_spec()), [], 0.7) == []

    def test_all_below_threshold(self):
        grid = BevGrid.zeros(make_spec())
        proposals = [make_proposal(score=0.2), make_proposal(x=2.0, score=0.5)]
        assert build_instances(grid, proposals, 0.7) == []

    def test_survivors_in_input_order(self):
        grid = BevGrid.zeros(make_spec())
        proposals = [
            make_proposal(x=1.0, score=0.9),
            make_proposal(x=2.0, score=0.1),
            make_proposal(x=3.0, score=0.8),
            make_proposal(x=4.0, score=0.75),
        ]
        insts = build_instances(grid, proposals, 0.7)
        assert [i.proposal.box.center[0] for i in insts] == [1.0, 3.0, 4.0]

    def test_count_matches_filter_and_window(self):
        rng = np.random.default_rng(3)
        grid = BevGrid(make_spec(), rng.normal(size=(10, 10, 3)))
        proposals = []
        for _ in range(50):
            x, y = rng.uniform(-2, 12, size=2)
            proposals.append(
                make_proposal(x=x, y=y, score=float(rng.uniform(0, 1)))
            )
        gamma = 0.6
        expected = sum(
            1
            for p in proposals
            if p.score >= gamma and grid.spec.contains(p.box.center[0], p.box.center[1])
        )
        assert len(build_instances(grid, proposals, gamma)) == expected

    def test_mixed_modalities_rejected(self):
        grid = BevGrid.zeros(make_spec())
        proposals = [make_proposal(modality="camera"), make_proposal(x=2.0, modality="lidar")]
        with pytest.raises(ConfigurationError):
            build_instances(grid, proposals, 0.0)
