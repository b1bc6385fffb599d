"""Loss component values and the composite with its running-maximum fallback."""

import math

import numpy as np
import pytest

from dualguide.config import PipelineConfig
from dualguide.enhance import Projection
from dualguide.errors import ConfigurationError, ContractError
from dualguide.geometry import Box3D
from dualguide.instances import InstanceFeature, Proposal
from dualguide.losses import (
    composite_loss,
    focal_loss,
    l1_loss,
    pair_cosine_loss,
)
from dualguide.matching import PAIR_EASY, InstancePair


def identity(n):
    return Projection(np.eye(n), np.zeros(n))


def easy_pair(lidar_raw, camera_raw):
    def inst(modality, raw):
        prop = Proposal(Box3D((0, 0, 0), (1, 1, 1), 0.0), 0.9, 0, modality)
        return InstanceFeature(prop, np.asarray(raw, dtype=np.float64))

    return InstancePair(inst("lidar", lidar_raw), inst("camera", camera_raw), PAIR_EASY, 0.9)


class TestFocalLoss:
    def test_perfect_prediction_near_zero(self):
        pred = np.array([1.0, 1.0, 0.0, 0.0])
        target = np.array([1.0, 1.0, 0.0, 0.0])
        assert focal_loss(pred, target) <= 1e-5

    def test_half_probability_closed_form(self):
        pred = np.full(16, 0.5)
        target = (np.arange(16) % 2).astype(float)
        expected = 0.25 * 0.25 * math.log(2.0)
        assert focal_loss(pred, target) == pytest.approx(expected, rel=1e-12)

    def test_matches_elementwise_loop(self):
        rng = np.random.default_rng(0)
        pred = rng.uniform(0.01, 0.99, size=20)
        target = (rng.uniform(size=20) > 0.5).astype(float)
        alpha, gamma_f = 0.4, 1.5
        total = 0.0
        for p, t in zip(pred, target):
            p_t = p if t == 1 else 1.0 - p
            total += -alpha * (1.0 - p_t) ** gamma_f * math.log(p_t)
        assert focal_loss(pred, target, alpha, gamma_f) == pytest.approx(total / 20, rel=1e-12)

    def test_zero_focusing_reduces_to_weighted_ce(self):
        rng = np.random.default_rng(1)
        pred = rng.uniform(0.05, 0.95, size=50)
        target = (rng.uniform(size=50) > 0.5).astype(float)
        p_t = np.where(target == 1, pred, 1.0 - pred)
        expected = 0.25 * float(np.mean(-np.log(p_t)))
        assert abs(focal_loss(pred, target, 0.25, 0.0) - expected) <= 1e-12

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ContractError):
            focal_loss(np.zeros(3), np.zeros(4))


class TestL1Loss:
    def test_identical_arrays(self):
        x = np.arange(10.0)
        assert l1_loss(x, x) == 0.0

    def test_constant_offset(self):
        x = np.arange(10.0)
        assert l1_loss(x + 2.5, x) == pytest.approx(2.5)
        assert l1_loss(x - 2.5, x) == pytest.approx(2.5)

    def test_matches_loop(self):
        rng = np.random.default_rng(2)
        pred = rng.normal(size=30)
        target = rng.normal(size=30)
        expected = sum(abs(a - b) for a, b in zip(pred, target)) / 30
        assert l1_loss(pred, target) == pytest.approx(expected, rel=1e-12)


class TestPairCosineLoss:
    def test_identical_vectors_zero(self):
        pairs = [easy_pair([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) for _ in range(4)]
        proj = identity(3)
        assert pair_cosine_loss(pairs, proj, proj) == pytest.approx(0.0, abs=1e-12)

    def test_orthogonal_vectors_one(self):
        pairs = [easy_pair([1.0, 0.0], [0.0, 1.0]), easy_pair([0.0, 2.0], [3.0, 0.0])]
        proj = identity(2)
        assert pair_cosine_loss(pairs, proj, proj) == pytest.approx(1.0, abs=1e-12)

    def test_antiparallel_vectors_two(self):
        pairs = [easy_pair([1.0, 1.0], [-2.0, -2.0])]
        proj = identity(2)
        assert pair_cosine_loss(pairs, proj, proj) == pytest.approx(2.0, abs=1e-12)

    def test_scale_invariance(self):
        rng = np.random.default_rng(3)
        base = [easy_pair(rng.normal(size=3), rng.normal(size=3)) for _ in range(5)]
        proj = identity(3)
        reference = pair_cosine_loss(base, proj, proj)
        scaled = [
            easy_pair(np.asarray(p.anchor.raw) * 7.3, np.asarray(p.guide.raw) * 0.2)
            for p in base
        ]
        assert pair_cosine_loss(scaled, proj, proj) == pytest.approx(reference, abs=1e-9)

    def test_range(self):
        rng = np.random.default_rng(4)
        proj = identity(4)
        for _ in range(50):
            pairs = [
                easy_pair(rng.normal(size=4), rng.normal(size=4)) for _ in range(3)
            ]
            value = pair_cosine_loss(pairs, proj, proj)
            assert 0.0 <= value <= 2.0

    def test_distinct_projections_per_modality(self):
        # LiDAR raw is 4 long, camera raw 2 long; each side gets its own map.
        lidar_proj = Projection(np.array([[1.0, 0, 0, 0], [0, 1.0, 0, 0]]), np.zeros(2))
        camera_proj = identity(2)
        pair = easy_pair([1.0, 0.0, 9.0, 9.0], [1.0, 0.0])
        assert pair_cosine_loss([pair], lidar_proj, camera_proj) == pytest.approx(0.0, abs=1e-12)

    def test_empty_returns_none(self):
        assert pair_cosine_loss([], identity(2), identity(2)) is None

    def test_zero_norm_excluded(self, caplog):
        proj = identity(2)
        pairs = [easy_pair([0.0, 0.0], [1.0, 0.0]), easy_pair([1.0, 0.0], [1.0, 0.0])]
        with caplog.at_level("WARNING"):
            value = pair_cosine_loss(pairs, proj, proj)
        assert value == pytest.approx(0.0, abs=1e-12)
        assert any("zero-norm" in r.message for r in caplog.records)


class TestCompositeLoss:
    def test_unit_components_with_default_weights(self):
        total, _ = composite_loss(1.0, 1.0, 1.0, 1.0, PipelineConfig().lambdas)
        assert total == 1.0002

    def test_empty_with_fresh_history_drops_cosine(self):
        lambdas = PipelineConfig().lambdas
        total, history_max = composite_loss(1.0, 1.0, 1.0, None, lambdas)
        assert total == lambdas[0] + lambdas[1] + lambdas[2]
        assert history_max == 0.0

    def test_three_batch_running_maximum(self):
        lambdas = (0.0, 0.0, 0.0, 1.0)  # isolate the cosine term
        history_max = 0.0
        used = []
        for cos in (0.4, None, 0.1):
            total, history_max = composite_loss(0, 0, 0, cos, lambdas, history_max)
            used.append(total)
        assert used == pytest.approx([0.4, 0.4, 0.1])
        assert history_max == pytest.approx(0.4)

    def test_linear_in_each_component(self):
        lambdas = (0.7, 0.2, 0.05, 0.01)
        base, _ = composite_loss(1.0, 2.0, 3.0, 4.0, lambdas)
        bumped, _ = composite_loss(2.0, 2.0, 3.0, 4.0, lambdas)
        assert bumped - base == pytest.approx(lambdas[0], abs=1e-15)
        bumped, _ = composite_loss(1.0, 3.0, 3.0, 4.0, lambdas)
        assert bumped - base == pytest.approx(lambdas[1], abs=1e-15)

    def test_history_never_decreases(self):
        rng = np.random.default_rng(5)
        history_max = 0.0
        prev = 0.0
        for _ in range(100):
            cos = float(rng.uniform(0, 2)) if rng.uniform() > 0.3 else None
            _, history_max = composite_loss(0, 0, 0, cos, PipelineConfig().lambdas, history_max)
            assert history_max >= prev
            prev = history_max

    def test_negative_weights_rejected(self):
        with pytest.raises(ConfigurationError, match="loss weights must be finite and >= 0"):
            PipelineConfig(lambdas=(-0.1, 0, 0, 0))
