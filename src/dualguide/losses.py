"""Forward loss values: focal, L1, pair cosine alignment, and their weighted sum.

No gradients are produced anywhere; these are reporting/diagnostic values.
The composite loss carries a running maximum of the cosine term so batches
with no easy pairs can substitute the worst alignment seen so far instead
of silently contributing zero.
"""

from __future__ import annotations

import logging

import numpy as np

from .enhance import Projection, member_of
from .errors import ContractError
from .matching import InstancePair

log = logging.getLogger(__name__)

PROB_CLAMP = 1e-7


def focal_loss(
    pred_prob: np.ndarray,
    target: np.ndarray,
    alpha: float = 0.25,
    gamma_f: float = 2.0,
) -> float:
    """Mean of -alpha * (1 - p_t)^gamma_f * log(p_t) over all elements.

    p_t is the probability assigned to the true class of each element;
    probabilities are clamped to [1e-7, 1 - 1e-7] before the log.
    """
    pred = np.asarray(pred_prob, dtype=np.float64)
    tgt = np.asarray(target, dtype=np.float64)
    if pred.shape != tgt.shape:
        raise ContractError(f"shape mismatch: {pred.shape} vs {tgt.shape}")
    pred = np.clip(pred, PROB_CLAMP, 1.0 - PROB_CLAMP)
    p_t = np.where(tgt == 1, pred, 1.0 - pred)
    return float(np.mean(-alpha * (1.0 - p_t) ** gamma_f * np.log(p_t)))


def l1_loss(pred: np.ndarray, target: np.ndarray) -> float:
    """Mean absolute difference."""
    pred = np.asarray(pred, dtype=np.float64)
    tgt = np.asarray(target, dtype=np.float64)
    if pred.shape != tgt.shape:
        raise ContractError(f"shape mismatch: {pred.shape} vs {tgt.shape}")
    return float(np.mean(np.abs(pred - tgt)))


def pair_cosine_loss(
    pairs: list[InstancePair],
    lidar_proj: Projection,
    camera_proj: Projection,
) -> float | None:
    """Mean (1 - cosine similarity) over easy pairs, in [0, 2].

    Both members are projected to the common channel dimension first, each
    by its modality's projection.
    Zero-norm projected vectors are excluded with a warning. Returns None for
    an empty pair list so the composite loss can substitute its running
    maximum.
    """
    if not pairs:
        return None
    total = 0.0
    count = 0
    for pair in pairs:
        a = lidar_proj.apply(member_of(pair, "lidar").raw)
        b = camera_proj.apply(member_of(pair, "camera").raw)
        na = float(np.linalg.norm(a))
        nb = float(np.linalg.norm(b))
        if na == 0.0 or nb == 0.0:
            log.warning("excluding pair with zero-norm projected feature from cosine loss")
            continue
        total += 1.0 - float(np.dot(a, b)) / (na * nb)
        count += 1
    if count == 0:
        return None
    return total / count


def composite_loss(
    l_head: float,
    l_lidar: float,
    l_camera: float,
    cos_result: float | None,
    lambdas: tuple[float, float, float, float],
    history_max: float = 0.0,
) -> tuple[float, float]:
    """Weighted sum of the four components and the new running maximum.

    `lambdas` weighs (head, lidar, camera, cosine). When cos_result is a
    value, it is used directly and raises the running maximum; when it is
    None (no easy pairs this batch), `history_max` stands in and is kept.
    """
    l_cos = history_max if cos_result is None else cos_result
    head, lidar, camera, cosine = lambdas
    total = head * l_head + lidar * l_lidar + camera * l_camera + cosine * l_cos
    return total, max(history_max, l_cos)
