"""Two-stage instance pair matching.

Stage 1 pairs LiDAR and camera instances whose footprints overlap strongly
(IoU >= eta, and IoU > 0 even at eta 0), greedily in descending IoU with
one-to-one assignment: these are the easy pairs. Stage 2 takes each
instance left unmatched and links it, by maximum feature dot product against
the matched instances of its own modality, to the cross-modal counterpart of
its most similar easy instance: these are the hard pairs, named for the
modality that struggled. A final class-group filter drops pairs whose two
classes are implausible partners.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError
from .geometry import overlap_ious
from .instances import InstanceFeature
from .taxonomy import same_group

PAIR_EASY = "easy"
PAIR_CAMERA_HARD = "camera_hard"
PAIR_LIDAR_HARD = "lidar_hard"


@dataclass(frozen=True)
class InstancePair:
    """anchor is the instance being enhanced, guide the one lending features.

    similarity is the footprint IoU for easy pairs and the raw-feature dot
    product for hard pairs.
    """

    anchor: InstanceFeature
    guide: InstanceFeature
    kind: str
    similarity: float
    anchor_idx: int = -1
    guide_idx: int = -1


@dataclass
class PairSets:
    easy: list[InstancePair] = field(default_factory=list)
    camera_hard: list[InstancePair] = field(default_factory=list)
    lidar_hard: list[InstancePair] = field(default_factory=list)
    unmatched_lidar: int = 0
    unmatched_camera: int = 0


def match_by_overlap(
    lidar: list[InstanceFeature],
    camera: list[InstanceFeature],
    eta: float,
) -> tuple[
    list[InstancePair],
    list[tuple[int, InstanceFeature]],
    list[tuple[int, InstanceFeature]],
    list[tuple[int, InstanceFeature]],
    list[tuple[int, InstanceFeature]],
]:
    """Stage 1: one-to-one easy pairs by greedy descending footprint IoU.

    The IoUs come from one `overlap_ious` call on the instances' proposal
    boxes. Returns (easy_pairs, unmatched_lidar, unmatched_camera,
    matched_lidar, matched_camera); the matched lists are index-aligned with
    the pair list, and every element carries its original instance-list
    index.
    """
    li, cj, ious = overlap_ious([x.proposal.box for x in lidar], [x.proposal.box for x in camera])
    candidates = [
        (iou, i, j)
        for iou, i, j in zip(ious.tolist(), li.tolist(), cj.tolist())
        if iou >= eta and iou > 0.0  # disjoint footprints never pair, even at eta 0
    ]

    candidates.sort(key=lambda t: (-t[0], t[1], t[2]))
    used_lidar: set[int] = set()
    used_camera: set[int] = set()
    pairs: list[InstancePair] = []
    matched_lidar: list[tuple[int, InstanceFeature]] = []
    matched_camera: list[tuple[int, InstanceFeature]] = []
    for iou, i, j in candidates:
        if i in used_lidar or j in used_camera:
            continue
        used_lidar.add(i)
        used_camera.add(j)
        pairs.append(
            InstancePair(lidar[i], camera[j], PAIR_EASY, iou, anchor_idx=i, guide_idx=j)
        )
        matched_lidar.append((i, lidar[i]))
        matched_camera.append((j, camera[j]))

    unmatched_lidar = [(i, inst) for i, inst in enumerate(lidar) if i not in used_lidar]
    unmatched_camera = [(j, inst) for j, inst in enumerate(camera) if j not in used_camera]
    return pairs, unmatched_lidar, unmatched_camera, matched_lidar, matched_camera


def match_by_similarity(
    unmatched: list[tuple[int, InstanceFeature]],
    matched_same_modality: list[tuple[int, InstanceFeature]],
    matched_counterpart: list[tuple[int, InstanceFeature]],
    kind: str,
) -> list[InstancePair]:
    """Stage 2: link each unmatched instance to its best easy counterpart.

    For every unmatched instance, the dot product of raw feature vectors is
    taken against each matched instance of the same modality; the counterpart
    of the arg-max (ties to the lowest index) becomes the guide. Empty inputs
    yield no pairs.
    """
    if not unmatched or not matched_same_modality:
        return []
    dim = matched_same_modality[0][1].raw.shape[0]
    for _, inst in unmatched:
        if inst.raw.shape[0] != dim:
            raise ConfigurationError(
                f"feature length {inst.raw.shape[0]} != {dim}; "
                "same-modality vectors must agree"
            )
    matched_mat = np.stack([inst.raw for _, inst in matched_same_modality])
    pairs: list[InstancePair] = []
    for idx, inst in unmatched:
        dots = matched_mat @ inst.raw
        t = int(np.argmax(dots))  # np.argmax already breaks ties low
        guide_idx, guide = matched_counterpart[t]
        pairs.append(
            InstancePair(inst, guide, kind, float(dots[t]), anchor_idx=idx, guide_idx=guide_idx)
        )
    return pairs


def filter_pairs_by_group(pairs: list[InstancePair], strategy: str) -> list[InstancePair]:
    """Keep pairs whose anchor and guide classes share a group; 'none' keeps all."""
    return [
        p
        for p in pairs
        if same_group(p.anchor.proposal.class_id, p.guide.proposal.class_id, strategy)
    ]


def match_pairs(
    lidar: list[InstanceFeature],
    camera: list[InstanceFeature],
    eta: float,
    grouping_strategy: str,
) -> PairSets:
    """Run both matching stages and the class-group filter.

    Camera-hard pairs link unmatched camera instances to easy LiDAR guides;
    lidar-hard pairs are the mirror image. The class filter runs after pair
    construction so it cannot shrink the stage-2 candidate pool.
    `PipelineConfig` checks eta and the grouping strategy.
    """
    easy, um_lidar, um_camera, m_lidar, m_camera = match_by_overlap(lidar, camera, eta)
    camera_hard = match_by_similarity(um_camera, m_camera, m_lidar, PAIR_CAMERA_HARD)
    lidar_hard = match_by_similarity(um_lidar, m_lidar, m_camera, PAIR_LIDAR_HARD)
    return PairSets(
        easy=filter_pairs_by_group(easy, grouping_strategy),
        camera_hard=filter_pairs_by_group(camera_hard, grouping_strategy),
        lidar_hard=filter_pairs_by_group(lidar_hard, grouping_strategy),
        unmatched_lidar=len(um_lidar),
        unmatched_camera=len(um_camera),
    )
