"""Dual-guided BEV feature fusion with hard-instance-aware pair matching.

The pipeline builds per-proposal instance features from camera and LiDAR
BEV grids, matches them into easy and hard cross-modal pairs, and uses each
pair type to additively enhance the grid of the modality that struggled
before channel-concatenating both grids. Stratified detection metrics, a
synthetic scene generator, binary grid/weight formats, and a CLI round out
the package.
"""

from .config import PipelineConfig, load_config
from .enhance import (
    Projection,
    enhance_camera_grid,
    enhance_lidar_grid,
    fuse_grids,
)
from .errors import ConfigurationError, ContractError, DataFormatError
from .geometry import (
    Box3D,
    RotatedRect,
    center_distance_bev,
    points_in_box,
    project_to_bev,
    volume,
)
from .grid import (
    BevGrid,
    ContextWeights,
    GridSpec,
    bilinear_sample,
    global_context_refine,
    grid_to_world,
    surrounding_cells,
    world_to_grid,
)
from .instances import (
    InstanceFeature,
    Proposal,
    build_instances,
)
from .losses import (
    LossWeights,
    RunningMax,
    composite_loss,
    focal_loss,
    l1_loss,
    pair_cosine_loss,
)
from .matching import InstancePair, MatchConfig, PairSets, match_pairs
from .metrics import (
    Annotation,
    Detection,
    recall_at_iou,
    stratified_eval,
    visibility_histogram,
)
from .pipeline import run_fusion
from .synth import Scene, energy_peak_detections, generate_scene, load_scene, write_scene

__version__ = "0.1.0"
