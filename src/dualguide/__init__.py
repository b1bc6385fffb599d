"""Dual-guided BEV feature fusion with hard-instance-aware pair matching.

The pipeline builds per-proposal instance features from camera and LiDAR
BEV grids, matches them into easy and hard cross-modal pairs, and uses each
pair type to additively enhance the grid of the modality that struggled
before channel-concatenating both grids. Stratified detection metrics, a
synthetic scene generator, binary grid/weight formats, and a CLI round out
the package. The package root exports the names the README example and
the benchmark import; everything else is imported from its module.
"""

from .config import PipelineConfig
from .errors import ConfigurationError, ContractError, DataFormatError
from .geometry import Box3D
from .grid import BevGrid, GridSpec
from .instances import Proposal
from .pipeline import camera_instances, run_fusion
from .synth import generate_scene, write_scene

__version__ = "0.1.0"
