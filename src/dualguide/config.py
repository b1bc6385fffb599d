"""Pipeline configuration with file loading and per-field overrides."""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

from .errors import ConfigurationError
from .formats import load_json
from .grid import GridSpec
from .instances import SAMPLING_STRATEGIES
from .losses import LossWeights
from .taxonomy import GROUPING_STRATEGIES


@dataclass(frozen=True)
class PipelineConfig:
    gamma: float = 0.7
    eta: float = 0.7
    lambdas: tuple[float, float, float, float] = (0.99, 1e-4, 1e-4, 1e-2)
    sampling_strategy: str = "center+boundary_mid"
    grouping_strategy: str = "cbgs_groups"
    height_cells: int = 180
    width_cells: int = 180
    x_range: tuple[float, float] = (-54.0, 54.0)
    y_range: tuple[float, float] = (-54.0, 54.0)
    camera_channels: int = 16
    lidar_channels: int = 24
    projection_seed: int = 0
    # Optional weight files; seeded initializers are used when unset.
    camera_squeeze_path: str | None = None
    lidar_squeeze_path: str | None = None
    excitation_path: str | None = None
    # Which camera grid the point-guided enhancement samples: the raw input
    # ("original") or the raw input plus the global context vector ("refined").
    camera_enhance_input: str = "original"

    def __post_init__(self) -> None:
        if not 0.0 <= self.gamma <= 1.0:
            raise ConfigurationError(f"gamma {self.gamma} outside [0, 1]")
        if not 0.0 <= self.eta <= 1.0:
            raise ConfigurationError(f"eta {self.eta} outside [0, 1]")
        if self.grouping_strategy not in GROUPING_STRATEGIES:
            raise ConfigurationError(f"unknown grouping strategy {self.grouping_strategy!r}")
        if self.sampling_strategy not in SAMPLING_STRATEGIES:
            raise ConfigurationError(f"unknown sampling strategy {self.sampling_strategy!r}")
        if self.camera_enhance_input not in ("original", "refined"):
            raise ConfigurationError(
                f"camera_enhance_input must be original|refined, "
                f"got {self.camera_enhance_input!r}"
            )
        if len(self.lambdas) != 4:
            raise ConfigurationError("lambdas must have exactly four entries")

    def camera_spec(self) -> GridSpec:
        return GridSpec(
            self.height_cells, self.width_cells, self.camera_channels,
            tuple(self.x_range), tuple(self.y_range),
        )

    def lidar_spec(self) -> GridSpec:
        return GridSpec(
            self.height_cells, self.width_cells, self.lidar_channels,
            tuple(self.x_range), tuple(self.y_range),
        )

    def loss_weights(self) -> LossWeights:
        l1, l2, l3, l4 = self.lambdas
        return LossWeights(l1, l2, l3, l4)


def config_from_dict(data: dict) -> PipelineConfig:
    known = {f for f in PipelineConfig.__dataclass_fields__}
    unknown = set(data) - known
    if unknown:
        raise ConfigurationError(f"unknown config keys: {sorted(unknown)}")
    kwargs = dict(data)
    for key in ("lambdas", "x_range", "y_range"):
        if key in kwargs:
            kwargs[key] = tuple(kwargs[key])
    return PipelineConfig(**kwargs)


def load_config(path: str | Path | None, **overrides) -> PipelineConfig:
    """Config from an optional JSON file, with non-None overrides applied."""
    config = config_from_dict(load_json(path)) if path else PipelineConfig()
    clean = {k: v for k, v in overrides.items() if v is not None}
    if clean:
        config = replace(config, **clean)
    return config
