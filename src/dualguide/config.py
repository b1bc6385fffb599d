"""Pipeline configuration with file loading and per-field overrides."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from pathlib import Path

from .errors import ConfigurationError
from .formats import _finite, _integral, load_json
from .grid import GridSpec
from .instances import DEFAULT_STRATEGY, SAMPLING_STRATEGIES
from .taxonomy import GROUPING_STRATEGIES


@dataclass(frozen=True)
class PipelineConfig:
    gamma: float = 0.7
    eta: float = 0.7
    # Loss weights: head, LiDAR branch, camera branch, cosine.
    lambdas: tuple[float, float, float, float] = (0.99, 1e-4, 1e-4, 1e-2)
    sampling_strategy: str = DEFAULT_STRATEGY
    grouping_strategy: str = "cbgs_groups"
    height_cells: int = 180
    width_cells: int = 180
    x_range: tuple[float, float] = (-54.0, 54.0)
    y_range: tuple[float, float] = (-54.0, 54.0)
    # Grid depths `gen` writes; the pipeline reads depths from its grids.
    camera_channels: int = 16
    lidar_channels: int = 24
    # Optional weight files, read by the commands that apply them
    # (`pipeline.PROJECTIONS`); each is seeded when unset.
    camera_squeeze_path: str | None = None
    lidar_squeeze_path: str | None = None
    excitation_path: str | None = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.gamma <= 1.0:
            raise ConfigurationError(f"gamma {self.gamma} outside [0, 1]")
        if not 0.0 <= self.eta <= 1.0:
            raise ConfigurationError(f"eta {self.eta} outside [0, 1]")
        if self.grouping_strategy not in GROUPING_STRATEGIES:
            raise ConfigurationError(f"unknown grouping strategy {self.grouping_strategy!r}")
        if self.sampling_strategy not in SAMPLING_STRATEGIES:
            raise ConfigurationError(f"unknown sampling strategy {self.sampling_strategy!r}")
        if len(self.lambdas) != 4:
            raise ConfigurationError("lambdas must have exactly four entries")
        if not all(math.isfinite(v) and v >= 0 for v in self.lambdas):
            raise ConfigurationError(f"loss weights must be finite and >= 0, got {self.lambdas}")
        for key in ("height_cells", "width_cells", "camera_channels", "lidar_channels"):
            value = getattr(self, key)
            if value < 1:
                raise ConfigurationError(f"{key} {value} must be at least 1")
            if value > 2**32 - 1:  # a grid file header holds them as u32
                raise ConfigurationError(f"{key} {value} exceeds {2**32 - 1}")
        self.camera_spec(), self.lidar_spec()  # GridSpec checks the grid fields

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


def _checked(key: str, value):
    """`value` when it has the type of config field `key`, else ValueError.

    Each field's default gives its type: a tuple takes a list of that many
    finite numbers, a float a finite number, an int an integer, a string a
    string, and None (a weight path) a string or null.
    """
    default = getattr(PipelineConfig, key)
    if isinstance(default, tuple):
        if not isinstance(value, (list, tuple)) or len(value) != len(default):
            raise ValueError(f"{key} must be a list of {len(default)} numbers, got {value!r}")
        return tuple(_finite(f"{key}[{i}]", v) for i, v in enumerate(value))
    if isinstance(default, float):
        return _finite(key, value)
    if isinstance(default, int):
        return _integral(key, value)
    if not (isinstance(value, str) or (default is None and value is None)):
        kind = "a string or null" if default is None else "a string"
        raise ValueError(f"{key} must be {kind}, got {value!r}")
    return value


def config_from_dict(data: dict) -> PipelineConfig:
    if not isinstance(data, dict):
        raise ConfigurationError(f"config must be a JSON object, got {data!r}")
    known = {f for f in PipelineConfig.__dataclass_fields__}
    unknown = set(data) - known
    if unknown:
        raise ConfigurationError(f"unknown config keys: {sorted(unknown)}")
    try:
        kwargs = {key: _checked(key, value) for key, value in data.items()}
    except ValueError as exc:
        raise ConfigurationError(str(exc)) from exc
    return PipelineConfig(**kwargs)


def load_config(path: str | Path | None, **overrides) -> PipelineConfig:
    """Config from an optional JSON file, with non-None overrides applied.

    An error in the file's values raises ConfigurationError naming the file.
    """
    config = PipelineConfig()
    if path:
        try:
            config = config_from_dict(load_json(path))
        except ConfigurationError as exc:
            raise ConfigurationError(f"{path}: {exc}") from exc
    clean = {k: v for k, v in overrides.items() if v is not None}
    if clean:
        config = replace(config, **clean)
    return config
