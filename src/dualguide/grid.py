"""BEV feature grids: metric window, coordinate transforms, sampling, refinement.

A grid covers a rectangular ground-plane window with H x W cells of C
channels each. Grid coordinates are (row, col) with integer coordinates at
cell centers: row 0 is centered half a cell above y_range.min, so the map
from world meters to fractional grid coordinates carries a -0.5 shift.
Rows follow y, columns follow x.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field, replace
from typing import Protocol

import numpy as np

from .errors import ConfigurationError, ContractError


@dataclass(frozen=True)
class GridSpec:
    """Geometry of a BEV window: cell counts, channels, and metric extents."""

    height_cells: int
    width_cells: int
    channels: int
    x_range: tuple[float, float] = (-54.0, 54.0)
    y_range: tuple[float, float] = (-54.0, 54.0)

    def __post_init__(self) -> None:
        if self.height_cells <= 0 or self.width_cells <= 0 or self.channels <= 0:
            raise ConfigurationError("grid dimensions must be positive")
        if not all(map(math.isfinite, (*self.x_range, *self.y_range))):
            raise ConfigurationError(
                f"grid window must be finite, got x {self.x_range}, y {self.y_range}"
            )
        if self.x_range[0] >= self.x_range[1] or self.y_range[0] >= self.y_range[1]:
            raise ConfigurationError("grid window must have positive extent")

    @property
    def cell_size_x(self) -> float:
        return (self.x_range[1] - self.x_range[0]) / self.width_cells

    @property
    def cell_size_y(self) -> float:
        return (self.y_range[1] - self.y_range[0]) / self.height_cells

    def contains(self, x: float, y: float) -> bool:
        """Whether a world point lies inside the window (boundaries inclusive)."""
        return (
            self.x_range[0] <= x <= self.x_range[1]
            and self.y_range[0] <= y <= self.y_range[1]
        )

    def same_window(self, other: "GridSpec") -> bool:
        return (
            self.height_cells == other.height_cells
            and self.width_cells == other.width_cells
            and self.x_range == other.x_range
            and self.y_range == other.y_range
        )


def concat_spec(specs: Sequence[GridSpec]) -> GridSpec:
    """The spec of the channel concatenation of grids over one window, in order."""
    if not all(spec.same_window(specs[0]) for spec in specs):
        raise ConfigurationError(f"grids cover different windows: {list(specs)}")
    return replace(specs[0], channels=sum(spec.channels for spec in specs))


class RowSource(Protocol):
    """A grid read in float32 rows: `GatheredCells`, `synth.RenderedRows`, `formats.GridFile`."""

    shape: tuple[int, int, int]

    def read_into(self, first_row: int, out: np.ndarray) -> None: ...


@dataclass
class GatheredCells:
    """Some cells of an H x W x C grid, held without the grid.

    `cells[rows, cols]`, for integer arrays, reads the gathered cells as the
    grid's array would: a new float64 array of shape (N, C), and
    `cells[rows, cols] = values` writes them. Reading or writing a cell that
    was not gathered raises ContractError. As a `BevGrid`'s data it is a row
    source: `read_into` reads whole rows in float32 through
    `read_rows(first_row, out)`, with the gathered cells rounded in (an
    unwritten one rounds back to its file bits), and `formats.save_grid`
    makes the grid's f32 rows so, once per block.
    """

    shape: tuple[int, int, int]
    slots: np.ndarray = field(repr=False)   # (H, W): row of `values`, -1 if not gathered
    values: np.ndarray = field(repr=False)  # (N, C) float64
    read_rows: Callable[[int, np.ndarray], None] = field(repr=False)

    @classmethod
    def gather(cls, spec: GridSpec, rows: np.ndarray, cols: np.ndarray, blocks,
               read_rows: Callable[[int, np.ndarray], None]) -> "GatheredCells":
        """Gather cells (rows[k], cols[k]) from every `(first_row, values)` row block."""
        shape = (spec.height_cells, spec.width_cells, spec.channels)
        w = spec.width_cells
        slots = np.full(shape[:2], -1, dtype=np.int32)
        slots.flat[np.ravel_multi_index((rows, cols), shape[:2])] = 0
        flat = np.flatnonzero(slots == 0)  # the gathered cells, ascending
        slots.flat[flat] = np.arange(len(flat))
        values = np.empty((len(flat), spec.channels))
        for first, block in blocks:
            i, j = np.searchsorted(flat, (first * w, (first + len(block)) * w))
            values[i:j] = block.reshape(-1, spec.channels)[flat[i:j] - first * w]
        return cls(shape, slots, values, read_rows)

    def _slots(self, index) -> np.ndarray:
        slots = self.slots[index]
        if (slots < 0).any():
            raise ContractError("access to a grid cell that was not gathered")
        return slots

    def __getitem__(self, index) -> np.ndarray:
        return self.values[self._slots(index)]

    def __setitem__(self, index, values) -> None:
        self.values[self._slots(index)] = values

    def read_into(self, first_row: int, out: np.ndarray) -> None:
        """Read rows first_row onwards into `out`, a contiguous f32 (rows, W, C) array.

        The rows come through `read_rows`, with the gathered cells rounded in.
        """
        self.read_rows(first_row, out)
        slots = self.slots[first_row:first_row + len(out)].reshape(-1)
        cells = np.flatnonzero(slots >= 0)
        out.reshape(-1, self.shape[2])[cells] = self.values[slots[cells]]  # a view: contiguous


@dataclass
class BevGrid:
    """H x W x C feature map over a GridSpec window.

    `data` is a dense float64 array (file storage rounds to float32, see
    formats), or a `RowSource` of that shape, read only in float32 rows
    through `read_into(first_row, out)`: `GatheredCells` for a grid read
    only at some cells, `synth.RenderedRows` for bumps not yet rendered, or
    `formats.GridFile` for a grid file not yet read.
    """

    spec: GridSpec
    data: np.ndarray | RowSource = field(repr=False)

    def __post_init__(self) -> None:
        expected = (self.spec.height_cells, self.spec.width_cells, self.spec.channels)
        if not hasattr(self.data, "read_into"):
            self.data = np.asarray(self.data, dtype=np.float64)
        if self.data.shape != expected:
            raise ConfigurationError(
                f"grid data shape {self.data.shape} does not match spec {expected}"
            )

    @classmethod
    def zeros(cls, spec: GridSpec) -> "BevGrid":
        return cls(spec, np.zeros((spec.height_cells, spec.width_cells, spec.channels)))

    def copy(self) -> "BevGrid":
        if not isinstance(self.data, np.ndarray):
            raise ContractError("only a dense grid copies, not a row source")
        return BevGrid(self.spec, self.data.copy())


def world_to_grid(point: tuple[float, float], spec: GridSpec) -> tuple[float, float]:
    """Map world (x, y) meters to fractional (row, col) grid coordinates.

    Out-of-window points are allowed; the result then falls outside
    [0, H-1] x [0, W-1]. x and y may also be numpy arrays.
    """
    x, y = point
    row = (y - spec.y_range[0]) / spec.cell_size_y - 0.5
    col = (x - spec.x_range[0]) / spec.cell_size_x - 0.5
    return row, col


def grid_to_world(coord: tuple[float, float], spec: GridSpec) -> tuple[float, float]:
    """Inverse of world_to_grid: fractional (row, col) back to world (x, y).

    row and col may also be numpy arrays, of any shapes: x depends on col alone.
    """
    row, col = coord
    x = (col + 0.5) * spec.cell_size_x + spec.x_range[0]
    y = (row + 0.5) * spec.cell_size_y + spec.y_range[0]
    return x, y


def bilinear_corners(coord: tuple[float, float], spec: GridSpec) -> tuple[np.ndarray, ...]:
    """The cells and fractions `bilinear_sample` blends at (row, col) coordinates.

    Returns flat arrays (r0, c0, r1, c1, fr, fc): the four corner cells are
    (r0, c0), (r0, c1), (r1, c0) and (r1, c1), and fr, fc the fractional
    offsets from (r0, c0) after the clamp.
    """
    h, w = spec.height_cells, spec.width_cells
    # Flat index arrays make every gather by them a copy, even for one point.
    r = np.asarray(coord[0], dtype=np.float64).reshape(-1)
    c = np.asarray(coord[1], dtype=np.float64).reshape(-1)
    # The scalar min(max(x, 0.0), top), including which zero it keeps.
    r = np.where(r < 0.0, 0.0, r)
    r = np.where(r > h - 1, float(h - 1), r)
    c = np.where(c < 0.0, 0.0, c)
    c = np.where(c > w - 1, float(w - 1), c)
    # The top-left cell, one before the last so that cell + 1 exists; on a
    # one-row (one-column) grid it is row (column) 0 and cell + 1 clamps to it.
    r0 = np.minimum(np.floor(r).astype(np.intp), max(h - 2, 0))
    c0 = np.minimum(np.floor(c).astype(np.intp), max(w - 2, 0))
    return r0, c0, np.minimum(r0 + 1, h - 1), np.minimum(c0 + 1, w - 1), r - r0, c - c0


def bilinear_sample(
    grid: BevGrid, coord: tuple[float, float], offset: np.ndarray | None = None
) -> np.ndarray:
    """Sample C-vectors at fractional (row, col) coordinates by 4-cell blending.

    row and col may be numbers or numpy arrays of one shape S; the result
    is (*S, C). Coordinates are clamped to [0, H-1] x [0, W-1] first (border
    replicate), so any finite input is valid. Exact at integer coordinates.
    An `offset` C-vector is added to each gathered corner before weighting,
    which gives the same bits as sampling a grid holding `data + offset`.
    The grid's data may be a dense array or `GatheredCells` holding the
    corners (`bilinear_corners`).
    """
    shape = np.shape(coord[0])
    r0, c0, r1, c1, fr, fc = bilinear_corners(coord, grid.spec)
    d = grid.data
    # Explicit 4-weight form; enhancement semantics depend on this exact
    # expression order, so keep it as a flat weighted sum, accumulated left
    # to right in place: ((w00*d00 + w01*d01) + w10*d10) + w11*d11.
    out = d[r0, c0]
    if offset is not None:
        out += offset
    out *= ((1.0 - fr) * (1.0 - fc))[..., None]
    for rows, cols, weight in ((r0, c1, (1.0 - fr) * fc), (r1, c0, fr * (1.0 - fc)),
                               (r1, c1, fr * fc)):
        term = d[rows, cols]
        if offset is not None:
            term += offset
        term *= weight[..., None]
        out += term
    return out.reshape(*shape, grid.spec.channels)


def global_context_refine(
    grid: BevGrid, value_proj: np.ndarray, key_proj: np.ndarray
) -> np.ndarray:
    """The softmax-attended global context C-vector of a grid.

    Each position contributes a scalar attention logit (key_proj . feature);
    the softmax-weighted sum of features, projected by the C x C value_proj,
    forms one context vector. The refined grid, `grid.data + context`, is
    never built: callers add the vector where a value needs it
    (`bilinear_sample`'s `offset`).
    """
    c = grid.spec.channels
    if np.shape(value_proj) != (c, c) or np.shape(key_proj) != (c,):
        raise ConfigurationError(f"context weights of shapes {np.shape(value_proj)} and "
                                 f"{np.shape(key_proj)} do not fit {c} channels")
    flat = grid.data.reshape(-1, c)
    # The attention is computed in place in one H*W vector: a caller may
    # hold little more than its grid.
    attn = flat @ np.asarray(key_proj, dtype=np.float64)
    attn -= attn.max()
    np.exp(attn, out=attn)
    attn /= attn.sum()
    pooled = attn @ flat
    return np.asarray(value_proj, dtype=np.float64) @ pooled
