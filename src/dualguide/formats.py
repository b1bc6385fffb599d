"""On-disk formats: binary grids and projection weights, JSON-lines records.

Grid files are little-endian: magic "BEVG", u32 version=1, u32 H, u32 W,
u32 C, x_range and y_range as f64 pairs, then H*W*C f32 values row-major
by (row, col, channel). A JSON sidecar (same path + ".json") mirrors the
header for inspection. Projection files are magic "PROJ", u32 rows, u32
cols, the f32 matrix row-major, then the f32 bias. Proposals and
annotations are JSON-lines, one object per line, with the box laid out as
x, y, z, w, l, h, yaw, vx, vy.
"""

from __future__ import annotations

import json
import math
import os
import struct
from pathlib import Path

import numpy as np

from .enhance import Projection
from .errors import ConfigurationError, DataFormatError
from .geometry import Box3D
from .grid import BevGrid, GridSpec
from .instances import Proposal
from .matching import InstancePair, PairSets
from .metrics import Annotation, Detection

GRID_MAGIC = b"BEVG"
GRID_VERSION = 1
PROJ_MAGIC = b"PROJ"

_GRID_HEADER = struct.Struct("<4sIIIIdddd")
# save_grid and load_grid stream the payload in blocks of rows holding about
# this many bytes of f32, so no full-grid f32 copy is ever held.
_GRID_BLOCK_BYTES = 1 << 20
_PROJ_HEADER = struct.Struct("<4sII")
_BOX_KEYS = ("x", "y", "z", "w", "l", "h", "yaw", "vx", "vy")


def save_grid(grid: BevGrid, path: str | Path) -> None:
    """Write a grid and its JSON header sidecar. Values are rounded to f32.

    `grid.data` may be any view; the payload streams out in blocks of rows.
    """
    path = Path(path)
    spec = grid.spec
    header = _GRID_HEADER.pack(
        GRID_MAGIC,
        GRID_VERSION,
        spec.height_cells,
        spec.width_cells,
        spec.channels,
        spec.x_range[0],
        spec.x_range[1],
        spec.y_range[0],
        spec.y_range[1],
    )
    rows_per_block = _rows_per_block(spec)
    with path.open("wb") as f:
        f.write(header)
        for r in range(0, spec.height_cells, rows_per_block):
            f.write(grid.data[r : r + rows_per_block].astype("<f4", order="C"))
    sidecar = {
        "magic": GRID_MAGIC.decode(),
        "version": GRID_VERSION,
        "height_cells": spec.height_cells,
        "width_cells": spec.width_cells,
        "channels": spec.channels,
        "x_range": list(spec.x_range),
        "y_range": list(spec.y_range),
    }
    Path(str(path) + ".json").write_text(json.dumps(sidecar, sort_keys=True, indent=2) + "\n")


def _rows_per_block(spec: GridSpec) -> int:
    return max(1, _GRID_BLOCK_BYTES // (spec.width_cells * spec.channels * 4))


def load_grid(path: str | Path) -> BevGrid:
    """Read a grid file into float64, checking its header, size and values.

    The file size is checked against the header before the grid is
    allocated, and the payload is read in blocks of rows straight into it.
    """
    path = Path(path)
    with path.open("rb") as f:
        head = f.read(_GRID_HEADER.size)
        if len(head) < _GRID_HEADER.size:
            raise DataFormatError(f"{path}: truncated grid header")
        magic, version, h, w, c, x0, x1, y0, y1 = _GRID_HEADER.unpack(head)
        if magic != GRID_MAGIC:
            raise DataFormatError(f"{path}: bad magic {magic!r}, expected {GRID_MAGIC!r}")
        if version != GRID_VERSION:
            raise DataFormatError(
                f"{path}: unsupported grid version {version}, expected {GRID_VERSION}"
            )
        try:
            spec = GridSpec(h, w, c, (x0, x1), (y0, y1))
        except ConfigurationError as exc:
            raise DataFormatError(f"{path}: bad grid header: {exc}") from exc
        size = os.fstat(f.fileno()).st_size
        expected = _GRID_HEADER.size + h * w * c * 4
        if size != expected:
            raise DataFormatError(f"{path}: payload is {size} bytes, header implies {expected}")
        data = np.empty((h, w, c))
        bad = 0
        rows_per_block = _rows_per_block(spec)
        for r in range(0, h, rows_per_block):
            block = data[r : r + rows_per_block]
            values = np.frombuffer(f.read(block.size * 4), dtype="<f4")
            bad += values.size - int(np.count_nonzero(np.isfinite(values)))
            block[...] = values.reshape(block.shape)
    if bad:
        raise DataFormatError(f"{path}: {bad} non-finite grid values")
    return BevGrid(spec, data)


def save_projection(proj: Projection, path: str | Path) -> None:
    rows, cols = proj.matrix.shape
    header = _PROJ_HEADER.pack(PROJ_MAGIC, rows, cols)
    Path(path).write_bytes(
        header + proj.matrix.astype("<f4").tobytes() + proj.bias.astype("<f4").tobytes()
    )


def load_projection(path: str | Path) -> Projection:
    path = Path(path)
    blob = path.read_bytes()
    if len(blob) < _PROJ_HEADER.size:
        raise DataFormatError(f"{path}: truncated projection header")
    magic, rows, cols = _PROJ_HEADER.unpack_from(blob)
    if magic != PROJ_MAGIC:
        raise DataFormatError(f"{path}: bad magic {magic!r}, expected {PROJ_MAGIC!r}")
    expected = _PROJ_HEADER.size + (rows * cols + rows) * 4
    if len(blob) != expected:
        raise DataFormatError(
            f"{path}: payload is {len(blob)} bytes, header implies {expected}"
        )
    values = np.frombuffer(blob, dtype="<f4", offset=_PROJ_HEADER.size)
    # Checked on the f32 view, as in load_grid, so the message names the file.
    bad = int(np.count_nonzero(~np.isfinite(values)))
    if bad:
        raise DataFormatError(f"{path}: {bad} non-finite projection values")
    values = values.astype(np.float64)
    return Projection(values[: rows * cols].reshape(rows, cols), values[rows * cols :])


def _box_to_record(box: Box3D) -> dict:
    return {
        "x": box.center[0],
        "y": box.center[1],
        "z": box.center[2],
        "w": box.size[0],
        "l": box.size[1],
        "h": box.size[2],
        "yaw": box.yaw,
        "vx": box.velocity[0],
        "vy": box.velocity[1],
    }


def _finite(name: str, value):
    """`value` when it is a finite JSON number (a bool is not one), else ValueError."""
    ok = isinstance(value, (int, float)) and not isinstance(value, bool)
    try:
        ok = ok and math.isfinite(value)
    except OverflowError:  # an integer too large for a float64
        ok = False
    if not ok:
        raise ValueError(f"{name} must be a finite number, got {value!r}")
    return value


def _integral(name: str, value) -> int:
    """`value` as an int when it is a finite, integral JSON number, else ValueError."""
    if _finite(name, value) != int(value):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def box_from_record(rec: dict) -> Box3D:
    """The box of a record; each field must be a finite number (vx, vy default to 0)."""
    values = [rec[key] for key in _BOX_KEYS[:7]] + [rec.get("vx", 0.0), rec.get("vy", 0.0)]
    for key, value in zip(_BOX_KEYS, values):
        _finite(f"box field {key!r}", value)
    x, y, z, w, l, h, yaw, vx, vy = values
    return Box3D(center=(x, y, z), size=(w, l, h), yaw=yaw, velocity=(vx, vy))


def _write_jsonl(records: list[dict], path: str | Path) -> None:
    lines = [json.dumps(rec, sort_keys=True) for rec in records]
    Path(path).write_text("\n".join(lines) + ("\n" if lines else ""))


def _read_text(path: str | Path) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"{path}: not UTF-8 text ({exc})") from exc


def _load_jsonl(path: str | Path, build) -> list:
    """`build(record)` for each record of a JSON-lines file, in order.

    Every check of a record (JSON syntax, an object, the fields `build`
    reads) fails with a DataFormatError naming the file and the line or
    record.
    """
    records = []
    for lineno, line in enumerate(_read_text(path).splitlines(), start=1):
        if not line.strip():
            continue
        try:
            records.append(json.loads(line))
        except ValueError as exc:
            raise DataFormatError(f"{path}:{lineno}: invalid JSON ({exc})") from exc
    items = []
    for i, rec in enumerate(records):
        try:
            if not isinstance(rec, dict):
                raise ValueError(f"expected a JSON object, got {type(rec).__name__}")
            items.append(build(rec))
        except (KeyError, ValueError) as exc:
            raise DataFormatError(f"{path}: record {i}: {exc}") from exc
    return items


def save_proposals(proposals: list[Proposal], path: str | Path) -> None:
    _write_jsonl(
        [
            {
                **_box_to_record(p.box),
                "score": p.score,
                "class_id": p.class_id,
                "modality": p.modality,
            }
            for p in proposals
        ],
        path,
    )


def load_proposals(path: str | Path) -> list[Proposal]:
    return _load_jsonl(path, lambda rec: Proposal(
        box=box_from_record(rec),
        score=_finite("score", rec["score"]),
        class_id=_integral("class_id", rec["class_id"]),
        modality=rec["modality"],
    ))


def save_annotations(annotations: list[Annotation], path: str | Path) -> None:
    _write_jsonl(
        [
            {
                **_box_to_record(a.box),
                "class_id": a.class_id,
                "visibility_token": a.visibility_token,
                "num_lidar_pts": a.num_lidar_pts,
            }
            for a in annotations
        ],
        path,
    )


def load_annotations(path: str | Path) -> list[Annotation]:
    return _load_jsonl(path, lambda rec: Annotation(
        box=box_from_record(rec),
        class_id=_integral("class_id", rec["class_id"]),
        visibility_token=_integral("visibility_token", rec["visibility_token"]),
        num_lidar_pts=_integral("num_lidar_pts", rec["num_lidar_pts"]),
    ))


def save_detections(detections: list[Detection], path: str | Path) -> None:
    _write_jsonl(
        [
            {**_box_to_record(d.box), "class_id": d.class_id, "score": d.score}
            for d in detections
        ],
        path,
    )


def load_detections(path: str | Path) -> list[Detection]:
    return _load_jsonl(path, lambda rec: Detection(
        box=box_from_record(rec),
        class_id=_integral("class_id", rec["class_id"]),
        score=_finite("score", rec["score"]),
    ))


def _pair_to_record(pair: InstancePair) -> dict:
    return {
        "kind": pair.kind,
        "anchor_idx": pair.anchor_idx,
        "guide_idx": pair.guide_idx,
        "similarity": pair.similarity,
        "classes": [pair.anchor.proposal.class_id, pair.guide.proposal.class_id],
    }


def pair_sets_to_dict(sets: PairSets) -> dict:
    return {
        "easy": [_pair_to_record(p) for p in sets.easy],
        "camera_hard": [_pair_to_record(p) for p in sets.camera_hard],
        "lidar_hard": [_pair_to_record(p) for p in sets.lidar_hard],
        "unmatched_lidar": sets.unmatched_lidar,
        "unmatched_camera": sets.unmatched_camera,
    }


def save_pair_sets(sets: PairSets, path: str | Path) -> None:
    Path(path).write_text(
        json.dumps(pair_sets_to_dict(sets), sort_keys=True, indent=2) + "\n"
    )


def save_json(obj: dict, path: str | Path) -> None:
    Path(path).write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n")


def load_json(path: str | Path) -> dict:
    path = Path(path)
    try:
        return json.loads(_read_text(path))
    except ValueError as exc:
        raise DataFormatError(f"{path}: invalid JSON ({exc})") from exc
