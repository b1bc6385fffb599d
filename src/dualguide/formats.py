"""On-disk formats: binary grids and projection weights, JSON-lines records.

Grid files are little-endian: magic "BEVG", u32 version=1, u32 H, u32 W,
u32 C, x_range and y_range as f64 pairs, then H*W*C f32 values row-major
by (row, col, channel). A JSON sidecar (the grid file's path + ".json")
mirrors the header for inspection. `grid_blocks` is the one grid reader: it
checks the header and the file size before anything is allocated, then
yields the payload in f32 blocks of rows, from a path or an open handle;
`load_grid` fills a new f64 array from it, and `read_grid_rows` reads rows
again through an open handle, checking their values. `save_grid` is the one
grid writer: it writes one or more files of one window in a single pass over
row blocks, so no full-grid copy is held. Each file holds one grid or the
channel concatenation of several, which is never built whole. A grid is a
dense array or a row source with `read_into` (gathered LiDAR cells, or
rendered bumps), and each grid's rows are made once per block, into an f32
block of its own (cast, or read from the source); a file of one grid writes
that block, and a file of several their concatenation, joined into one more
block. The writer replaces an existing file with a new one and never
truncates it in place, so a hard link to the old file keeps the old bytes; a
symlinked path is written at its target, and the sidecar beside the target.
Projection files are magic "PROJ", u32 rows, u32 cols, the f32 matrix
row-major, then the f32 bias. A point cloud is an .npy file of finite floats
of shape (N, 3), read by `load_points` and written by `save_points`.
Proposals, annotations and detections are JSON-lines, one object per line,
and a scene manifest lists its objects: each record is a box (x, y, z, w, l,
h, yaw, vx, vy; an object has no vx, vy), then its kind's `*_FIELDS` table,
which gives each field's check and the values its kind allows.
`read_records` is the one reader of all four kinds, `to_records` the one
writer. The reader parses each line with the json module's C scanner, then
checks all records at once, one column per field: the number columns in one
float64 array (finiteness, a positive box size, each field's range), the
string columns by allowed value, and every column by type (a bool is not a
number, and an integer field takes only JSON integers). Only when a column
check fails does it run the per-record loop, whose first failing check
gives the message. With `check_only` it checks alike and builds no item.
`save_json` writes `json.dumps(obj, sort_keys=True, indent=2)` and a
newline. A failed write raises an OSError naming its file.
"""

from __future__ import annotations

import errno
import json
import math
import os
import struct
from collections.abc import Callable, Iterable, Iterator, Sequence
from contextlib import ExitStack, nullcontext
from itertools import chain
from operator import itemgetter, methodcaller
from pathlib import Path
from tokenize import TokenError
from typing import BinaryIO

import numpy as np

from .enhance import Projection
from .errors import ConfigurationError, DataFormatError
from .geometry import Box3D
from .grid import BevGrid, GridSpec, concat_spec
from .instances import MODALITIES, Proposal
from .matching import InstancePair, PairSets
from .metrics import Annotation, Detection
from .taxonomy import NUM_CLASSES

GRID_MAGIC = b"BEVG"
GRID_VERSION = 1
PROJ_MAGIC = b"PROJ"

_GRID_HEADER = struct.Struct("<4sIIIIdddd")
# save_grid and grid_blocks stream the payload in blocks of rows holding about
# this many bytes of f32 (across all of save_grid's files), so no full-grid
# f32 copy is ever held.
_GRID_BLOCK_BYTES = 1 << 20
_PROJ_HEADER = struct.Struct("<4sII")
_BOX_KEYS = ("x", "y", "z", "w", "l", "h", "yaw", "vx", "vy")
_BOX_NAMES = tuple(f"box field {key!r}" for key in _BOX_KEYS)
# The json module's C scanner: `_scan(line, 0)` is `(value, end)`, or raises
# StopIteration or ValueError.
_scan = json.JSONDecoder().scan_once


class _Naming:
    """A context that gives an OSError raised in it, if it names no file, `path`."""

    def __init__(self, path: str | Path) -> None:
        self.path = path

    def __enter__(self) -> _Naming:
        return self

    def __exit__(self, kind, exc, traceback) -> None:
        if isinstance(exc, OSError) and exc.filename is None:
            exc.filename = str(self.path)


def check_replaceable(paths: Iterable[str | Path]) -> None:
    """Raise OSError naming a grid path, or its sidecar, whose target is not a file or nothing."""
    for path in paths:
        for name in (path, f"{os.path.realpath(path)}.json"):
            if os.path.exists(name) and not os.path.isfile(name):
                raise OSError(errno.EEXIST, "not a regular file, so not replaced", str(name))


def save_grid(outputs: Sequence[tuple]) -> None:
    """Write grid files of one window and their JSON sidecars in one pass over row blocks.

    Each output is `(*grids, path)`: its file holds the channel concatenation
    of its grids, with values rounded to f32. A grid's data is a dense array
    or a row source with `read_into` (`grid.GatheredCells`,
    `synth.RenderedRows`). Each grid's rows are made once per block into an
    f32 block of its own: a dense array is cast, and a row source reads into
    it. An output of one grid writes that block, and an output of several
    their concatenation, joined into one more block. The blocks hold about
    `_GRID_BLOCK_BYTES` together, so no full-grid f32 copy is held. An
    existing grid file is replaced by a new file, never truncated in place:
    a hard link to the old file keeps its bytes. A symlinked path is written
    at the link's target, and the sidecar (`<target>.json`) beside the
    target. An output that is not a regular file or nothing is refused
    before any is opened. The outputs are created in order and their
    sidecars written in order after the pass, so every file ends as separate
    saves in that order would leave it.
    """
    layouts = [(output[:-1], output[-1]) for output in outputs]
    check_replaceable(path for _, path in layouts)
    grids = list({id(g): g for gs, _ in layouts for g in gs}.values())
    window = concat_spec([g.spec for g in grids])  # every output covers one window
    specs = [concat_spec([g.spec for g in gs]) for gs, _ in layouts]
    h = window.height_cells
    rows_per_block = _rows_per_block(*specs)

    def f32_block(spec: GridSpec) -> np.ndarray:
        return np.empty((min(rows_per_block, h), spec.width_cells, spec.channels), dtype="<f4")

    blocks = {id(g): f32_block(g.spec) for g in grids}
    joined = [f32_block(spec) if len(gs) > 1 else None for (gs, _), spec in zip(layouts, specs)]
    targets = []
    with ExitStack() as files:
        for spec, (_, path) in zip(specs, layouts):
            # A new file, never a truncated one: ext4 flushes a file truncated
            # to zero and rewritten when it is closed, so the next truncate of
            # it waits for that writeback. Unlinking also leaves a hard link to
            # the old file, or a reader partway through it, with the old bytes.
            target = os.path.realpath(path)
            naming = files.enter_context(_Naming(path))  # names a failed close, and each write
            Path(target).unlink(missing_ok=True)
            f = files.enter_context(open(target, "wb"))
            with naming:
                f.write(_GRID_HEADER.pack(GRID_MAGIC, GRID_VERSION, h, spec.width_cells,
                                          spec.channels, *spec.x_range, *spec.y_range))
            targets.append((target, f, naming))
        for r in range(0, h, rows_per_block):
            n = min(rows_per_block, h - r)
            for g in grids:
                if isinstance(g.data, np.ndarray):
                    blocks[id(g)][:n] = g.data[r : r + n]
                else:
                    g.data.read_into(r, blocks[id(g)][:n])
            for (gs, _), (_, f, naming), out in zip(layouts, targets, joined):
                parts = [blocks[id(g)][:n] for g in gs]
                with naming:
                    f.write(parts[0] if out is None else np.concatenate(parts, axis=2, out=out[:n]))
    for k, (spec, (target, _, _)) in enumerate(zip(specs, targets)):
        sidecar = f"{target}.json"
        # Written apart, a later output would replace a sidecar at its target.
        if os.path.realpath(sidecar) in [t for t, _, _ in targets[k + 1 :]]:
            continue
        save_json({"magic": GRID_MAGIC.decode(), "version": GRID_VERSION, "height_cells": h,
                   "width_cells": spec.width_cells, "channels": spec.channels,
                   "x_range": list(spec.x_range), "y_range": list(spec.y_range)}, sidecar)


def _rows_per_block(*specs: GridSpec) -> int:
    """Rows of a block that holds about `_GRID_BLOCK_BYTES` of f32 across `specs`."""
    return max(1, _GRID_BLOCK_BYTES // sum(s.width_cells * s.channels * 4 for s in specs))


def grid_blocks(source: str | Path | BinaryIO) -> Iterator:
    """Yield a grid file's spec, then its payload in blocks of rows.

    `source` is a path, or a grid file open for binary reading, which is
    read from its start and left open. The header (magic, version, values)
    and the file size it implies are checked before the spec is yielded,
    so taking only the spec reads only the header. Each block is
    `(first_row, values)`, `values` an f32 array of shape (rows, W, C) that
    the next block overwrites. Non-finite values raise a DataFormatError
    after the last block, so what a caller builds from the blocks is valid
    only once the iteration has finished.
    """
    opened = nullcontext(source) if hasattr(source, "readinto") else open(source, "rb")
    with opened as f:
        path = Path(f.name)
        f.seek(0)
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
        yield spec
        bad = 0
        rows_per_block = _rows_per_block(spec)
        buffer = np.empty((min(rows_per_block, h), w, c), dtype="<f4")
        for r in range(0, h, rows_per_block):
            values = buffer[: min(rows_per_block, h - r)]
            if f.readinto(values) != values.nbytes:  # the file shrank since the size check
                raise DataFormatError(f"{path}: payload ends before row {r + len(values)}")
            bad += values.size - int(np.count_nonzero(np.isfinite(values)))
            yield r, values
    if bad:
        raise DataFormatError(f"{path}: {bad} non-finite grid values")


def read_grid_rows(f: BinaryIO, spec: GridSpec, first_row: int, out: np.ndarray) -> None:
    """Read rows first_row onwards of an open grid file of `spec` into `out`.

    `out` is a contiguous f32 array of shape (rows, W, C). A file that ends
    before them, or non-finite values among them, raise DataFormatError, the
    latter with `load_grid`'s message for the rows read.
    """
    f.seek(_GRID_HEADER.size + first_row * spec.width_cells * spec.channels * 4)
    if f.readinto(out) != out.nbytes:
        raise DataFormatError(f"{Path(f.name)}: payload ends before row {first_row + len(out)}")
    bad = out.size - int(np.count_nonzero(np.isfinite(out)))
    if bad:
        raise DataFormatError(f"{Path(f.name)}: {bad} non-finite grid values")


def load_grid(path: str | Path | BinaryIO) -> BevGrid:
    """Read a grid file into a new float64 array, checking its header, size and values.

    `path` may also be a grid file open for binary reading (`grid_blocks`).
    The file size is checked against the header before anything is
    allocated, and the payload is read in blocks of rows straight into the
    new array.
    """
    blocks = grid_blocks(path)
    spec = next(blocks)
    data = np.empty((spec.height_cells, spec.width_cells, spec.channels))
    for r, values in blocks:
        data[r : r + len(values)] = values
    return BevGrid(spec, data)


def save_projection(proj: Projection, path: str | Path) -> None:
    rows, cols = proj.matrix.shape
    header = _PROJ_HEADER.pack(PROJ_MAGIC, rows, cols)
    with _Naming(path):
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
    # Checked on the f32 view, as in grid_blocks, so the message names the file.
    bad = int(np.count_nonzero(~np.isfinite(values)))
    if bad:
        raise DataFormatError(f"{path}: {bad} non-finite projection values")
    values = values.astype(np.float64)
    return Projection(values[: rows * cols].reshape(rows, cols), values[rows * cols :])


def load_points(path: str | Path) -> np.ndarray:
    """Read a point cloud: an .npy file holding finite floats of shape (N, 3).

    The header's dtype and shape, and the file size they imply, are checked
    before the payload is allocated, as `grid_blocks` does for grids.
    """
    try:
        # The .npy reader alone: no .npz archive and no pickled objects.
        with open(path, "rb") as f:
            version = np.lib.format.read_magic(f)
            if version == (1, 0):
                shape, _, dtype = np.lib.format.read_array_header_1_0(f)
            elif version == (2, 0):
                shape, _, dtype = np.lib.format.read_array_header_2_0(f)
            else:  # 3.0 is written only for dtypes with non-latin-1 field names
                raise ValueError(f"unsupported .npy version {version}")
            if not np.issubdtype(dtype, np.floating) or len(shape) != 2 or shape[1] != 3:
                raise DataFormatError(
                    f"{path}: expected floats of shape (N, 3), got {dtype} {shape}"
                )
            size = os.fstat(f.fileno()).st_size
            expected = f.tell() + math.prod(shape) * dtype.itemsize
            if size != expected:
                raise DataFormatError(f"{path}: file is {size} bytes, header implies {expected}")
            f.seek(0)
            points = np.lib.format.read_array(f, allow_pickle=False)
    # Its header parser lets the last three escape on a damaged header.
    except (ValueError, OSError, SyntaxError, TypeError, TokenError) as exc:
        raise DataFormatError(f"{path}: not a point cloud ({exc})") from exc
    bad = int(np.count_nonzero(~np.isfinite(points)))
    if bad:
        raise DataFormatError(f"{path}: {bad} non-finite point coordinates")
    return points


def save_points(points: np.ndarray, path: str | Path) -> None:
    """Write a point cloud as an .npy file at `path`."""
    with _Naming(path):
        np.save(path, points)


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


def _write_jsonl(records: list[dict], path: str | Path) -> None:
    lines = [json.dumps(rec, sort_keys=True) for rec in records]
    with _Naming(path):
        Path(path).write_text("\n".join(lines) + ("\n" if lines else ""))


def _read_text(path: str | Path) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"{path}: not UTF-8 text ({exc})") from exc


def _string(name: str, value) -> str:
    """`value` when it is a JSON string, else ValueError."""
    if not isinstance(value, str):
        raise ValueError(f"{name} must be a string, got {value!r}")
    return value


# Each record kind's fields after its box, in the order of its dataclass's
# fields (the reader builds items positionally): each field's name, its
# check, and the values its kind's dataclass allows, a closed interval for
# a number or the names for a string.
_UNIT = (0.0, 1.0)
_CLASS_IDS = (0, NUM_CLASSES - 1)
_TOKENS = (1, 4)
_COUNTS = (0, math.inf)
# The gap profiles a manifest object may carry (`gen --profile mixed` draws among them).
OBJECT_PROFILES = ("easy", "lidar-hole", "occluded")
PROPOSAL_FIELDS = (
    ("score", _finite, _UNIT), ("class_id", _integral, _CLASS_IDS),
    ("modality", _string, MODALITIES))
ANNOTATION_FIELDS = (
    ("class_id", _integral, _CLASS_IDS), ("visibility_token", _integral, _TOKENS),
    ("num_lidar_pts", _integral, _COUNTS))
DETECTION_FIELDS = (("class_id", _integral, _CLASS_IDS), ("score", _finite, _UNIT))
# A manifest object (`synth.SceneObject`); its box is written without vx and vy.
OBJECT_FIELDS = (
    ("class_id", _integral, _CLASS_IDS), ("profile", _string, OBJECT_PROFILES),
    ("lidar_strength", _finite, _UNIT), ("camera_strength", _finite, _UNIT),
    ("visibility_token", _integral, _TOKENS), ("num_lidar_pts", _integral, _COUNTS))
# The JSON types each check returns unchanged (a bool is not a number, and
# 3.0 in an integer field is left to the loop, which makes it 3).
_COLUMN_TYPES = {_finite: {float, int}, _integral: {int}, _string: {str}}


def _json_lines(path: str | Path) -> list:
    """The JSON value of each non-blank line of the file at `path`, in order.

    A line the C scanner reads whole is taken as it reads it, which is what
    `json.loads` returns for it; any other line goes to `json.loads`, which
    skips a blank line, takes a spaced one, and names a bad or too deep one.
    """
    records = []
    for lineno, line in enumerate(_read_text(path).splitlines(), start=1):
        try:
            value, end = _scan(line, 0)
            if end == len(line):
                records.append(value)
                continue
        except (StopIteration, ValueError, RecursionError):
            pass
        try:
            if line.strip():
                records.append(json.loads(line))
        except (ValueError, RecursionError) as exc:  # RecursionError: nesting too deep
            raise DataFormatError(f"{path}:{lineno}: invalid JSON ({exc})") from exc
    return records


def _column_checked(records: list, fields: tuple) -> list | None:
    """The records' columns, x, y, z, w, l, h, yaw, vx, vy, then `fields`, if all pass.

    The checks are the per-record loop's, one column at a time: each record
    is an object holding every field, each column holds only the JSON types
    its check returns unchanged, the number columns (one float64 array) are
    finite, with a positive box size and each field in its range, and each
    string column holds only allowed names. None means that the loop must
    decide, and name what it refuses. The columns are lists, so no record
    gets a row object of its own.
    """
    names = (*_BOX_KEYS[:7], *(name for name, _, _ in fields))
    try:
        columns = [list(map(itemgetter(name), records)) for name in names]
        columns[7:7] = [list(map(methodcaller("get", key, 0.0), records)) for key in ("vx", "vy")]
    except (KeyError, TypeError, AttributeError):  # a missing field, or a record not an object
        return None
    numbers = columns[:9]
    if not set(map(type, chain.from_iterable(numbers))) <= {float, int}:
        return None
    bounds = [(-math.inf, math.inf)] * 9
    for column, (_, check, allowed) in zip(columns[9:], fields):
        if not set(map(type, column)) <= _COLUMN_TYPES[check]:
            return None
        if check is _string:
            if not set(column) <= set(allowed):
                return None
        else:
            numbers.append(column)
            bounds.append(allowed)
    try:
        values = np.array(numbers, dtype=np.float64)
    except OverflowError:  # an integer beyond float64
        return None
    low, high = np.array(bounds).T[:, :, None]
    if not (np.isfinite(values).all() and (values[3:6] > 0.0).all()
            and ((low <= values) & (values <= high)).all()):
        return None
    return columns


def _record_loop(build: Callable, fields: tuple, records: list, path: str | Path,
                 label: str) -> list:
    """`build(box, *values)` of each record, checked field by field; the first failure raises."""
    items = []
    for i, rec in enumerate(records):
        try:
            if not isinstance(rec, dict):
                raise ValueError(f"expected a JSON object, got {type(rec).__name__}")
            box = [rec[key] for key in _BOX_KEYS[:7]] + [rec.get("vx", 0.0), rec.get("vy", 0.0)]
            x, y, z, w, l, h, yaw, vx, vy = map(_finite, _BOX_NAMES, box)
            items.append(build(Box3D((x, y, z), (w, l, h), yaw, (vx, vy)),
                               *[check(name, rec[name]) for name, check, _ in fields]))
        except KeyError as exc:
            raise DataFormatError(f"{path}: {label} {i} has no field {exc}") from exc
        except ValueError as exc:
            raise DataFormatError(f"{path}: {label} {i}: {exc}") from exc
    return items


def read_records(build: Callable, fields: tuple, path: str | Path,
                 objects: list | None = None, check_only: bool = False) -> list | None:
    """`build(box, *values)` for each record of the JSON-lines file at `path`, in order.

    Given `objects`, the records are those manifest objects, parsed from the
    manifest at `path`. Box fields must be finite numbers (vx and vy default
    to 0), and `fields` checks the rest. The records are checked a column at
    a time, and only when a column fails by the per-record loop: every check
    (JSON syntax, an object, each field, then `build`'s own) fails with a
    DataFormatError naming the file and the line, or the `record` or
    `object` and its index. With `check_only`, the records are checked alike
    but no item is built (unless the loop runs), and None is returned.
    """
    if objects is None:
        label, records = "record", _json_lines(path)
    else:
        label, records = "object", objects
    columns = _column_checked(records, fields)
    if columns is None:
        items = _record_loop(build, fields, records, path, label)
        return None if check_only else items
    if check_only:
        return None
    return [build(Box3D((x, y, z), (w, l, h), yaw, (vx, vy)), *values)
            for x, y, z, w, l, h, yaw, vx, vy, *values in zip(*columns)]


def to_records(items: list, fields: tuple) -> list[dict]:
    """The record of each item: its box's keys, then `fields`."""
    keys = _BOX_KEYS[:7] if fields is OBJECT_FIELDS else _BOX_KEYS
    return [
        {**dict(zip(keys, (*item.box.center, *item.box.size, item.box.yaw, *item.box.velocity))),
         **{name: getattr(item, name) for name, _, _ in fields}}
        for item in items
    ]


def save_proposals(proposals: list[Proposal], path: str | Path) -> None:
    _write_jsonl(to_records(proposals, PROPOSAL_FIELDS), path)


def load_proposals(path: str | Path) -> list[Proposal]:
    return read_records(Proposal, PROPOSAL_FIELDS, path)


def save_annotations(annotations: list[Annotation], path: str | Path) -> None:
    _write_jsonl(to_records(annotations, ANNOTATION_FIELDS), path)


def load_annotations(path: str | Path) -> list[Annotation]:
    return read_records(Annotation, ANNOTATION_FIELDS, path)


def save_detections(detections: list[Detection], path: str | Path) -> None:
    _write_jsonl(to_records(detections, DETECTION_FIELDS), path)


def load_detections(path: str | Path) -> list[Detection]:
    return read_records(Detection, DETECTION_FIELDS, path)


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
    save_json(pair_sets_to_dict(sets), path)


def save_json(obj: dict, path: str | Path) -> None:
    """Write `obj` as the text of `json.dumps(obj, sort_keys=True, indent=2)` and a newline."""
    with _Naming(path):
        Path(path).write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n")


def load_json(path: str | Path) -> dict:
    path = Path(path)
    try:
        return json.loads(_read_text(path))
    except (ValueError, RecursionError) as exc:
        raise DataFormatError(f"{path}: invalid JSON ({exc})") from exc
