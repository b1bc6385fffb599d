"""A fuzz gate over every reader and command.

The files of a `gen --seed 7 --objects 12 --points` scene, its fused grid
and a detections file are mutated in a fixed, seeded list of ways: bit
flips, truncations, duplicated lines, and JSON token swaps. After each
mutation `fuse`, `match`, `eval --peaks-from`, `eval --dets` and `stats`
run in-process. Every run must exit 0 or 2 without raising. An exit-2
message is one line, starting `dualguide: error:`, and names a file. On
exit 0, every grid written reloads through `load_grid` and every JSON
output parses, with no NaN or Infinity in it.
"""

import contextlib
import io
import json
import random
import re
import shutil

import pytest

from dualguide.cli import main
from dualguide.formats import load_grid

JSON_LINES = ("camera_proposals.jsonl", "lidar_proposals.jsonl", "annotations.jsonl",
              "dets.jsonl")
INPUTS = (*JSON_LINES, "manifest.json", "camera.bevg", "lidar.bevg", "points.npy",
          "peaks.bevg")
TOKENS = ("NaN", "1e309", "null", "[]", "true", '"x"')
INTEGER_FIELDS = ("class_id", "visibility_token", "num_lidar_pts")
# (file, field, token) swaps made whatever the seed picks: a NaN score in each
# file that has one, an integral and a fractional float in integer fields, and
# nesting too deep for the JSON parser in a JSON-lines file and a manifest.
DEEP = "[" * 100_000
PINNED_SWAPS = (
    ("lidar_proposals.jsonl", "score", "NaN"),
    ("dets.jsonl", "score", "NaN"),
    ("camera_proposals.jsonl", "class_id", "3.0"),
    ("annotations.jsonl", "visibility_token", "3.5"),
    ("manifest.json", "lidar_strength", "NaN"),
    ("manifest.json", "num_lidar_pts", "3.0"),
    ("dets.jsonl", "score", DEEP),
    ("manifest.json", "camera_strength", DEEP),
)
SEED = 14
N_RANDOM = 22
SCALAR = r'(-?[0-9][0-9.eE+-]*|"[^"]*"|true|false|null)'
FILE_NAME = re.compile(r"\.(jsonl?|bevg|npy)\b")


def _no_constant(name):
    raise ValueError(f"non-finite number {name} in a JSON output")


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def _swap(text, field, token, rng):
    """`text` with the value of one `"field": value` pair replaced by `token`."""
    matches = list(re.finditer(rf'"{field}": {SCALAR}', text))
    if not matches:
        return None
    m = rng.choice(matches)
    return text[: m.start(1)] + token + text[m.end(1):]


def _mutations():
    """A fixed list of `(description, file, (kind, fields, token))`.

    A swap puts `token` in place of the value of one of `fields`, or of any
    field when `fields` is None.
    """
    rng = random.Random(SEED)
    listed = [(f"{field} := {token[:12]}", name, ("swap", (field,), token))
              for name, field, token in PINNED_SWAPS]
    for i in range(N_RANDOM):
        kind = ("flip", "truncate", "duplicate", "swap", "swap")[i % 5]
        text_only = kind in ("duplicate", "swap")
        name = rng.choice((*JSON_LINES, "manifest.json") if text_only else INPUTS)
        if kind == "swap":
            token = rng.choice(TOKENS + ("3.0", "3.5"))
            fields = INTEGER_FIELDS if token in ("3.0", "3.5") else None
            listed.append((f"swap {token}", name, ("swap", fields, token)))
        else:
            listed.append((kind, name, (kind, None, None)))
    return listed


def _mutate(blob, how, rng):
    kind, fields, token = how
    if kind == "flip":
        at = rng.randrange(len(blob))
        return blob[:at] + bytes([blob[at] ^ (1 << rng.randrange(8))]) + blob[at + 1:]
    if kind == "truncate":
        return blob[: rng.randrange(len(blob))]
    text = blob.decode()
    if kind == "duplicate":
        lines = text.splitlines(keepends=True)
        at = rng.randrange(len(lines))
        return "".join(lines[: at + 1] + lines[at:]).encode()
    names = list(fields or re.findall(r'"(\w+)": ', text))
    rng.shuffle(names)
    for name in names:
        swapped = _swap(text, name, token, rng)
        if swapped is not None:
            return swapped.encode()
    return blob


@pytest.fixture(scope="module")
def pristine(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    scene = root / "scene"
    assert _run(["gen", "--seed", "7", "--objects", "12", "--points", "--out", str(scene)])[0] == 0
    assert _run(["fuse", "--scene", str(scene / "manifest.json")])[0] == 0
    shutil.copy(scene / "fused.bevg", scene / "peaks.bevg")
    records = [json.loads(line) for line in (scene / "annotations.jsonl").read_text().splitlines()]
    (scene / "dets.jsonl").write_text(
        "".join(json.dumps({**r, "score": 0.9}) + "\n" for r in records))
    return root, {name: (scene / name).read_bytes() for name in INPUTS}


def test_every_command_exits_0_or_2_on_mutated_files(pristine):
    root, files = pristine
    scene, out = root / "scene", root / "out"
    manifest = str(scene / "manifest.json")
    commands = (
        ["fuse", "--scene", manifest, "--out", str(out / "fuse")],
        ["match", "--scene", manifest, "--out", str(out / "pairs.json")],
        ["eval", "--scene", manifest, "--peaks-from", str(scene / "peaks.bevg"),
         "--out", str(out / "peaks.json")],
        ["eval", "--scene", manifest, "--dets", str(scene / "dets.jsonl"),
         "--out", str(out / "dets.json")],
        ["stats", "--scene", manifest, "--out", str(out / "stats.json")],
    )
    rng = random.Random(SEED)
    exits = {0: 0, 2: 0}
    for description, name, how in _mutations():
        for other, blob in files.items():
            (scene / other).write_bytes(blob)
        (scene / name).write_bytes(_mutate(files[name], how, rng))
        for argv in commands:
            shutil.rmtree(out, ignore_errors=True)
            out.mkdir()
            where = f"{argv[0]} after {description} in {name}"
            code, err = _run(argv)
            assert code in (0, 2), where
            exits[code] += 1
            if code == 2:
                assert err.count("\n") == 1 and err.startswith("dualguide: error: "), (where, err)
                assert FILE_NAME.search(err), (where, err)
                continue
            for path in out.rglob("*"):
                if path.suffix == ".bevg":
                    load_grid(path)
                elif path.suffix == ".json":
                    json.loads(path.read_text(), parse_constant=_no_constant)
    assert exits[0] and exits[2]
