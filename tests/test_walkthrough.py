"""README's CLI walkthrough, run as written, and the scene it leaves.

The commands come from the bash block under `## CLI walkthrough`, as
`test_public.py` takes the library example: each `dualguide` line runs
in-process through `main`, and the `echo TEXT > FILE` line writes its file.
"""

import json
import re
import shlex
import shutil
from pathlib import Path

import numpy as np
import pytest

from dualguide.cli import main
from test_cli import annotations_as_detections, edit_records, exits_2, grid_payload
from test_public import ROOT


def walkthrough_commands():
    found = re.search(r"## CLI walkthrough\n\n```bash\n(.*?)```", (ROOT / "README.md").read_text(),
                      re.S)
    assert found, "README.md has no CLI walkthrough"
    return [argv for line in found.group(1).splitlines()
            if (argv := shlex.split(line, comments=True))]


@pytest.fixture(scope="module")
def walkthrough(tmp_path_factory):
    """The directory the walkthrough ran in, every command exiting 0; the tests run there."""
    root = tmp_path_factory.mktemp("walkthrough")
    with pytest.MonkeyPatch.context() as patch:
        patch.chdir(root)
        for argv in walkthrough_commands():
            if argv[0] == "echo":
                assert argv[2] == ">", argv
                Path(argv[3]).write_text(argv[1] + "\n")
            else:
                assert argv[0] == "dualguide" and main(argv[1:]) == 0, argv
        yield root


def test_fused_grid_is_the_enhanced_grids_lidar_first(walkthrough):
    fused, lidar, camera = (grid_payload(walkthrough / "scene" / f"{name}.bevg")
                            for name in ("fused", "enhanced_lidar", "enhanced_camera"))
    assert np.array_equal(fused, np.concatenate([lidar, camera], axis=2))


def test_every_axis_scores_the_annotations_as_perfect_detections(walkthrough):
    # Visibility bins score every detection, so another bin's count as false
    # positives there: only their recall is 1.0.
    assert main(["eval", "--peaks-from", "scene/fused.bevg", "--max-peaks", "20",
                 "--out", "peaks.json"]) == 0
    annotations_as_detections(walkthrough)
    bins = []
    for axis in ("none", "distance", "visibility", "size"):
        assert main(["eval", "--axis", axis]) == 0
        assert main(["eval", "--dets", "dets.jsonl", "--axis", axis, "--out", "perfect.json"]) == 0
        bins += [(axis, b) for b in json.loads(Path("perfect.json").read_text())["bins"]
                 if b["n_gt"]]
    assert len(bins) >= 5
    for axis, b in bins:
        assert set(b["recall"].values()) == {1.0} and (axis == "visibility" or b["mean_ap"] == 1.0)


def test_a_class_id_written_as_a_float_gives_the_same_pairs(walkthrough):
    shutil.copytree("scene", "float_ids")
    edit_records(Path("float_ids/camera_proposals.jsonl"),
                 lambda records: [r.update(class_id=float(r["class_id"])) for r in records])
    assert main(["match", "--scene", "float_ids/manifest.json", "--out", "float.json"]) == 0
    assert Path("float.json").read_bytes() == Path("scene/pairs.json").read_bytes()


def test_match_checks_the_annotations_it_does_not_build(walkthrough, capsys):
    shutil.copytree("scene", "token5")
    edit_records(Path("token5/annotations.jsonl"), lambda records: records[3].update(
        visibility_token=5))
    err = exits_2(["match", "--scene", "token5/manifest.json"], capsys)
    assert "token5/annotations.jsonl: record 3: visibility token 5 not in 1..4" in err
