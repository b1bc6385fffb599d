"""Seeded workloads: the input each one writes and the command chain it times.

Every workload runs the same chain a user runs, `gen`, `fuse`, `match` and
`eval`, through `dualguide.cli.main`, so each end-to-end metric exists on
every workload. A run works on one or more scenes derived from the
benchmark seed (see SCENES_PER_RUN). The program only ever sees the files
written here.

- c8-dense: `fuse`, `match` and `eval` read the criterion-8 input (180x180
  grids with 80 camera and 128 LiDAR channels of seeded noise, 150 shared
  plus 50 single-modality proposals per side, all scored >= 0.7), written
  with the public `write_scene`, plus the 150 shared boxes as annotations;
  `eval` scores the 50 strongest peaks of the fused grid against them.
  `gen` cannot produce that input, so here it writes a separate 60-object
  scene at the same channel depth. Matching, extraction and enhancement
  all carry real load.
- scene-deep-sparse: a generated 12-object scene at the same grid size and
  depth; about 12 proposals per side, so grid I/O, refine and copies do
  almost all of the work. IoU, extraction and metrics changes should not
  move it.
- scene-60: a generated 60-object scene on the default 16/24 channels;
  `eval` is dominated by rotated-IoU recall.

The 100-object scene is left out: `gen` fails with "window too crowded" on
some seeds at that density, and a workload must not measure that defect.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

DEEP_CHANNELS = {"camera_channels": 80, "lidar_channels": 128}

WORKLOADS = ("c8-dense", "scene-deep-sparse", "scene-60")

# Artifacts each command writes, relative to the scene it works on.
FUSE_ARTIFACTS = ("fused.bevg", "enhanced_camera.bevg", "enhanced_lidar.bevg", "pairs.json")
MATCH_ARTIFACTS = ("match_pairs.json",)
EVAL_ARTIFACTS = ("report.json",)
GEN_ARTIFACTS = (
    "manifest.json", "camera.bevg", "lidar.bevg", "camera_proposals.jsonl",
    "lidar_proposals.jsonl", "annotations.jsonl",
)


# Scenes per run. Several seeded scenes average out how much work a single
# scene happens to hold: the time of `eval` varies by about 15% (standard
# deviation) between scene seeds on scene-60, and `gen` and `eval` by about
# 6% on c8-dense.
SCENES_PER_RUN = {"c8-dense": 4, "scene-deep-sparse": 4, "scene-60": 16}

# Rounds a run makes at least, however few fit in --seconds. Each is a little
# under what the seed code fits in 35 s, and it fixes the tail percentile per
# workload, so every commit reports the same one (see run.tail_percentile).
MIN_ROUNDS = {"c8-dense": 24, "scene-deep-sparse": 44, "scene-60": 56}


@dataclass(frozen=True)
class Step:
    command: str
    argv: list[str]
    out_dir: Path
    artifacts: tuple[str, ...]


@dataclass
class SceneRun:
    """One seeded scene and the command chain run on it."""

    seed: int
    scene_dir: Path
    steps: list[Step] = field(default_factory=list)

    def annotation_count(self) -> int:
        return len((self.scene_dir / "annotations.jsonl").read_text().splitlines())


@dataclass
class Plan:
    """One workload at one benchmark seed, laid out under a work directory."""

    name: str
    scenes: list[SceneRun]


def scene_seeds(name: str, seed: int) -> list[int]:
    k = SCENES_PER_RUN[name]
    return [seed * k + i for i in range(k)]


def plan(name: str, seed: int, work: Path) -> Plan:
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; expected one of {WORKLOADS}")
    deep = work / "deep.json"
    deep.write_text(json.dumps(DEEP_CHANNELS))
    return Plan(name, [_scene_run(name, s, work / f"scene{s}", deep)
                       for s in scene_seeds(name, seed)])


def _scene_run(name: str, seed: int, scene: Path, deep: Path) -> SceneRun:
    manifest = str(scene / "manifest.json")
    if name == "c8-dense":
        gen_dir = scene.with_name(scene.name + "-gen")
        gen = ["gen", "--seed", str(seed), "--objects", "60", "--config", str(deep),
               "--out", str(gen_dir)]
        eval_extra = ["--max-peaks", "50"]
    else:
        gen_dir = scene
        objects = "12" if name == "scene-deep-sparse" else "60"
        gen = ["gen", "--seed", str(seed), "--objects", objects, "--out", str(scene)]
        if name == "scene-deep-sparse":
            gen += ["--config", str(deep)]
        eval_extra = []
    return SceneRun(seed, scene, [
        Step("gen", gen, gen_dir, GEN_ARTIFACTS),
        Step("fuse", ["fuse", "--scene", manifest], scene, FUSE_ARTIFACTS),
        Step("match", ["match", "--scene", manifest, "--out", str(scene / "match_pairs.json")],
             scene, MATCH_ARTIFACTS),
        Step("eval", ["eval", "--scene", manifest, "--axis", "distance", *eval_extra],
             scene, EVAL_ARTIFACTS),
    ])


def write_c8_scene(seed: int, out_dir: Path) -> None:
    """Write the criterion-8 input for one seed with the public `write_scene`."""
    import numpy as np
    from dualguide import Box3D, BevGrid, GridSpec, PipelineConfig, Proposal, write_scene
    from dualguide.metrics import Annotation
    from dualguide.synth import Scene

    rng = np.random.default_rng(seed)
    camera_grid = BevGrid(GridSpec(180, 180, 80), rng.normal(size=(180, 180, 80)))
    lidar_grid = BevGrid(GridSpec(180, 180, 128), rng.normal(size=(180, 180, 128)))

    def proposal(x, y, w, l, yaw, class_id, modality):
        return Proposal(Box3D((x, y, 1.0), (w, l, 1.5), yaw),
                        float(rng.uniform(0.7, 1.0)), class_id, modality)

    camera, lidar, annotations = [], [], []
    for _ in range(150):
        x, y = (float(v) for v in rng.uniform(-48, 48, size=2))
        w, l = (float(v) for v in rng.uniform(2.0, 5.0, size=2))
        yaw = float(rng.uniform(-math.pi, math.pi))
        class_id = int(rng.integers(0, 10))
        lidar.append(proposal(x, y, w, l, yaw, class_id, "lidar"))
        annotations.append(Annotation(Box3D((x, y, 1.0), (w, l, 1.5), yaw), class_id))
        jx, jy = (float(v) for v in rng.normal(0.0, 0.05, size=2))
        camera.append(proposal(x + jx, y + jy, w, l, yaw, class_id, "camera"))
    for modality, out in (("camera", camera), ("lidar", lidar)):
        for _ in range(50):
            x, y = (float(v) for v in rng.uniform(-48, 48, size=2))
            w, l = (float(v) for v in rng.uniform(1.0, 4.0, size=2))
            out.append(proposal(x, y, w, l, float(rng.uniform(-math.pi, math.pi)),
                                int(rng.integers(0, 10)), modality))
    scene = Scene(camera_grid, lidar_grid, camera, lidar, annotations, [])
    write_scene(scene, out_dir, PipelineConfig(**DEEP_CHANNELS), seed, "mixed")
