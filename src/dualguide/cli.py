"""Command-line entry point.

Subcommands: gen (synthesize a scene), fuse (run the full pipeline and write
enhanced/fused grids plus the pair dump), match (pair matching only), eval
(stratified metrics), stats (visibility/point-count histogram), loss (loss
components from supplied arrays and an optional scene).

`main` parses, dispatches and reports data errors. The parser is built on
the first call only (`build_parser` is cached); each subparser sets its
command's handler as `run`. Exit codes: 0 on success and `--help`, 1 on
usage errors (argparse's 2), 2 in one line on a `DataFormatError`, a
`ConfigurationError` or a failed file operation (`OSError`): a missing
path, a directory where a file is read, a file where `--out` names a
directory, a grid output that is neither a regular file nor absent, or a
failed write. Data is checked where it enters, so any other exception is a
bug and propagates. `DUALGUIDE_LOG` is read on every call.

`gen` places its scene (`synth.place_scene`) and writes it with
`synth.write_scene`, which renders each grid file in row blocks, so `gen`
never holds a grid. `fuse`, `match` and `loss` open their scene with
`pipeline.open_scene`: it holds the dense camera grid only through the
refine and the camera extraction, then gathers the LiDAR cells the front
stage samples. `fuse` enhances the gathered cells of both grids in place
(`pipeline.run_fusion`, or `pipeline.run_matching` alone under
`--no-enhance`), then writes `enhanced_camera.bevg`, `enhanced_lidar.bevg`
and `fused.bevg` in one pass over row blocks (`formats.save_grid`), reading
each block's camera and LiDAR rows again through their handles. So it holds
no grid or concatenation while it writes. Every command that takes a scene
parses its manifest once, and every command refuses, before writing
anything, an output that is one of its inputs (a scene file, `eval`'s
detections or grid, `loss`'s components, the config or a weight file read).
`eval`'s readout reads the grid's energy map in row blocks, never the grid.
"""

from __future__ import annotations

import argparse
import functools
import json
import logging
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import formats
from .config import PipelineConfig, load_config
from .errors import ConfigurationError, ContractError, DataFormatError
from .losses import composite_loss, focal_loss, l1_loss, pair_cosine_loss
from .metrics import AXES, POINT_BUCKETS, stratified_eval, visibility_histogram
from .pipeline import build_projections, open_scene, run_fusion, run_matching
from .synth import (
    GAP_PROFILES,
    MANIFEST_NAME,
    READOUT_CLASS,
    SCENE_FILE_NAMES,
    SCENE_FILES,
    energy_peak_detections,
    place_scene,
    read_cell_energy,
    scene_paths,
    write_scene,
)

log = logging.getLogger("dualguide")


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    """--config plus the four pipeline flags, for the commands that read them."""
    p.add_argument("--config", help="JSON config file; flags override its values")
    p.add_argument("--gamma", type=float, help="proposal score threshold")
    p.add_argument("--eta", type=float, help="overlap threshold for easy pairs")
    p.add_argument("--sampling-strategy", dest="sampling_strategy")
    p.add_argument("--grouping-strategy", dest="grouping_strategy")


# Destinations of the four pipeline flags; only a scene's pipeline reads them.
_PIPELINE_DESTS = ("gamma", "eta", "sampling_strategy", "grouping_strategy")


def _config_from_args(args: argparse.Namespace) -> PipelineConfig:
    return load_config(args.config, **{d: getattr(args, d) for d in _PIPELINE_DESTS})


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of a process; each subparser sets `run`, its command's handler."""
    parser = argparse.ArgumentParser(prog="dualguide", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="synthesize a scene")
    p_gen.add_argument("--out", default="scene", help="output directory")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--objects", type=int, default=12)
    p_gen.add_argument("--profile", default="mixed", choices=GAP_PROFILES)
    p_gen.add_argument("--points", action="store_true", help="also write a point cloud")
    p_gen.add_argument("--config", help="JSON config file; gen reads its grid size and depths")
    p_gen.set_defaults(run=_cmd_gen)

    p_fuse = sub.add_parser("fuse", help="run the fusion pipeline on a scene")
    p_fuse.add_argument("--scene", default="scene/manifest.json")
    p_fuse.add_argument("--out", default=None, help="defaults to the scene directory")
    p_fuse.add_argument("--no-enhance", action="store_true",
                        help="fuse the raw grids (baseline), skipping enhancement")
    _add_config_flags(p_fuse)
    p_fuse.set_defaults(run=_cmd_fuse)

    p_match = sub.add_parser("match", help="instance pair matching only")
    p_match.add_argument("--scene", default="scene/manifest.json")
    p_match.add_argument("--out", default=None, help="defaults to pairs.json next to the scene")
    _add_config_flags(p_match)
    p_match.set_defaults(run=_cmd_match)

    p_eval = sub.add_parser("eval", help="stratified detection metrics")
    p_eval.add_argument("--scene", default="scene/manifest.json")
    source = p_eval.add_mutually_exclusive_group()
    source.add_argument("--dets", help="detections JSON-lines file")
    source.add_argument("--peaks-from", dest="peaks_from",
                        help="grid file to read detections from via energy peaks")
    p_eval.add_argument("--max-peaks", dest="max_peaks", type=int, default=None)
    p_eval.add_argument("--axis", default="none", choices=AXES)
    p_eval.add_argument("--out", default=None, help="report JSON path")
    p_eval.set_defaults(run=_cmd_eval)

    p_stats = sub.add_parser("stats", help="visibility/point-count histogram")
    p_stats.add_argument("--scene", default="scene/manifest.json")
    p_stats.add_argument("--out", default=None)
    p_stats.set_defaults(run=_cmd_stats)

    p_loss = sub.add_parser("loss", help="loss components and total")
    p_loss.add_argument("--components", required=True,
                        help="JSON file with per-branch pred/target arrays")
    p_loss.add_argument("--scene", default=None,
                        help="optional scene; its easy pairs supply the cosine term")
    p_loss.add_argument("--history", type=float, default=0.0,
                        help="running maximum of the cosine loss so far")
    p_loss.add_argument("--out", default=None)
    _add_config_flags(p_loss)
    p_loss.set_defaults(run=_cmd_loss)

    return parser


# The files `fuse` writes into its output directory.
FUSE_OUTPUTS = ("enhanced_camera.bevg", "enhanced_lidar.bevg", "fused.bevg", "pairs.json")


def _cmd_gen(args: argparse.Namespace) -> None:
    config = load_config(args.config)
    names = [MANIFEST_NAME] + [name for key, name in SCENE_FILE_NAMES.items()
                               if args.points or key != "points"]
    _check_outputs(None, [Path(args.out) / name for name in names], (args.config,))
    scene = place_scene(config, args.seed, args.objects, args.profile, args.points)
    print(write_scene(scene, args.out, config, args.seed, args.profile))


def _check_outputs(manifest: str | None, outputs: list[Path], inputs: tuple = (),
                   keys: tuple[str, ...] = SCENE_FILES) -> tuple[dict, dict[str, Path]] | None:
    """`scene_paths(manifest, keys)` (None without a manifest), once no output is an input.

    The inputs are the paths of `inputs` (None, an unset path, is skipped),
    the manifest and the files it lists. An output that is the same file as
    one raises ConfigurationError. A grid output's sidecar, written beside
    the grid's realpath, counts too.
    """
    def file_id(path: str | Path) -> tuple[int, int]:
        st = os.stat(path)
        return st.st_dev, st.st_ino

    parsed = scene_paths(manifest, keys) if manifest else None
    if parsed:
        names = [name for name in parsed[0]["files"].values() if isinstance(name, str)]
        inputs += (Path(manifest), *(Path(manifest).parent / name for name in names))
    inputs = {file_id(p): Path(p) for p in inputs if p and os.path.exists(p)}
    sidecars = [Path(f"{os.path.realpath(p)}.json") for p in outputs if p.suffix == ".bevg"]
    for path in outputs + sidecars:
        if path.exists() and file_id(path) in inputs:
            raise ConfigurationError(f"output {path} is the input {inputs[file_id(path)]}")
    return parsed


def _cmd_fuse(args: argparse.Namespace) -> None:
    config = _config_from_args(args)  # checked before the scene loads
    out = Path(args.out) if args.out else Path(args.scene).parent
    # The config, and the weight files run_fusion reads.
    weights = [] if args.no_enhance else [config.lidar_squeeze_path, config.excitation_path]
    parsed = _check_outputs(args.scene, [out / name for name in FUSE_OUTPUTS],
                            (args.config, *weights))
    with open_scene(args.scene, config, parsed) as (scene, instances):
        camera, lidar = scene.camera_grid, scene.lidar_grid
        pairs = (run_matching(instances, lidar, scene.lidar_proposals, config) if args.no_enhance
                 else run_fusion(camera, lidar, instances, scene.lidar_proposals, config))
        out.mkdir(parents=True, exist_ok=True)
        formats.save_grid([
            (camera, out / "enhanced_camera.bevg"),
            (lidar, out / "enhanced_lidar.bevg"),
            (lidar, camera, out / "fused.bevg"),
        ])
    formats.save_pair_sets(pairs, out / "pairs.json")
    log.info(
        "fused %d easy / %d camera-hard / %d lidar-hard pairs",
        len(pairs.easy), len(pairs.camera_hard), len(pairs.lidar_hard),
    )
    print(out / "fused.bevg")


def _cmd_match(args: argparse.Namespace) -> None:
    config = _config_from_args(args)
    out = Path(args.out) if args.out else Path(args.scene).parent / "pairs.json"
    parsed = _check_outputs(args.scene, [out], (args.config,))
    with open_scene(args.scene, config, parsed) as (scene, instances):
        pairs = run_matching(instances, scene.lidar_grid, scene.lidar_proposals, config)
    formats.save_pair_sets(pairs, out)
    print(out)


def _cmd_eval(args: argparse.Namespace) -> None:
    out = Path(args.out) if args.out else Path(args.scene).parent / "report.json"
    source = Path(args.dets or args.peaks_from or Path(args.scene).parent / "fused.bevg")
    _, paths = _check_outputs(args.scene, [out], (source,), ("annotations",))
    annotations = formats.load_annotations(paths["annotations"])
    if args.dets:
        dets = formats.load_detections(source)
    else:
        if not args.peaks_from and not source.exists():
            raise ConfigurationError(
                "no detections: pass --dets or --peaks-from, or run fuse first"
            )
        dets = energy_peak_detections(*read_cell_energy(source), args.max_peaks)
        # The readout gives every detection one class, so AP is scored
        # class-agnostically against annotations relabelled to that class.
        annotations = [replace(a, class_id=READOUT_CLASS) for a in annotations]
    class_agnostic = not args.dets

    strat = stratified_eval(dets, annotations, args.axis)
    text = strat.to_text()
    if class_agnostic:
        text += "\nmAP is class-agnostic: readout detections carry no class"
    print(text)
    formats.save_json({**strat.to_dict(), "class_agnostic": class_agnostic}, out)


def _cmd_stats(args: argparse.Namespace) -> None:
    out = Path(args.out) if args.out else Path(args.scene).parent / "stats.json"
    _, paths = _check_outputs(args.scene, [out], keys=("annotations", "points"))
    points = formats.load_points(paths["points"]) if "points" in paths else None
    table = visibility_histogram(formats.load_annotations(paths["annotations"]), points)
    print(f"{'token':>6} " + "".join(f"{b:>8}" for b in POINT_BUCKETS))
    for token in (4, 3, 2, 1):
        print(f"{token:>6} " + "".join(f"{n:>8}" for n in table[token]))
    formats.save_json(
        {"buckets": list(POINT_BUCKETS), "counts": {str(t): table[t] for t in table}},
        out,
    )


def _loss_array(key: str, value) -> np.ndarray:
    """`value` as an array when it is a non-empty array of finite numbers, else ValueError."""
    try:
        array = np.array(value)
    except ValueError:  # a ragged list
        array = np.array(None)
    if array.dtype.kind not in "iuf" or not array.size or not np.isfinite(array).all():
        raise ValueError(f"{key} must be a non-empty array of finite numbers")
    return array


def _branch_loss(name: str, branch) -> float:
    if not isinstance(branch, dict):
        raise ValueError(f"section {name!r} must be a JSON object")
    value = 0.0
    for kind, loss in (("cls", focal_loss), ("box", l1_loss)):
        if f"{kind}_pred" in branch:
            value += loss(*(_loss_array(f"{name}.{kind}_{part}", branch.get(f"{kind}_{part}"))
                            for part in ("pred", "target")))
    return value


# The cosine loss lies in [0, _COSINE_MAX]: `--history` and a components `cosine` are held to it.
_COSINE_MAX = 2.0


def _cmd_loss(args: argparse.Namespace) -> None:
    if not 0 <= args.history <= _COSINE_MAX:  # False for nan
        raise ConfigurationError(f"--history must be in [0, {_COSINE_MAX:g}], the cosine loss's "
                                 f"range, got {args.history}")
    config = _config_from_args(args)
    outputs = [Path(args.out)] if args.out else []
    weights = [config.lidar_squeeze_path, config.camera_squeeze_path] if args.scene else []
    parsed = _check_outputs(args.scene, outputs, (args.components, args.config, *weights))
    components = formats.load_json(args.components)
    try:
        if not isinstance(components, dict):
            raise ValueError("expected a JSON object")
        with np.errstate(over="ignore"):  # finite inputs may overflow: refused below
            l_head, l_lidar, l_camera = (_branch_loss(name, components[name])
                                         for name in ("head", "lidar", "camera"))
        cosine = components.get("cosine")
        if cosine is not None and not 0 <= formats._finite("cosine", cosine) <= _COSINE_MAX:
            raise ValueError(f"cosine must be in [0, {_COSINE_MAX:g}], the cosine loss's range, "
                             f"got {cosine}")
    except KeyError as exc:
        raise DataFormatError(f"{args.components}: missing section {exc}") from exc
    except (ContractError, ValueError) as exc:  # ContractError: pred and target shapes differ
        raise DataFormatError(f"{args.components}: {exc}") from exc
    if args.scene:
        with open_scene(args.scene, config, parsed) as (scene, instances):
            pairs = run_matching(instances, scene.lidar_grid, scene.lidar_proposals, config)
        cosine = pair_cosine_loss(pairs.easy, *build_projections(
            config, scene.camera_grid.spec.channels, scene.lidar_grid.spec.channels,
            "lidar_squeeze", "camera_squeeze"))
    total, history_max = composite_loss(
        l_head, l_lidar, l_camera, cosine, config.lambdas, args.history
    )
    report = {
        "head": l_head,
        "lidar": l_lidar,
        "camera": l_camera,
        "cosine": cosine,
        "cosine_used": cosine if cosine is not None else history_max,
        "history_max": history_max,
        "lambdas": list(config.lambdas),
        "total": total,
    }
    for key in ("head", "lidar", "camera"):
        if not np.isfinite(report[key]):
            raise DataFormatError(f"{args.components}: {key} overflows to {report[key]}")
    if not np.isfinite(total):  # every term is finite, so the weights overflow it
        raise ConfigurationError(f"{args.config or 'default config'}: lambdas "
                                 f"{report['lambdas']} overflow the total to {total}")
    print(json.dumps(report, sort_keys=True))
    if args.out:
        formats.save_json(report, args.out)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        given = [dest for dest in _PIPELINE_DESTS if getattr(args, dest, None) is not None]
        if args.command == "loss" and not args.scene and given:
            parser.error(f"loss: --{given[0].replace('_', '-')} needs --scene")
        if args.command == "eval" and args.dets and args.max_peaks is not None:
            parser.error("eval: --max-peaks caps the readout, which --dets replaces")
    except SystemExit as exc:  # argparse exits 2 on a usage error, which is 1 here
        return 1 if exc.code else 0
    # basicConfig acts once per process, so the level is set for each command.
    logging.basicConfig(format="%(levelname)s %(name)s: %(message)s")
    level = os.environ.get("DUALGUIDE_LOG", "error").lower()
    outer = log.level
    log.setLevel({"info": logging.INFO, "debug": logging.DEBUG}.get(level, logging.ERROR))
    try:
        args.run(args)
    except (DataFormatError, ConfigurationError, OSError) as exc:
        print(f"dualguide: error: {exc}", file=sys.stderr)
        return 2
    finally:
        log.setLevel(outer)
    return 0


if __name__ == "__main__":
    sys.exit(main())
