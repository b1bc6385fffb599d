"""Command-line entry point.

Subcommands: gen (synthesize a scene), fuse (run the full pipeline and write
enhanced/fused grids plus the pair dump), match (pair matching only), eval
(stratified metrics), stats (visibility/point-count histogram), loss (loss
components from supplied arrays and an optional scene). Exit codes: 0 on
success, 1 on usage errors, 2 on data/configuration errors.
"""

from __future__ import annotations

import argparse
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
from .losses import RunningMax, composite_loss, focal_loss, l1_loss, pair_cosine_loss
from .metrics import (
    AXES,
    POINT_BUCKETS,
    StratifiedReport,
    evaluate,
    stratified_eval,
    visibility_histogram,
)
from .pipeline import build_projections, run_fusion, run_matching
from .synth import (
    GAP_PROFILES,
    READOUT_CLASS,
    Scene,
    energy_peak_detections,
    generate_scene,
    load_scene,
    scene_paths,
    write_scene,
)

log = logging.getLogger("dualguide")


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage problems; this project reserves 2 for data
    # errors, so remap usage failures to 1.
    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    """--config plus the five pipeline flags, for the commands that read them."""
    p.add_argument("--config", help="JSON config file; flags override its values")
    p.add_argument("--gamma", type=float, help="proposal score threshold")
    p.add_argument("--eta", type=float, help="overlap threshold for easy pairs")
    p.add_argument("--sampling-strategy", dest="sampling_strategy")
    p.add_argument("--grouping-strategy", dest="grouping_strategy")
    p.add_argument("--projection-seed", dest="projection_seed", type=int)


def _config_from_args(args: argparse.Namespace) -> PipelineConfig:
    return load_config(
        args.config,
        gamma=args.gamma,
        eta=args.eta,
        sampling_strategy=args.sampling_strategy,
        grouping_strategy=args.grouping_strategy,
        projection_seed=args.projection_seed,
    )


def _scene_and_config(args: argparse.Namespace) -> tuple[Scene, PipelineConfig]:
    """The scene named by --scene and the config from the flags, sized to its grids."""
    config = _config_from_args(args)
    scene, _ = load_scene(args.scene)
    # Projections and context weights must size to the grids actually
    # loaded, not to whatever the config file assumed.
    return scene, replace(
        config,
        camera_channels=scene.camera_grid.spec.channels,
        lidar_channels=scene.lidar_grid.spec.channels,
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="dualguide", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="synthesize a scene")
    p_gen.add_argument("--out", default="scene", help="output directory")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--objects", type=int, default=12)
    p_gen.add_argument("--profile", default="mixed", choices=GAP_PROFILES)
    p_gen.add_argument("--points", action="store_true", help="also write a point cloud")
    p_gen.add_argument("--config", help="JSON config file; gen reads its grid size and depths")

    p_fuse = sub.add_parser("fuse", help="run the fusion pipeline on a scene")
    p_fuse.add_argument("--scene", default="scene/manifest.json")
    p_fuse.add_argument("--out", default=None, help="defaults to the scene directory")
    p_fuse.add_argument("--no-enhance", action="store_true",
                        help="fuse the raw grids (baseline), skipping enhancement")
    _add_config_flags(p_fuse)

    p_match = sub.add_parser("match", help="instance pair matching only")
    p_match.add_argument("--scene", default="scene/manifest.json")
    p_match.add_argument("--out", default=None, help="defaults to pairs.json next to the scene")
    _add_config_flags(p_match)

    p_eval = sub.add_parser("eval", help="stratified detection metrics")
    p_eval.add_argument("--scene", default="scene/manifest.json")
    p_eval.add_argument("--dets", help="detections JSON-lines file")
    p_eval.add_argument("--peaks-from", dest="peaks_from",
                        help="grid file to read detections from via energy peaks")
    p_eval.add_argument("--max-peaks", dest="max_peaks", type=int, default=None)
    p_eval.add_argument("--axis", default="none", choices=("none",) + AXES)
    p_eval.add_argument("--out", default=None, help="report JSON path")

    p_stats = sub.add_parser("stats", help="visibility/point-count histogram")
    p_stats.add_argument("--scene", default="scene/manifest.json")
    p_stats.add_argument("--out", default=None)

    p_loss = sub.add_parser("loss", help="loss components and total")
    p_loss.add_argument("--components", required=True,
                        help="JSON file with per-branch pred/target arrays")
    p_loss.add_argument("--scene", default=None,
                        help="optional scene; its easy pairs supply the cosine term")
    p_loss.add_argument("--history", type=float, default=0.0,
                        help="running maximum of the cosine loss so far")
    p_loss.add_argument("--out", default=None)
    _add_config_flags(p_loss)

    return parser


def _cmd_gen(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    scene = generate_scene(config, args.seed, args.objects, args.profile, args.points)
    manifest = write_scene(scene, args.out, config, args.seed, args.profile)
    print(manifest)
    return 0


def _cmd_fuse(args: argparse.Namespace) -> int:
    scene, config = _scene_and_config(args)
    out = Path(args.out) if args.out else Path(args.scene).parent
    out.mkdir(parents=True, exist_ok=True)
    result = run_fusion(
        scene.camera_grid,
        scene.lidar_grid,
        scene.camera_proposals,
        scene.lidar_proposals,
        config,
        enhance=not args.no_enhance,
    )
    formats.save_grid(result.enhanced_camera, out / "enhanced_camera.bevg")
    formats.save_grid(result.enhanced_lidar, out / "enhanced_lidar.bevg")
    formats.save_grid(result.fused, out / "fused.bevg")
    formats.save_pair_sets(result.pairs, out / "pairs.json")
    log.info(
        "fused %d easy / %d camera-hard / %d lidar-hard pairs",
        len(result.pairs.easy), len(result.pairs.camera_hard), len(result.pairs.lidar_hard),
    )
    print(out / "fused.bevg")
    return 0


def _cmd_match(args: argparse.Namespace) -> int:
    scene, config = _scene_and_config(args)
    stage = run_matching(
        scene.camera_grid, scene.lidar_grid,
        scene.camera_proposals, scene.lidar_proposals, config,
    )
    out = Path(args.out) if args.out else Path(args.scene).parent / "pairs.json"
    formats.save_pair_sets(stage.pairs, out)
    print(out)
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    _, paths = scene_paths(args.scene, ("annotations",))
    annotations = formats.load_annotations(paths["annotations"])
    if args.dets and args.peaks_from:
        raise ConfigurationError("pass either --dets or --peaks-from, not both")
    if args.dets:
        dets = formats.load_detections(args.dets)
    else:
        grid_path = args.peaks_from or Path(args.scene).parent / "fused.bevg"
        if not args.peaks_from and not grid_path.exists():
            raise ConfigurationError(
                "no detections: pass --dets or --peaks-from, or run fuse first"
            )
        dets = energy_peak_detections(formats.load_grid(grid_path), args.max_peaks)
        # The readout gives every detection one class, so AP is scored
        # class-agnostically against annotations relabelled to that class.
        annotations = [replace(a, class_id=READOUT_CLASS) for a in annotations]
    class_agnostic = not args.dets

    if args.axis == "none":
        strat = StratifiedReport("none", [evaluate(dets, annotations)])
        text = f"n_gt={len(annotations)} n_det={len(dets)} mAP={strat.bins[0].mean_ap}"
    else:
        strat = stratified_eval(dets, annotations, args.axis)
        text = strat.to_text()
    if class_agnostic:
        text += "\nmAP is class-agnostic: readout detections carry no class"
    print(text)
    out = Path(args.out) if args.out else Path(args.scene).parent / "report.json"
    formats.save_json({**strat.to_dict(), "class_agnostic": class_agnostic}, out)
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    _, paths = scene_paths(args.scene, ("annotations", "points"))
    points = np.load(paths["points"]) if "points" in paths else None
    table = visibility_histogram(formats.load_annotations(paths["annotations"]), points)
    print(f"{'token':>6} " + "".join(f"{b:>8}" for b in POINT_BUCKETS))
    for token in (4, 3, 2, 1):
        print(f"{token:>6} " + "".join(f"{n:>8}" for n in table[token]))
    out = Path(args.out) if args.out else Path(args.scene).parent / "stats.json"
    formats.save_json(
        {"buckets": list(POINT_BUCKETS), "counts": {str(t): table[t] for t in table}},
        out,
    )
    return 0


def _branch_loss(branch: dict) -> float:
    value = 0.0
    if "cls_pred" in branch:
        value += focal_loss(np.array(branch["cls_pred"]), np.array(branch["cls_target"]))
    if "box_pred" in branch:
        value += l1_loss(np.array(branch["box_pred"]), np.array(branch["box_target"]))
    return value


def _cmd_loss(args: argparse.Namespace) -> int:
    components = formats.load_json(args.components)
    try:
        l_head = _branch_loss(components["head"])
        l_lidar = _branch_loss(components["lidar"])
        l_camera = _branch_loss(components["camera"])
    except KeyError as exc:
        raise DataFormatError(f"{args.components}: missing section {exc}") from exc

    cosine = components.get("cosine")
    if args.scene:
        scene, config = _scene_and_config(args)
        stage = run_matching(
            scene.camera_grid, scene.lidar_grid,
            scene.camera_proposals, scene.lidar_proposals, config,
        )
        projections = build_projections(config)
        cosine = pair_cosine_loss(
            stage.pairs.easy, projections.lidar_squeeze, projections.camera_squeeze
        )
    else:
        config = _config_from_args(args)
    total, history = composite_loss(
        l_head, l_lidar, l_camera, cosine,
        config.loss_weights(), RunningMax(args.history),
    )
    report = {
        "head": l_head,
        "lidar": l_lidar,
        "camera": l_camera,
        "cosine": cosine,
        "cosine_used": cosine if cosine is not None else history.max_seen,
        "history_max": history.max_seen,
        "lambdas": list(config.lambdas),
        "total": total,
    }
    print(json.dumps(report, sort_keys=True))
    if args.out:
        formats.save_json(report, args.out)
    return 0


_COMMANDS = {
    "gen": _cmd_gen,
    "fuse": _cmd_fuse,
    "match": _cmd_match,
    "eval": _cmd_eval,
    "stats": _cmd_stats,
    "loss": _cmd_loss,
}


def main(argv: list[str] | None = None) -> int:
    level = os.environ.get("DUALGUIDE_LOG", "error").lower()
    logging.basicConfig(
        level={"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}.get(
            level, logging.ERROR
        ),
        format="%(levelname)s %(name)s: %(message)s",
    )
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except (DataFormatError, ConfigurationError, ContractError, FileNotFoundError,
            KeyError) as exc:
        print(f"dualguide: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
