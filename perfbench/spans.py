"""Nested spans around dualguide's public functions, recorded from outside.

`Tracer.install` replaces each target function, by name, in every loaded
`dualguide` module that holds a reference to it (the package re-exports
names and modules import them with `from .x import y`), so a call is
recorded whichever module makes it. Names that no longer exist are reported
as absent instead of failing the run. Each span keeps its parent, so busy
time (a span's duration) and self time (duration minus direct children) are
both available; counts are read from arguments and return values after the
span has closed. Time spent in the tracer's own bookkeeping is subtracted
from every span that is open while it runs.
"""

from __future__ import annotations

import importlib
import inspect
import os
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np


def _file_bytes(bound, result, before):
    return os.path.getsize(bound["path"])


def _len_result(bound, result, before):
    return len(result)


def _cells_changed(bound, result, before):
    return int(np.count_nonzero((result.data != before).any(axis=2)))


def _lidar_grid_copy(bound):
    return bound["lidar_grid"].data.copy()


def _non_empty_bins(bound, result, before):
    return sum(1 for b in result.bins if not b.no_data)


@dataclass(frozen=True)
class Target:
    """A public function to wrap, with the counts to take from each call.

    `counts` maps a quantity to f(bound_args, result, before); `before`, if
    given, runs on the bound arguments just before the call (outside the
    span's time). `by_caller` names the span after the calling module too.
    """

    name: str
    counts: dict = field(default_factory=dict)
    before: object = None
    by_caller: bool = False


TARGETS = (
    Target("cli.main"),
    Target("synth.generate_scene"),
    Target("synth.write_scene"),
    Target("synth.load_scene"),
    Target("synth.energy_peak_detections", {"detections": _len_result}),
    Target("formats.save_grid", {"bytes": _file_bytes}),
    Target("formats.load_grid", {"bytes": _file_bytes}),
    Target("formats.load_proposals"),
    Target("formats.save_pair_sets"),
    Target("grid.global_context_refine"),
    Target("grid.bilinear_sample"),
    Target("pipeline.build_projections"),
    Target("pipeline.run_fusion"),
    Target("instances.build_instances", {
        "proposals_in": lambda bound, result, before: len(bound["proposals"]),
        "instances_out": _len_result,
    }),
    Target("geometry.rotated_iou_2d", by_caller=True),
    Target("matching.match_pairs"),
    Target("matching.match_by_overlap", {
        "easy": lambda bound, result, before: len(result[0]),
    }),
    Target("matching.match_by_similarity", {"hard_pairs": _len_result}),
    Target("matching.filter_pairs_by_group", {
        "dropped": lambda bound, result, before: len(bound["pairs"]) - len(result),
    }),
    Target("enhance.enhance_camera_grid"),
    Target("enhance.enhance_lidar_grid", {"cells_changed": _cells_changed},
           before=_lidar_grid_copy),
    Target("enhance.fuse_grids", {
        "bytes": lambda bound, result, before: result.data.nbytes,
    }),
    Target("losses.pair_cosine_loss"),
    Target("metrics.stratified_eval", {"bins": _non_empty_bins}),
    Target("metrics.mean_ap"),
    Target("metrics.ap_table"),
    Target("metrics.recall_at_iou"),
)

# Exceptions a count function raises when a later version of the program
# renamed a parameter or changed a return type; the count is then absent.
_COUNT_ERRORS = (KeyError, AttributeError, TypeError, IndexError, OSError)


class Span:
    __slots__ = ("name", "parent", "start", "end", "counts")

    def __init__(self, name: str, parent: "Span | None"):
        self.name = name
        self.parent = parent
        self.start = 0.0
        self.end = 0.0
        self.counts: dict[str, int] = {}


class Tracer:
    """Records spans while installed; single-threaded by design."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.absent: set[str] = set()
        self._stack: list[Span] = []
        self._paused = 0.0
        self._restore: list[tuple[object, str, object]] = []

    def install(self, targets=TARGETS) -> None:
        for target in targets:
            module_name, func_name = target.name.rsplit(".", 1)
            module = importlib.import_module(f"dualguide.{module_name}")
            original = getattr(module, func_name, None)
            if original is None:
                self.absent.add(target.name)
                continue
            for host_name, host in list(sys.modules.items()):
                if host_name != "dualguide" and not host_name.startswith("dualguide."):
                    continue
                for attr, value in list(vars(host).items()):
                    if value is original:
                        caller = host_name.rsplit(".", 1)[-1]
                        span_name = f"{target.name}.{caller}" if target.by_caller else target.name
                        setattr(host, attr, self._wrap(span_name, original, target))
                        self._restore.append((host, attr, original))

    def uninstall(self) -> None:
        for host, attr, original in reversed(self._restore):
            setattr(host, attr, original)
        self._restore.clear()

    def take(self) -> list[Span]:
        """Hand over the spans recorded since the last call."""
        spans, self.spans = self.spans, []
        return spans

    def _wrap(self, span_name: str, fn, target: Target):
        perf = time.perf_counter
        stack = self._stack
        signature = inspect.signature(fn) if target.counts else None

        def wrapper(*args, **kwargs):
            t0 = perf()
            span = Span(span_name, stack[-1] if stack else None)
            bound = before = None
            if signature is not None:
                bound = signature.bind(*args, **kwargs).arguments
                if target.before is not None:
                    try:
                        before = target.before(bound)
                    except _COUNT_ERRORS:
                        self.absent.update(f"{target.name}.{q}" for q in target.counts)
                        bound = None
            stack.append(span)
            t1 = perf()
            self._paused += t1 - t0
            span.start = t1 - self._paused
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                t2 = perf()
                span.end = t2 - self._paused
                stack.pop()
                self.spans.append(span)
                if ok and bound is not None:
                    for quantity, count in target.counts.items():
                        try:
                            span.counts[quantity] = int(count(bound, result, before))
                        except _COUNT_ERRORS:
                            self.absent.add(f"{target.name}.{quantity}")
                self._paused += perf() - t2
            return result

        wrapper.__wrapped__ = fn
        return wrapper


class Aggregate:
    """Per-name totals over one set of spans."""

    def __init__(self, spans: list[Span]):
        child_time: dict[int, float] = defaultdict(float)
        for s in spans:
            if s.parent is not None:
                child_time[id(s.parent)] += s.end - s.start
        self.busy: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[tuple[str, str], int] = defaultdict(int)
        for s in spans:
            duration = s.end - s.start
            self.busy[s.name] += duration
            self.self_time[s.name] += duration - child_time[id(s)]
            self.calls[s.name] += 1
            for quantity, value in s.counts.items():
                self.counts[(s.name, quantity)] += value


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _busy(name):
    return [name], lambda a: a.busy[name]


def _self(name):
    return [name], lambda a: a.self_time[name]


def _calls(name):
    return [name], lambda a: a.calls[name]


def _count(name, quantity):
    return [name, f"{name}.{quantity}"], lambda a: a.counts[(name, quantity)]


def _by_caller(span_name, table):
    return ["geometry.rotated_iou_2d"], lambda a: getattr(a, table)[span_name]


_IOU_MATCHING = "geometry.rotated_iou_2d.matching"
_IOU_METRICS = "geometry.rotated_iou_2d.metrics"

# name -> (unit, (targets or quantities it needs, value from an Aggregate));
# each value is a total over one pass of the workload's command chain.
PER_LAYER = {
    "formats.save_grid.busy_s": ("s", _busy("formats.save_grid")),
    "formats.save_grid.bytes": ("B", _count("formats.save_grid", "bytes")),
    "formats.load_grid.busy_s": ("s", _busy("formats.load_grid")),
    "formats.load_grid.bytes": ("B", _count("formats.load_grid", "bytes")),
    "formats.load_proposals.busy_s": ("s", _busy("formats.load_proposals")),
    "formats.save_pair_sets.busy_s": ("s", _busy("formats.save_pair_sets")),
    "synth.load_scene.self_s": ("s", _self("synth.load_scene")),
    "grid.global_context_refine.busy_s": ("s", _busy("grid.global_context_refine")),
    "pipeline.build_projections.busy_s": ("s", _busy("pipeline.build_projections")),
    "pipeline.run_fusion.self_s": ("s", _self("pipeline.run_fusion")),
    "instances.build_instances.busy_s": ("s", _busy("instances.build_instances")),
    "instances.build_instances.proposals_in":
        ("count", _count("instances.build_instances", "proposals_in")),
    "instances.build_instances.instances_out":
        ("count", _count("instances.build_instances", "instances_out")),
    "grid.bilinear_sample.calls": ("count", _calls("grid.bilinear_sample")),
    f"{_IOU_MATCHING}.calls": ("count", _by_caller(_IOU_MATCHING, "calls")),
    f"{_IOU_MATCHING}.busy_s": ("s", _by_caller(_IOU_MATCHING, "busy")),
    f"{_IOU_METRICS}.calls": ("count", _by_caller(_IOU_METRICS, "calls")),
    f"{_IOU_METRICS}.busy_s": ("s", _by_caller(_IOU_METRICS, "busy")),
    "matching.match_by_overlap.busy_s": ("s", _busy("matching.match_by_overlap")),
    "matching.match_by_overlap.easy_per_iou": ("ratio", (
        ["matching.match_by_overlap", "matching.match_by_overlap.easy",
         "geometry.rotated_iou_2d"],
        lambda a: _ratio(a.counts[("matching.match_by_overlap", "easy")],
                         a.calls[_IOU_MATCHING]),
    )),
    "matching.match_by_similarity.busy_s": ("s", _busy("matching.match_by_similarity")),
    "matching.match_by_similarity.hard_pairs":
        ("count", _count("matching.match_by_similarity", "hard_pairs")),
    "matching.filter_pairs_by_group.dropped":
        ("count", _count("matching.filter_pairs_by_group", "dropped")),
    "enhance.enhance_camera_grid.busy_s": ("s", _busy("enhance.enhance_camera_grid")),
    "enhance.enhance_lidar_grid.busy_s": ("s", _busy("enhance.enhance_lidar_grid")),
    "enhance.enhance_lidar_grid.cells_changed":
        ("count", _count("enhance.enhance_lidar_grid", "cells_changed")),
    "enhance.fuse_grids.busy_s": ("s", _busy("enhance.fuse_grids")),
    "enhance.fuse_grids.bytes": ("B", _count("enhance.fuse_grids", "bytes")),
    "losses.pair_cosine_loss.busy_s": ("s", _busy("losses.pair_cosine_loss")),
    "synth.generate_scene.busy_s": ("s", _busy("synth.generate_scene")),
    "synth.write_scene.self_s": ("s", _self("synth.write_scene")),
    "synth.energy_peak_detections.busy_s": ("s", _busy("synth.energy_peak_detections")),
    "synth.energy_peak_detections.detections":
        ("count", _count("synth.energy_peak_detections", "detections")),
    "metrics.recall_at_iou.busy_s": ("s", _busy("metrics.recall_at_iou")),
    "metrics.ap_table.busy_s": ("s", _busy("metrics.ap_table")),
    "metrics.ap_table.calls_per_bin": ("ratio", (
        ["metrics.ap_table", "metrics.stratified_eval.bins"],
        lambda a: _ratio(a.calls["metrics.ap_table"],
                         a.counts[("metrics.stratified_eval", "bins")]),
    )),
    "metrics.stratified_eval.self_s": ("s", _self("metrics.stratified_eval")),
    "cli.main.self_s": ("s", _self("cli.main")),
}

COUNT_UNITS = ("count", "B", "ratio")


def layer_values(spans: list[Span]) -> dict[str, float]:
    agg = Aggregate(spans)
    return {name: float(value(agg)) for name, (_, (_, value)) in PER_LAYER.items()}


def absent_metrics(absent: set[str]) -> list[str]:
    """Per-layer metrics that rest on a function or count the program lacks."""
    return [name for name, (_, (needs, _)) in PER_LAYER.items()
            if any(n in absent for n in needs)]


def span_tree(spans: list[Span]) -> list[str]:
    """One line per call path: depth-indented name, calls and busy time."""
    totals: dict[tuple[str, ...], list] = {}

    def path(s: Span) -> tuple[str, ...]:
        names = []
        while s is not None:
            names.append(s.name)
            s = s.parent
        return tuple(reversed(names))

    for s in sorted(spans, key=lambda s: s.start):
        total = totals.setdefault(path(s), [0, 0.0])
        total[0] += 1
        total[1] += s.end - s.start
    return [f"{'  ' * (len(k) - 1)}{k[-1]} calls={calls} busy_s={busy:.6f}"
            for k, (calls, busy) in totals.items()]
