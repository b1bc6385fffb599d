#!/usr/bin/env python3
"""Benchmark for dualguide: seeded workloads driven through `dualguide.cli.main`.

Run from the repository root:

    python3 perfbench/run.py --workload c8-dense --seed 0 --seconds 20 --trace 0

It imports the package from `src/` of the same checkout, writes the
workload's inputs under a temporary directory inside the checkout (removed
on exit), and calls `gen`, `fuse`, `match` and `eval` in-process, in that
order, round after round, from one thread. The CLI's output is captured so
it never interleaves with the lines printed here. Every call's outputs are
checked; a call that fails or fails its check counts in `failed`.

`--trace 0` times untraced calls and prints the end-to-end metrics. Their
times are scaled to a reference host speed by a fixed kernel timed between
calls (see REFERENCE_S); the unscaled medians are printed as comments.
`--trace 1` times untraced and then traced rounds, and prints the per-layer
metrics (see spans.py) with the tracing overhead per command.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. `--workload all` runs every
workload in turn and prints one such line each.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import gc
import hashlib
import importlib
import io
import json
import math
import os
import platform
import shutil
import statistics
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import workloads  # a sibling file: the script's directory is on sys.path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

COMMANDS = ("gen", "fuse", "match", "eval")
SETUP_REPEATS = 9
MIN_TRACED_ROUNDS = 3
# Stop starting rounds after this long, whatever --seconds asks, so that a
# much slower program still finishes well inside the three-minute limit.
MAX_MEASURE_S = 100.0
# The host's speed drifts by a fifth or more over minutes, in every command
# at once. A fixed kernel of pure-Python and numpy work, timed between every
# two calls, drifts with it; each call's wall time is scaled by
# REFERENCE_S / (mean of the kernel's times just before and just after it),
# so the end-to-end times are seconds at a host speed where the kernel takes
# REFERENCE_S, about its median on a 2-vCPU x86-64 VM.
REFERENCE_S = 0.006
_KERNEL_DATA = []


def import_dualguide():
    """Import dualguide afresh from this checkout; return (cli module, seconds)."""
    for name in [n for n in sys.modules if n == "dualguide" or n.startswith("dualguide.")]:
        del sys.modules[name]
    t0 = time.perf_counter()
    cli = importlib.import_module("dualguide.cli")
    elapsed = time.perf_counter() - t0
    if not Path(cli.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"dualguide imported from {cli.__file__}, not from {SRC}")
    return cli, elapsed


def host_kernel() -> float:
    """Seconds of one pass of the fixed host-speed kernel (see REFERENCE_S)."""
    import numpy as np

    if not _KERNEL_DATA:
        _KERNEL_DATA.append(np.random.default_rng(0).normal(size=(256, 256, 8)))
    t0 = time.perf_counter()
    total = 0
    for i in range(40_000):
        total += i * i % 7
    (_KERNEL_DATA[0] * 1.5).sum(axis=2)
    return time.perf_counter() - t0


def digests(step: workloads.Step) -> dict[str, str]:
    """Short SHA-256 of each artifact the step writes."""
    return {name: hashlib.sha256((step.out_dir / name).read_bytes()).hexdigest()[:16]
            for name in step.artifacts}


def combined(found: dict[str, str]) -> str:
    """One short digest of a step's artifact digests, as digests.json pins it."""
    return hashlib.sha256(json.dumps(found, sort_keys=True).encode()).hexdigest()[:16]


def eval_report_problem(report: dict, n_annotations: int) -> str | None:
    n_gt = sum(b["n_gt"] for b in report["bins"])
    if n_gt != n_annotations:
        return f"report n_gt {n_gt} != {n_annotations} annotations"
    for b in report["bins"]:
        for threshold, recall in b["recall"].items():
            if recall is not None and not 0.0 <= recall <= 1.0:
                return f"bin {b['label']} recall@{threshold} = {recall} outside [0, 1]"
    return None


class Runner:
    """Runs and checks the steps of one plan, counting what it attempts."""

    def __init__(self, cli, plan: workloads.Plan, pinned: dict):
        self.cli = cli
        self.plan = plan
        self.pinned = pinned  # scene seed -> command -> combined digest
        self.first: dict[tuple[int, str], tuple] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def run(self, scene: workloads.SceneRun, step: workloads.Step) -> float:
        """Run one step; return its wall time in seconds."""
        out, err = io.StringIO(), io.StringIO()
        gc.collect()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.main(step.argv)
        except Exception as exc:  # a crash is a failed operation, not a harness failure
            code = repr(exc)
        wall = time.perf_counter() - t0
        problem = f"exit {code}: {err.getvalue().strip()}" if code != 0 else None
        if problem is None:
            try:
                problem = self.check(scene, step, out.getvalue())
            except (OSError, ValueError, KeyError, TypeError) as exc:
                problem = f"unreadable output: {exc!r}"
        self.record(step.command, problem)
        return wall

    def record(self, operation: str, problem: str | None) -> None:
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(f"{operation}: {problem}")

    def check(self, scene: workloads.SceneRun, step: workloads.Step, stdout: str) -> str | None:
        found = digests(step)
        if step.command == "eval":
            report = json.loads((step.out_dir / "report.json").read_text())
            problem = eval_report_problem(report, scene.annotation_count())
            if problem is not None:
                return problem
            observed = (found, stdout)
        else:
            observed = (found,)
        reference = self.first.setdefault((scene.seed, step.command), observed)
        if observed != reference:
            return "output differs from the first call's"
        expected = self.pinned.get(str(scene.seed), {}).get(step.command)
        if expected is not None and combined(found) != expected:
            return f"output differs from the pinned digest {expected}: {found}"
        return None

    def round(self, scene: workloads.SceneRun) -> dict[str, float]:
        return {step.command: self.run(scene, step) for step in scene.steps}

    def write_input(self, scene: workloads.SceneRun) -> None:
        if self.plan.name != "c8-dense":
            self.run(scene, scene.steps[0])
            return
        try:
            workloads.write_c8_scene(scene.seed, scene.scene_dir)
            problem = None
        except Exception as exc:  # the program's write_scene failed: a failed operation
            problem = repr(exc)
        self.record("write_scene", problem)


def tail_percentile(min_rounds: int) -> int:
    """The highest whole percentile with at least ten of `min_rounds` samples beyond it.

    It depends only on the workload's fixed minimum round count, so every
    commit reports the same percentile, however many rounds it fits in.
    """
    return math.floor(100 * (min_rounds - 10) / min_rounds)


def tail(per_scene: dict[int, list[float]], pct: int) -> float:
    """The pct-th percentile of one call's wall time, per scene, averaged.

    Each call is divided by its scene's median and the ratios of all scenes
    are pooled; the pool's percentile (nearest rank) scales each scene's
    median. So the tail picks out slow calls, not the heaviest scene.
    """
    ratios = sorted(w / statistics.median(v) for v in per_scene.values() for w in v)
    index = max(0, math.ceil(pct * len(ratios) / 100) - 1)
    return typical(per_scene) * ratios[index]


def pinned_for(name: str) -> dict:
    return json.loads((HERE / "digests.json").read_text()).get(name, {})


def fingerprint() -> dict:
    import numpy as np

    src_files = sorted(SRC.rglob("*.py"))
    code_hash = hashlib.sha256()
    lines = 0
    for path in src_files:
        blob = path.read_bytes()
        code_hash.update(path.relative_to(SRC).as_posix().encode() + b"\0" + blob)
        lines += blob.count(b"\n")
    return {
        "git_commit": git_commit(),
        "src_sha256": code_hash.hexdigest()[:16],
        "src_lines": lines,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": blas_threads(np),
        "nproc": os.cpu_count(),
    }


def git_commit() -> str | None:
    """HEAD of the checkout's own repository, read from .git; None outside one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def blas_threads(np) -> int | str:
    """Thread count of the OpenBLAS bundled with numpy, when it can be asked."""
    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return os.environ.get("OPENBLAS_NUM_THREADS", "unknown")


def setup(plan: workloads.Plan, pinned: dict, repeats: int = SETUP_REPEATS):
    """Import dualguide and write the first input scene, several times.

    Returns the runner, with every scene's input written, and the median
    seconds of one import plus one write of the first scene.
    """
    runner = Runner(None, plan, pinned)
    samples = []
    for _ in range(repeats):
        before = host_kernel()
        runner.cli, import_s = import_dualguide()
        t0 = time.perf_counter()
        runner.write_input(plan.scenes[0])
        wall = import_s + time.perf_counter() - t0
        samples.append(wall * 2 * REFERENCE_S / (before + host_kernel()))
    for scene in plan.scenes[1:]:
        runner.write_input(scene)
    return runner, statistics.median(samples)


def measure(runner: Runner, scenes: list[workloads.SceneRun], seconds: float,
            min_rounds: int, after_round=lambda: None) -> tuple[dict, dict]:
    """Run the chain round after round, cycling through the scenes.

    Returns (raw, scaled): command -> scene seed -> wall times in seconds,
    as measured and scaled to the reference host speed.
    """
    raw = {c: {scene.seed: [] for scene in scenes} for c in COMMANDS}
    scaled = {c: {scene.seed: [] for scene in scenes} for c in COMMANDS}
    start = time.perf_counter()
    rounds = 0
    before = host_kernel()
    while True:
        elapsed = time.perf_counter() - start
        if elapsed >= MAX_MEASURE_S or (rounds >= min_rounds and elapsed >= seconds):
            return raw, scaled
        scene = scenes[rounds % len(scenes)]
        for step in scene.steps:
            wall = runner.run(scene, step)
            after = host_kernel()
            raw[step.command][scene.seed].append(wall)
            scaled[step.command][scene.seed].append(wall * 2 * REFERENCE_S / (before + after))
            before = after
        after_round()
        rounds += 1


def typical(per_scene: dict[int, list[float]]) -> float:
    """Median wall time per scene, averaged over the scenes.

    The median resists a stall on the shared host; the average over scenes
    weighs each scene's work equally, whatever its share of samples.
    """
    return statistics.fmean(statistics.median(v) for v in per_scene.values())


def peak_mb(runner: Runner, scene: workloads.SceneRun, step: workloads.Step) -> float:
    gc.collect()
    tracemalloc.start()
    try:
        runner.run(scene, step)
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def end_to_end(runner: Runner, seconds: float, setup_s: float) -> dict:
    min_rounds = workloads.MIN_ROUNDS[runner.plan.name]
    raw, walls = measure(runner, runner.plan.scenes, seconds, min_rounds)
    pct = tail_percentile(min_rounds)
    metrics = {"setup_s": (setup_s, "s")}
    notes = []
    for command in COMMANDS:
        n = sum(len(per_scene) for per_scene in walls[command].values())
        metrics[f"{command}_s"] = (typical(walls[command]), "s")
        metrics[f"{command}_s_tail"] = (tail(walls[command], pct), "s")
        notes.append(f"{command}_s_tail is p{pct} of n={n}; "
                     f"{command} unscaled median {typical(raw[command]):.6g} s")
    # Peak memory comes from one untimed pass per command on the first scene.
    scene = runner.plan.scenes[0]
    for step in scene.steps:
        metrics[f"{step.command}_peak_mb"] = (peak_mb(runner, scene, step), "MB")
    return {"metrics": metrics, "notes": notes}


def per_layer(runner: Runner, seconds: float) -> dict:
    import spans

    # Only the first scene, so that every traced pass repeats the same work
    # and its counts must repeat exactly.
    scene = runner.plan.scenes[0]
    _, untraced = measure(runner, [scene], seconds / 2, MIN_TRACED_ROUNDS)
    tracer = spans.Tracer()
    rounds = []
    last_spans = []

    def take_spans():
        last_spans[:] = tracer.take()
        rounds.append(spans.layer_values(last_spans))

    tracer.install()
    try:
        _, traced = measure(runner, [scene], seconds / 2, MIN_TRACED_ROUNDS, take_spans)
    finally:
        tracer.uninstall()

    metrics = {}
    notes = spans.span_tree(last_spans)
    for name, (unit, _) in spans.PER_LAYER.items():
        values = [r[name] for r in rounds]
        if unit in spans.COUNT_UNITS:
            if len(set(values)) != 1:
                runner.failed += 1
                runner.problems.append(f"trace: {name} differs between passes: {values}")
            metrics[name] = (values[0], unit)
        else:
            metrics[name] = (statistics.median(values), unit)
    for command in COMMANDS:
        ratio = typical(traced[command]) / typical(untraced[command])
        metrics[f"trace.{command}.overhead"] = (ratio, "ratio")
    absent = spans.absent_metrics(tracer.absent)
    notes.append(f"absent (reported as 0): {', '.join(absent) if absent else 'none'}")
    notes.append(f"traced passes: {len(rounds)}")
    return {"metrics": metrics, "notes": notes}


def bench(name: str, seed: int, seconds: float, trace: bool) -> dict:
    work = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        plan = workloads.plan(name, seed, work)
        runner, setup_s = setup(plan, pinned_for(name))
        runner.round(plan.scenes[0])  # warm-up: lazy imports; outputs are checked
        result = per_layer(runner, seconds) if trace else end_to_end(runner, seconds, setup_s)
        env = fingerprint()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"# workload {name} seed {seed} trace {int(trace)}")
    print(f"# env {json.dumps(env, sort_keys=True)}")
    unpinned = [s.seed for s in plan.scenes if str(s.seed) not in runner.pinned]
    if unpinned:
        print(f"# no pinned digests for scene seeds {unpinned}: "
              "their fuse/match outputs are checked for repeats only")
    for note in result["notes"]:
        print(f"# {note}")
    for metric, (value, unit) in result["metrics"].items():
        print(f"{metric} {value:.6g} {unit}")
    print(f"fail_ratio {runner.failed / runner.attempted:.6g} ({runner.failed}/{runner.attempted})")
    for problem in runner.problems:
        print(f"# FAILED {problem}")
    return {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "dualguide" / "__init__.py").is_file():
        print(f"perfbench: no dualguide package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        result = bench(name, args.seed, args.seconds, bool(args.trace))
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
