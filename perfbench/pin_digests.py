#!/usr/bin/env python3
"""Record the `fuse` and `match` output digests that run.py checks.

    python3 perfbench/pin_digests.py --seeds 0-99

Rewrites perfbench/digests.json with, per workload and scene seed, one
digest each of the artifacts `fuse` and `match` write on the scenes that the
given benchmark seeds use. Run it only when a change is meant
to alter those outputs; the pipeline's semantics are otherwise pinned.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

import run
import workloads


def pin(name: str, seed: int) -> dict:
    """Digests of `fuse` and `match` on every scene of one benchmark seed."""
    work = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=run.ROOT))
    try:
        plan = workloads.plan(name, seed, work)
        runner, _ = run.setup(plan, {}, repeats=1)
        pinned = {}
        for scene in plan.scenes:
            steps = {step.command: step for step in scene.steps}
            for command in ("fuse", "match"):
                runner.run(scene, steps[command])
            pinned[str(scene.seed)] = {c: run.combined(run.digests(steps[c]))
                                       for c in ("fuse", "match")}
        if runner.failed:
            raise RuntimeError(f"{name} seed {seed}: {runner.problems}")
        return pinned
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0-99", help="inclusive range, e.g. 0-99")
    args = parser.parse_args()
    lo, hi = (int(v) for v in args.seeds.split("-"))
    sys.path.insert(0, str(run.SRC))
    # One line per scene, so a re-pin diffs scene by scene.
    blocks = []
    for name in workloads.WORKLOADS:
        scenes = {}
        for seed in range(lo, hi + 1):
            scenes.update(pin(name, seed))
        rows = [f'  "{s}": {json.dumps(d, sort_keys=True)}' for s, d in scenes.items()]
        blocks.append(f' "{name}": {{\n' + ",\n".join(rows) + "\n }")
    (run.HERE / "digests.json").write_text("{\n" + ",\n".join(blocks) + "\n}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
