"""Run one workload's operations in a fresh process and record what they cost.

Started by ``run.py`` after set-up, with the program's sources on
PYTHONPATH, so the process's peak RSS covers the operations alone.
Operations run one at a time (a closed loop with one client) until
``--seconds`` have passed, and never fewer than the checks and quality
figures need. Untraced operations are timed at the reference speed of
``probe.SpeedProbe``; traced ones in plain wall seconds.

Untraced schedule: run seeds s0, s1, s2, s0, s0, ...; the quality figures
average the first ``QUALITY_SEEDS`` distinct seeds, and every repeat of s0
must write the same bytes as the first. Traced schedule: s0 untraced, s0
traced, s0 untraced, ...; again every operation must write the same bytes
as the first, so tracing is shown not to change the program, and each
traced operation has untraced twins to compare wall time with. Either way,
how many operations fit in the time changes only how many times s0 runs.
"""
from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path
from shutil import rmtree

import spans
from probe import SpeedProbe
from workloads import WORKLOADS, derive, same_tree, tree_files

QUALITY_SEEDS = 3


def schedule(seed: int, seeded: bool, trace: bool):
    """Yield (run_seed, traced) for each operation, without end."""
    k = 0
    while True:
        if trace or not seeded:
            yield derive(seed, "run", 0), trace and k % 2 == 1
        else:
            yield derive(seed, "run", k if k < QUALITY_SEEDS else 0), False
        k += 1


def run_once(workload, inputs: Path, out: Path, run_seed: int, tracer: spans.Tracer | None):
    """Run one operation; return (seconds at reference speed, plain wall seconds).

    A traced operation is not probed (the probe's slices would land in its
    spans), so both figures are its plain wall time.
    """
    if tracer is not None:
        restore = spans.install(tracer)
        try:
            t0 = time.perf_counter()
            workload.run(inputs, out, run_seed)
            wall = time.perf_counter() - t0
        finally:
            restore()
        return wall, wall
    with SpeedProbe() as probe:
        probe.start()
        workload.run(inputs, out, run_seed)
        probe.stop()
    return probe.scaled_seconds(), probe.wall_s


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--inputs", type=Path, required=True)
    parser.add_argument("--scratch", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--spans", type=Path, required=True)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    trace = bool(args.trace)
    min_ops = 2 if trace else QUALITY_SEEDS + 1
    tracer = spans.Tracer()
    ops: list[dict] = []
    quality: dict[int, dict[str, float]] = {}
    reference: Path | None = None
    s0 = derive(args.seed, "run", 0)

    deadline = time.perf_counter() + args.seconds
    for k, (run_seed, traced) in enumerate(schedule(args.seed, workload.seeded, trace)):
        if k >= min_ops and time.perf_counter() >= deadline:
            break
        # every operation writes to the same path: the path is echoed into the artifacts
        out = args.scratch / "run"
        op = {"run_seed": run_seed, "traced": traced, "ok": False}
        ops.append(op)
        try:
            tracer.op = k
            op["seconds"], op["plain_s"] = run_once(
                workload, args.inputs, out, run_seed, tracer if traced else None
            )
            figures = workload.check(args.inputs, out)
            if run_seed == s0 and reference is not None and not same_tree(reference, out):
                raise RuntimeError(f"op{k} repeated the run seed of op0 but wrote other bytes")
            op.update(ok=True, run_dir_bytes=sum(tree_files(out).values()))
            quality.setdefault(run_seed, figures)
            if k == 0:
                reference = out.rename(args.scratch / "op0")
        except Exception:
            print(f"op{k} (run seed {run_seed}) failed:", file=sys.stderr)
            traceback.print_exc()
        rmtree(out, ignore_errors=True)

    firsts = list(quality.values())[:QUALITY_SEEDS]
    result = {
        "s0": s0,
        "ops": ops,
        "peak_rss_bytes": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024,
        "quality": {
            key: statistics.fmean(f[key] for f in firsts)
            for key in (firsts[0] if firsts else {})
        },
        "quality_seeds": len(firsts),
    }
    if trace:
        traced_ok = sum(1 for op in ops if op["traced"] and op["ok"])
        result["layers"] = spans.aggregate(tracer.spans, max(traced_ok, 1))
        spans.write_spans(tracer.spans, args.spans)
    args.result.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
