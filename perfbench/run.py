"""selfmix benchmark: one workload per invocation, measured from outside.

    python3 perfbench/run.py --workload quickstart --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout. The run builds the workload's
inputs from ``--seed`` (set-up, repeated ``SETUP_REPEATS`` times and timed
at the reference speed of ``probe.SpeedProbe``),
then starts a fresh worker process (``worker.py``) that runs operations one
at a time for ``--seconds`` and checks each one's output. With ``--trace 0``
it prints every end-to-end metric of ``BENCHMARK.json``; with ``--trace 1``
the worker wraps the program's public functions (``spans.py``) and the run
prints every per-layer metric instead. Human-readable lines come first; the
last line of standard output is the JSON result. A record of each run, with
the environment it ran in, goes to ``.perfbench_out/``; scratch files go to
``.perfbench_work/`` and are removed when the run ends.
"""
from __future__ import annotations

import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path
from shutil import rmtree

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def environment() -> dict:
    """What the figures depend on besides the code; thread settings as found."""
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except TypeError:  # NumPy < 1.26 prints its configuration instead
        text = io.StringIO()
        with redirect_stdout(text):
            np.show_config()
        blas = {"config": text.getvalue()}
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "machine": platform.machine(),
    }


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "selfmix" / "__init__.py").is_file():
        return fail(f"no program sources at {SRC / 'selfmix'}")
    bench_path = ROOT / "BENCHMARK.json"
    if not bench_path.is_file():
        return fail(f"missing {bench_path}")
    bench = json.loads(bench_path.read_text(encoding="utf-8"))
    whys = {w["name"]: w["why"] for w in bench["workloads"]}
    if args.workload not in whys:
        return fail(f"unknown workload {args.workload!r}; choose from {sorted(whys)}")

    sys.path.insert(0, str(SRC))
    import selfmix
    from probe import SpeedProbe
    from workloads import WORKLOADS, same_tree

    if Path(selfmix.__file__).resolve().parent != SRC / "selfmix":
        return fail(f"imported selfmix from {selfmix.__file__}, not from {SRC}")
    workload = WORKLOADS[args.workload]

    tag = f"{args.workload}-seed{args.seed}"
    work = ROOT / ".perfbench_work" / f"{tag}-{os.getpid()}"
    records = ROOT / ".perfbench_out"
    records.mkdir(exist_ok=True)
    try:
        setup_times = []
        for r in range(SETUP_REPEATS):
            inputs = work / f"setup{r}"
            inputs.mkdir(parents=True)
            with SpeedProbe() as probe:
                probe.start()
                workload.setup(inputs, args.seed)
                probe.stop()
            setup_times.append(probe.scaled_seconds())
            if r and not same_tree(work / "setup0", inputs):
                return fail(f"set-up {r} wrote other inputs than set-up 0 for seed {args.seed}")
            if r:
                rmtree(inputs)

        result_path = work / "result.json"
        (work / "ops").mkdir()
        worker = subprocess.run(
            [
                sys.executable, str(HERE / "worker.py"),
                "--workload", args.workload,
                "--seed", str(args.seed),
                "--seconds", str(args.seconds),
                "--trace", str(args.trace),
                "--inputs", str(work / "setup0"),
                "--scratch", str(work / "ops"),
                "--result", str(result_path),
                "--spans", str(records / f"{tag}-spans.jsonl"),
            ],
            env={**os.environ, "PYTHONPATH": str(SRC)},
            check=False,
        )
        if worker.returncode != 0 or not result_path.is_file():
            return fail(f"worker exited with code {worker.returncode}")
        result = json.loads(result_path.read_text(encoding="utf-8"))
    finally:
        rmtree(work, ignore_errors=True)

    env = environment()
    if args.trace:
        metrics = per_layer_metrics(bench, result)
    else:
        metrics = end_to_end_metrics(bench, result, setup_times)
    print(f"workload {args.workload}, seed {args.seed}: {whys[args.workload]}")
    print(f"environment {json.dumps(env, sort_keys=True)}")
    ops = result["ops"]
    timed = s0_repeats(result)
    print(f"operations: {len(ops)} attempted, {failed_ops(ops)} failed, {len(timed)} untraced "
          f"repeats of run seed {result['s0']} timed")
    if timed:
        print(f"  those took {statistics.median(op['plain_s'] for op in timed):.6g} s of plain wall "
              f"time (median), {statistics.median(op['seconds'] for op in timed):.6g} s at "
              "reference speed")
    if not args.trace:
        for name, value in sorted(result["quality"].items()):
            print(f"  quality {name} = {value:.6g} (mean over {result['quality_seeds']} run seeds)")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    if not args.trace:
        print(f"  error_rate = {failed_ops(ops) / len(ops):.6g} frac (gated as success_rate)")

    summary = {
        "correct": failed_ops(ops) == 0,
        "attempted": len(ops),
        "failed": failed_ops(ops),
        "metrics": metrics,
    }
    record = {
        "workload": args.workload,
        "why": whys[args.workload],
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "setup_s": setup_times,
        "worker": result,
        **summary,
    }
    (records / f"{tag}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(json.dumps(summary))
    return 0


def failed_ops(ops: list[dict]) -> int:
    return sum(1 for op in ops if not op["ok"])


def median_of(ops: list[dict], key: str) -> float:
    return statistics.median(op[key] for op in ops) if ops else 0.0


def s0_repeats(result: dict) -> list[dict]:
    """The untraced operations that passed and ran seed s0: all the same work."""
    return [
        op for op in result["ops"]
        if op["ok"] and not op["traced"] and op["run_seed"] == result["s0"]
    ]


def end_to_end_metrics(bench: dict, result: dict, setup_times: list[float]) -> dict:
    """wall_s is the median over ``s0_repeats``, so its sample does the same
    work however many operations fit in the time."""
    ops = result["ops"]
    quality = result["quality"]
    done = [op for op in ops if op["ok"] and not op["traced"]]
    values = {
        "wall_s": median_of(s0_repeats(result), "seconds"),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": result["peak_rss_bytes"] / 1e6,
        "run_dir_mb": median_of(done, "run_dir_bytes") / 1e6,
        "success_rate": 1.0 - failed_ops(ops) / len(ops),
        # the selfmix arm where one is trained; else the baseline model the op reads
        "last_acc": quality.get("selfmix_last_acc", quality.get("baseline_last_acc", 0.0)),
        "noise_auc": quality.get("noise_auc", 0.0),
    }
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in bench["end_to_end"]}


def per_layer_metrics(bench: dict, result: dict) -> dict:
    layers = dict(result["layers"])
    # traced operations are timed in plain wall seconds, so compare them with plain ones
    untraced = median_of(s0_repeats(result), "plain_s")
    traced = median_of([op for op in result["ops"] if op["ok"] and op["traced"]], "plain_s")
    if untraced and traced:
        layers["trace.overhead_frac"] = traced / untraced - 1
    return {
        m["name"]: {"value": layers.get(m["name"], 0.0), "unit": m["unit"]}
        for m in bench["per_layer"]
    }


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
