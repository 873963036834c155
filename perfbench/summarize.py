"""Roll benchmark run records up into one baseline file.

    python3 perfbench/summarize.py --label seed-ff01144 --out perfbench/baselines/seed-ff01144.json

Reads the records ``run.py`` leaves in ``.perfbench_out/`` (or the files
given with ``--records``) and, per workload and metric, keeps every run's
value with the median, the quartiles (``statistics.quantiles(n=4)``) and the
spread, the inter-quartile distance as a share of the median. Each record's
environment is kept beside the figures. A later change appends a new file;
old files are not edited.
"""
from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def describe(values: list[float], unit: str) -> dict:
    entry = {"unit": unit, "n": len(values), "median": statistics.median(values), "values": values}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        entry.update(q1=q1, q3=q3, spread=(q3 - q1) / entry["median"] if entry["median"] else None)
    return entry


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--records", type=Path, nargs="*")
    args = parser.parse_args(argv)
    paths = args.records or sorted((ROOT / ".perfbench_out").glob("*-trace[01].json"))
    records = [json.loads(p.read_text(encoding="utf-8")) for p in paths]
    if not records:
        print("summarize: no records", file=sys.stderr)
        return 2

    workloads: dict[str, dict] = {}
    for rec in sorted(records, key=lambda r: (r["workload"], r["trace"], r["seed"])):
        w = workloads.setdefault(
            rec["workload"], {"why": rec["why"], "runs": [], "metrics": {}}
        )
        w["runs"].append({k: rec[k] for k in ("seed", "seconds", "trace", "attempted",
                                               "failed", "correct", "environment")})
        for name, m in rec["metrics"].items():
            w["metrics"].setdefault(name, ([], m["unit"]))[0].append(m["value"])
    for w in workloads.values():
        w["metrics"] = {name: describe(v, unit) for name, (v, unit) in w["metrics"].items()}

    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(
        json.dumps({"label": args.label, "workloads": workloads}, indent=1, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    for name, w in sorted(workloads.items()):
        print(name)
        for metric, d in w["metrics"].items():
            spread = d.get("spread")
            shown = f"{spread:.3f}" if spread is not None else "-"
            print(f"  {metric:40s} n={d['n']:<3} median={d['median']:<12.6g} spread={shown}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
