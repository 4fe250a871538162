#!/usr/bin/env python3
"""Median and quartile spread of end-to-end metrics over many benchmark runs.

    python3 perfbench/summarize.py RESULT.json... [--baseline OUT.json]

Each RESULT.json is a record run.py wrote to .perfbench_work/results/.
For --trace 0 records it prints, per workload and metric, the median, the
quartiles (statistics.quantiles(values, n=4)), the spread (q3 - q1) /
median and the metric's bound from BENCHMARK.json, then whether every
spread except setup_s is below a third of its bound. For --trace 1 records
it prints, per workload and seed, the target layer's check (target.is_top),
the trace self-check and the tracing overhead. --baseline writes the same
numbers with the runs' environment as a JSON file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
TRACED_KEYS = ("target.is_top", "target.self_share", "trace.self_check_ok",
               "trace.overhead_ratio")


def summarize(paths: list[Path]) -> dict:
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    runs, traced = defaultdict(list), defaultdict(list)
    for path in paths:
        record = json.loads(path.read_text())
        if "end_to_end" in record:
            runs[record["workload"]].append(record)
        elif "per_layer" in record:
            traced[record["workload"]].append(record)
    out = {}
    for workload, records in sorted(runs.items()):
        rows = {}
        for name, bound in bounds.items():
            values = [r["end_to_end"][name] for r in records]
            q1, q2, q3 = statistics.quantiles(values, n=4)
            median = statistics.median(values)
            rows[name] = {"median": median, "q1": q1, "q3": q3,
                          "spread": (q3 - q1) / median, "bound": bound, "runs": len(values)}
        env = records[0]["environment"]
        out[workload] = {
            "metrics": rows,
            "seeds": sorted(r["environment"]["seed"] for r in records),
            "failed_ops": sum(len(r["failures"]) for r in records),
            "environment": {k: env[k] for k in ("git_sha", "src_sha256", "python", "numpy",
                                                "scipy", "PyYAML", "nproc", "passes",
                                                "warmup", "seconds")},
        }
    for workload, records in sorted(traced.items()):
        out.setdefault(workload, {})["traced"] = {
            str(r["environment"]["seed"]): {k: r["per_layer"][k] for k in TRACED_KEYS}
            for r in records
        }
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("results", nargs="+", type=Path)
    parser.add_argument("--baseline", type=Path)
    args = parser.parse_args()
    summary = summarize(args.results)
    steady = True
    for workload, s in summary.items():
        for seed, t in s.get("traced", {}).items():
            print(f"{workload} traced seed {seed}: " +
                  "  ".join(f"{k} {v:.4g}" for k, v in t.items()))
        if "metrics" not in s:
            continue
        print(f"{workload}: {len(s['seeds'])} runs, seeds {s['seeds']}, "
              f"{s['failed_ops']} failed ops")
        for name, m in s["metrics"].items():
            ok = name == "setup_s" or m["spread"] < m["bound"] / 3
            steady = steady and ok
            print(f"  {name:12s} median {m['median']:.4f}  q1 {m['q1']:.4f}  q3 {m['q3']:.4f}"
                  f"  spread {m['spread']:.3f}  bound {m['bound']}{'' if ok else '  UNSTEADY'}")
    print("steady" if steady else "not steady")
    if args.baseline:
        args.baseline.write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
