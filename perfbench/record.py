#!/usr/bin/env python3
"""Record the facts that have no independent reference into expected.json.

    python3 perfbench/record.py

Runs one pass of every workload at seed 0 from the root of a checkout and
writes, per op, the facts checks.recordable() names (verdicts, f_empirical,
counts of families without a closed form). Seeded ops have independent
references, so the seed does not matter. Re-record only when a
change to the program is meant to change these facts, and say so.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

sys.dont_write_bytecode = True

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    root = Path.cwd().resolve()
    expected = {}
    for name in workloads.NAMES:
        wl = workloads.build(name, root, 0)
        runner = run.Runner(root, wl, 0)
        runner.recorded = {}
        result = runner.run_pass(0, traced=False)
        for op, row in zip(wl.ops, result["rows"]):
            if row["rc"] != 0 or row["facts"] is None:
                print(f"{name}/{op.name} exited {row['rc']}", file=sys.stderr)
                return 1
            rec = checks.recordable(op, row["facts"])
            if rec:
                expected[f"{name}/{op.name}"] = rec
        shutil.rmtree(runner.work, ignore_errors=True)
    out = run.HERE / "expected.json"
    out.write_text(json.dumps(dict(sorted(expected.items())), indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(expected)} op records to {out.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
