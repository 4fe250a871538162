#!/usr/bin/env python3
"""shiftpress benchmark: replay CLI traffic on one workload, check every result.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout. The load is a closed loop with one
client: an op is one fresh ``python -m shiftpress`` process, and the next
op starts when the previous one has exited. A run

1. writes the workload's configs for the seed under .perfbench_work/,
2. runs one warm-up pass over the ops and discards its timings,
3. runs measured passes while the next one is due to end within
   --seconds, and at least MIN_PASSES of them; with --trace 1 each measured
   round is an untraced pass followed by a traced one (trace_boot.py),
4. with --trace 0, times set-up probes (setup_probe.py) on the workload's
   configs in turn, PROBES_PER_PASS of them after each pass,
5. checks every op's result after each pass (checks.py),
6. prints a table and, as its last line, one JSON object: end-to-end
   metrics with --trace 0, per-layer metrics with --trace 1.

The full record (environment, per-op rows, every per-layer number) is
written to .perfbench_work/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

sys.dont_write_bytecode = True

import checks  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
RUN_LIMIT_S = 170  # hard stop for the whole run
SOFT_LIMIT_S = 140  # no new pass starts after this
PROBES_PER_PASS = 2  # set-up probes after each measured pass of an untraced run


def declared_metrics(root: Path) -> tuple[dict[str, str], dict[str, str]]:
    """Names and units of the end-to-end and per-layer metrics, from BENCHMARK.json.

    layers.metrics() computes more per-layer numbers than BENCHMARK.json
    declares; the rest go to the printed table and the results file.
    """
    bench = json.loads((root / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in bench["end_to_end"]},
            {m["name"]: m["unit"] for m in bench["per_layer"]})


class RunTimeout(Exception):
    pass


def percentile(values: list[float], pct: float) -> float:
    """Linear interpolation between closest ranks (numpy's default)."""
    s = sorted(values)
    pos = (len(s) - 1) * pct / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def environment(root: Path, seed: int) -> dict:
    git_sha = None
    if (root / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True)
        git_sha = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    versions = {}
    for dist in ("numpy", "scipy", "PyYAML"):
        try:
            versions[dist] = metadata.version(dist)
        except metadata.PackageNotFoundError:
            versions[dist] = None
    return {
        "git_sha": git_sha,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        **versions,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "seed": seed,
    }


class Runner:
    """Runs the ops of one workload and keeps every measurement."""

    def __init__(self, root: Path, workload: workloads.Workload, seed: int):
        self.root = root
        self.wl = workload
        self.work = root / ".perfbench_work" / f"{workload.name}-{seed}-{os.getpid()}"
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.child: int | None = None
        self.first_outputs: dict[str, dict] = {}
        self.failures: list[dict] = []
        self.attempted = 0
        try:
            self.recorded = json.loads((HERE / "expected.json").read_text())
        except FileNotFoundError:
            self.recorded = {}
        (self.work / "configs").mkdir(parents=True)
        for name, text in workload.configs.items():
            (self.work / "configs" / name).write_text(text)

    def spawn(self, argv: list[str], log: str) -> tuple[int, float, float, float]:
        """Run one child to completion: (exit code, start, end, max RSS in MB)."""
        logs = self.work / "logs"
        logs.mkdir(exist_ok=True)
        with open(logs / f"{log}.out", "wb") as out, open(logs / f"{log}.err", "wb") as err:
            t0 = time.monotonic()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env, cwd=self.root)
            self.child = proc.pid
            _, status, usage = os.wait4(proc.pid, 0)
            t1 = time.monotonic()
        self.child = None
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, t0, t1, usage.ru_maxrss / 1024.0

    def kill_child(self) -> None:
        """Kill and reap the running child, if any."""
        if self.child is not None:
            try:
                os.kill(self.child, signal.SIGKILL)
                os.waitpid(self.child, 0)
            except (ProcessLookupError, ChildProcessError):
                pass

    def run_pass(self, index: int, traced: bool) -> dict:
        """One pass over the ops, then the checks on what each op wrote."""
        rows = []
        t_start = time.monotonic()
        for op in self.wl.ops:
            out = self.work / "out" / op.name
            out.mkdir(parents=True, exist_ok=True)
            (out / "manifest.json").unlink(missing_ok=True)
            cli = [*op.command, "--config", str(self.work / "configs" / op.config),
                   "--out", str(out)]
            log = f"p{index}-{op.name}"
            if traced:
                spans = self.work / "logs" / f"{log}.spans.json"
                argv = [sys.executable, "-X", "importtime", str(HERE / "trace_boot.py"),
                        str(spans), *cli]
            else:
                argv = [sys.executable, "-m", "shiftpress", *cli]
            rc, t0, t1, rss = self.spawn(argv, log)
            rows.append({"op": op.name, "rc": rc, "t0": t0, "t1": t1,
                         "latency_s": t1 - t0, "rss_mb": rss})
        wall = time.monotonic() - t_start
        for op, row in zip(self.wl.ops, rows):
            self.check(op, row, index)
        return {"index": index, "traced": traced, "wall_s": wall, "rows": rows}

    def check(self, op: workloads.Op, row: dict, index: int) -> None:
        self.attempted += 1
        out = self.work / "out" / op.name
        got, bad = None, []
        if row["rc"] == 0 and (out / "manifest.json").exists():
            try:
                got = checks.facts(op.command, out)
            except (OSError, ValueError, KeyError) as exc:
                bad = [f"unreadable outputs: {exc!r}"]
            else:
                self.first_outputs.setdefault(op.name, got["outputs"])
        row["facts"] = got
        recorded = self.recorded.get(f"{self.wl.name}/{op.name}", {})
        bad = bad or checks.problems(op, row["rc"], got, self.first_outputs.get(op.name),
                                     recorded)
        if bad:
            self.failures.append({"pass": index, "op": op.name, "problems": bad})

    def setup_probe(self, i: int) -> float:
        """Wall time of one set-up probe on the workload's i-th config (cyclic)."""
        names = sorted(self.wl.configs)
        name = names[i % len(names)]
        argv = [sys.executable, str(HERE / "setup_probe.py"), str(self.work / "configs" / name)]
        rc, t0, t1, _ = self.spawn(argv, f"setup{i}")
        printed = (self.work / "logs" / f"setup{i}.out").read_text().strip()
        if rc != 0 or not Path(printed).resolve().is_relative_to(self.root / "src"):
            raise RuntimeError(f"set-up probe on {name} failed (exit {rc})")
        return t1 - t0

    def trace_tables(self, traced_pass: dict) -> tuple[dict, bool, list[dict]]:
        """Per-layer table of one traced pass, whether every op passed the self-check."""
        table = layers.new_table()
        ok = True
        per_op = []
        for row in traced_pass["rows"]:
            log = self.work / "logs" / f"p{traced_pass['index']}-{row['op']}"
            spans = json.loads(Path(f"{log}.spans.json").read_text())
            scipy_s = layers.scipy_import_s(Path(f"{log}.err").read_text().splitlines())
            tree = layers.op_tree(spans, row["t0"], row["t1"], scipy_s)
            nesting = layers.self_check(tree)
            layers.add_op(table, tree)
            ok = ok and nesting <= layers.SELF_CHECK_TOL_S
            per_op.append({"op": row["op"], "nesting_err_s": nesting})
        return table, ok, per_op


def run(args, root: Path) -> dict:
    wl = workloads.build(args.workload, root, args.seed)
    runner = Runner(root, wl, args.seed)
    started = time.monotonic()

    def on_alarm(signum, frame):
        runner.kill_child()
        raise RunTimeout(f"run exceeded {RUN_LIMIT_S} s")

    def on_term(signum, frame):
        runner.kill_child()
        raise RunTimeout(f"stopped by signal {signum}")

    signal.signal(signal.SIGALRM, on_alarm)
    signal.signal(signal.SIGTERM, on_term)
    signal.alarm(RUN_LIMIT_S)
    try:
        warmup = runner.run_pass(0, traced=False)
        # set-up probes are spread over the measured passes, a few after each
        per_pass = 0 if args.trace else PROBES_PER_PASS
        setup, passes, traced = [], [], []
        min_rounds = 1 if args.trace else workloads.MIN_PASSES
        measure_start = time.monotonic()
        last_round = warmup["wall_s"] * (2 if args.trace else 1)
        # a round starts only if it is due to end within --seconds, so every
        # run measures about the same span and none overruns it by a pass
        while len(passes) < min_rounds or \
                time.monotonic() + last_round - measure_start <= args.seconds:
            t = time.monotonic()
            if passes and t + last_round - started > SOFT_LIMIT_S:
                break
            passes.append(runner.run_pass(len(passes) + len(traced) + 1, traced=False))
            if args.trace:
                traced.append(runner.run_pass(len(passes) + len(traced) + 1, traced=True))
            while len(setup) < per_pass * len(passes):
                setup.append(runner.setup_probe(len(setup)))
            last_round = time.monotonic() - t
    except BaseException:
        shutil.rmtree(runner.work, ignore_errors=True)
        raise
    finally:
        signal.alarm(0)
    return {"workload": wl, "runner": runner, "warmup": warmup, "setup": setup,
            "passes": passes, "traced": traced, "measure_s": time.monotonic() - measure_start}


def end_to_end(res: dict) -> tuple[dict, dict]:
    """End-to-end metric values and how each was formed."""
    wl, passes = res["workload"], res["passes"]
    pooled = [r["latency_s"] for p in passes for r in p["rows"]]
    values = {
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "op_p50_s": statistics.median(pooled),
        "op_tail_s": percentile(pooled, workloads.TAIL_PCT),
        "setup_s": statistics.median(res["setup"]),
        "peak_rss_mb": statistics.median(max(r["rss_mb"] for r in p["rows"]) for p in passes),
    }
    notes = {
        "op_tail_s": f"p{workloads.TAIL_PCT} of {len(pooled)} op samples, "
                     f"{sum(1 for x in pooled if x > values['op_tail_s'])} beyond",
        "setup_s": f"median of {len(res['setup'])} set-up probes",
        "wall_s": f"median of {len(passes)} passes of {len(wl.ops)} ops",
    }
    return values, notes


def per_layer(res: dict) -> tuple[dict, list, list]:
    """Medians over the traced passes, plus trace overhead and the self-check."""
    runner, wl = res["runner"], res["workload"]
    tables, self_ok, self_rows = [], True, []
    for tp in res["traced"]:
        table, ok, rows = runner.trace_tables(tp)
        tables.append(layers.metrics(table, wl.target))
        self_ok = self_ok and ok
        self_rows.append(rows)
    full = {name: statistics.median(t[name] for t in tables) for name in tables[0]}
    full["proc.rss_mb"] = max(r["rss_mb"] for tp in res["traced"] for r in tp["rows"])
    untraced = statistics.median(p["wall_s"] for p in res["passes"])
    traced = statistics.median(tp["wall_s"] for tp in res["traced"])
    full["trace.overhead_ratio"] = traced / untraced
    full["trace.overhead_s"] = traced - untraced
    full["trace.self_check_ok"] = 1 if self_ok else 0
    return full, self_rows, tables


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd().resolve()
    if not (root / "src" / "shiftpress" / "__init__.py").is_file() or \
            not (root / "configs").is_dir():
        print("run from the root of a shiftpress checkout (src/shiftpress and configs/ "
              "not found)", file=sys.stderr)
        return 2
    end_to_end_units, per_layer_units = declared_metrics(root)
    env = environment(root, args.seed)
    try:
        res = run(args, root)
    except (RunTimeout, RuntimeError) as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 1

    runner, wl = res["runner"], res["workload"]
    record = {
        "workload": wl.name,
        "environment": {
            **env,
            "passes": len(res["passes"]) + len(res["traced"]),
            "traced_passes": len(res["traced"]),
            "warmup": "pass 0 (untraced) discarded",
            "seconds": args.seconds,
            "measured_s": res["measure_s"],
        },
        "instance": wl.instance,
        "ops": [{"op": op.name, "config": op.config, "command": list(op.command)}
                for op in wl.ops],
        "passes": [res["warmup"], *res["passes"], *res["traced"]],
        "failures": runner.failures,
    }
    failed_ops = len({(f["pass"], f["op"]) for f in runner.failures})
    attempted = runner.attempted
    lines = [f"{wl.name} seed={args.seed} trace={args.trace}: "
             f"{len(res['passes'])} untraced + {len(res['traced'])} traced passes of "
             f"{len(wl.ops)} ops, warm-up pass discarded"]
    if args.trace:
        full, self_check, tables = per_layer(res)
        record.update(per_layer=full, per_layer_passes=tables, self_check=self_check)
        metrics = {name: {"value": full[name], "unit": unit}
                   for name, unit in per_layer_units.items()}
        for name in sorted(full):
            lines.append(f"  {name:44s} {full[name]:.6g}")
    else:
        values, notes = end_to_end(res)
        record["end_to_end"] = values
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in end_to_end_units.items()}
        for name, unit in end_to_end_units.items():
            lines.append(f"  {name:12s} {values[name]:.6f} {unit:5s} {notes.get(name, '')}")
        lines.append(f"  {'ops_failed':12s} {failed_ops / attempted:.6f} fraction "
                     f"({failed_ops} of {attempted} ops)")
    for f in runner.failures:
        lines.append(f"  FAILED pass {f['pass']} {f['op']}: {'; '.join(f['problems'])}")

    results = root / ".perfbench_work" / "results"
    results.mkdir(parents=True, exist_ok=True)
    out = results / f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1, default=str) + "\n")
    shutil.rmtree(runner.work, ignore_errors=True)

    print("\n".join(lines))
    print(json.dumps({
        "correct": not runner.failures,
        "attempted": attempted,
        "failed": failed_ops,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
