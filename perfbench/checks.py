"""Result checks behind ops_failed.

An op passes when all of these hold:

* it exits with code 0;
* its payload sha256s (manifest.json ``outputs``) equal those of its first
  run in the same benchmark invocation;
* its facts agree with independent references where the op has one:
  |L_n| from closed forms or path counting, pressure brackets containing
  the exact pressure (ln 2, ln phi, or the log spectral radius of a small
  weighted graph), ln(lambda) equal to it, and gap-profile f_empirical
  equal to the gap derived from the block graph;
* its other facts (counts of families without a closed form, verify
  verdicts, f_empirical) equal the values recorded in expected.json at the
  commit that introduced the benchmark.

Payload bytes are never compared with recorded ones, so deliberate changes
to interval widths do not trip the checks. Containment and ln(lambda) use
SLACK, the shipped configs' ``tolerances.margin``: at this commit the
zero-potential rows are rounded points, not enclosures, so a zero-slack
containment test of ln 2 fails (see the enclosure item in ROADMAP.md).
"""

from __future__ import annotations

import json
import math
from pathlib import Path

SLACK = 1e-9


def _read_csv(path: Path) -> tuple[dict[str, str], list[dict[str, str]]]:
    flags, rows, header = {}, [], None
    for line in path.read_text().splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition("=")
            flags[key] = value
        elif header is None:
            header = line.split(",")
        else:
            rows.append(dict(zip(header, line.split(","))))
    return flags, rows


def facts(command: tuple[str, ...], out: Path) -> dict:
    """What an op produced, read from its manifest and payloads."""
    manifest = json.loads((out / "manifest.json").read_text())
    status = manifest["status"]
    got: dict = {"outputs": manifest["outputs"]}
    cmd = command[0]
    if cmd == "enumerate":
        _, rows = _read_csv(out / "counts.csv")
        got["counts"] = {r["n"]: int(r["count"]) for r in rows}
        n_max = max(int(n) for n in got["counts"])
        got["words"] = (out / f"language_n{n_max}.txt").read_bytes().count(b"\n")
    elif cmd == "pressure":
        _, rows = _read_csv(out / "partition.csv")
        got["counts"] = {r["n"]: int(r["count"]) for r in rows}
        flags, _ = _read_csv(out / "bracket.csv")
        got["bracket"] = [float(flags["best_lo"]), float(flags["best_hi"]),
                          flags["upper_bound_only"] == "true"]
        if "transfer" in status:
            got["ln_lambda"] = status["transfer"]["ln_lambda"]
    elif cmd == "equilibrium":
        got["ln_lambda"] = status["equilibrium"]["ln_lambda"]
    elif cmd == "gap-profile":
        got["f_empirical"] = status["gap_profile"]["f_empirical"]
    elif cmd == "verify":
        got["verdict"] = status["verify"]["verdict"]
    return got


RECORDED_KEYS = ("counts", "verdict", "f_empirical")


def recordable(op, got: dict) -> dict:
    """The facts of `op` that have no independent reference."""
    rec = {k: got[k] for k in RECORDED_KEYS if k in got}
    if op.counts is not None:
        rec.pop("counts", None)
    if op.gap is not None:
        rec.pop("f_empirical", None)
    return rec


def problems(op, rc: int, got: dict | None, first_outputs: dict | None,
             recorded: dict) -> list[str]:
    """Every way the op's result departs from what it must be."""
    if rc != 0:
        return [f"exit code {rc}, expected 0"]
    if got is None:
        return ["no manifest"]
    bad = []
    if first_outputs is not None and got["outputs"] != first_outputs:
        bad.append("payload sha256s differ from this invocation's first run")
    counts = got.get("counts")
    if counts is not None and op.counts is not None:
        wrong = [n for n, c in counts.items() if c != op.counts(int(n))]
        if wrong:
            bad.append(f"|L_n| wrong at n={wrong}")
    if "words" in got and got["words"] != counts[str(max(int(n) for n in counts))]:
        bad.append(f"language file has {got['words']} words")
    if "bracket" in got:
        lo, hi, upper_only = got["bracket"]
        if op.pressure is not None:
            if not (upper_only or lo - SLACK <= op.pressure) or op.pressure > hi + SLACK:
                bad.append(f"bracket [{lo!r}, {hi!r}] misses pressure {op.pressure!r}")
        elif not upper_only and lo > hi + SLACK:
            bad.append(f"bracket [{lo!r}, {hi!r}] is crossed")
    if "ln_lambda" in got and op.pressure is not None:
        if not math.isclose(got["ln_lambda"], op.pressure, rel_tol=0.0, abs_tol=SLACK):
            bad.append(f"ln(lambda) {got['ln_lambda']!r} != {op.pressure!r}")
    if "f_empirical" in got and op.gap is not None:
        if any(v != op.gap for v in got["f_empirical"].values()):
            bad.append(f"f_empirical {got['f_empirical']} != {op.gap}")
    if got.get("verdict", "pass") != "pass":
        bad.append(f"verdict {got['verdict']}")
    for key, want in recordable(op, got).items():
        if recorded.get(key) != want:
            bad.append(f"{key} {want} != recorded {recorded.get(key)}")
    return bad
