"""Per-layer numbers from traced ops.

Each traced op becomes a tree rooted at ``cli.op``, the span from the
parent's spawn of the process to its reaping:

    cli.op
      cli.start    interpreter start, up to the first line of trace_boot.py
      cli.import   import shiftpress.cli
      cli.main     shiftpress.cli.main(argv), with the wrapped calls below it

Whatever the root's children do not cover (instrumenting, writing the
spans, interpreter exit) is the root's self time. A node's self time is
its duration minus its children's durations.
"""

from __future__ import annotations

from collections import defaultdict

SELF_CHECK_TOL_S = 0.001  # per span: allowed negative self time or overhang

MODULES = ("cli", "config", "subshifts", "potentials", "pressure", "transfer",
           "gluing", "verify", "reports")
VERIFY_TAGS = ("density_glue", "sparse_glue", "partition_upper_spec",
               "partition_upper_anchor", "partition_upper_trans", "measure_lower")


def scipy_import_s(importtime_lines: list[str]) -> float:
    """Cumulative import time of scipy subtrees not nested in another scipy import.

    ``-X importtime`` prints one line per module after its children, with
    the nesting depth as indentation; read backwards, each line's
    ancestors are the lines above it on a depth stack.
    """
    total_us = 0
    stack: list[tuple[int, str]] = []
    for line in reversed(importtime_lines):
        parts = line.split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        field = parts[2].rstrip("\n")
        name = field.strip()
        depth = (len(field) - len(field.lstrip(" ")) - 1) // 2
        while stack and stack[-1][0] >= depth:
            stack.pop()
        if name.split(".")[0] == "scipy" and not any(n.split(".")[0] == "scipy" for _, n in stack):
            total_us += int(parts[1])
        stack.append((depth, name))
    return total_us / 1e6


def op_tree(spans: dict, t_spawn: float, t_exit: float, scipy_s: float) -> dict:
    t_import, imported = spans["import"]
    return {
        "name": "cli.op", "start": t_spawn, "end": t_exit, "total": t_exit - t_spawn,
        "calls": 1, "hits": 0,
        "children": [
            {"name": "cli.start", "start": t_spawn, "end": spans["boot"],
             "total": spans["boot"] - t_spawn, "calls": 1, "hits": 0, "children": []},
            {"name": "cli.import", "start": t_import, "end": imported,
             "total": imported - t_import, "calls": 1, "hits": 0, "children": [],
             "info": {"scipy_s": scipy_s}},
            spans["main"],
        ],
    }


def self_check(node: dict) -> float:
    """Largest violation of nesting in the tree, in seconds (0.0 if none).

    Every node's self time must be >= 0 and every timed child must lie
    inside its parent's interval; then the root's self time plus all
    descendants' self time equals the op's wall time as the parent saw it.
    """
    worst = 0.0
    covered = 0.0
    for child in node["children"]:
        covered += child["total"]
        if "start" in child and "start" in node:
            worst = max(worst, node["start"] - child["start"], child["end"] - node["end"])
        worst = max(worst, self_check(child))
    return max(worst, covered - node["total"])


def _walk(node: dict, out: dict) -> None:
    """Accumulate per-name calls, total, self, hits and info over the tree."""
    rec = out[node["name"]]
    rec["calls"] += node["calls"]
    rec["total"] += node["total"]
    rec["self"] += node["total"] - sum(c["total"] for c in node["children"])
    rec["hits"] += node["hits"]
    for key, value in (node.get("info") or {}).items():
        rec["info"][key].append(value)
    for child in node["children"]:
        _walk(child, out)


def new_table() -> dict:
    return defaultdict(lambda: {"calls": 0, "total": 0.0, "self": 0.0, "hits": 0,
                                "info": defaultdict(list)})


def add_op(table: dict, tree: dict) -> None:
    """Add one op's tree to a pass table."""
    _walk(tree, table)


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def metrics(table: dict, target: tuple[str, ...]) -> dict[str, float]:
    """The named per-layer metrics of one traced pass."""
    t = table

    def get(name, key="self"):
        return t[name][key] if name in t else 0

    def infos(name, key):
        return t[name]["info"].get(key, []) if name in t else []

    module_self = defaultdict(float)
    for name, rec in t.items():
        module_self[name.split(".")[0]] += rec["self"]
    import_s = get("cli.import", "total")
    module_self["cli"] -= get("cli.import", "self")

    m = {
        "cli.start_s": get("cli.start", "total"),
        "cli.import_s": import_s,
        "cli.import_scipy_s": sum(infos("cli.import", "scipy_s")),
        "cli.op.self_s": get("cli.op") + get("cli.main"),
        "config.load_config.self_s": get("config.load_config"),
        "config.build_subshift.self_s": get("config.build_subshift"),
        "config.build_potential.self_s": get("config.build_potential"),
        "subshifts.iter_language.calls": get("subshifts.iter_language", "calls"),
        "subshifts.iter_language.self_s": get("subshifts.iter_language"),
        "subshifts.words_yielded": get("subshifts.iter_language", "hits"),
        "subshifts.count_language.calls": get("subshifts.count_language", "calls"),
        "subshifts.count_language.self_s": get("subshifts.count_language"),
        "subshifts.word_admissible.calls": get("subshifts.word_admissible", "calls"),
        "subshifts.word_admissible.self_s": get("subshifts.word_admissible"),
        "subshifts.word_admissible.admit_ratio": _ratio(
            get("subshifts.word_admissible", "hits"), get("subshifts.word_admissible", "calls")),
        "gluing.min_gap_profile.self_s": get("gluing.min_gap_profile"),
        "gluing.pairs": sum(infos("gluing.sample_pairs", "pairs")),
        "gluing.coverage_min": min(infos("gluing.sample_pairs", "coverage"), default=0.0),
        "gluing.find_glue.calls": get("gluing.find_glue", "calls"),
        "gluing.find_glue.self_s": get("gluing.find_glue"),
        "gluing.find_glue.hit_ratio": _ratio(
            get("gluing.find_glue", "hits"), get("gluing.find_glue", "calls")),
        "verify.sparse_glue.coverage": min(infos("verify.verify_sparse_glue", "coverage"),
                                           default=0.0),
        "potentials.partial_sum.calls": get("potentials.partial_sum", "calls"),
        "potentials.partial_sum.self_s": get("potentials.partial_sum"),
        "potentials.variation_profile.self_s": get("potentials.variation_profile"),
        "pressure.partition_function.calls": get("pressure.partition_function", "calls"),
        "pressure.partition_function.self_s": get("pressure.partition_function"),
        "pressure.pressure_bracket.self_s": get("pressure.pressure_bracket"),
        "pressure.anchor_sequence.self_s": get("pressure.anchor_sequence"),
        "transfer.build_transfer.self_s": get("transfer.build_transfer"),
        "transfer.states": max(infos("transfer.build_transfer", "states"), default=0),
        "transfer.perron.self_s": get("transfer.perron"),
        "transfer.perron.iterations": sum(infos("transfer.perron", "iterations")),
        "transfer.markov_equilibrium.self_s": get("transfer.markov_equilibrium"),
        "transfer.cylinder_measure.calls": get("transfer.cylinder_measure", "calls"),
        "transfer.cylinder_measure.self_s": get("transfer.cylinder_measure"),
        "reports.write.self_s": sum(get(n) for n in t if n.startswith("reports.write_")),
        "reports.bytes_written": sum(sum(infos(n, "bytes")) for n in t
                                     if n.startswith("reports.write_")),
        "reports.sha256.self_s": get("reports.sha256_file"),
    }
    for tag in VERIFY_TAGS:
        m[f"verify.{tag}.self_s"] = get(f"verify.verify_{tag}")
    for mod in MODULES:
        m[f"{mod}.self_s"] = module_self[mod]

    # the workload's target layer against every other layer; import is set
    # aside, the rest of the cli layer (process start, argument parsing,
    # exit) counts as a layer of its own
    others = dict(module_self)
    target_s = 0.0
    for g in target:
        if g in MODULES:
            target_s += others.pop(g)
        else:
            target_s += get(g)
            others[g.split(".")[0]] -= get(g)
    m["target.self_s"] = target_s
    m["target.self_share"] = _ratio(target_s, sum(module_self.values()))
    m["target.is_top"] = 1 if target_s >= max(others.values(), default=0.0) else 0
    return m
