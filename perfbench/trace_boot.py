"""One traced CLI op: shiftpress.cli.main under function-level spans.

    python -X importtime perfbench/trace_boot.py SPANS.json <cli arguments>

This stands in for ``python -m shiftpress <cli arguments>``. It imports the
package, replaces the public functions named below in every shiftpress
module namespace that binds them (``from .x import y`` makes a second
binding), runs ``main(argv)`` and writes the span tree to SPANS.json when
the op ends. Spans stay in memory until then.

* Coarse calls get one span each: name, start, end and children.
* Hot calls (HOT) are aggregated per parent as calls, total time and hits,
  so memory stays bounded.
* ``iter_language`` returns a generator whose work happens in the
  consumer; each ``next()`` is timed into an aggregate under whichever span
  is open at that moment, and every yielded word counts as a hit.

Times come from ``time.monotonic()``, the clock the parent reads when it
starts and reaps this process.
"""

import time

T_BOOT = time.monotonic()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

COARSE = {
    "config": ("load_config", "build_subshift", "build_potential"),
    "subshifts": ("count_language",),
    "potentials": ("variation_profile",),
    "pressure": ("partition_table", "partition_function", "pressure_bracket", "anchor_sequence"),
    "transfer": ("build_transfer", "perron", "markov_equilibrium"),
    "gluing": ("min_gap_profile", "sample_pairs"),
    "verify": (
        "verify_density_glue", "verify_sparse_glue", "verify_partition_upper_spec",
        "verify_partition_upper_anchor", "verify_partition_upper_trans", "verify_measure_lower",
    ),
    "reports": ("write_csv", "write_json", "write_words", "write_manifest", "sha256_file"),
}
HOT = {
    "subshifts": {"word_admissible": lambda r: getattr(r, "name", "") == "ADMISSIBLE"},
    "potentials": {"partial_sum": lambda r: True},
    "gluing": {"find_glue": lambda r: r is not None},
    "transfer": {"cylinder_measure": lambda r: r > 0.0},
}
GENERATORS = {"subshifts": ("iter_language",)}


def _info(name, result):
    """Work counters read off a coarse call's result."""
    if name == "transfer.build_transfer":
        return {"states": result.state_count}
    if name == "transfer.perron":
        return {"iterations": result.iterations}
    if name == "gluing.sample_pairs":
        return {"pairs": len(result[0]), "coverage": result[1]}
    if name == "verify.verify_sparse_glue":
        return {"coverage": min(result.extra.get("coverage", {}).values(), default=1.0)}
    if name.startswith("reports.write_"):
        return {"bytes": os.path.getsize(result)}
    return None


class Node:
    __slots__ = ("name", "start", "end", "total", "calls", "hits", "info", "children", "aggs")

    def __init__(self, name, start=None):
        self.name = name
        self.start = start
        self.end = None
        self.total = 0.0
        self.calls = 0
        self.hits = 0
        self.info = None
        self.children = []
        self.aggs = {}

    def agg(self, name):
        node = self.aggs.get(name)
        if node is None:
            node = self.aggs[name] = Node(name)
            self.children.append(node)
        return node

    def dump(self):
        out = {"name": self.name, "total": self.total, "calls": self.calls, "hits": self.hits}
        if self.start is not None:
            out["start"], out["end"] = self.start, self.end
        if self.info:
            out["info"] = self.info
        out["children"] = [c.dump() for c in self.children]
        return out


STACK = []


def _span(fn, name):
    def wrapper(*args, **kwargs):
        node = Node(name, time.monotonic())
        STACK[-1].children.append(node)
        STACK.append(node)
        try:
            result = fn(*args, **kwargs)
        finally:
            STACK.pop()
            node.end = time.monotonic()
            node.total = node.end - node.start
            node.calls = 1
        node.info = _info(name, result)
        return result

    return wrapper


def _hot(fn, name, hit):
    def wrapper(*args, **kwargs):
        node = STACK[-1].agg(name)
        STACK.append(node)
        t0 = time.monotonic()
        try:
            result = fn(*args, **kwargs)
        finally:
            node.total += time.monotonic() - t0
            node.calls += 1
            STACK.pop()
        if hit(result):
            node.hits += 1
        return result

    return wrapper


def _timed_items(gen, name):
    while True:
        node = STACK[-1].agg(name)
        STACK.append(node)
        t0 = time.monotonic()
        try:
            item = next(gen)
        except StopIteration:
            return
        finally:
            node.total += time.monotonic() - t0
            STACK.pop()
        node.hits += 1
        yield item


def _generator(fn, name):
    def wrapper(*args, **kwargs):
        STACK[-1].agg(name).calls += 1
        return _timed_items(fn(*args, **kwargs), name)

    return wrapper


def _instrument():
    wrapped = {}
    for mod_name, names in COARSE.items():
        for fn_name in names:
            wrapped[(mod_name, fn_name)] = lambda fn, n: _span(fn, n)
    for mod_name, table in HOT.items():
        for fn_name, hit in table.items():
            wrapped[(mod_name, fn_name)] = lambda fn, n, hit=hit: _hot(fn, n, hit)
    for mod_name, names in GENERATORS.items():
        for fn_name in names:
            wrapped[(mod_name, fn_name)] = lambda fn, n: _generator(fn, n)
    modules = {m: mod for m, mod in sys.modules.items() if m.startswith("shiftpress")}
    for (mod_name, fn_name), make in wrapped.items():
        original = getattr(modules[f"shiftpress.{mod_name}"], fn_name)
        replacement = make(original, f"{mod_name}.{fn_name}")
        for mod in modules.values():
            if getattr(mod, fn_name, None) is original:
                setattr(mod, fn_name, replacement)


def main():
    spans_path, argv = sys.argv[1], sys.argv[2:]
    t_import = time.monotonic()
    import shiftpress.cli

    imported = time.monotonic()
    _instrument()
    root = Node("cli.main", time.monotonic())
    STACK.append(root)
    rc = None
    try:
        rc = shiftpress.cli.main(argv)
    finally:
        root.end = time.monotonic()
        root.total = root.end - root.start
        root.calls = 1
        record = {
            "boot": T_BOOT,
            "import": [t_import, imported],
            "module": shiftpress.__file__,
            "rc": rc,
            "main": root.dump(),
        }
        with open(spans_path, "w") as fh:
            json.dump(record, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
