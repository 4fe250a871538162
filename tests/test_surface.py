"""Names that other code reaches by string: the package exports and the
benchmark tracer's hooks. perfbench/trace_boot.py looks each hooked name
up with getattr and no default, so deleting a hooked function would crash
every traced run; this test fails first."""

import ast
import importlib
import importlib.util
from pathlib import Path

import shiftpress

TRACE_BOOT = Path(__file__).resolve().parents[1] / "perfbench" / "trace_boot.py"
SRC = Path(shiftpress.__file__).resolve().parent


def _hooked_names():
    spec = importlib.util.spec_from_file_location("trace_boot", TRACE_BOOT)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)  # defines its tables; main() runs only as a script
    return {
        (mod_name, fn_name)
        for table in (tracer.COARSE, tracer.HOT, tracer.GENERATORS)
        for mod_name, names in table.items()
        for fn_name in names
    }


def test_every_traced_name_is_a_live_function():
    hooked = _hooked_names()
    # kept only because the tracer hooks them
    assert {
        ("gluing", "find_glue"),
        ("subshifts", "word_admissible"),
        ("potentials", "partial_sum"),
        ("subshifts", "count_language"),
    } <= hooked
    missing = [
        f"{mod_name}.{fn_name}"
        for mod_name, fn_name in sorted(hooked)
        if not callable(getattr(importlib.import_module(f"shiftpress.{mod_name}"), fn_name, None))
    ]
    assert missing == []


def test_the_budget_is_enforced_by_the_forward_pass_alone():
    # one search primitive: every pass charges its nodes in subshifts.forward,
    # and only the enumeration walk adds a check of its own
    raises = []
    for path in sorted(SRC.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if isinstance(fn, ast.FunctionDef):
                raises += [
                    (path.name, fn.name)
                    for node in ast.walk(fn)
                    if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
                    and getattr(node.exc.func, "id", None) == "BudgetExceededError"
                ]
    assert raises == [("subshifts.py", "forward"), ("subshifts.py", "iter_language")]
    # and no other mention builds one: the two raises and the class statement
    assert sum(p.read_text().count("BudgetExceededError(") for p in SRC.glob("*.py")) == 3


def test_only_the_filler_levels_list_candidates():
    # one glue search: FillerLevels.least is the only loop over a
    # strategy's candidate fillers, so no second filler loop comes back
    callers = set()
    for path in sorted(SRC.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            callers |= {
                (path.name, getattr(top, "name", None))
                for node in ast.walk(top)
                if isinstance(node, ast.Call) and "glue_candidates" in (
                    getattr(node.func, "id", None), getattr(node.func, "attr", None))
            }
    assert callers == {("gluing.py", "FillerLevels")}


def test_one_module_makes_the_rounding_contexts():
    # directed rounding has one home, beside Interval, that every certified
    # sum and partition lane shares
    makers = {
        path.name
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call)
        and "Context" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
    }
    assert makers == {"potentials.py"}


def test_every_exported_name_resolves():
    assert len(set(shiftpress.__all__)) == len(shiftpress.__all__)
    assert [name for name in shiftpress.__all__ if not hasattr(shiftpress, name)] == []


def test_the_oracles_use_no_package_code():
    # tests/oracles.py is the independent reference the package is checked
    # against, so it imports nothing from shiftpress, at any depth
    tree = ast.parse((Path(__file__).resolve().parent / "oracles.py").read_text())
    imported = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names]
    imported += [node.module or "" for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    assert imported and [name for name in imported if name.split(".")[0] == "shiftpress"] == []
