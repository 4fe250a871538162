"""What a fresh interpreter loads, and which package modules it runs.

No command loads numpy, yaml, dataclasses or inspect, whose import would
be most of a small op's start-up. `import shiftpress` puts every submodule
in sys.modules, since perfbench/trace_boot.py hooks the traced ones by name
right after `import shiftpress.cli` and a module missing there would crash
every traced run. A module's code runs on first attribute access only, so a
command executes just the modules it reaches. `type(module) is
types.ModuleType` tells which ran: type() does not trigger the load that
attribute access would."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

from test_surface import _hooked_names

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = ROOT / "configs"
NEVER = ("numpy", "yaml", "dataclasses", "inspect")
ENV = {**os.environ,
       "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])}


def _fresh(code: str):
    """The JSON value code prints last, run in a fresh interpreter."""
    done = subprocess.run([sys.executable, "-c", code], env=ENV, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_cli_import_loads_every_traced_module_and_no_numpy():
    loaded = _fresh("import json, sys, shiftpress.cli; print(json.dumps(sorted(sys.modules)))")
    assert [m for m in NEVER if m in loaded] == []
    traced = {f"shiftpress.{mod_name}" for mod_name, _ in _hooked_names()}
    assert "shiftpress.transfer" in traced
    assert sorted(traced - set(loaded)) == []


MODULES = sorted(p.stem for p in (ROOT / "src" / "shiftpress").glob("[!_]*.py"))

# config, keys set in its horizons, argv, exit code, modules that must not run
RUNS = [
    ("bounded_density", {}, ["enumerate"], 0, "gluing pressure transfer verify"),
    ("bounded_density", {}, ["verify", "density_glue"], 0, "pressure transfer"),
    ("bounded_density", {}, ["gap-profile"], 0, "pressure transfer verify"),
    ("bounded_density", {}, ["pressure"], 0, "gluing transfer verify"),  # no n_state
    ("bounded_density", {"n_state": 4}, ["equilibrium"], 0, "gluing pressure verify"),
    ("golden_mean", {}, ["pressure"], 0, "gluing verify"),  # horizons.n_state: the class graph
    ("golden_mean", {}, ["equilibrium"], 0, "gluing pressure verify"),
    ("golden_mean", {}, ["verify", "measure_lower"], 0, "gluing"),
    # the filler levels of a glue search stay in gluing
    ("golden_mean", {}, ["gap-profile"], 0, "pressure transfer verify"),
    ("sparse_sturmian", {}, ["verify", "sparse_glue"], 0, "pressure transfer"),
    # a misspelled key exits 2 having run only cli, config and config's imports
    ("golden_mean", {"n_mx": 3}, ["enumerate"], 2, "gluing pressure reports transfer verify"),
]


@pytest.mark.parametrize(
    "config, horizons, argv, rc, idle", RUNS,
    ids=[f"{c}:{' '.join(a)}{':bad-key' if rc else ''}" for c, _, a, rc, _ in RUNS],
)
def test_numpy_loads_only_with_a_transfer_model(tmp_path, config, horizons, argv, rc, idle):
    # the transfer model is plain Python too, so no command loads numpy; no
    # command loads yaml, dataclasses or inspect; and each runs only the
    # package modules it reaches
    doc = yaml.safe_load((CONFIGS / f"{config}.yaml").read_text())
    doc["horizons"].update(horizons)
    path = tmp_path / f"{config}.yaml"
    path.write_text(yaml.safe_dump(doc))
    argv = [*argv, "--config", str(path), "--out", str(tmp_path / "out")]
    code = (
        "import json, sys, types, shiftpress.cli\n"
        f"rc = shiftpress.cli.main({argv!r})\n"
        "ran = [m.partition('.')[2] for m, mod in sys.modules.items()\n"
        "       if m.startswith('shiftpress.') and type(mod) is types.ModuleType]\n"
        f"print(json.dumps([rc, [m for m in {NEVER!r} if m in sys.modules], sorted(ran)]))"
    )
    assert _fresh(code) == [rc, [], sorted(set(MODULES) - set(idle.split()))]


TRACE_BOOT = ROOT / "perfbench" / "trace_boot.py"
TRACED = [
    ("bounded_density", ["enumerate"], "subshifts.iter_language"),
    ("golden_mean", ["pressure"], "pressure.partition_table"),
    ("golden_mean", ["gap-profile"], "gluing.min_gap_profile"),
    ("golden_mean", ["verify", "measure_lower"], "verify.verify_measure_lower"),
]


def _span_names(node):
    yield node["name"]
    for child in node["children"]:
        yield from _span_names(child)


@pytest.mark.parametrize("config, argv, call", TRACED, ids=[" ".join(a) for _, a, _ in TRACED])
def test_traced_op_records_its_coarse_call(tmp_path, config, argv, call):
    # the tracer hooks lazily registered modules by name and must still see
    # every call an op makes
    spans = tmp_path / "spans.json"
    argv = [*argv, "--config", str(CONFIGS / f"{config}.yaml"), "--out", str(tmp_path / "out")]
    done = subprocess.run([sys.executable, str(TRACE_BOOT), str(spans), *argv],
                          env=ENV, cwd=tmp_path, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    record = json.loads(spans.read_text())
    assert record["rc"] == 0
    assert Path(record["module"]).parent == ROOT / "src" / "shiftpress"
    assert call in set(_span_names(record["main"]))
