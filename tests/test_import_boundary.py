"""What a fresh interpreter loads: never numpy, not even where a
transfer model is built, never yaml, dataclasses or inspect, whose import
would be most of a small op's start-up, and every module the benchmark
tracer hooks by name already at `import shiftpress.cli`
(perfbench/trace_boot.py finds them in sys.modules, so a module imported
only later would crash every traced run)."""

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


def _fresh(code: str):
    """The JSON value code prints last, run in a fresh interpreter."""
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_cli_import_loads_every_traced_module_and_no_numpy():
    loaded = _fresh("import json, sys, shiftpress.cli; print(json.dumps(sorted(sys.modules)))")
    assert [m for m in NEVER if m in loaded] == []
    traced = {f"shiftpress.{mod_name}" for mod_name, _ in _hooked_names()}
    assert "shiftpress.transfer" in traced
    assert sorted(traced - set(loaded)) == []


RUNS = [
    ("bounded_density", ["enumerate"]),
    ("bounded_density", ["verify", "density_glue"]),
    ("bounded_density", ["gap-profile"]),
    ("bounded_density", ["pressure"]),
    ("bounded_density", ["equilibrium"]),  # with n_state: a window cut
    ("golden_mean", ["pressure"]),  # horizons.n_state: the class graph
    ("golden_mean", ["equilibrium"]),
    ("golden_mean", ["verify", "measure_lower"]),
]


@pytest.mark.parametrize("config, argv", RUNS, ids=[f"{c}:{' '.join(a)}" for c, a in RUNS])
def test_numpy_loads_only_with_a_transfer_model(tmp_path, config, argv):
    # the transfer model is plain Python too, so no command loads numpy; and
    # no command loads yaml, dataclasses or inspect
    doc = yaml.safe_load((CONFIGS / f"{config}.yaml").read_text())
    if argv == ["equilibrium"]:
        doc["horizons"].setdefault("n_state", 4)
    path = tmp_path / f"{config}.yaml"
    path.write_text(yaml.safe_dump(doc))
    argv = [*argv, "--config", str(path), "--out", str(tmp_path / "out")]
    code = (
        "import json, sys, shiftpress.cli\n"
        f"rc = shiftpress.cli.main({argv!r})\n"
        f"print(json.dumps([rc, [m for m in {NEVER!r} if m in sys.modules]]))"
    )
    assert _fresh(code) == [0, []]
