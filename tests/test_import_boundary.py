"""What a fresh interpreter loads: numpy only where a transfer model is
built, and every module the benchmark tracer hooks by name already at
`import shiftpress.cli` (perfbench/trace_boot.py finds them in
sys.modules, so a module imported only later would crash every traced
run)."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from test_surface import _hooked_names

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = ROOT / "configs"


def _fresh(code: str):
    """The JSON value code prints last, run in a fresh interpreter."""
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_cli_import_loads_every_traced_module_and_no_numpy():
    loaded = _fresh("import json, sys, shiftpress.cli; print(json.dumps(sorted(sys.modules)))")
    assert "numpy" not in loaded
    traced = {f"shiftpress.{mod_name}" for mod_name, _ in _hooked_names()}
    assert "shiftpress.transfer" in traced
    assert sorted(traced - set(loaded)) == []


RUNS = [
    ("bounded_density", ["enumerate"], False),
    ("bounded_density", ["verify", "density_glue"], False),
    ("bounded_density", ["gap-profile"], False),
    ("bounded_density", ["pressure"], False),
    ("golden_mean", ["pressure"], True),  # horizons.n_state: the transfer model
]


@pytest.mark.parametrize("config, argv, numpy", RUNS,
                         ids=[f"{c}:{' '.join(a)}" for c, a, _ in RUNS])
def test_numpy_loads_only_with_a_transfer_model(tmp_path, config, argv, numpy):
    argv = [*argv, "--config", str(CONFIGS / f"{config}.yaml"), "--out", str(tmp_path)]
    code = (
        "import json, sys, shiftpress.cli\n"
        f"rc = shiftpress.cli.main({argv!r})\n"
        "print(json.dumps([rc, 'numpy' in sys.modules]))"
    )
    assert _fresh(code) == [0, numpy]
