"""The set-up every CLI call pays: import, load a config, build its shift and potential.

    python perfbench/setup_probe.py CONFIG.yaml

Prints the path of the imported package so the caller can check that it
measured the checkout's own source.
"""

import sys

import shiftpress
from shiftpress.config import build_potential, build_subshift, load_config

cfg = load_config(sys.argv[1])
build_potential(cfg.potential, build_subshift(cfg.subshift))
print(shiftpress.__file__)
