"""The three workloads: which CLI calls each one makes, on which configs.

An op is one ``python -m shiftpress <command> --config <yaml> --out <dir>``
process. Every op carries the references its result is checked against
(see checks.py): independent closed forms where the family has one, and
values recorded at the commit that introduced the benchmark otherwise.

The workload seed picks the op order, the seeded SFT (glue_search) and
the seeded potential values (partition_sums). Most configs start from a
shipped one in configs/ and override a few keys; the rest are written out
in full.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import yaml

import instances as inst


@dataclass(frozen=True)
class Op:
    name: str
    config: str
    command: tuple[str, ...]
    counts: Callable[[int], int] | None = None  # independent |L_n|
    pressure: float | None = None  # exact pressure the bracket must contain
    gap: int | None = None  # independent f_empirical at every n of the profile


@dataclass
class Workload:
    name: str
    ops: list[Op]
    configs: dict[str, str]  # config file name -> YAML text
    target: tuple[str, ...]  # layer groups the workload is meant to load
    instance: dict = field(default_factory=dict)


MIN_PASSES = 2
# op_tail_s percentile, fixed rather than "the highest percentile with 10
# samples beyond it", which would sit at or below the median at the 10 to
# 25 samples a run pools (5 ops x 2 to 5 passes). The ops of a workload are
# sized to take about the same time, so the median and p90 draw on the
# samples of several ops rather than on the few samples of one.
TAIL_PCT = 90
NAMES = ("glue_search", "partition_sums", "language_dump")


def full_count(a: int) -> Callable[[int], int]:
    return lambda n: a ** n


def product_count(n: int) -> int:
    return inst.fibonacci_count(n) * 2 ** n


def _dump(doc: dict) -> str:
    return yaml.safe_dump(doc, sort_keys=False)


def _derive(shipped: dict[str, str], name: str, **overrides) -> str:
    doc = yaml.safe_load(shipped[name])
    doc.update(overrides)
    return _dump(doc)


GOLDEN = {"family": "sft", "alphabet_size": 2, "forbidden": ["11"], "declared_gap": 1}
FULL2 = {"family": "full_shift", "alphabet_size": 2}
PRODUCT_VALUES = {"0": 0.3, "1": 0.1, "2": 0.7}  # paired symbols (i, j) -> 2i + j; "3" -> 0


def product_pressure(values: dict[str, float]) -> float:
    """Pressure of a radius-0 potential on golden mean x full shift.

    The second coordinate is free, so the first runs the golden mean graph
    with weight w_a = sum_j exp(phi(a, j)) per symbol a.
    """
    w0 = math.exp(values.get("0", 0.0)) + math.exp(values.get("1", 0.0))
    w1 = math.exp(values.get("2", 0.0)) + math.exp(values.get("3", 0.0))
    return math.log((w0 + math.sqrt(w0 * w0 + 4.0 * w0 * w1)) / 2.0)


def _seeded_sft_doc(sft: dict, n_max: int) -> dict:
    return {
        "label": f"seeded SFT avoiding {','.join(sft['forbidden'])}",
        "subshift": {
            "family": "sft", "alphabet_size": 2,
            "forbidden": sft["forbidden"], "declared_gap": sft["declared_gap"],
        },
        "potential": {"kind": "zero"},
        "horizons": {"n_max": n_max, "m_max": sft["declared_gap"] + inst.SFT_FILLER_SLACK},
        "strategy": "exhaustive",
        "mode": "specification",
        "seed": 0,
        "checks": {"gap_profile": {"n_range": list(inst.SFT_PROFILE_N)}},
    }


def glue_search(shipped: dict[str, str], seed: int) -> Workload:
    """Gap profiles and gluing certificates: pairs x gaps x fillers dominate."""
    sft = inst.seeded_sft(seed)
    gm = yaml.safe_load(shipped["golden_mean.yaml"])
    configs = {
        "gm_spec8.yaml": _derive(shipped, "golden_mean.yaml",
                                 checks={**gm["checks"], "gap_profile": {"n_range": [8]}}),
        "fsr_gap.yaml": _derive(shipped, "full_shift_run.yaml",
                                checks={"gap_profile": {"n_range": [1, 2, 3, 4, 5, 6]}}),
        "sp_glue.yaml": _derive(shipped, "sparse_sturmian.yaml", checks={
            "sparse_glue": {"n_range": [4, 6, 8], "strategy": "factor_glue"}}),
        "bd_glue.yaml": _derive(shipped, "bounded_density.yaml", checks={
            "density_glue": {"n_range": list(range(2, 19)), "slack": 4}}),
        "sft_gap.yaml": _dump(_seeded_sft_doc(sft, 8)),
    }
    ops = [
        Op("gm.spec8", "gm_spec8.yaml", ("gap-profile",), gap=1),
        Op("fsr.gap_profile", "fsr_gap.yaml", ("gap-profile",), gap=0),
        Op("sp.sparse_glue", "sp_glue.yaml", ("verify", "sparse_glue")),
        Op("bd.density_glue", "bd_glue.yaml", ("verify", "density_glue")),
        Op("sft.gap_profile", "sft_gap.yaml", ("gap-profile",), gap=sft["transitivity_gap"]),
    ]
    info = {k: v for k, v in sft.items() if k != "graph"}
    return Workload("glue_search", ops, configs,
                    target=("gluing", "subshifts.word_admissible"), instance={"sft": info})


def partition_sums(shipped: dict[str, str], seed: int) -> Workload:
    """Partition rows, brackets and transfer equilibria: potentials and pressure dominate."""
    values = inst.seeded_values(seed)
    seeded_pot = {"kind": "locally_constant", "radius": 1, "default": 0.0, "values": values}
    product_doc = {
        "label": "golden mean x full shift, radius-0 weights",
        "subshift": {"family": "product", "factors": [GOLDEN, FULL2]},
        "potential": {"kind": "locally_constant", "radius": 0, "default": 0.0,
                      "values": PRODUCT_VALUES},
        "horizons": {"n_max": 8, "var_horizon": 4},
    }
    run_levels_doc = {
        "label": "full shift, run-level potential",
        "subshift": FULL2,
        "potential": {"kind": "run_levels", "levels": [0.5, 0.25, 0.125], "limit": 0.0},
        "horizons": {"n_max": 13, "var_horizon": 6},
    }
    gm_checks = yaml.safe_load(shipped["golden_mean.yaml"])["checks"]
    configs = {
        "fsr.yaml": _derive(shipped, "full_shift_run.yaml",
                            horizons={"n_max": 13, "var_horizon": 7}),
        "run_levels.yaml": _dump(run_levels_doc),
        "product.yaml": _dump(product_doc),
        "gm_state20.yaml": _derive(shipped, "golden_mean.yaml",
                                   horizons={"n_max": 20, "n_state": 20, "var_horizon": 10},
                                   checks={"measure_lower": gm_checks["measure_lower"]}),
        "seeded.yaml": _derive(shipped, "golden_mean_weighted.yaml", potential=seeded_pot,
                               horizons={"n_max": 18, "n_state": 3, "var_horizon": 9}),
    }
    ops = [
        Op("fsr.pressure", "fsr.yaml", ("pressure",), full_count(2)),
        Op("run_levels.pressure", "run_levels.yaml", ("pressure",), full_count(2)),
        Op("product.pressure", "product.yaml", ("pressure",), product_count,
           product_pressure(PRODUCT_VALUES)),
        Op("gm.measure_lower", "gm_state20.yaml", ("verify", "measure_lower")),
        Op("seeded.pressure", "seeded.yaml", ("pressure",), inst.fibonacci_count,
           inst.golden_lc_pressure(values)),
    ]
    return Workload("partition_sums", ops, configs,
                    target=("pressure", "potentials"), instance={"potential_values": values})


def language_dump(shipped: dict[str, str], seed: int) -> Workload:
    """enumerate on every family: the walkers stream words into write_words."""
    configs = {
        "fs18.yaml": _derive(shipped, "full_shift.yaml", horizons={"n_max": 18}),
        "gm24.yaml": _derive(shipped, "golden_mean.yaml", horizons={"n_max": 24}),
        "bd21.yaml": _derive(shipped, "bounded_density.yaml", horizons={"n_max": 21}),
        "sp16.yaml": _derive(shipped, "sparse_sturmian.yaml", horizons={"n_max": 16}),
        "product10.yaml": _dump({"label": "golden mean x full shift",
                                 "subshift": {"family": "product", "factors": [GOLDEN, FULL2]},
                                 "horizons": {"n_max": 10}}),
    }
    ops = [
        Op("fs.enumerate", "fs18.yaml", ("enumerate",), full_count(2)),
        Op("gm.enumerate", "gm24.yaml", ("enumerate",), inst.fibonacci_count),
        Op("bd.enumerate", "bd21.yaml", ("enumerate",)),
        Op("sp.enumerate", "sp16.yaml", ("enumerate",)),
        Op("product.enumerate", "product10.yaml", ("enumerate",), product_count),
    ]
    return Workload("language_dump", ops, configs,
                    target=("subshifts.iter_language", "reports"))


WORKLOADS = {
    "glue_search": glue_search,
    "partition_sums": partition_sums,
    "language_dump": language_dump,
}


def build(name: str, root: Path, seed: int) -> Workload:
    """The workload `name` for `seed`, with ops in seeded order."""
    shipped = {p.name: p.read_text() for p in sorted((root / "configs").glob("*.yaml"))}
    wl = WORKLOADS[name](shipped, seed)
    assert len(wl.ops) == 5, "TAIL_PCT and the median assume 5 ops"
    random.Random(f"perfbench-order-{name}-{seed}").shuffle(wl.ops)
    return wl
