"""Word-level thermodynamics for symbolic dynamical systems.

The package enumerates subshift languages exactly, measures gluing gap
profiles, brackets topological pressure with certified interval
endpoints, builds transfer-operator equilibrium measures for local
potentials, and checks the package's own bound claims empirically.

Every submodule is in sys.modules once the package is imported, and its
code runs on first attribute access, so a command executes only the
modules it reaches. The public names below are served from their home
modules on first use.
"""

import importlib.util
import sys

__version__ = "0.1.0"

# home module -> the public names it defines
_EXPORTS = {
    "errors": (
        "ShiftpressError", "InputError", "ConstructionError", "BudgetExceededError",
        "InconsistentBracketError", "ReducibleGraphError", "ConvergenceError",
        "IdentityCheckError",
    ),
    "words": ("Word", "format_word", "parse_word"),
    "subshifts": (
        "SubshiftSpec", "make_full_shift", "make_sft", "make_golden_mean",
        "make_bounded_density", "make_sturmian_factors", "make_sparse_sturmian",
        "product_subshift", "word_admissible", "iter_language", "count_language",
    ),
    "potentials": (
        "Interval", "Potential", "ZeroPotential", "LocallyConstantPotential",
        "ReciprocalRunPotential", "RunLevelPotential", "make_reciprocal_run",
        "make_run_levels", "partial_sum", "VarProfile", "variation_profile",
    ),
    "pressure": (
        "PartitionTable", "partition_function", "partition_table", "PressureBracket",
        "pressure_bracket", "AnchorSequence", "anchor_sequence",
    ),
    "transfer": (
        "TransferModel", "build_transfer", "PerronData", "perron", "MarkovMeasure",
        "markov_equilibrium", "cylinder_measure",
    ),
    "gluing": ("GapRow", "min_gap_profile", "find_glue"),
    "config": ("ALL_CHECKS",),
    "verify": (
        "BoundReport", "verify_density_glue", "verify_sparse_glue",
        "verify_partition_upper_spec", "verify_partition_upper_anchor",
        "verify_partition_upper_trans", "verify_measure_lower",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = ["__version__", *_HOME]


def _lazy(name: str) -> None:
    """Register shiftpress.<name> without running it: the LazyLoader recipe
    from the importlib docs, plus the package attribute `from . import name`
    reads."""
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    loader = importlib.util.LazyLoader(spec.loader)
    spec.loader = loader
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    loader.exec_module(module)
    globals()[name] = module


for _name in (*_EXPORTS, "reports", "cli"):
    _lazy(_name)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[_HOME[name]], name)
