"""Word-level thermodynamics for symbolic dynamical systems.

The package enumerates subshift languages exactly, measures gluing gap
profiles, brackets topological pressure with certified interval
endpoints, builds transfer-operator equilibrium measures for local
potentials, and checks the package's own bound claims empirically.
"""

__version__ = "0.1.0"

from .errors import (
    BudgetExceededError,
    ConstructionError,
    ConvergenceError,
    IdentityCheckError,
    InconsistentBracketError,
    InputError,
    ReducibleGraphError,
    ShiftpressError,
)
from .gluing import GapRow, find_glue, min_gap_profile
from .potentials import (
    Interval,
    LocallyConstantPotential,
    Potential,
    ReciprocalRunPotential,
    RunLevelPotential,
    VarProfile,
    ZeroPotential,
    make_reciprocal_run,
    make_run_levels,
    partial_sum,
    variation_profile,
)
from .pressure import (
    AnchorSequence,
    PartitionTable,
    PressureBracket,
    anchor_sequence,
    partition_function,
    partition_table,
    pressure_bracket,
)
from .subshifts import (
    SubshiftSpec,
    count_language,
    iter_language,
    make_bounded_density,
    make_full_shift,
    make_golden_mean,
    make_sft,
    make_sparse_sturmian,
    make_sturmian_factors,
    product_subshift,
    word_admissible,
)
from .transfer import (
    MarkovMeasure,
    PerronData,
    TransferModel,
    build_transfer,
    cylinder_measure,
    markov_equilibrium,
    perron,
)
from .verify import (
    ALL_CHECKS,
    BoundReport,
    verify_density_glue,
    verify_measure_lower,
    verify_partition_upper_anchor,
    verify_partition_upper_spec,
    verify_partition_upper_trans,
    verify_sparse_glue,
)
from .words import Word, format_word, parse_word

__all__ = [
    "__version__",
    "ShiftpressError",
    "InputError",
    "ConstructionError",
    "BudgetExceededError",
    "InconsistentBracketError",
    "ReducibleGraphError",
    "ConvergenceError",
    "IdentityCheckError",
    "Word",
    "format_word",
    "parse_word",
    "SubshiftSpec",
    "make_full_shift",
    "make_sft",
    "make_golden_mean",
    "make_bounded_density",
    "make_sturmian_factors",
    "make_sparse_sturmian",
    "product_subshift",
    "word_admissible",
    "iter_language",
    "count_language",
    "Interval",
    "Potential",
    "ZeroPotential",
    "LocallyConstantPotential",
    "ReciprocalRunPotential",
    "RunLevelPotential",
    "make_reciprocal_run",
    "make_run_levels",
    "partial_sum",
    "VarProfile",
    "variation_profile",
    "PartitionTable",
    "partition_function",
    "partition_table",
    "PressureBracket",
    "pressure_bracket",
    "AnchorSequence",
    "anchor_sequence",
    "TransferModel",
    "build_transfer",
    "PerronData",
    "perron",
    "MarkovMeasure",
    "markov_equilibrium",
    "cylinder_measure",
    "GapRow",
    "min_gap_profile",
    "find_glue",
    "BoundReport",
    "ALL_CHECKS",
    "verify_density_glue",
    "verify_sparse_glue",
    "verify_partition_upper_spec",
    "verify_partition_upper_anchor",
    "verify_partition_upper_trans",
    "verify_measure_lower",
]
