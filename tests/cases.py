"""Shared test cases: the criterion-3 families and one potential of each kind.

Each family pairs a package subshift with its oracle language from
oracles.py, so tests can check package results against independent
enumeration.
"""

import copy
import math
from typing import Callable, NamedTuple

import oracles
from shiftpress.potentials import (
    LocallyConstantPotential,
    Potential,
    make_reciprocal_run,
    make_run_levels,
)
from shiftpress.subshifts import (
    SubshiftSpec,
    make_bounded_density,
    make_full_shift,
    make_golden_mean,
    make_sft,
    make_sparse_sturmian,
    make_sturmian_factors,
    product_subshift,
)


def h_lin(k):
    return k + 1


def h_sq(k):
    return (k + 1) ** 2


HALF = [math.ceil(n / 2) for n in range(1, 41)]  # bounded-density gap table


class Family(NamedTuple):
    label: str
    spec: Callable[[], SubshiftSpec]
    language: Callable[[int], list]  # oracle language of length n
    n_top: int  # largest n brute-force references are run at


def _product_language(n):
    return [tuple(2 * i + j for i, j in zip(a, b))
            for a in oracles.sft_language(2, [(1, 1)], n)
            for b in oracles.all_words(2, n)]


FAMILIES = [
    Family("full", lambda: make_full_shift(2), lambda n: oracles.all_words(2, n), 10),
    Family("golden", make_golden_mean, lambda n: oracles.sft_language(2, [(1, 1)], n), 10),
    Family("sft_no_111", lambda: make_sft(2, [(1, 1, 1)]),
           lambda n: oracles.sft_language(2, [(1, 1, 1)], n), 10),
    Family("bounded_density", lambda: make_bounded_density(1, HALF),
           lambda n: oracles.bd_language(1, [0] + HALF, n), 10),
    Family("sparse", lambda: make_sparse_sturmian(make_sturmian_factors(8, 21, 2), (4, 12)),
           lambda n: oracles.sparse_language(8, 21, (4, 12), n), 10),
    # |L_10| is 147456 here; 8 keeps decimal references at desk scale
    Family("product", lambda: product_subshift(make_golden_mean(), make_full_shift(2)),
           _product_language, 8),
]

# kind -> potential on an alphabet of the given size
POTENTIALS: dict[str, Callable[[int], Potential]] = {
    "radius0": lambda a: LocallyConstantPotential(
        0, {(s,): 0.25 * s - 0.5 for s in range(a)}, a, default=None),
    "radius1": lambda a: LocallyConstantPotential(
        1, {(0, 1, 0): 0.75, (1, 0, 1): -0.5, (0, 0, 0): 0.2}, a, default=0.05),
    "radius2": lambda a: LocallyConstantPotential(
        2, {(0, 0, 1, 0, 0): 1.5, (1, 1, 0, 1, 1): -0.7}, a, default=0.0),
    "reciprocal_lin": lambda a: make_reciprocal_run(h_lin),
    "reciprocal_sq": lambda a: make_reciprocal_run(h_sq),
    "run_levels": lambda a: make_run_levels([0.1, 0.9, -0.3], 0.4),
}


class CountedWalker:
    """A walker that adds every child call it and its children make to calls[0]."""

    def __init__(self, inner, calls):
        self.inner = inner
        self.calls = calls

    def child(self, sym):
        self.calls[0] += 1
        ch = self.inner.child(sym)
        return None if ch is None else CountedWalker(ch, self.calls)

    def key(self):
        return self.inner.key()


def count_calls(label: str, n: int) -> int | None:
    """Child calls of the forward count to length n >= 2, where its levels
    are known: the full shift on 2 symbols has one state per level; the
    golden mean has (), then 0 and 1, then the blocks 00, 01 and 10. None
    for the other families."""
    return {"full": 2 * n, "golden": 2 * (1 + 2 + 3 * (n - 2))}.get(label)


def with_root(spec: SubshiftSpec, root_walker) -> SubshiftSpec:
    """A copy of spec that starts its walks from root_walker()."""
    spec = copy.copy(spec)
    spec.root_walker = root_walker
    return spec


def counted(spec: SubshiftSpec):
    """(a copy of spec whose walkers count their child calls, the counter)."""
    calls = [0]
    root = spec.root_walker
    return with_root(spec, lambda: CountedWalker(root(), calls)), calls
