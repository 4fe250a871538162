"""Partition sums over languages and bracketing of topological pressure.

The partition value at length n is the sum of e^(S_n) over admissible
words, where S_n is the interval-valued partial sum of the potential along
the word. Rows come from one forward pass, `subshifts.forward`, whose lane
is the potential's scanner state (a transfer recursion, Lind & Marcus, An
Introduction to Symbolic Dynamics and Coding, ch. 4): words are merged
into classes by (walker key, scanner state), since equal walker keys
admit the same continuations and equal scanner states emit the same site
values from there on. Each class carries its word count and two
non-negative weights enclosing the sums of e^(S_lo) and e^(S_hi) over its
words, and closing the frontier after each length gives that length's
row. Weights, and the factors e^s a step multiplies in, are 19-digit
`decimal` numbers whose exponent range no partition sum leaves. Every
operation runs in one of two contexts, rounding toward -inf for the lower
lane and toward +inf for the upper, from the one directed-rounding home
beside `Interval` in `potentials`. Site values enter exactly, counts
below 10^19 stay exact, exp and ln (correctly rounded half-even) step one
unit outward, and each row's ln becomes the float on its outer side. So
[lnz_lo, lnz_hi] encloses the exact value, and a zero-potential row is at
most two ulps wide: that potential emits nothing, so its rows enclose
ln(count) and its classes are walker keys.

Pressure brackets combine a submultiplicative upper bound
min_m lnZ_hi(m)/m with the gluing lower bound
(lnZ_lo(n) + inf(phi) * f(n) - g(n)) / (n + f(n)), valid when the declared
gap bounds f promise gluing at every gap >= f(n) and g bounds partial-sum
variation; both are rounded outward in the same two contexts. Lower
bounds are omitted for transitivity-mode bounds and for oracles that only
decide a locally admissible superset.
"""

from __future__ import annotations

import math
from decimal import Decimal
from typing import Callable, NamedTuple, Sequence

from .errors import InconsistentBracketError, InputError
from .potentials import _HI, _LO, Interval, Potential, VarProfile, _outer_float
from .subshifts import DEFAULT_NODE_BUDGET, MODE_SPECIFICATION, SubshiftSpec, Tally, forward
from .words import Word, check_symbols

_INF = math.inf
_ONE = Decimal(1)


def _factors(ivs: tuple[Interval, ...]) -> tuple[Decimal, Decimal]:
    """Bounds on e^(sum of lo) and e^(sum of hi) over emitted intervals;
    exactly 1 when nothing is emitted."""
    if not ivs:
        return _ONE, _ONE
    lo = hi = Decimal(0)
    for iv in ivs:
        lo = _LO.add(lo, Decimal(iv.lo))
        hi = _HI.add(hi, Decimal(iv.hi))
    # exp is correctly rounded half-even in any context: one unit outward
    return _LO.next_minus(_LO.exp(lo)), _HI.next_plus(_HI.exp(hi))


class PartitionRow(NamedTuple):
    n: int
    count: int
    lnz_lo: float
    lnz_hi: float


def _sweep(
    spec: SubshiftSpec,
    pot: Potential,
    n_max: int,
    budget: int,
    prefix: Word = (),
) -> tuple[list[PartitionRow], int, int]:
    """Rows for lengths max(1, len(prefix)) .. n_max of the words
    extending prefix, from one forward pass whose lane is the potential's
    scanner state with a word count and the lo and hi weights, plus the
    walker child calls charged and the largest frontier."""
    a_size = spec.alphabet_size
    lo_add, lo_mul, hi_add, hi_mul = _LO.add, _LO.multiply, _HI.add, _HI.multiply
    moves: dict = {}  # scanner state -> per symbol (next state, lo factor, hi factor)
    closes: dict = {}  # scanner state -> (lo factor, hi factor)

    def moves_from(state):
        got = moves[state] = []
        for sym in range(a_size):
            nxt, ivs = pot.step(state, sym)
            got.append((nxt, *_factors(ivs)))
        return got

    def step(state, weights, sym):
        nxt, f_lo, f_hi = (moves.get(state) or moves_from(state))[sym]
        count, lo, hi = weights
        return nxt, (count, lo_mul(lo, f_lo), hi_mul(hi, f_hi))

    def merge(old, new):
        return old[0] + new[0], lo_add(old[1], new[1]), hi_add(old[2], new[2])

    tally = Tally()
    lane = (pot.start, (1, _ONE, _ONE), step, merge)
    rows = []
    for n, level in enumerate(forward(spec.root_walker(), a_size, prefix, n_max, budget, tally,
                                      lane), len(prefix)):
        if n < 1:
            continue
        z_lo = z_hi = Decimal(0)
        total = 0
        for _w, state, (count, lo, hi) in level.values():
            c_lo, c_hi = closes.get(state) or closes.setdefault(
                state, _factors(pot.close(state))
            )
            z_lo = lo_add(z_lo, lo_mul(lo, c_lo))
            z_hi = hi_add(z_hi, hi_mul(hi, c_hi))
            total += count
        if total:  # ln, like exp, is rounded half-even: one unit outward
            lnz_lo = _outer_float(_LO.next_minus(_LO.ln(z_lo)), False)
            lnz_hi = _outer_float(_HI.next_plus(_HI.ln(z_hi)), True)
        else:
            lnz_lo = lnz_hi = -_INF
        rows.append(PartitionRow(n=n, count=total, lnz_lo=lnz_lo, lnz_hi=lnz_hi))
    return rows, tally.nodes, tally.states


def partition_function(
    spec: SubshiftSpec,
    pot: Potential,
    n: int,
    budget: int = DEFAULT_NODE_BUDGET,
    prefix: Word = (),
) -> PartitionRow:
    """One partition row: word count and enclosed lnZ at length n, from
    the sweep up to length n. A non-empty prefix restricts the sum to
    words extending it.
    """
    if n < 1:
        raise InputError("partition length must be >= 1")
    if len(prefix) > n:
        check_symbols(tuple(prefix), spec.alphabet_size)
        return PartitionRow(n=n, count=0, lnz_lo=-_INF, lnz_hi=-_INF)
    rows, _nodes, _states = _sweep(spec, pot, n, budget, prefix)
    return rows[-1]


class PartitionTable(NamedTuple):
    """Rows 1..horizon; nodes and max_states report the work of the sweep."""

    rows: tuple[PartitionRow, ...]
    upper_bound_only: bool
    nodes: int
    max_states: int

    def row(self, n: int) -> PartitionRow:
        if not 1 <= n <= len(self.rows):
            raise InputError(f"no partition row for n={n}")
        return self.rows[n - 1]

    @property
    def horizon(self) -> int:
        return len(self.rows)


def partition_table(
    spec: SubshiftSpec,
    pot: Potential,
    n_max: int,
    budget: int = DEFAULT_NODE_BUDGET,
) -> PartitionTable:
    if n_max < 1:
        raise InputError("n_max must be >= 1")
    rows, nodes, max_states = _sweep(spec, pot, n_max, budget)
    return PartitionTable(
        rows=tuple(rows),
        upper_bound_only=not spec.exact,
        nodes=nodes,
        max_states=max_states,
    )


class BracketRow(NamedTuple):
    n: int
    lo: float
    hi: float


class PressureBracket(NamedTuple):
    rows: tuple[BracketRow, ...]
    best_lo: float
    best_hi: float
    upper_bound_only: bool

    @property
    def width(self) -> float:
        return self.best_hi - self.best_lo

    def check_consistent(self, tol: float = 1e-9) -> None:
        if self.best_lo > self.best_hi + tol:
            raise InconsistentBracketError(
                "pressure bracket crossed: lower bound "
                f"{self.best_lo} exceeds upper bound {self.best_hi}; "
                "the declared gap bounds are unsound for this instance",
                best_lo=self.best_lo,
                best_hi=self.best_hi,
            )


def pressure_bracket(
    spec: SubshiftSpec,
    pot: Potential,
    table: PartitionTable,
    g: VarProfile,
    tol: float = 1e-9,
) -> PressureBracket:
    """Bracket the pressure from a partition table, with f the subshift's
    declared gap bounds and g the potential's variation profile.

    The lower bound needs specification-mode gluing and an exact-language
    oracle; otherwise rows carry -inf lower bounds and the bracket is
    flagged upper_bound_only.
    """
    f = spec.declared_gap
    lower_valid = f is not None and spec.gap_mode == MODE_SPECIFICATION and spec.exact
    inf_phi = pot.bounds.lo
    rows = []
    best_hi = math.inf
    best_lo = -math.inf
    for row in table.rows:
        n = row.n
        best_hi = min(best_hi, _outer_float(_HI.divide(Decimal(row.lnz_hi), n), True))
        if lower_valid:
            fn = f(n)
            num = _LO.add(Decimal(row.lnz_lo), _LO.multiply(Decimal(inf_phi), fn))
            num = _LO.subtract(num, Decimal(g.g_at(n)))
            lo_n = _outer_float(_LO.divide(num, n + fn), False)
            best_lo = max(best_lo, lo_n)
        else:
            lo_n = -math.inf
        rows.append(BracketRow(n=n, lo=lo_n, hi=best_hi))
    bracket = PressureBracket(
        rows=tuple(rows),
        best_lo=best_lo,
        best_hi=best_hi,
        upper_bound_only=not lower_valid or table.upper_bound_only,
    )
    bracket.check_consistent(tol)
    return bracket


class AnchorSequence(NamedTuple):
    """Lengths where (f + g)/ln n has dropped below each target epsilon."""

    indices: tuple[int, ...]
    scores: tuple[float, ...]
    epsilons: tuple[float, ...]
    complete: bool


def anchor_sequence(
    f: Callable[[int], float],
    g: Callable[[int], float],
    horizon: int,
    epsilons: Sequence[float],
) -> AnchorSequence:
    """Greedy anchor selection: for each epsilon, in decreasing order, the
    smallest length past the previous pick with (f(n)+g(n))/ln n <= eps.

    Selection stops at the horizon; `complete` records whether every
    epsilon was satisfied.
    """
    eps = list(epsilons)
    if not eps:
        raise InputError("need at least one epsilon")
    if any(e <= 0 for e in eps):
        raise InputError("epsilons must be positive")
    if sorted(eps, reverse=True) != eps:
        raise InputError("epsilons must be non-increasing")
    if horizon < 3:
        raise InputError("horizon must be >= 3")
    picks: list[int] = []
    scores: list[float] = []
    start = 3
    for e in eps:
        found = None
        for n in range(start, horizon + 1):
            score = (f(n) + g(n)) / math.log(n)
            if score <= e:
                found = (n, score)
                break
        if found is None:
            break
        picks.append(found[0])
        scores.append(found[1])
        start = found[0] + 1
    return AnchorSequence(
        indices=tuple(picks),
        scores=tuple(scores),
        epsilons=tuple(eps),
        complete=len(picks) == len(eps),
    )
