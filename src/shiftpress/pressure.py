"""Partition sums over languages and bracketing of topological pressure.

The partition value at length n is the sum of e^(S_n) over admissible
words, where S_n is the interval-valued partial sum of the potential along
the word. Rows come from one forward sweep (a transfer recursion, Lind &
Marcus, An Introduction to Symbolic Dynamics and Coding, ch. 4): words are
merged into classes by (walker key, scanner state), since equal walker keys
admit the same continuations and equal scanner states emit the same site
values from there on. Each class carries its word count and two
non-negative weights enclosing the sums of e^(S_lo) and e^(S_hi) over its
words, and closing the frontier after each length gives that length's
row. Each weight, and each factor e^s a step multiplies in, is a float
mantissa with its own integer binary exponent, so large site values and
long runs emitted at once neither overflow nor underflow. Every float
operation on them is rounded outward (one ulp for + and x, two for exp
and log) and exponents move only by exact powers of two, so
[lnz_lo, lnz_hi] encloses the exact value. The zero potential emits
nothing, so its rows enclose ln(count) and its classes are walker keys.

Pressure brackets combine a submultiplicative upper bound
min_m lnZ_hi(m)/m with the gluing lower bound
(lnZ_lo(n) + inf(phi) * f(n) - g(n)) / (n + f(n)), valid when the declared
gap bounds f promise gluing at every gap >= f(n) and g bounds partial-sum
variation. Lower bounds are omitted for transitivity-mode bounds and for
oracles that only decide a locally admissible superset.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable, Sequence

from .errors import BudgetExceededError, InconsistentBracketError, InputError
from .potentials import Interval, Potential, VarProfile
from .subshifts import DEFAULT_NODE_BUDGET, Exactness, SubshiftSpec, walk
from .words import Word, check_symbols

_INF = math.inf
_TINY = sys.float_info.min  # ldexp is exact on results at or above it
_DIRECT = 64.0  # e^s for |s| <= 64 is a float well inside range
_BIG = 2.0**512  # mantissas are renormalized once they leave [_SMALL, _BIG]
_SMALL = 2.0**-512
_LN2 = math.log(2.0)
_LN2_LO = math.nextafter(_LN2, 0.0)
_LN2_HI = math.nextafter(_LN2, _INF)
_nextafter = math.nextafter


def _k_ln2(k: int, up: bool) -> float:
    """k ln 2 rounded up (up) or down."""
    if up:
        return _nextafter(k * (_LN2_HI if k > 0 else _LN2_LO), _INF)
    return _nextafter(k * (_LN2_LO if k > 0 else _LN2_HI), -_INF)


def _exp_scaled(s: float, up: bool) -> tuple[float, int]:
    """(m, k) with m 2^k >= e^s (up) or <= e^s, rounded outward.

    Large |s| is split as s = k ln 2 + r with 0 <= r < ln 2 (up to
    rounding), so m stays within [e^-64, e^64] whatever the magnitude of s.
    """
    if not math.isfinite(s):
        return (0.0 if s < 0 else _INF), 0
    k = 0
    if abs(s) > _DIRECT:
        k = math.floor(s / _LN2)
        s = _nextafter(s - _k_ln2(k, not up), _INF if up else -_INF)
    m = math.exp(s)
    if up:
        return _nextafter(_nextafter(m, _INF), _INF), k
    return _nextafter(_nextafter(m, 0.0), 0.0), k


def _factors(ivs: tuple[Interval, ...]) -> tuple[float, int, float, int]:
    """Scaled bounds (lo m, lo k, hi m, hi k) on e^(sum of lo) and
    e^(sum of hi) over emitted intervals."""
    if not ivs:
        return 1.0, 0, 1.0, 0
    lo = _exp_scaled(_nextafter(math.fsum(iv.lo for iv in ivs), -_INF), False)
    hi = _exp_scaled(_nextafter(math.fsum(iv.hi for iv in ivs), _INF), True)
    return (*lo, *hi)


def _add(m1: float, e1: int, m2: float, e2: int, toward: float) -> tuple[float, int]:
    """m1 2^e1 + m2 2^e2 at the larger exponent, rounded toward 0 or inf."""
    if m1 == 0.0:
        return m2, e2
    if e1 < e2:
        m1, e1, m2, e2 = m2, e2, m1, e1
    t = math.ldexp(m2, e2 - e1)
    if t < _TINY:
        t = _nextafter(t, toward)
    return _nextafter(m1 + t, toward), e1


def _ln_scaled(m: float, e: int, up: bool) -> float:
    """ln(m 2^e) rounded up (up) or down."""
    if m == 0.0:
        return -_INF
    if up:
        v = _nextafter(_nextafter(math.log(m), _INF), _INF)
        return _nextafter(v + _k_ln2(e, True), _INF) if e else v
    v = _nextafter(_nextafter(math.log(m), -_INF), -_INF)
    return _nextafter(v + _k_ln2(e, False), -_INF) if e else v


@dataclass(frozen=True)
class PartitionRow:
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
    extending prefix, from one forward pass over frontier classes, plus the
    walker child calls made and the largest frontier."""
    if budget < 1:
        raise InputError("budget must be >= 1")
    prefix = tuple(prefix)
    check_symbols(prefix, spec.alphabet_size)
    walker = walk(spec.root_walker(), prefix)
    if walker is None:
        lengths = range(max(1, len(prefix)), n_max + 1)
        return [PartitionRow(n, 0, -_INF, -_INF) for n in lengths], 0, 0
    scan = pot.scanner()
    a_size = spec.alphabet_size
    # scanner state -> per symbol (next state, lo m, lo k, hi m, hi k)
    moves: dict = {}
    closes: dict = {}  # scanner state -> (lo m, lo k, hi m, hi k)

    def moves_from(state):
        got = moves[state] = []
        for sym in range(a_size):
            nxt, ivs = scan.step(state, sym)
            got.append((nxt, *_factors(ivs)))
        return got

    # each weight is a mantissa m and its own binary exponent e, m 2^e
    state, lo, lo_e, hi, hi_e = scan.start, 1.0, 0, 1.0, 0
    for sym in prefix:
        state, f_lo, k_lo, f_hi, k_hi = (moves.get(state) or moves_from(state))[sym]
        lo, shift = math.frexp(_nextafter(lo * f_lo, 0.0))
        lo_e += k_lo + shift
        hi, shift = math.frexp(_nextafter(hi * f_hi, _INF))
        hi_e += k_hi + shift
    # (walker key, scanner state) -> [walker, word count, lo m, lo e, hi m, hi e]
    frontier = {(walker.key(), state): [walker, 1, lo, lo_e, hi, hi_e]}
    nodes = max_states = 0
    rows = []
    for n in range(len(prefix), n_max + 1):
        if n > len(prefix):
            grown: dict = {}
            for (_k, state), (walker, count, lo, lo_e, hi, hi_e) in frontier.items():
                out = moves.get(state) or moves_from(state)
                for sym in range(a_size):
                    nodes += 1
                    if nodes > budget:
                        raise BudgetExceededError(
                            f"node budget {budget} exhausted at length {n}",
                            nodes=nodes,
                            budget=budget,
                        )
                    child = walker.child(sym)
                    if child is None:
                        continue
                    nstate, f_lo, k_lo, f_hi, k_hi = out[sym]
                    if f_lo == 1.0 == f_hi:
                        w_lo, w_lo_e, w_hi, w_hi_e = lo, lo_e, hi, hi_e
                    else:
                        w_lo, w_lo_e = _nextafter(lo * f_lo, 0.0), lo_e + k_lo
                        w_hi, w_hi_e = _nextafter(hi * f_hi, _INF), hi_e + k_hi
                    fresh = [child, count, w_lo, w_lo_e, w_hi, w_hi_e]
                    entry = grown.setdefault((child.key(), nstate), fresh)  # hashed once
                    if entry is fresh:
                        continue
                    entry[1] += count
                    if entry[3] == w_lo_e:
                        entry[2] = _nextafter(entry[2] + w_lo, 0.0)
                    else:
                        entry[2], entry[3] = _add(entry[2], entry[3], w_lo, w_lo_e, 0.0)
                    if entry[5] == w_hi_e:
                        entry[4] = _nextafter(entry[4] + w_hi, _INF)
                    else:
                        entry[4], entry[5] = _add(entry[4], entry[5], w_hi, w_hi_e, _INF)
            frontier = grown
            max_states = max(max_states, len(frontier))
            for entry in frontier.values():  # frexp is exact
                for i in (2, 4):
                    if not _SMALL <= entry[i] <= _BIG:
                        entry[i], shift = math.frexp(entry[i])
                        entry[i + 1] += shift
        if n < 1:
            continue
        z_lo = z_hi = 0.0
        z_lo_e = z_hi_e = 0
        total = 0
        for (_k, state), (_w, count, lo, lo_e, hi, hi_e) in frontier.items():
            c_lo, k_lo, c_hi, k_hi = closes.get(state) or closes.setdefault(
                state, _factors(scan.close(state))
            )
            z_lo, z_lo_e = _add(z_lo, z_lo_e, _nextafter(lo * c_lo, 0.0), lo_e + k_lo, 0.0)
            z_hi, z_hi_e = _add(z_hi, z_hi_e, _nextafter(hi * c_hi, _INF), hi_e + k_hi, _INF)
            total += count
        if total:
            lnz_lo, lnz_hi = _ln_scaled(z_lo, z_lo_e, False), _ln_scaled(z_hi, z_hi_e, True)
        else:
            lnz_lo = lnz_hi = -_INF
        rows.append(PartitionRow(n=n, count=total, lnz_lo=lnz_lo, lnz_hi=lnz_hi))
    return rows, nodes, max_states


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


@dataclass(frozen=True)
class PartitionTable:
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
        upper_bound_only=spec.exactness is Exactness.LOCAL_SUPERSET,
        nodes=nodes,
        max_states=max_states,
    )


@dataclass(frozen=True)
class BracketRow:
    n: int
    lo: float
    hi: float


@dataclass(frozen=True)
class PressureBracket:
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
    lower_valid = (
        f is not None
        and spec.gap_mode == "specification"
        and spec.exactness is Exactness.EXACT_LANGUAGE
    )
    inf_phi = pot.bounds.lo
    rows = []
    best_hi = math.inf
    best_lo = -math.inf
    for row in table.rows:
        n = row.n
        hi_n = row.lnz_hi / n
        best_hi = min(best_hi, hi_n)
        if lower_valid:
            fn = f(n)
            lo_n = (row.lnz_lo + inf_phi * fn - g.g_at(n)) / (n + fn)
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


@dataclass(frozen=True)
class AnchorSequence:
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
