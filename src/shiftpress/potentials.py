"""Interval-valued potentials evaluated on finite words.

A potential assigns a real to each point of a two-sided shift space. On a
finite word only part of a point is visible, so evaluation returns an
interval guaranteed to contain the value at every point consistent with
the visible symbols. Widening the visible block never widens the interval.

Kinds provided:

* zero - the constant 0 potential;
* locally constant - value read from a table on the radius-r central block;
* reciprocal run - value 1/h(k) where k is the radius of the maximal
  constant central run (0 on constant points);
* run levels - value a_k at run radius k with limit value a_inf on
  constant points.

Every potential is also its own scanner (Potential.start, step, close):
it reads a word left to right and emits each site's eval interval as
soon as the symbols read so far decide it; partition sums and the
transfer model's class graph run on scanner states instead of evaluating
every site of every word. Variation profiles use closed forms per kind.

This module is the one home of directed rounding: the `decimal` contexts
_LO and _HI (toward -inf and +inf) of the partition lanes, _EXACT for sums
of floats, and _outer_float, a Decimal's float on its outer side. Partial
sums and the gap table g are summed exactly and rounded once, so each is
the tightest float enclosure of its exact value.
"""

from __future__ import annotations

import math
from decimal import MAX_EMAX, MAX_PREC, MIN_EMIN, ROUND_CEILING, ROUND_FLOOR, Context, Decimal
from functools import cached_property
from typing import Callable, Iterable, NamedTuple, Sequence

from .errors import ConstructionError, IdentityCheckError, InputError
from .subshifts import DEFAULT_NODE_BUDGET, SubshiftSpec, iter_language, walk
from .words import Word, check_symbols

_INF = math.inf
# directed rounding: lower and upper lanes of one libmpdec word of digits,
# and _EXACT, for adds and integer multiples only, which it never rounds
_LO = Context(prec=19, rounding=ROUND_FLOOR, Emax=MAX_EMAX, Emin=MIN_EMIN)
_HI = Context(prec=19, rounding=ROUND_CEILING, Emax=MAX_EMAX, Emin=MIN_EMIN)
_EXACT = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN)


def _outer_float(v: Decimal, up: bool) -> float:
    """The nearest float on v's outer side: float() rounds to nearest, so
    step once if it landed inside."""
    f = float(v)
    if up:
        return f if Decimal(f) >= v else math.nextafter(f, _INF)
    return f if Decimal(f) <= v else math.nextafter(f, -_INF)


def _exact_sum(values: Iterable[float]) -> Decimal:
    acc = Decimal(0)
    for v in values:
        acc = _EXACT.add(acc, Decimal(v))
    return acc


def _finite(value, name: str) -> float:
    """value as a float; a NaN or infinite parameter fails at construction,
    not at the first eval that reaches it."""
    v = float(value)
    if not math.isfinite(v):
        raise ConstructionError(f"{name} must be finite, got {v!r}")
    return v


class Interval:
    """Closed interval [lo, hi] of floats."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo: float, hi: float):
        if math.isnan(lo) or math.isnan(hi) or lo > hi:
            raise InputError(f"invalid interval [{lo}, {hi}]")
        self.lo, self.hi = lo, hi

    def __eq__(self, other) -> bool:
        if other.__class__ is not Interval:
            return NotImplemented
        return self.lo == other.lo and self.hi == other.hi

    def __hash__(self) -> int:
        return hash((self.lo, self.hi))

    @staticmethod
    def point(v: float) -> "Interval":
        return Interval(v, v)

    @property
    def width(self) -> float:
        return self.hi - self.lo


ZERO_INTERVAL = Interval(0.0, 0.0)


def interval_sum(ivs: Sequence[Interval]) -> Interval:
    """The tightest float interval enclosing the exact sum of ivs: each
    side is summed exactly and rounded outward once."""
    return Interval(_outer_float(_exact_sum(iv.lo for iv in ivs), False),
                    _outer_float(_exact_sum(iv.hi for iv in ivs), True))


class Potential:
    """Interface: eval(word, center) -> Interval, plus global bounds, and
    the potential as a left-to-right scanner of its site values.

    The scanner's hashable `start` state stands for the empty word;
    step(state, sym) returns (next state, the intervals of the sites that
    symbol decides) and close(state) the intervals of the sites still
    pending when the word ends. Over a whole word the emitted intervals
    are [self.eval(w, i) for i in range(len(w))] as a multiset, except
    that sites whose value is exactly 0 may emit nothing. Scanners take
    their values from eval on a short stand-in word, so eval stays the one
    definition of each potential; callers memoise per state.
    """

    kind: str = "abstract"
    bounds: Interval = ZERO_INTERVAL
    start: object

    def eval(self, w: Word, center: int) -> Interval:
        raise NotImplementedError

    def var_widths(self, spec: SubshiftSpec, n_max: int, budget: int) -> list[float]:
        """var(n) for n <= n_max: the largest eval width at the center of
        an admissible (2n+1)-block."""
        raise NotImplementedError(f"{self.kind} potential has no variation profile")


def _check_center(w: Word, center: int) -> None:
    if not w:
        raise InputError("cannot evaluate on the empty word")
    if not 0 <= center < len(w):
        raise InputError(f"center {center} outside word of length {len(w)}")


class ZeroPotential(Potential):
    """The constant 0: one scanner state and no emissions."""

    kind = "zero"
    bounds = ZERO_INTERVAL
    start = ()

    def eval(self, w: Word, center: int) -> Interval:
        _check_center(w, center)
        return ZERO_INTERVAL

    def step(self, state, sym):
        return (), ()

    def close(self, state):
        return ()


class LocallyConstantPotential(Potential):
    """Value determined by the central block of fixed radius.

    values maps (2r+1)-blocks to floats; blocks not listed take the
    default. With default=None the table must be total over the alphabet.
    When fewer than r symbols are visible on a side, the result is the
    hull over all completions of the visible pattern.

    As a scanner its state is the last <= 2r symbols. Reading position j
    decides site j - r, whose visible window is the state plus the new
    symbol; at the end the last r sites are pending.
    """

    kind = "locally_constant"
    start = ()

    def __init__(
        self,
        radius: int,
        values: dict[Word, float],
        alphabet_size: int,
        default: float | None = 0.0,
    ):
        if radius < 0:
            raise ConstructionError("radius must be >= 0")
        if alphabet_size < 1:
            raise ConstructionError("alphabet_size must be >= 1")
        self.radius = radius
        self.alphabet_size = alphabet_size
        self.default = None if default is None else _finite(default, "default")
        width = 2 * radius + 1
        table: dict[Word, float] = {}
        for key, v in values.items():
            key = tuple(key)
            if len(key) != width:
                raise ConstructionError(
                    f"table key {key} must have length {width} for radius {radius}"
                )
            check_symbols(key, alphabet_size)
            table[key] = _finite(v, f"value of table key {key}")
        if default is None and len(table) < alphabet_size ** width:
            raise ConstructionError(
                "table is not total and no default value was given"
            )
        self.values = table
        pool = list(table.values())
        if default is not None and (not pool or len(table) < alphabet_size ** width):
            pool.append(self.default)
        if not pool:
            raise ConstructionError("potential has no values")
        self.bounds = Interval(min(pool), max(pool))

    def _lookup(self, key: Word) -> float:
        v = self.values.get(key)
        if v is None:
            if self.default is None:
                raise InputError(f"no table entry for block {key}")
            return self.default
        return v

    def eval(self, w: Word, center: int) -> Interval:
        _check_center(w, center)
        r = self.radius
        left = center
        right = len(w) - 1 - center
        if left >= r and right >= r:
            return Interval.point(self._lookup(w[center - r : center + r + 1]))
        # hull over every completion of the visible pattern
        lo_vis = max(0, center - r)
        visible = w[lo_vis : min(len(w), center + r + 1)]
        pad_left = r - (center - lo_vis)
        pad_right = 2 * r + 1 - pad_left - len(visible)
        lo = _INF
        hi = -_INF
        matched = 0
        for key, v in self.values.items():
            if key[pad_left : pad_left + len(visible)] == visible:
                matched += 1
                lo = min(lo, v)
                hi = max(hi, v)
        total = self.alphabet_size ** (pad_left + pad_right)
        if matched < total:
            d = self.default  # totality was enforced otherwise
            lo = min(lo, d)
            hi = max(hi, d)
        return Interval(lo, hi)

    def step(self, state, sym):
        r = self.radius
        window = state + (sym,)
        center = len(window) - 1 - r
        emitted = (self.eval(window, center),) if center >= 0 else ()
        return window[max(0, len(window) - 2 * r) :], emitted

    def close(self, state):
        r = self.radius
        return tuple(self.eval(state, c) for c in range(max(0, len(state) - r), len(state)))

    def var_widths(self, spec: SubshiftSpec, n_max: int, budget: int) -> list[float]:
        # from radius r on, the whole table window is visible at the center
        var = []
        for n in range(min(n_max + 1, self.radius)):
            worst = 0.0
            for w in iter_language(spec, 2 * n + 1, budget):
                worst = max(worst, self.eval(w, n).width)
            var.append(worst)
        return var + [0.0] * (n_max + 1 - len(var))


def _visible_break(w: Word, center: int) -> tuple[int, int | None]:
    """Radius bookkeeping for run-based potentials.

    Returns (min one-sided visibility, d) where d is the least distance at
    which a visible symbol differs from the center symbol, or None if
    everything visible matches it.
    """
    sym = w[center]
    left = center
    right = len(w) - 1 - center
    rv = min(left, right)
    for d in range(1, max(left, right) + 1):
        if d <= left and w[center - d] != sym:
            return rv, d
        if d <= right and w[center + d] != sym:
            return rv, d
    return rv, None


class _RunPotential(Potential):
    """A value fixed by the run radius of the center.

    Each kind supplies _hull(lo, hi), the hull of its values at run radii
    lo..hi; hi None covers every radius >= lo and the constant points.

    As a scanner its state is (symbol, run length, whether the run
    touches the left edge). A run's values are decided when it ends. They
    depend only on its length and on which word edges it touches, so they
    are read off a canonical word, the run of 0s with a 1 on each side
    that has a break, and memoised per (length, edges) in _runs.
    """

    start = None

    def eval(self, w: Word, center: int) -> Interval:
        _check_center(w, center)
        rv, d = _visible_break(w, center)
        if d is None:
            return self._hull(rv, None)
        # the run radius is between rv and d - 1, a point when d <= rv + 1
        return self._hull(min(rv, d - 1), d - 1)

    def step(self, state, sym):
        if state is None:
            return (sym, 1, True), ()
        s, length, left = state
        if sym == s:
            return (s, length + 1, left), ()
        return (sym, 1, False), self._run(length, left, False)

    def close(self, state):
        if state is None:
            return ()
        _s, length, left = state
        return self._run(length, left, True)

    @cached_property
    def _runs(self) -> dict:
        return {}

    def _run(self, length: int, left: bool, right: bool) -> tuple[Interval, ...]:
        key = (length, left, right)
        got = self._runs.get(key)
        if got is None:
            pad = int(not left)
            word = (1,) * pad + (0,) * length + (1,) * (not right)
            got = self._runs[key] = tuple(self.eval(word, pad + i) for i in range(length))
        return got

    def var_widths(self, spec: SubshiftSpec, n_max: int, budget: int) -> list[float]:
        # a visible break at distance d <= n decides the center of a
        # (2n+1)-block, so only admissible constant blocks leave width
        root = spec.root_walker()
        return [
            self._hull(n, None).width
            if any(walk(root, (s,) * (2 * n + 1)) is not None
                   for s in range(spec.alphabet_size))
            else 0.0
            for n in range(n_max + 1)
        ]


# how far the divergence flag sums 1/h(n) for a callable h (a table: its end)
_SUMMABILITY_HORIZON = 1 << 16


class ReciprocalRunPotential(_RunPotential):
    """phi(x) = 1/h(k) at run radius k; 0 on constant points.

    k is the largest radius with x(-k) = ... = x(k). h must be positive
    and non-decreasing; values are tabulated up to k_cap and evaluation
    beyond that raises. The divergence flag, computed on first read,
    records whether the partial sums of 1/h(n) look divergent at the
    summability horizon (dyadic increment heuristic).
    """

    kind = "reciprocal_run"

    def __init__(
        self,
        h: Callable[[int], float] | Sequence[float],
        *,
        k_cap: int = 1024,
    ):
        if callable(h):
            table = [float(h(k)) for k in range(k_cap + 1)]
        else:
            table = [float(v) for v in h]
            if not table:
                raise ConstructionError("height sequence must be non-empty")
            k_cap = len(table) - 1
        prev = 0.0
        for k, v in enumerate(table):
            if not v > 0.0:
                raise ConstructionError(f"h({k}) must be positive")
            if v < prev:
                raise ConstructionError(f"h must be non-decreasing; h({k}) drops")
            prev = v
        self.h_table = table
        self.k_cap = k_cap
        self._h = h
        self.bounds = self._hull(0, None)

    @cached_property
    def sum_diverges(self) -> bool:
        sums, acc, j = [], 0.0, 1
        horizon = _SUMMABILITY_HORIZON if callable(self._h) else self.k_cap
        for k in range(horizon + 1):
            hv = self.h_table[k] if k <= self.k_cap else float(self._h(k))
            if not hv > 0.0:
                raise ConstructionError(f"h({k}) must be positive")
            acc += 1.0 / hv
            if k + 1 == 1 << j:
                sums.append(acc)
                j += 1
        return _looks_divergent(sums)

    def _inv(self, k: int) -> float:
        if k > self.k_cap:
            raise InputError(
                f"run radius {k} beyond tabulated horizon {self.k_cap}"
            )
        return 1.0 / self.h_table[k]

    def _hull(self, lo: int, hi: int | None) -> Interval:
        # h is non-decreasing, and constant points are worth 0
        return Interval(0.0 if hi is None else self._inv(hi), self._inv(lo))


def _looks_divergent(dyadic_partial_sums: Sequence[float]) -> bool:
    # increments between successive dyadic horizons; a summable series has
    # geometrically shrinking increments, a divergent one does not
    s = list(dyadic_partial_sums)
    if len(s) < 4:
        raise ConstructionError("summability horizon too small to classify")
    incs = [s[i + 1] - s[i] for i in range(len(s) - 1)]
    tail = incs[-3:]
    if all(v <= 1e-12 for v in tail):
        return False
    ratios = [b / a for a, b in zip(tail, tail[1:]) if a > 0]
    if not ratios:
        return False
    return min(ratios) >= 0.66


class RunLevelPotential(_RunPotential):
    """Value a_k at run radius k, a_inf on constant points.

    Levels beyond the table continue at a_inf.
    """

    kind = "run_levels"

    def __init__(self, a: Sequence[float], a_inf: float):
        vals = [_finite(v, f"level a_{k}") for k, v in enumerate(a)]
        if not vals:
            raise ConstructionError("level table must be non-empty")
        self.a = vals
        self.a_inf = _finite(a_inf, "limit a_inf")
        self.bounds = self._hull(0, None)

    def _hull(self, lo: int, hi: int | None) -> Interval:
        # min and max keep the first of equal values, so this order fixes
        # which zero, 0.0 or -0.0, an endpoint is
        if hi is None:
            vals = self.a[lo:] + [self.a_inf]
        else:
            vals = ([self.a_inf] if hi >= len(self.a) else []) + self.a[lo : hi + 1]
        return Interval(min(vals), max(vals))


def make_reciprocal_run(
    h: Callable[[int], float] | Sequence[float],
    *,
    k_cap: int = 1024,
) -> ReciprocalRunPotential:
    return ReciprocalRunPotential(h, k_cap=k_cap)


def make_run_levels(a: Sequence[float], a_inf: float) -> RunLevelPotential:
    return RunLevelPotential(a, a_inf)


def partial_sum(pot: Potential, w: Word) -> Interval:
    """Interval enclosing sum_{i<n} phi(T^i x) over points x through w."""
    w = tuple(w)
    if not w:
        raise InputError("partial sum needs a non-empty word")
    return interval_sum([pot.eval(w, i) for i in range(len(w))])


class VarProfile(NamedTuple):
    """Measured variation widths var(n) and the induced gap table g(n).

    var[n] is the largest eval width at the center of any admissible
    (2n+1)-block; g[n] = 2 * sum_{i <= n//2} var[i] bounds the spread of
    length-n partial sums over points agreeing on n coordinates.
    """

    var: tuple[float, ...]
    g: tuple[float, ...]

    def g_at(self, n: int) -> float:
        if n < 0 or n >= len(self.g):
            raise InputError(f"g queried at n={n}, table covers 0..{len(self.g) - 1}")
        return self.g[n]


def variation_sum_bounds(var: Sequence[float]) -> tuple[float, ...]:
    """g(n) = 2 * sum of var(i) for i <= n//2, for n < 2*len(var), summed
    exactly and rounded up once."""
    g = [_outer_float(_EXACT.multiply(2, _exact_sum(var[: k + 1])), True)
         for k in range(len(var))]
    return tuple(g[n // 2] for n in range(2 * len(g)))


def variation_profile(
    pot: Potential,
    spec: SubshiftSpec,
    n_max: int,
    budget: int = DEFAULT_NODE_BUDGET,
) -> VarProfile:
    """The worst eval width at the center of admissible (2n+1)-blocks,
    from each kind's closed form (Potential.var_widths)."""
    if n_max < 0:
        raise InputError("n_max must be >= 0")
    if pot.bounds.width == 0.0:
        var = [0.0] * (n_max + 1)
    else:
        var = pot.var_widths(spec, n_max, budget)
    for i in range(len(var) - 1):
        if var[i + 1] > var[i] + 1e-15:
            raise IdentityCheckError(
                f"variation must be non-increasing; var({i + 1}) > var({i})"
            )
    return VarProfile(var=tuple(var), g=variation_sum_bounds(var))
