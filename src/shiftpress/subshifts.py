"""Subshift descriptions, concrete families, and language enumeration.

A subshift is represented by a deterministic word oracle plus metadata
recording whether the oracle decides the exact language or only a locally
admissible superset of it. Five families are provided:

* full shifts,
* subshifts of finite type (exact language via a trimmed block graph),
* bounded density shifts (window sums capped by a height table),
* sparse Sturmian shifts (long windows must contain short Sturmian factors),
* products of two subshifts.

Each family exposes an incremental prefix walker, a state of its
follower-set automaton, so a prefix is rejected as soon as it can no
longer begin an admissible word. One forward pass over the classes
(walker key, lane state) of each length, `forward`, serves every
recursion over that automaton: counts here, partition sums, the density
certificate's heaviest words and the transfer class graph, each a lane
in its own semiring (Mohri, J. Autom. Lang. Comb. 7 (2002)), all charged
to the node budget by one rule. Enumeration is depth-first in
lexicographic order, with the budget checked against the counts before
the first word.
"""

from __future__ import annotations

import itertools
import weakref
from enum import Enum
from fractions import Fraction
from math import gcd
from typing import Callable, Iterator, NamedTuple, Sequence

from .errors import BudgetExceededError, ConstructionError, InputError
from .words import Word, check_symbols, format_word

DEFAULT_NODE_BUDGET = 1 << 25


class Verdict(Enum):
    ADMISSIBLE = "admissible"
    FORBIDDEN = "forbidden"

    def __bool__(self) -> bool:
        return self is Verdict.ADMISSIBLE


# a declared gap bound's mode, and the filler strategies a glue search may
# try: gluing searches by them and config validates them
MODE_SPECIFICATION = "specification"
MODE_TRANSITIVITY = "transitivity"
STRATEGIES = ("exhaustive", "zero_glue", "factor_glue")
# the pairs a glue scan checks at one length; past it, it samples that many
PAIR_BUDGET = 200_000


class SubshiftSpec:
    """A subshift given by an incremental admissibility oracle.

    exact records whether the oracle decides membership in the language;
    when False it decides a locally admissible superset, so counts and
    partition sums computed from it are upper bounds only.

    declared_gap, when set, maps a word length n to the family's declared
    gluing gap bound f(n); gap_mode records whether that bound promises
    gluing at every gap >= f(n) ("specification") or only at some single
    gap <= f(n) ("transitivity"). gap_reach is the largest n declared_gap
    answers, None when it answers every n.

    root_walker(window=None) gives a fresh root walker. A window K cuts a
    bounded density shift to its windows of length <= K, a shift of finite
    type whose keys close (products pass K to both factors); the other
    families ignore it.
    """

    __slots__ = ("alphabet_size", "family", "exact", "label", "root_walker", "params",
                 "declared_gap", "gap_mode", "gap_reach")

    def __init__(self, alphabet_size: int, family: str, exact: bool, label: str,
                 root_walker: Callable[..., object], params: dict | None = None,
                 declared_gap: Callable[[int], int] | None = None, gap_mode: str | None = None,
                 gap_reach: int | None = None):
        self.alphabet_size, self.family, self.exact = alphabet_size, family, exact
        self.label, self.root_walker = label, root_walker
        self.params = {} if params is None else params
        self.declared_gap, self.gap_mode, self.gap_reach = declared_gap, gap_mode, gap_reach


# ---------------------------------------------------------------------------
# walkers
# ---------------------------------------------------------------------------
#
# A walker is the state reached after reading an admissible prefix.
# child(sym) returns the state after one more symbol, or None when the
# longer prefix is rejected. key() returns a hashable summary of the state
# with one contract: two walkers of the same subshift with equal keys admit
# exactly the same continuations (the key names the follower set of the
# prefix, Lind & Marcus, Symbolic Dynamics and Coding, section 3.2).
#
# Walkers are the states of that follower-set automaton, built lazily: all
# states reached from one root_walker() call share one table from key to
# state, so each key is built once per walk and each child once per
# (state, symbol). The table goes when the last walker from that root does.
# Keys by family:
#
# * full shift: (), one state;
# * SFT: the prefix while it is shorter than the block length, then its
#   last block;
# * bounded density: the allowance profile a(j), the largest sum the next
#   j symbols may have, for j up to the height table's remaining reach (up
#   to K under a window K), packed into one int with a guarded bit field
#   per entry;
# * sparse Sturmian: the last (longest factor - 1) symbols, and for each
#   constraint j the distance d_j back to the end of the latest j-factor;
# * product: the pair of factor keys.

_UNBUILT = object()


class _Automaton:
    """The states built so far from one root walker, by key, with the
    family's tables. Every state is held by its root or by the kids of the
    state it was first built from, so the table holds weak references: a
    state would otherwise hold itself through its table, and a finished
    walk would wait for the cycle collector to free its states. While the
    root is held no state dies; an entry whose state died stays until the
    key is built again, and goes with the table."""

    __slots__ = ("states", "tables", "a_size")

    def __init__(self, tables, a_size: int):
        self.states: dict = {}
        self.tables = tables
        self.a_size = a_size


class _State:
    """A state of a lazily built follower-set automaton.

    kids[s] is the child on symbol s once built: a state, or None when s is
    rejected. Subclasses give _grow(sym), which builds it.
    """

    __slots__ = ("auto", "k", "kids", "__weakref__")

    def __init__(self, auto: _Automaton, k):
        self.auto = auto
        self.k = k
        self.kids = [_UNBUILT] * auto.a_size
        auto.states[k] = weakref.ref(self)

    @classmethod
    def root(cls, tables, a_size: int, k, *parts):
        return cls(_Automaton(tables, a_size), k, *parts)

    def child(self, sym: int):
        got = self.kids[sym]
        if got is _UNBUILT:
            got = self.kids[sym] = self._grow(sym)
        return got

    def key(self):
        return self.k

    def _state(self, k, *parts):
        """The state with key k, built on first use."""
        ref = self.auto.states.get(k)
        got = None if ref is None else ref()
        return got if got is not None else type(self)(self.auto, k, *parts)


def states_built(walker) -> int:
    """States built so far in walker's automaton: every one of them while
    the root walker it was reached from is held."""
    return len(walker.auto.states)


class _FullWalker(_State):
    __slots__ = ()

    def child(self, sym: int):
        return self


class _SftWalker(_State):
    """Position in the trimmed block graph of an SFT.

    While the prefix is shorter than the block length m the key is the
    prefix itself, checked against the sets of subwords of surviving
    blocks; afterwards it is the last m symbols. A short prefix is shorter
    than m, so the key also tells which case holds.
    """

    __slots__ = ()

    def _grow(self, sym: int):
        m, alive, short_sets = self.auto.tables
        q = self.k + (sym,)
        if len(q) <= m:
            ok = q in alive if len(q) == m else q in short_sets[len(q)]
        else:
            q = q[1:]
            ok = q in alive
        return self._state(q) if ok else None


class _DensityTables:
    """Packing of a bounded density shift's allowance profiles.

    A profile a(1..L) is one int: a(j) sits in bits (j-1)w .. (j-1)w + w-2
    of a w-bit field whose top bit, the guard bit, is 0, and a sentinel bit
    sits at Lw, so L = (bit length - 1) // w. w - 1 bits hold k n_max, the
    largest capped height c(j) = min(h(j), k j). masks(L) gives, for
    profiles of length L: s times the low bit of every field for s = 0..k,
    the guard bits, the capped heights c(1..L) packed with their sentinel,
    and those with the guard bits set. It is built once per L, on first use.

    With a window K the heights run to c(L + 1) instead: a step from a
    K-field profile then refills field K with c(K), so profiles keep K
    fields, and only windows of length <= K are enforced.
    """

    __slots__ = ("k", "w", "vmask", "n_cap", "caps", "refill", "_masks")

    def __init__(self, caps: Sequence[int], k: int, window: int | None = None):
        self.k, self.n_cap = k, len(caps)
        self.w = w = (k * self.n_cap).bit_length() + 1
        self.vmask = (1 << w) - 1
        # the sentinel, then c(n_cap) .. c(1) as w-bit fields, read in base 2
        self.caps = int("1" + "".join(format(c, f"0{w}b") for c in reversed(caps)), 2)
        self.refill = window is not None
        if self.refill and not 1 <= window <= self.n_cap:
            raise InputError(
                f"bounded density height table only covers lengths <= {self.n_cap}, "
                f"not the window {window}"
            )
        self._masks: dict = {}

    def masks(self, L: int):
        got = self._masks.get(L)
        if got is None:
            w = self.w
            ones = ((1 << L * w) - 1) // self.vmask
            top = 1 << (L + self.refill) * w
            guard, caps = ones << (w - 1), self.caps & (top - 1) | top
            steps = tuple(s * ones for s in range(self.k + 1))
            got = self._masks[L] = (steps, guard, caps, caps | guard)
        return got


class _DensityWalker(_State):
    """Allowance profile of the prefix, packed into one int (_DensityTables).

    a(j) = min(h(j), min_i h(i+j) - (sum of the last i symbols)) for
    j = 1..n_cap - length. Symbol s is admissible iff s <= a(1), and then
    a'(j) = min(c(j), a(j+1) - s). Equal profiles admit the same
    continuations, and the profile's length fixes the prefix length and
    with it the n_cap error.

    One step works on all fields at once: x = (a >> w) - s ONES cannot
    borrow across fields since a(j+1) >= a(1) >= s, and (CAPS | GUARD) - x
    leaves a field's guard bit set iff c(j) >= x(j); the sentinels cancel.
    Those fields keep x(j), the others take c(j). With a window K
    (_DensityTables), CAPS runs one field further, to c(K), and that field
    and the sentinel above it are taken from CAPS.
    """

    __slots__ = ()

    def _grow(self, sym: int):
        t, a = self.auto.tables, self.k
        if a == 1:
            raise InputError(
                f"bounded density height table only covers lengths <= {t.n_cap}"
            )
        if sym > a & t.vmask:
            return None
        w = t.w
        steps, guard, caps, capsg = t.masks((a.bit_length() - 1) // w - 1)
        x = (a >> w) - steps[sym]
        keep = (capsg - x) & guard
        keep -= keep >> (w - 1)  # the value bits of those fields
        return self._state(caps ^ (caps ^ x) & keep)


class _SparseWalker(_State):
    """Last (longest factor - 1) symbols and, per constraint j, d_j.

    d_j is the distance from the end of the prefix back to the end of its
    latest j-factor; it starts at 1 - j, a virtual factor ending at
    position j - 1, so no window shorter than W_j = n_j + 2j is tested. The
    prefix is rejected once some d_j exceeds W_j - j: its last W_j symbols
    then hold no j-factor.
    """

    __slots__ = ()

    def _grow(self, sym: int):
        checks, keep = self.auto.tables
        tail, ds = self.k
        q = tail + (sym,)
        new = []
        for (j, limit, facs), d in zip(checks, ds):
            d = 0 if q[-j:] in facs else d + 1
            if d > limit:
                return None
            new.append(d)
        return self._state((q[1:] if len(q) > keep else q, tuple(new)))


class _ProductWalker(_State):
    __slots__ = ("wa", "wb")

    def __init__(self, auto, k, wa, wb):
        super().__init__(auto, k)
        self.wa = wa
        self.wb = wb

    def _grow(self, sym: int):
        i, j = divmod(sym, self.auto.tables)
        ca = self.wa.child(i)
        if ca is None:
            return None
        cb = self.wb.child(j)
        if cb is None:
            return None
        return self._state((ca.key(), cb.key()), ca, cb)


def walk(walker, word: Word):
    """The walker after reading word from walker, or None once it is rejected.

    Symbols are not range-checked; callers feed words built over the
    alphabet (see word_admissible for outside input).
    """
    for s in word:
        walker = walker.child(s)
        if walker is None:
            return None
    return walker


# ---------------------------------------------------------------------------
# family constructors
# ---------------------------------------------------------------------------


def make_full_shift(alphabet_size: int) -> SubshiftSpec:
    if not isinstance(alphabet_size, int) or alphabet_size < 1:
        raise ConstructionError("alphabet_size must be a positive integer")
    return SubshiftSpec(
        alphabet_size=alphabet_size,
        family="full",
        exact=True,
        label=f"full shift on {alphabet_size} symbols",
        root_walker=lambda window=None: _FullWalker.root(None, alphabet_size, ()),
        params={},
        declared_gap=lambda n: 0,
        gap_mode=MODE_SPECIFICATION,
    )


def _contains_subword(w: Word, sub: Word) -> bool:
    k = len(sub)
    return any(w[i : i + k] == sub for i in range(len(w) - k + 1))


def make_sft(
    alphabet_size: int,
    forbidden: Sequence[Word],
    *,
    declared_gap: int | None = None,
) -> SubshiftSpec:
    """Subshift of finite type avoiding the given forbidden words.

    The language oracle is exact: blocks of length m (the longest forbidden
    word) are trimmed to those lying on bi-infinite paths of the block
    graph, so locally admissible words that cannot extend are rejected.

    declared_gap optionally records a known uniform gluing gap for the
    instance (every gap >= declared_gap admits a filler); it is caller
    supplied metadata, checkable empirically via the gluing profile tools.
    """
    if not isinstance(alphabet_size, int) or alphabet_size < 1:
        raise ConstructionError("alphabet_size must be a positive integer")
    forb: list[Word] = []
    for f in forbidden:
        f = tuple(f)
        if not f:
            raise ConstructionError("empty forbidden word")
        check_symbols(f, alphabet_size)
        forb.append(f)
    if not forb:
        return make_full_shift(alphabet_size)
    m = max(len(f) for f in forb)

    def locally_ok(w: Word) -> bool:
        return not any(_contains_subword(w, f) for f in forb)

    alive = {w for w in itertools.product(range(alphabet_size), repeat=m) if locally_ok(w)}
    # keep only blocks on bi-infinite paths: iteratively drop blocks with no
    # successor or no predecessor inside the surviving set
    while True:
        has_out = {u for u in alive if any(u[1:] + (s,) in alive for s in range(alphabet_size))}
        has_in = {u for u in alive if any((s,) + u[:-1] in alive for s in range(alphabet_size))}
        keep = has_out & has_in
        if keep == alive:
            break
        alive = keep
    if not alive:
        raise ConstructionError("forbidden words leave an empty subshift")
    short_sets: dict[int, set] = {l: set() for l in range(1, m)}
    for u in alive:
        for l in range(1, m):
            for i in range(m - l + 1):
                short_sets[l].add(u[i : i + l])
    tables = (m, alive, short_sets)

    f_decl = None
    mode = None
    if declared_gap is not None:
        if declared_gap < 0:
            raise ConstructionError("declared_gap must be >= 0")
        f_decl = lambda n, _g=declared_gap: _g
        mode = MODE_SPECIFICATION

    return SubshiftSpec(
        alphabet_size=alphabet_size,
        family="sft",
        exact=True,
        label=f"SFT on {alphabet_size} symbols avoiding "
        + ",".join(format_word(f) for f in sorted(forb)),
        root_walker=lambda window=None: _SftWalker.root(tables, alphabet_size, ()),
        params={"forbidden": sorted(forb)},
        declared_gap=f_decl,
        gap_mode=mode,
    )


def make_golden_mean() -> SubshiftSpec:
    """Binary SFT forbidding adjacent 1s; gap 1 gluing (pad with a 0)."""
    return make_sft(2, [(1, 1)], declared_gap=1)


class BoundedDensityParams(NamedTuple):
    """Height table data for a bounded density shift.

    h maps window length to the maximal allowed window sum (1-indexed via
    h[n]); alpha is the exact gradient min h(n)/n over the stored range and
    e(n) = h(n) - n*alpha the excess. e_envelope is the running maximum of
    e, used for gap bound declarations when e itself is not monotone.
    """

    k: int
    h: tuple[int, ...]  # h[0] unused sentinel 0
    alpha: Fraction
    e: tuple[Fraction, ...]
    e_envelope: tuple[Fraction, ...]
    e_monotone: bool
    n_max: int


_SUBADD_FULL_CHECK_LIMIT = 2048


def make_bounded_density(k: int, h: Sequence[int]) -> SubshiftSpec:
    """Bounded density shift on {0..k}: every window's sum is capped by h.

    h gives h(1), h(2), ... up to the largest length that will ever be
    queried; longer queries raise InputError. Requires positive
    non-decreasing subadditive h. Subadditivity is checked exhaustively up
    to length 2048 and on a deterministic sample of longer splits.

    Zero padding shows local admissibility equals language membership, so
    the oracle is exact. The declared gluing gap is
    f(n) = ceil(2 * e_envelope(n) / alpha), with the monotone envelope of e
    standing in for e where e itself dips.
    """
    if not isinstance(k, int) or k < 1:
        raise ConstructionError("k must be a positive integer")
    hs = list(h)
    if not hs:
        raise ConstructionError("height table must be non-empty")
    n_max = len(hs)
    prev = 0
    for n, v in enumerate(hs, start=1):
        if not isinstance(v, int) or v < 1:
            raise ConstructionError(f"h({n}) must be a positive integer, got {v!r}")
        if v < prev:
            raise ConstructionError(f"h must be non-decreasing; h({n})={v} < h({n-1})={prev}")
        prev = v
    table = (0, *hs)
    limit = min(n_max, _SUBADD_FULL_CHECK_LIMIT)
    for m in range(1, limit + 1):
        for n in range(m, limit - m + 1):
            if table[m + n] > table[m] + table[n]:
                raise ConstructionError(
                    f"h is not subadditive: h({m + n}) > h({m}) + h({n})"
                )
    if n_max > limit:
        # deterministic partial check beyond the exhaustive range
        for m in range(1, limit + 1):
            for n in range(limit - m + 1, n_max - m + 1, max(1, n_max // 64)):
                if table[m + n] > table[m] + table[n]:
                    raise ConstructionError(
                        f"h is not subadditive: h({m + n}) > h({m}) + h({n})"
                    )

    alpha = min(Fraction(table[n], n) for n in range(1, n_max + 1))
    e = tuple(Fraction(table[n]) - n * alpha for n in range(1, n_max + 1))
    env: list[Fraction] = []
    best = Fraction(0)
    for v in e:
        best = max(best, v)
        env.append(best)
    e_envelope = tuple(env)
    e_monotone = all(e[i] <= e[i + 1] for i in range(len(e) - 1))
    params = BoundedDensityParams(
        k=k,
        h=table,
        alpha=alpha,
        e=e,
        e_envelope=e_envelope,
        e_monotone=e_monotone,
        n_max=n_max,
    )

    # a window of length j sums to at most k j, so capping h there keeps the
    # language; profile entries then lie in 0 .. k n_max (a is
    # non-decreasing in j, so a(j+1) - s >= a(1) - s >= 0)
    capped = [min(v, k * j) for j, v in enumerate(hs, start=1)]
    tables = _DensityTables(capped, k)

    def root(window=None):
        if window is None:
            return _DensityWalker.root(tables, k + 1, tables.caps)
        cut = _DensityTables(capped, k, window)
        return _DensityWalker.root(cut, k + 1, cut.masks(window - 1)[2])

    def f_decl(n: int) -> int:
        if n < 1 or n > n_max:
            raise InputError(f"gap bound queried at n={n}, table covers 1..{n_max}")
        q = 2 * e_envelope[n - 1] / alpha
        return -(-q.numerator // q.denominator)

    return SubshiftSpec(
        alphabet_size=k + 1,
        family="bounded_density",
        exact=True,
        label=f"bounded density shift, k={k}, alpha={alpha}",
        root_walker=root,
        params={"density": params},
        declared_gap=f_decl,
        gap_mode=MODE_SPECIFICATION,
        gap_reach=n_max,
    )


class SturmianFactorSet(NamedTuple):
    """Factors, by length, of a rational-slope mechanical word.

    slope p/q in lowest terms; factors[k] holds all distinct length-k
    windows of the periodic word s(i) = floor((i+1)p/q) - floor(ip/q).
    """

    slope: Fraction
    k_max: int
    factors: dict[int, frozenset]


def make_sturmian_factors(p: int, q: int, k_max: int) -> SturmianFactorSet:
    """Collect mechanical-word factors up to length k_max.

    Requires 0 < p < q coprime and k_max <= q/2 so the rational
    approximation still has the k+1 factor counts of the irrational case;
    the counts are validated and a violation is a construction error.
    """
    if not (isinstance(p, int) and isinstance(q, int)) or not 0 < p < q:
        raise ConstructionError("slope must satisfy 0 < p < q with integer p, q")
    if gcd(p, q) != 1:
        raise ConstructionError(f"slope {p}/{q} is not in lowest terms")
    if not isinstance(k_max, int) or k_max < 1:
        raise ConstructionError("k_max must be a positive integer")
    if 2 * k_max > q:
        raise ConstructionError(f"k_max={k_max} too large for period {q}; need k_max <= q/2")
    period = tuple(((i + 1) * p) // q - (i * p) // q for i in range(q))
    doubled = period + period
    factors: dict[int, frozenset] = {}
    for k in range(1, k_max + 1):
        facs = frozenset(doubled[i : i + k] for i in range(q))
        if len(facs) != k + 1:
            raise ConstructionError(
                f"factor count at length {k} is {len(facs)}, expected {k + 1}"
            )
        factors[k] = facs
    for k in range(1, k_max):
        longer = factors[k + 1]
        for f in factors[k]:
            if not any(_contains_subword(g, f) for g in longer):
                raise ConstructionError(f"factor {format_word(f)} has no extension")
    return SturmianFactorSet(slope=Fraction(p, q), k_max=k_max, factors=factors)


def make_sparse_sturmian(fs: SturmianFactorSet, n_seq: Sequence[int]) -> SubshiftSpec:
    """Sparse Sturmian shift: windows of length n_k + 2k contain a k-factor.

    n_seq must be strictly increasing with n_1 >= 2 and
    n_k >= 2 n_{k-1} + 2k; only the finitely many constraints carried by
    n_seq are enforced, so the oracle decides a locally admissible
    superset. The declared gap bound is transitivity-mode: f(n) = 2k for
    the least k with n <= n_k.
    """
    ns = list(n_seq)
    if not ns:
        raise ConstructionError("n_seq must be non-empty")
    if len(ns) > fs.k_max:
        raise ConstructionError(
            f"n_seq has {len(ns)} entries but factors only go up to length {fs.k_max}"
        )
    for v in ns:
        if not isinstance(v, int):
            raise ConstructionError("n_seq entries must be integers")
    if ns[0] < 2:
        raise ConstructionError("n_1 must be >= 2")
    for i in range(1, len(ns)):
        k = i + 1
        if ns[i] <= ns[i - 1]:
            raise ConstructionError("n_seq must be strictly increasing")
        if ns[i] < 2 * ns[i - 1] + 2 * k:
            raise ConstructionError(
                f"n_{k}={ns[i]} violates n_k >= 2*n_(k-1) + 2k = {2 * ns[i - 1] + 2 * k}"
            )
    checks = []
    for j, nj in enumerate(ns, start=1):
        facs = fs.factors[j]
        if len(facs) == 2 ** j:
            # constraint is vacuous: every length-j binary word is a factor
            continue
        # a window of length n_j + 2j ending here needs d_j <= n_j + j
        checks.append((j, nj + j, facs))
    keep = max((j for j, _, _ in checks), default=1) - 1
    tables = (tuple(checks), keep)
    root_key = ((), tuple(1 - j for j, _, _ in checks))
    horizon = ns[-1]

    def f_decl(n: int) -> int:
        if n < 1:
            raise InputError("gap bound queried at n < 1")
        for j, nj in enumerate(ns, start=1):
            if n <= nj:
                return 2 * j
        raise InputError(f"gap bound queried at n={n}, beyond horizon {horizon}")

    return SubshiftSpec(
        alphabet_size=2,
        family="sparse_sturmian",
        exact=False,
        label=f"sparse Sturmian shift, slope {fs.slope}, n_seq={tuple(ns)}",
        root_walker=lambda window=None: _SparseWalker.root(tables, 2, root_key),
        params={"factor_set": fs, "n_seq": tuple(ns)},
        declared_gap=f_decl,
        gap_mode=MODE_TRANSITIVITY,
        gap_reach=horizon,
    )


def _product_root(a: SubshiftSpec, b: SubshiftSpec, window: int | None):
    wa, wb = a.root_walker(window), b.root_walker(window)
    b_size = b.alphabet_size
    return _ProductWalker.root(b_size, a.alphabet_size * b_size, (wa.key(), wb.key()), wa, wb)


def product_subshift(a: SubshiftSpec, b: SubshiftSpec) -> SubshiftSpec:
    """Product subshift; symbol i*|B|+j encodes the pair (i, j).

    It is exact when both factors are. The declared gap is the
    pointwise max of the factors' bounds when both are specification-mode
    (a shared padding length works for both coordinates); transitivity
    bounds do not combine this way, so anything else declares nothing.
    """
    b_size = b.alphabet_size
    f_decl = mode = reach = None
    if (
        a.declared_gap is not None
        and b.declared_gap is not None
        and a.gap_mode == MODE_SPECIFICATION
        and b.gap_mode == MODE_SPECIFICATION
    ):
        fa, fb = a.declared_gap, b.declared_gap
        f_decl = lambda n: max(fa(n), fb(n))
        mode = MODE_SPECIFICATION
        reach = min((r for r in (a.gap_reach, b.gap_reach) if r is not None), default=None)
    return SubshiftSpec(
        alphabet_size=a.alphabet_size * b_size,
        family="product",
        exact=a.exact and b.exact,
        label=f"product of ({a.label}) and ({b.label})",
        root_walker=lambda window=None: _product_root(a, b, window),
        params={"a": a, "b": b},
        declared_gap=f_decl,
        gap_mode=mode,
        gap_reach=reach,
    )


# ---------------------------------------------------------------------------
# oracle and enumeration
# ---------------------------------------------------------------------------


def word_admissible(spec: SubshiftSpec, w: Word) -> Verdict:
    """Decide the oracle's verdict on a word by replaying its walker."""
    w = tuple(w)
    check_symbols(w, spec.alphabet_size)
    if walk(spec.root_walker(), w) is None:
        return Verdict.FORBIDDEN
    return Verdict.ADMISSIBLE


class Tally:
    """Filled in by a forward pass: the nodes charged and the most classes
    on one level past the prefix; by a count to n also counts[k], the
    admissible words of length k (0 below the prefix length)."""

    __slots__ = ("counts", "nodes", "states")

    def __init__(self):
        self.counts, self.nodes, self.states = [], 0, 0


def _same(state, value, sym):  # the counting lane's step
    return state, value


def forward(walker, a_size: int, start: Word, n: float, budget: int, tally: Tally, lane=None,
            closure: bool = False):
    """One forward pass over classes (walker key, lane state), from the
    prefix start to length n (math.inf with closure): yields each length's
    level, a dict class -> [walker, lane state, value], for lengths
    len(start) .. n.

    A lane is (start state, start value, step, merge): step(state, value,
    sym) gives a child's lane state and value, and merge(old, new) the
    value of a class reached twice. Equal walker keys admit the same
    continuations and equal lane states step alike, so the words reaching
    a class merge into its value; the default lane counts them. Levels keep
    their parents' order, symbols ascending. Each class expanded is charged
    a_size nodes before its child calls, and tally gets the nodes and the
    widest level. With closure, a level keeps only classes no earlier
    level held, and the pass stops at the first empty level.
    """
    if budget < 1:
        raise InputError("budget must be >= 1")
    if n < 0:
        raise InputError("word length must be >= 0")
    check_symbols(start, a_size)
    tally.nodes = tally.states = 0
    if len(start) > n:
        return
    state, value, step, merge = (None, 1, _same, int.__add__) if lane is None else lane
    for s in start:
        state, value = step(state, value, s)
    walker, k = walk(walker, start), len(start)
    level = {} if walker is None else {(walker.key(), state): [walker, state, value]}
    seen = set(level)
    yield level
    symbols = range(a_size)
    while k < n:
        k += 1
        grown: dict = {}
        for w, state, value in level.values():
            tally.nodes += a_size
            if tally.nodes > budget:
                raise BudgetExceededError(
                    f"node budget {budget} exhausted at length {k}",
                    nodes=tally.nodes, budget=budget,
                )
            child = w.child
            for s in symbols:
                ch = child(s)
                if ch is not None:
                    st, v = step(state, value, s)
                    fresh = [ch, st, v]
                    got = grown.setdefault((ch.key(), st), fresh)  # the class hashed once
                    if got is not fresh:
                        got[2] = merge(got[2], v)
        if closure:
            grown = {c: e for c, e in grown.items() if c not in seen}
            if not grown:
                return
            seen.update(grown)
        level = grown
        tally.states = max(tally.states, len(level))
        yield level


def _walk(walker, a_size: int, root: Word, depth: int, ends: bool = False):
    """The one depth-first walk of the prefix tree below walker: root
    extended by each admissible word of length depth from walker, in
    lexicographic order, paired with its end walker when ends is set."""
    down = range(a_size - 1, -1, -1)  # pushed high to low, popped low to high
    stack = [(walker, root, 0)]
    while stack:
        w, label, k = stack.pop()
        if k == depth:
            yield (label, w) if ends else label
            continue
        child, k = w.child, k + 1
        for s in down:
            ch = child(s)
            if ch is not None:
                stack.append((ch, label + (s,), k))


_DIGITS = bytes(range(48, 58)) + bytes(range(10, 256))  # 0-9 -> digits, others kept


def _digits(w: Word) -> str:  # format_word(w) over at most 10 symbols
    return bytes(w).translate(_DIGITS).decode()


def iter_language(
    spec: SubshiftSpec,
    n: int,
    budget: int = DEFAULT_NODE_BUDGET,
    prefix: Word = (),
    *,
    text: bool = False,
    tally: Tally | None = None,
) -> Iterator[Word] | Iterator[str]:
    """Yield the admissible words of length n in lexicographic order.

    A forward count (forward's default lane) runs first and fills in
    tally. The budget is charged what a walk of the prefix tree makes: a
    child call per symbol for each admissible word shorter than n. When
    that exceeds it, BudgetExceededError is raised before any word is
    yielded. With a prefix, only words extending it are yielded. With
    text, the words come as language-file text, format_word(w) + "\\n" per
    word, in chunks of whole lines.
    """
    prefix, tally = tuple(prefix), Tally() if tally is None else tally
    a_size, start = spec.alphabet_size, len(prefix)
    # text lines are joined from suffix blocks when symbols are one digit
    # (format_word dots a word only when it holds a symbol >= 10)
    split = start + (n - start) // 2 if text and a_size <= 10 else -1
    tally.counts = counts = [0] * (n + 1)
    walker = None
    levels = forward(spec.root_walker(), a_size, prefix, n, budget, tally)
    for k, level in enumerate(levels, start):
        counts[k] = sum(e[2] for e in level.values())
        if k == start and level:
            (walker, _, _), = level.values()
        if k == split:
            kept = level
    if walker is None:
        return
    tally.nodes = a_size * sum(counts[start:n])
    if tally.nodes > budget:
        raise BudgetExceededError(
            f"node budget {budget} exhausted at length {n}",
            nodes=tally.nodes, budget=budget,
        )
    if split >= 0:
        # one chunk of lines per length-split prefix p: the block of p's end
        # state, a "*" + suffix + "\n" line per admissible word of length
        # n - split from there, with p in place of each "*". A block is
        # built once per state key and dropped once every prefix the count
        # saw reaching that key has used it
        blocks: dict = {}
        for p, end in _walk(walker, a_size, prefix, split - start, ends=True):
            got = blocks.get(key := (end.key(), None))
            if got is None:
                block = bytearray()
                for w in _walk(end, a_size, (), n - split):
                    block += bytes((42, *w, 10))  # "*", the symbols, "\n"
                got = blocks[key] = [kept[key][2], block.translate(_DIGITS).decode()]
            got[0] -= 1
            if not got[0]:
                del blocks[key]
            if got[1]:
                yield got[1].replace("*", _digits(p))
    else:
        words = _walk(walker, a_size, prefix, n - start)
        yield from (format_word(w) + "\n" for w in words) if text else words


def language_counts(
    spec: SubshiftSpec,
    n: int,
    budget: int = DEFAULT_NODE_BUDGET,
    prefix: Word = (),
    tally: Tally | None = None,
) -> list[int]:
    """[|L_0|, ..., |L_n|] of the words extending prefix (0 below its
    length), from one forward count (forward's default lane) for every
    family. tally, when given, gets the nodes charged and the widest level.
    """
    prefix, tally = tuple(prefix), Tally() if tally is None else tally
    tally.counts = [0] * (n + 1)
    levels = forward(spec.root_walker(), spec.alphabet_size, prefix, n, budget, tally)
    for k, level in enumerate(levels, len(prefix)):
        tally.counts[k] = sum(e[2] for e in level.values())
    return tally.counts


def count_language(spec: SubshiftSpec, n: int, budget: int = DEFAULT_NODE_BUDGET) -> int:
    """|L_n|; see language_counts."""
    return language_counts(spec, n, budget)[n]
