"""Subshift descriptions, concrete families, and language enumeration.

A subshift is represented by a deterministic word oracle plus metadata
recording whether the oracle decides the exact language or only a locally
admissible superset of it. Five families are provided:

* full shifts,
* subshifts of finite type (exact language via a trimmed block graph),
* bounded density shifts (window sums capped by a height table),
* sparse Sturmian shifts (long windows must contain short Sturmian factors),
* products of two subshifts.

Enumeration is depth-first with hereditary pruning: each family exposes an
incremental prefix walker so a prefix is rejected as soon as it can no
longer begin an admissible word. Output order is always lexicographic and
a node budget caps the walk.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from math import gcd
from typing import Callable, Iterator, Sequence

from .errors import BudgetExceededError, ConstructionError, InputError
from .words import Word, check_symbols, format_word

DEFAULT_NODE_BUDGET = 1 << 25


class Verdict(Enum):
    ADMISSIBLE = "admissible"
    FORBIDDEN = "forbidden"

    def __bool__(self) -> bool:
        return self is Verdict.ADMISSIBLE


class Exactness(Enum):
    # Oracle decides membership in the language of the subshift.
    EXACT_LANGUAGE = "exact_language"
    # Oracle decides a locally admissible superset; counts and partition
    # sums computed from it are upper bounds only.
    LOCAL_SUPERSET = "locally_admissible_superset"


GAP_SPECIFICATION = "specification"
GAP_TRANSITIVITY = "transitivity"


@dataclass
class SubshiftSpec:
    """A subshift given by an incremental admissibility oracle.

    declared_gap, when set, maps a word length n to the family's declared
    gluing gap bound f(n); gap_mode records whether that bound promises
    gluing at every gap >= f(n) ("specification") or only at some single
    gap <= f(n) ("transitivity").
    """

    alphabet_size: int
    family: str
    exactness: Exactness
    label: str
    root_walker: Callable[[], "object"]
    params: dict = field(default_factory=dict)
    declared_gap: Callable[[int], int] | None = None
    gap_mode: str | None = None

    def describe(self) -> dict:
        d = {
            "family": self.family,
            "alphabet_size": self.alphabet_size,
            "exactness": self.exactness.value,
            "label": self.label,
        }
        if self.gap_mode:
            d["gap_mode"] = self.gap_mode
        return d


# ---------------------------------------------------------------------------
# walkers
# ---------------------------------------------------------------------------
#
# A walker is the state reached after reading an admissible prefix.
# child(sym) returns the state after one more symbol, or None when the
# longer prefix is rejected. key() returns a hashable summary of the state
# with one contract: two walkers of the same subshift with equal keys admit
# exactly the same continuations (the key names the follower set of the
# prefix, Lind & Marcus, Symbolic Dynamics and Coding, section 3.2). Keys
# are computed on demand, so enumeration never pays for them.


class _FullWalker:
    __slots__ = ()

    def child(self, sym: int):
        return self

    def key(self):
        return ()


_FULL_WALKER = _FullWalker()


class _SftWalker:
    """Position in the trimmed block graph of an SFT.

    While the prefix is shorter than the block length m the state is the
    prefix itself, checked against the sets of subwords of surviving
    blocks; afterwards it is the last m symbols.
    """

    __slots__ = ("tables", "cur", "short")

    def __init__(self, tables, cur, short):
        self.tables = tables
        self.cur = cur
        self.short = short

    def child(self, sym: int):
        m, alive, short_sets, step = self.tables
        q = self.cur + (sym,)
        if self.short:
            if len(q) < m:
                if q in short_sets[len(q)]:
                    return _SftWalker(self.tables, q, True)
                return None
            if q in alive:
                return _SftWalker(self.tables, q, False)
            return None
        nxt = q[1:]
        if nxt in alive:
            return _SftWalker(self.tables, nxt, False)
        return None

    def key(self):
        # short prefixes are shorter than m, so cur also fixes `short`
        return self.cur


class _DensityWalker:
    """Suffix window sums of the current prefix, newest first.

    sums[i] is the sum of the last i+1 symbols. Appending a symbol only
    creates windows ending at the new position, so those are the only
    checks needed (the prefix was already admissible).
    """

    __slots__ = ("h", "sums", "n_cap")

    def __init__(self, h, sums, n_cap):
        self.h = h
        self.sums = sums
        self.n_cap = n_cap

    def child(self, sym: int):
        h = self.h
        old = self.sums
        if len(old) + 1 > self.n_cap:
            raise InputError(
                f"bounded density height table only covers lengths <= {self.n_cap}"
            )
        new = [sym]
        if sym > h[1]:
            return None
        ln = 2
        for s in old:
            t = s + sym
            if t > h[ln]:
                return None
            new.append(t)
            ln += 1
        return _DensityWalker(h, new, self.n_cap)

    def key(self):
        # the sums also fix the prefix length, and with it the n_cap error
        return tuple(self.sums)


class _SparseWalker:
    """Last window-length-minus-one symbols plus current length.

    On each push, for every non-vacuous constraint j whose window now fits,
    the single new window (the one ending at the new position) is scanned
    for a factor of length j.
    """

    __slots__ = ("tables", "suffix", "length")

    def __init__(self, tables, suffix, length):
        self.tables = tables
        self.suffix = suffix
        self.length = length

    def child(self, sym: int):
        checks, keep = self.tables
        suffix = self.suffix + (sym,)
        if len(suffix) > keep:
            suffix = suffix[-keep:]
        length = self.length + 1
        for j, win_len, facs in checks:
            if win_len > length:
                continue
            window = suffix[-win_len:]
            ok = False
            for i in range(win_len - j + 1):
                if window[i : i + j] in facs:
                    ok = True
                    break
            if not ok:
                return None
        return _SparseWalker(self.tables, suffix, length)

    def key(self):
        # lengths past the longest window test the same windows
        return (self.suffix, min(self.length, self.tables[1]))


class _ProductWalker:
    __slots__ = ("wa", "wb", "b_size")

    def __init__(self, wa, wb, b_size):
        self.wa = wa
        self.wb = wb
        self.b_size = b_size

    def child(self, sym: int):
        i, j = divmod(sym, self.b_size)
        ca = self.wa.child(i)
        if ca is None:
            return None
        cb = self.wb.child(j)
        if cb is None:
            return None
        return _ProductWalker(ca, cb, self.b_size)

    def key(self):
        return (self.wa.key(), self.wb.key())


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
        exactness=Exactness.EXACT_LANGUAGE,
        label=f"full shift on {alphabet_size} symbols",
        root_walker=lambda: _FULL_WALKER,
        params={},
        declared_gap=lambda n: 0,
        gap_mode=GAP_SPECIFICATION,
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
    tables = (m, alive, short_sets, None)

    f_decl = None
    mode = None
    if declared_gap is not None:
        if declared_gap < 0:
            raise ConstructionError("declared_gap must be >= 0")
        f_decl = lambda n, _g=declared_gap: _g
        mode = GAP_SPECIFICATION

    return SubshiftSpec(
        alphabet_size=alphabet_size,
        family="sft",
        exactness=Exactness.EXACT_LANGUAGE,
        label=f"SFT on {alphabet_size} symbols avoiding "
        + ",".join(format_word(f) for f in sorted(forb)),
        root_walker=lambda: _SftWalker(tables, (), True),
        params={"forbidden": sorted(forb), "block_len": m, "alive": alive,
                "short_sets": short_sets},
        declared_gap=f_decl,
        gap_mode=mode,
    )


def make_golden_mean() -> SubshiftSpec:
    """Binary SFT forbidding adjacent 1s; gap 1 gluing (pad with a 0)."""
    return make_sft(2, [(1, 1)], declared_gap=1)


@dataclass(frozen=True)
class BoundedDensityParams:
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

    def f_decl(n: int) -> int:
        if n < 1 or n > n_max:
            raise InputError(f"gap bound queried at n={n}, table covers 1..{n_max}")
        q = 2 * e_envelope[n - 1] / alpha
        return -(-q.numerator // q.denominator)

    return SubshiftSpec(
        alphabet_size=k + 1,
        family="bounded_density",
        exactness=Exactness.EXACT_LANGUAGE,
        label=f"bounded density shift, k={k}, alpha={alpha}",
        root_walker=lambda: _DensityWalker(table, [], n_max),
        params={"density": params},
        declared_gap=f_decl,
        gap_mode=GAP_SPECIFICATION,
    )


@dataclass(frozen=True)
class SturmianFactorSet:
    """Factors, by length, of a rational-slope mechanical word.

    slope p/q in lowest terms; factors[k] holds all distinct length-k
    windows of the periodic word s(i) = floor((i+1)p/q) - floor(ip/q).
    """

    slope: Fraction
    k_max: int
    factors: dict[int, frozenset]

    def count(self, k: int) -> int:
        return len(self.factors[k])


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
        checks.append((j, nj + 2 * j, facs))
    keep = max((w for _, w, _ in checks), default=1)
    tables = (tuple(checks), keep)
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
        exactness=Exactness.LOCAL_SUPERSET,
        label=f"sparse Sturmian shift, slope {fs.slope}, n_seq={tuple(ns)}",
        root_walker=lambda: _SparseWalker(tables, (), 0),
        params={"factor_set": fs, "n_seq": tuple(ns)},
        declared_gap=f_decl,
        gap_mode=GAP_TRANSITIVITY,
    )


def product_subshift(a: SubshiftSpec, b: SubshiftSpec) -> SubshiftSpec:
    """Product subshift; symbol i*|B|+j encodes the pair (i, j).

    Exactness is the weaker of the factors'. The declared gap is the
    pointwise max of the factors' bounds when both are specification-mode
    (a shared padding length works for both coordinates); transitivity
    bounds do not combine this way, so anything else declares nothing.
    """
    b_size = b.alphabet_size
    exact = (
        Exactness.EXACT_LANGUAGE
        if a.exactness is Exactness.EXACT_LANGUAGE
        and b.exactness is Exactness.EXACT_LANGUAGE
        else Exactness.LOCAL_SUPERSET
    )
    f_decl = None
    mode = None
    if (
        a.declared_gap is not None
        and b.declared_gap is not None
        and a.gap_mode == GAP_SPECIFICATION
        and b.gap_mode == GAP_SPECIFICATION
    ):
        fa, fb = a.declared_gap, b.declared_gap
        f_decl = lambda n: max(fa(n), fb(n))
        mode = GAP_SPECIFICATION
    return SubshiftSpec(
        alphabet_size=a.alphabet_size * b_size,
        family="product",
        exactness=exact,
        label=f"product of ({a.label}) and ({b.label})",
        root_walker=lambda: _ProductWalker(a.root_walker(), b.root_walker(), b_size),
        params={"a": a, "b": b},
        declared_gap=f_decl,
        gap_mode=mode,
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


def iter_language(
    spec: SubshiftSpec,
    n: int,
    budget: int = DEFAULT_NODE_BUDGET,
    prefix: Word = (),
) -> Iterator[Word]:
    """Yield the admissible words of length n in lexicographic order.

    Budget counts walker extension attempts; exceeding it raises
    BudgetExceededError carrying the number of words already produced.
    With a prefix, only words extending it are yielded.
    """
    if n < 0:
        raise InputError("word length must be >= 0")
    if budget < 1:
        raise InputError("budget must be >= 1")
    prefix = tuple(prefix)
    check_symbols(prefix, spec.alphabet_size)
    if len(prefix) > n:
        return
    if spec.family == "full" and not prefix:
        # identical output to the generic walker, at C speed
        total = spec.alphabet_size ** n
        if total > budget:
            raise BudgetExceededError(
                f"enumeration of {total} words exceeds budget {budget}",
                words_done=0,
                nodes=total,
                budget=budget,
            )
        if n == 0:
            yield ()
        else:
            yield from itertools.product(range(spec.alphabet_size), repeat=n)
        return

    walker = walk(spec.root_walker(), prefix)
    if walker is None:
        return
    if len(prefix) == n:
        yield prefix
        return

    a_size = spec.alphabet_size
    depth = n - len(prefix)
    nodes = 0
    words = 0
    syms: list[int] = []
    walkers = [walker]
    next_sym = [0]
    while walkers:
        s = next_sym[-1]
        if s >= a_size:
            walkers.pop()
            next_sym.pop()
            if syms:
                syms.pop()
            continue
        next_sym[-1] = s + 1
        nodes += 1
        if nodes > budget:
            raise BudgetExceededError(
                f"node budget {budget} exhausted at length {n}",
                words_done=words,
                nodes=nodes,
                budget=budget,
            )
        ch = walkers[-1].child(s)
        if ch is None:
            continue
        syms.append(s)
        if len(syms) == depth:
            words += 1
            yield prefix + tuple(syms)
            syms.pop()
        else:
            walkers.append(ch)
            next_sym.append(0)


def enumerate_language(
    spec: SubshiftSpec,
    n: int,
    budget: int = DEFAULT_NODE_BUDGET,
    prefix: Word = (),
) -> list[Word]:
    return list(iter_language(spec, n, budget, prefix))


def count_language(
    spec: SubshiftSpec,
    n: int,
    budget: int = DEFAULT_NODE_BUDGET,
) -> int:
    """|L_n|, using exact closed forms where the family admits one.

    Full shifts count as powers, SFTs by integer path counting in the
    block graph, products multiply factor counts; these agree with the
    enumeration by construction and skip the node budget. Other families
    walk the prefix tree.
    """
    if n < 0:
        raise InputError("word length must be >= 0")
    if n == 0:
        return 1
    if spec.family == "full":
        return spec.alphabet_size ** n
    if spec.family == "sft":
        m = spec.params["block_len"]
        alive = spec.params["alive"]
        if n < m:
            return len(spec.params["short_sets"][n])
        if n == m:
            return len(alive)
        states = sorted(alive)
        idx = {u: i for i, u in enumerate(states)}
        succ = [
            [idx[u[1:] + (s,)] for s in range(spec.alphabet_size) if u[1:] + (s,) in alive]
            for u in states
        ]
        vec = [1] * len(states)
        for _ in range(n - m):
            nxt = [0] * len(states)
            for i, outs in enumerate(succ):
                v = vec[i]
                if v:
                    for j in outs:
                        nxt[j] += v
            vec = nxt
        return sum(vec)
    if spec.family == "product":
        return count_language(spec.params["a"], n, budget) * count_language(
            spec.params["b"], n, budget
        )
    c = 0
    for _ in iter_language(spec, n, budget):
        c += 1
    return c
