"""Empirical gluing-gap measurement for subshift instances.

Two questions are asked of a pair of admissible words (v, w):

* transitivity: what is the least m <= m_max such that some filler u of
  length m makes v u w admissible?
* specification: does every m in a stated range admit a filler?

min_gap_profile answers them over all pairs at a length (or, once a full
scan's decisions pass a budget, every first word against a seeded sample
of second words), recording the worst pair as a witness. It is the only
pair scan: sample_pairs picks its columns, and verify.verify_sparse_glue
reads its transitivity rows. A gap is the least m at which any filler
glues; the filler strategy picks only the witness filler there: the
least one for `exhaustive` and `zero_glue` (0^m, the least word of
length m, whenever it glues), and for `factor_glue` a concatenation of
two Sturmian factors first (the sparse family's own gap construction),
if one glues. FillerLevels.least is the only glue search.

Whether v u w is admissible depends on v only through its walker key, so
each word is read once to its end walker, and the fillers of length m
from that key collapse to their own end keys: FillerLevels keeps, per
start key and m, each key some filler reaches with the least such
filler, one forward pass per start key grown only as far as a search
asks. An exhaustive search at gap m asks which of those keys admit w,
once per (key, w). A scan pairs every first word v with one set of
second words w (the columns), in rows, one per v: a row is summarised once
per end key of v (its first stopping pair, and its first pair of largest
gap before that), so first words that share a key share the summary, and
a pair is probed once per (key of v, w). All walks of one search start
from one root walker, so they share its states.
GlueWork counts the work for the run manifest.
"""

from __future__ import annotations

import math
import random
from operator import not_, truth
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .errors import HORIZON_EXHAUSTED, InputError
from .subshifts import (
    DEFAULT_NODE_BUDGET, MODE_SPECIFICATION, MODE_TRANSITIVITY, PAIR_BUDGET, STRATEGIES,
    SubshiftSpec, Tally, forward, iter_language, states_built, walk,
)
from .words import Word, check_symbols


def lists_candidates(spec: SubshiftSpec, strategy: str) -> bool:
    """Whether the strategy lists candidates (factor_glue alone does);
    InputError if it is unknown, or is factor_glue off the sparse family."""
    if strategy not in STRATEGIES:
        raise InputError(f"unknown strategy {strategy!r}; choose from {STRATEGIES}")
    if strategy == "factor_glue" and spec.params.get("factor_set") is None:
        raise InputError("factor_glue needs a sparse Sturmian instance")
    return strategy == "factor_glue"


def glue_candidates(spec: SubshiftSpec, m: int, strategy: str) -> Iterator[Word]:
    """The candidate fillers of length m a strategy lists, in deterministic
    order: the empty filler at m = 0, and past it factor_glue's
    concatenations of two factors; the other strategies list none."""
    if m < 0:
        raise InputError("filler length must be >= 0")
    if m == 0:
        yield ()
    elif lists_candidates(spec, strategy):
        fs = spec.params["factor_set"]
        seen = set()
        for ka in range(max(0, m - fs.k_max), min(m, fs.k_max) + 1):  # both parts <= k_max
            for s in sorted(fs.factors[ka]) if ka else [()]:
                for t in sorted(fs.factors[m - ka]) if m - ka else [()]:
                    if s + t not in seen:
                        seen.add(s + t)
                        yield s + t


def _extend(state, value, sym):  # the least-filler lane's step
    return state, value + (sym,)


class FillerLevels:
    """Fillers from each start walker of one search, collapsed to their
    end keys: level m of a start key maps every key some filler of length m
    reaches to the least such filler. A level is a forward pass's level in
    a lane of words merged by min, so its keys run in the order of their
    least fillers, and the first key that admits w holds the
    lexicographically least filler of length m that joins. Each start
    key's pass grows one length at a time when a search first asks for it,
    so no filler is walked longer than the search needs, and is charged the
    budget by the rule of every pass. Whether a key admits w is decided
    once per (key, w).
    """

    def __init__(self, spec: SubshiftSpec, budget: int):
        self.spec, self.budget = spec, budget
        self.root = spec.root_walker()
        self.passes: dict = {}  # start key -> (levels built, the pass)
        self.admits: dict = {}  # w -> {walker: whether it reads w}; one walker a key

    def filler(self, start, w: Word, m: int) -> Word | None:
        """The least filler of length m taking start on through w, or None."""
        k = start.key()
        got = self.passes.get(k)
        if got is None:
            got = self.passes[k] = [], forward(
                start, self.spec.alphabet_size, (), math.inf, self.budget, Tally(),
                (None, (), _extend, min),
            )
        levels, grow = got
        while len(levels) <= m:
            levels.append(next(grow))
        seen = self.admits.setdefault(w, {})
        for walker, _, u in levels[m].values():
            ok = seen.get(walker)
            if ok is None:
                ok = seen[walker] = walk(walker, w) is not None
            if ok:
                return u
        return None

    def least(self, start, w: Word, gaps: Iterable[int], strategy: str = "exhaustive"):
        """(m, u) for the least m in gaps at which some filler takes start
        on through w, or None if no m does. u is the first of the
        strategy's candidates that does, or else the least filler."""
        listed = lists_candidates(self.spec, strategy)
        for m in gaps:
            for u in glue_candidates(self.spec, m, strategy) if listed else ():
                mid = walk(start, u)
                if mid is not None and walk(mid, w) is not None:
                    return m, u
            u = self.filler(start, w, m)
            if u is not None:
                return m, u
        return None


class GlueWork:
    """Work of glue searches, summed over lengths: words read, (v, w) pairs
    scanned, probe calls made, pairs answered by an earlier probe for the
    same end key of v and the same w instead, and the states built by the
    walks from each root walker. A scan answers each pair it reaches by a
    probe or a hit, whether it reads the answer alone or in a row summary."""

    __slots__ = ("words", "pairs", "probes", "memo_hits", "states")

    def __init__(self):
        self.words = self.pairs = self.probes = self.memo_hits = self.states = 0


def glue_pairs(
    starts: Sequence, words: Sequence[Word], columns: Sequence[int],
    probe: Callable, work: GlueWork, stops: Callable = not_,
) -> tuple[tuple[Word, Word, object] | None, tuple[Word, Word, object] | None]:
    """Scan every first word against the second words in columns, pairs
    (i, j) in order, for got = probe(starts[i], words[j]), a tuple or None,
    up to the first pair with stops(got), by default the first None;
    starts[i] is the walker after words[i] from one root. Returns (v, w,
    got) of that pair (None if none stops the scan) and of the first pair
    before it of largest got[0] (None if none).

    The words must be admissible and the probe may see the walker only
    through what it admits: a row is summarised once per end key of
    words[i], and a later row with that key counts its pairs as memo hits.
    """
    summaries: dict = {}  # end key -> (first stopping (j, got), first largest (j, got))
    best = None
    for i, start in enumerate(starts):
        summary = summaries.get(start.key())
        if summary is None:
            stop = top = None
            for j in columns:
                work.probes += 1
                got = probe(start, words[j])
                if stops(got):
                    stop = j, got
                    break
                if got is not None and (top is None or got[0] > top[1][0]):
                    top = j, got
            summary = summaries[start.key()] = stop, top
        else:  # a repeat key: its first row did not stop
            work.memo_hits += len(columns)
        stop, top = summary
        if top is not None and (best is None or top[1][0] > best[2][0]):
            best = words[i], words[top[0]], top[1]
        if stop is not None:
            return (words[i], words[stop[0]], stop[1]), best
    return None, best


def find_glue(spec: SubshiftSpec, v: Word, w: Word, m: int, strategy: str) -> Word | None:
    """First filler of length exactly m that joins v and w, or None."""
    check_symbols(tuple(v) + tuple(w), spec.alphabet_size)
    fillers = FillerLevels(spec, DEFAULT_NODE_BUDGET)
    start = walk(fillers.root, v)
    got = None if start is None else fillers.least(start, w, (m,), strategy)
    return None if got is None else got[1]


def sample_pairs(words: Sequence[Word], keys: int, pair_budget: int,
                 seed: int) -> tuple[Sequence[int], float]:
    """The columns every first word is scanned against. A full scan decides
    each (end key of v, w) once, keys * len(words) decisions for keys
    distinct end keys; when those fit the budget the columns are every
    index. Otherwise they are the lexicographic extremes and a maximal-sum
    word (the adversarial candidates) and a seeded fill, pair_budget // keys
    in all but never fewer than those, so a scan decides at most
    max(pair_budget, 3 * keys) pairs. Returns (columns in increasing
    order, coverage fraction)."""
    n = len(words)
    if keys * n <= pair_budget:
        return range(n), 1.0
    marked = {0, n - 1, max(range(n), key=lambda i: (sum(words[i]), i))}
    rest = [j for j in range(n) if j not in marked]
    fill = random.Random(seed).sample(rest, max(0, pair_budget // keys - len(marked)))
    columns = sorted(marked.union(fill))
    return columns, len(columns) / n


class GapRow(NamedTuple):
    """Measured gluing behavior at one word length.

    f_empirical is the worst min-gap seen, whatever the strategy, which
    picks only the witness's filler; status is 'ok' or 'horizon_exhausted'
    (some pair had no filler of length <= m_max, with the offending pair
    in `counterexample`). In specification mode, `counterexample` instead
    records the least (v, w, m) in the checked range with no filler.
    """

    n: int
    mode: str
    strategy: str
    f_declared: int | None
    f_empirical: int | None
    witness: tuple[Word, Word, Word] | None
    counterexample: tuple[Word, Word, int] | None
    status: str
    coverage: float


def min_gap_profile(
    spec: SubshiftSpec,
    n: int,
    mode: str = MODE_TRANSITIVITY,
    m_max: int | None = None,
    strategy: str = "exhaustive",
    *,
    budget: int = DEFAULT_NODE_BUDGET,
    pair_budget: int = PAIR_BUDGET,
    seed: int = 0,
    work: GlueWork | None = None,
) -> GapRow:
    """Measure gluing gaps at length n.

    f_declared is the declared gap bound at n, or None if the family
    declares none or n is past its reach (spec.gap_reach). In specification
    mode every m from f_declared (or, without it, the measured minimum) up
    to m_max must glue; an m at which no filler glues yields a
    counterexample, whatever the strategy. Specification mode needs
    m_max >= f_declared. work, when given, gets the search's counters added.
    """
    if mode not in (MODE_TRANSITIVITY, MODE_SPECIFICATION):
        raise InputError(f"unknown mode {mode!r}")
    reach = math.inf if spec.gap_reach is None else spec.gap_reach
    f_declared = None if spec.declared_gap is None or n > reach else spec.declared_gap(n)
    if m_max is None:
        m_max = (f_declared if f_declared is not None else n) + 2 * min(n, 8)
    if mode == MODE_SPECIFICATION and f_declared is not None and m_max < f_declared:
        raise InputError(
            f"horizons.m_max: {m_max} is below f_declared({n}) = {f_declared}, so "
            f"specification mode would check no gap at n={n}"
        )
    fillers = FillerLevels(spec, budget)
    work = GlueWork() if work is None else work
    words = list(iter_language(spec, n, budget))
    if not words:
        raise InputError(f"language empty at length {n}")
    starts = [walk(fillers.root, v) for v in words]
    columns, coverage = sample_pairs(words, len({s.key() for s in starts}), pair_budget, seed)
    work.words += len(words)
    work.pairs += len(words) * len(columns)
    gaps = range(m_max + 1)
    missed, worst = glue_pairs(
        starts, words, columns, lambda start, w: fillers.least(start, w, gaps, strategy), work
    )
    status = "ok" if missed is None else HORIZON_EXHAUSTED
    counterexample = None if missed is None else (*missed[:2], m_max)
    witness = None if worst is None else (worst[0], worst[2][1], worst[1])
    f_emp = worst[2][0] if status == "ok" else None

    if mode == MODE_SPECIFICATION and status == "ok":
        checked = range(f_declared if f_declared is not None else f_emp, m_max + 1)

        def first_miss(start, w):
            return next(((m,) for m in checked if fillers.filler(start, w, m) is None), None)

        miss, _ = glue_pairs(starts, words, columns, first_miss, work, stops=truth)
        counterexample = None if miss is None else (*miss[:2], *miss[2])
    work.states += states_built(fillers.root)

    return GapRow(n, mode, strategy, f_declared, f_emp, witness, counterexample, status, coverage)
