"""Empirical gluing-gap measurement for subshift instances.

Two questions are asked of a pair of admissible words (v, w):

* transitivity: what is the least m <= m_max such that some filler u of
  length m makes v u w admissible?
* specification: does every m in a stated range admit a filler?

min_gap_profile answers them over all pairs at a length (or a documented
deterministic sample once the pair count passes a budget), recording the
worst pair as a witness. Filler search strategies: `exhaustive` tries all
words lexicographically, `zero_glue` only the all-zero filler, and
`factor_glue` concatenations of two Sturmian factors (the construction
used by the sparse family's own gap certificate).

Whether v u w is admissible depends on v only through its walker key, so
each word is read once to its end walker, fillers are tried from there,
and a pair is answered once per (key class of v, w). Only keys that two
or more words share are memoised; a lone word meets each w only once.
All walks of one search start from one root walker, so they share its
states. GlueWork counts the work for the run manifest.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

from .errors import InputError
from .subshifts import DEFAULT_NODE_BUDGET, SubshiftSpec, iter_language, states_built, walk
from .words import Word, check_symbols

MODE_TRANSITIVITY = "transitivity"
MODE_SPECIFICATION = "specification"

STRATEGIES = ("exhaustive", "zero_glue", "factor_glue")


def glue_candidates(spec: SubshiftSpec, m: int, strategy: str) -> Iterator[Word]:
    """Candidate fillers of length m, in deterministic order."""
    if m < 0:
        raise InputError("filler length must be >= 0")
    if m == 0:
        yield ()
        return
    if strategy == "zero_glue":
        yield (0,) * m
        return
    if strategy == "exhaustive":
        yield from itertools.product(range(spec.alphabet_size), repeat=m)
        return
    if strategy == "factor_glue":
        fs = spec.params.get("factor_set")
        if fs is None:
            raise InputError("factor_glue needs a sparse Sturmian instance")
        seen = set()
        for ka in range(0, m + 1):
            kb = m - ka
            if ka > fs.k_max or kb > fs.k_max:
                continue
            lefts = sorted(fs.factors[ka]) if ka else [()]
            rights = sorted(fs.factors[kb]) if kb else [()]
            for s in lefts:
                for t in rights:
                    u = s + t
                    if u not in seen:
                        seen.add(u)
                        yield u
        return
    raise InputError(f"unknown strategy {strategy!r}; choose from {STRATEGIES}")


def least_glue(
    spec: SubshiftSpec, start, w: Word, gaps: Iterable[int], tries: Sequence[str]
) -> tuple[int, Word] | None:
    """(m, u) for the least m in gaps with a filler u taking walker `start`
    on through w, or None. At each m the distinct strategies in `tries` are
    searched in turn; a later one is a retry run only when the earlier missed.
    """
    if start is None:
        return None
    tries = tuple(dict.fromkeys(tries))
    for m in gaps:
        for strategy in tries:
            for u in glue_candidates(spec, m, strategy):
                mid = walk(start, u)
                if mid is not None and walk(mid, w) is not None:
                    return m, u
    return None


@dataclass
class GlueWork:
    """Work of glue searches, summed over lengths: words read, (v, w) pairs
    sampled, probe calls made, pairs answered from a shared key's memo
    instead, and the states built by the walks from each root walker. A
    pass over the sample answers each pair it reaches by a probe or a hit."""

    words: int = 0
    pairs: int = 0
    probes: int = 0
    memo_hits: int = 0
    states: int = 0


def glue_pairs(
    root, words: Sequence[Word], pairs: Iterable[tuple[int, int]], probe: Callable,
    work: GlueWork,
) -> Iterator[tuple[int, int, object]]:
    """Yield (i, j, probe(walker after words[i] from root, words[j])) pair
    by pair.

    The words must be admissible and the probe may see the walker only
    through what it admits: first words sharing a key share probe calls.
    """
    starts = [walk(root, v) for v in words]
    keys = [s.key() for s in starts]
    shared = {k for k, c in Counter(keys).items() if c > 1}
    memo: dict = {}
    for i, j in pairs:
        k = keys[i]
        if k in shared and (k, j) in memo:
            work.memo_hits += 1
            yield i, j, memo[k, j]
            continue
        work.probes += 1
        got = probe(starts[i], words[j])
        if k in shared:
            memo[k, j] = got
        yield i, j, got


def worst_glue(
    root, words: Sequence[Word], pairs: Iterable[tuple[int, int]], probe: Callable,
    work: GlueWork,
) -> tuple[int, tuple[Word, Word, Word] | None, tuple[Word, Word] | None]:
    """(largest probed m, (v, u, w) of the first pair reaching it, None),
    scanning (m, u) probes in pair order; at the first pair probed None it
    stops and returns that pair's (v, w) in place of None."""
    worst, witness = -1, None
    for i, j, got in glue_pairs(root, words, pairs, probe, work):
        if got is None:
            return worst, witness, (words[i], words[j])
        if got[0] > worst:
            worst, witness = got[0], (words[i], got[1], words[j])
    return worst, witness, None


def find_glue(
    spec: SubshiftSpec,
    v: Word,
    w: Word,
    m: int,
    strategy: str,
) -> Word | None:
    """First filler of length exactly m that joins v and w, or None."""
    check_symbols(tuple(v) + tuple(w), spec.alphabet_size)
    got = least_glue(spec, walk(spec.root_walker(), v), w, (m,), (strategy,))
    return None if got is None else got[1]


def sample_pairs(
    words: Sequence[Word],
    pair_budget: int,
    seed: int,
) -> tuple[list[tuple[int, int]], float]:
    """All index pairs if they fit the budget, else a deterministic sample.

    The sample always contains every pair involving the lexicographic
    extremes and a maximal-sum word (the adversarial candidates), plus a
    seeded pseudorandom fill. Returns (pairs, coverage fraction).
    """
    n = len(words)
    total = n * n
    if total <= pair_budget:
        return [(i, j) for i in range(n) for j in range(n)], 1.0
    marked = {0, n - 1, max(range(n), key=lambda i: (sum(words[i]), i))}
    chosen = set()
    for i in sorted(marked):
        for j in range(n):
            chosen.add((i, j))
            chosen.add((j, i))
    rng = random.Random(seed)
    while len(chosen) < pair_budget:
        chosen.add((rng.randrange(n), rng.randrange(n)))
    pairs = sorted(chosen)
    return pairs, len(pairs) / total


@dataclass(frozen=True)
class GapRow:
    """Measured gluing behavior at one word length.

    f_empirical is the worst min-gap seen; status is 'ok' or
    'horizon_exhausted' (some pair had no filler of length <= m_max, with
    the offending pair in `counterexample`). In specification mode,
    `counterexample` instead records the least (v, w, m) in the checked
    range with no filler, if any.
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
    pair_budget: int = 200_000,
    seed: int = 0,
    work: GlueWork | None = None,
) -> GapRow:
    """Measure gluing gaps at length n.

    In specification mode every m from f_declared (or the measured
    minimum) up to m_max must glue; a failing m yields a counterexample.
    For non-exhaustive strategies a miss is retried exhaustively before
    being reported, so counterexamples are genuine. work, when given,
    gets the search's counters added.
    """
    if mode not in (MODE_TRANSITIVITY, MODE_SPECIFICATION):
        raise InputError(f"unknown mode {mode!r}")
    if strategy not in STRATEGIES:
        raise InputError(f"unknown strategy {strategy!r}")
    f_declared = None
    if spec.declared_gap is not None:
        f_declared = spec.declared_gap(n)
    if m_max is None:
        m_max = (f_declared if f_declared is not None else n) + 2 * min(n, 8)
    words = list(iter_language(spec, n, budget))
    if not words:
        raise InputError(f"language empty at length {n}")
    pairs, coverage = sample_pairs(words, pair_budget, seed)
    gaps = range(m_max + 1)
    root = spec.root_walker()
    work = GlueWork() if work is None else work
    work.words += len(words)
    work.pairs += len(pairs)

    def least(start, w):
        got = least_glue(spec, start, w, gaps, (strategy,))
        if got is None and strategy != "exhaustive":
            got = least_glue(spec, start, w, gaps, ("exhaustive",))
        return got

    worst_gap, witness, missed = worst_glue(root, words, pairs, least, work)
    status = "ok" if missed is None else "horizon_exhausted"
    counterexample = None if missed is None else (*missed, m_max)
    f_emp = worst_gap if status == "ok" else None

    if mode == MODE_SPECIFICATION and status == "ok":
        checked = range(f_declared if f_declared is not None else worst_gap, m_max + 1)

        def first_miss(start, w):
            glued = (least_glue(spec, start, w, (m,), (strategy, "exhaustive")) for m in checked)
            return next((m for m, got in zip(checked, glued) if got is None), None)

        scan = glue_pairs(root, words, pairs, first_miss, work)
        i, j, m = next((r for r in scan if r[2] is not None), (0, 0, None))
        counterexample = None if m is None else (words[i], words[j], m)
    work.states += states_built(root)

    return GapRow(
        n=n,
        mode=mode,
        strategy=strategy,
        f_declared=f_declared,
        f_empirical=f_emp,
        witness=witness,
        counterexample=counterexample,
        status=status,
        coverage=coverage,
    )
