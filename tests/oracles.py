"""Independent brute-force references used by the tests.

Nothing here imports the package. Languages are produced by filtering
every word over the alphabet, extendability is decided by breadth-first
search with a pumping-length horizon, and partial sums are evaluated on
concrete padded words. Slow on purpose; keep instances at desk scale.
"""

import itertools
import math


def all_words(alphabet_size, n):
    return list(itertools.product(range(alphabet_size), repeat=n))


def occurs(needle, hay):
    k = len(needle)
    return any(hay[i : i + k] == tuple(needle) for i in range(len(hay) - k + 1))


def fib(n):
    """fib(1) = fib(2) = 1."""
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


# ---------------------------------------------------------------------------
# languages
# ---------------------------------------------------------------------------


def _extendable(w, forbidden, alphabet_size, steps, right):
    """Can w grow by `steps` symbols on one side avoiding the forbidden set?

    Surviving longer than the number of context states forces a repeated
    context, hence an admissible cycle, hence unbounded extension.
    """
    m = max(len(f) for f in forbidden)
    ctx = w[-(m - 1) :] if right else w[: m - 1]
    frontier = {ctx}
    for _ in range(steps):
        grown = set()
        for c in frontier:
            for s in range(alphabet_size):
                cand = c + (s,) if right else (s,) + c
                if any(occurs(f, cand) for f in forbidden):
                    continue
                grown.add(cand[-(m - 1) :] if right else cand[: m - 1])
        if not grown:
            return False
        frontier = grown
    return True


def sft_admissible(alphabet_size, forbidden):
    """Membership test: no forbidden factor, and extendable on both sides.

    The two sides are searched independently, which is sound once w has
    m - 1 symbols: no forbidden word then spans both extensions. A shorter
    word is in the language iff one of its right extensions to m - 1
    symbols is.
    """
    forbidden = [tuple(f) for f in forbidden]
    m = max(len(f) for f in forbidden)
    steps = alphabet_size**m + m

    def ok(w):
        if len(w) < m - 1:
            return any(ok(w + y) for y in all_words(alphabet_size, m - 1 - len(w)))
        if any(occurs(f, w) for f in forbidden):
            return False
        return _extendable(w, forbidden, alphabet_size, steps, True) and _extendable(
            w, forbidden, alphabet_size, steps, False
        )

    return ok


def sft_language(alphabet_size, forbidden, n):
    return list(filter(sft_admissible(alphabet_size, forbidden), all_words(alphabet_size, n)))


def bd_admissible(h):
    """Membership test; h is 1-indexed: h[L] caps every length-L window sum."""

    def ok(w):
        n = len(w)
        return all(sum(w[i:j]) <= h[j - i] for i in range(n) for j in range(i + 1, n + 1))

    return ok


def bd_language(k, h, n):
    return list(filter(bd_admissible(h), all_words(k + 1, n)))


def mechanical_factors(p, q, k):
    """Length-k factors of the slope-p/q mechanical words, all phases."""
    bits = [
        (i + 1) * p // q - i * p // q for i in range(2 * q + k)
    ]
    return {tuple(bits[t : t + k]) for t in range(2 * q)}


def sparse_admissible(p, q, n_seq):
    """Local membership test: every fitting window contains a factor."""
    levels = [
        (nk + 2 * j, mechanical_factors(p, q, j), j) for j, nk in enumerate(n_seq, start=1)
    ]

    def ok(w):
        for window, factors, j in levels:
            for i in range(len(w) - window + 1):
                seg = w[i : i + window]
                if not any(seg[t : t + j] in factors for t in range(window - j + 1)):
                    return False
        return True

    return ok


def sparse_language(p, q, n_seq, n):
    return list(filter(sparse_admissible(p, q, n_seq), all_words(2, n)))


def product_admissible(ok_a, ok_b, b_size):
    """Membership test for the product; symbol i*b_size+j is the pair (i, j)."""

    def ok(w):
        pairs = [divmod(s, b_size) for s in w]
        return ok_a(tuple(i for i, _ in pairs)) and ok_b(tuple(j for _, j in pairs))

    return ok


# ---------------------------------------------------------------------------
# gluing gaps, replayed from scratch for every pair and filler
# ---------------------------------------------------------------------------


def fillers(m, strategy, alphabet_size, factors=None):
    """Candidate fillers of length m in the documented order.

    factors maps k to the set of length-k Sturmian factors (factor_glue).
    """
    if m == 0:
        return [()]
    if strategy == "zero_glue":
        return [(0,) * m]
    if strategy == "exhaustive":
        return itertools.product(range(alphabet_size), repeat=m)
    k_max = max(factors)
    out = []
    for ka in range(max(0, m - k_max), min(m, k_max) + 1):
        for s in sorted(factors[ka]) if ka else [()]:
            for t in sorted(factors[m - ka]) if m - ka else [()]:
                if s + t not in out:
                    out.append(s + t)
    return out


def least_gap(ok, v, w, gaps, strategies, filler_of):
    """(m, u) for the least m in gaps where some strategy, tried in turn,
    offers a filler u with v u w admissible."""
    for m in gaps:
        for strategy in strategies:
            for u in filler_of(m, strategy):
                if ok(v + u + w):
                    return m, u
    return None


def gap_row(words, ok, filler_of, mode, m_max, f_declared, strategy):
    """GapRow fields over all ordered pairs of words, in lexicographic order.

    Transitivity: each pair's least gap with the strategy, or else with
    exhaustive search; the first pair with none exhausts the horizon.
    Specification: the first pair and least m in [f_declared (or the
    measured gap), m_max] where neither the strategy nor exhaustive search
    glues.
    """
    worst, witness, counter, status = -1, None, None, "ok"
    for v in words:
        for w in words:
            got = least_gap(ok, v, w, range(m_max + 1), [strategy], filler_of)
            if got is None:
                got = least_gap(ok, v, w, range(m_max + 1), ["exhaustive"], filler_of)
            if got is None:
                return {"f_empirical": None, "witness": witness,
                        "counterexample": (v, w, m_max), "status": "horizon_exhausted",
                        "coverage": 1.0}
            if got[0] > worst:
                worst, witness = got[0], (v, got[1], w)
    if mode == "specification":
        start = worst if f_declared is None else f_declared
        for v in words:
            for w in words:
                for m in range(start, m_max + 1):
                    if least_gap(ok, v, w, [m], [strategy, "exhaustive"], filler_of) is None:
                        counter = (v, w, m)
                        break
                if counter:
                    break
            if counter:
                break
    return {"f_empirical": worst, "witness": witness, "counterexample": counter,
            "status": status, "coverage": 1.0}


def _text(w):
    return "".join(map(str, w))


def sparse_glue(words_by_n, ok, filler_of, f, strategy):
    """(margins, witnesses) of the transitivity certificate over all pairs:
    each pair's least gap <= f(n), trying the strategy then exhaustive
    search at each gap. Words are rendered as digit strings."""
    margins, witnesses = [], {}
    for n, words in words_by_n.items():
        worst, worst_pair, failed = -1, None, None
        for v in words:
            for w in words:
                got = least_gap(ok, v, w, range(f(n) + 1), [strategy, "exhaustive"], filler_of)
                if got is None:
                    failed = (v, w)
                    break
                if got[0] > worst:
                    worst, worst_pair = got[0], (v, got[1], w)
            if failed:
                break
        if failed:
            margins.append((n, -1.0))
            witnesses[n] = {"v": _text(failed[0]), "w": _text(failed[1]), "m_max": f(n)}
            continue
        margins.append((n, float(f(n) - worst)))
        witnesses.setdefault("worst", {})[n] = dict(zip("vuw", map(_text, worst_pair)))
    return tuple(margins), witnesses


# ---------------------------------------------------------------------------
# potential evaluation on concrete padded words
# ---------------------------------------------------------------------------


def pad_word(w, pad_len):
    """Embed w with alternating pads that break runs and stay admissible
    for every family used in the tests (left pad ends with 0, right pad
    starts with 0, so window sums never beat an alternating word's)."""
    left = tuple((pad_len - 1 - i) % 2 for i in range(pad_len))
    right = tuple(i % 2 for i in range(pad_len))
    return left + tuple(w) + right, pad_len


def run_radius(x, i):
    """Largest k with x[i-k..i+k] all equal; needs the break in bounds."""
    k = 0
    while True:
        lo, hi = i - (k + 1), i + (k + 1)
        if lo < 0 or hi >= len(x):
            raise AssertionError("pad too short to determine the run")
        if x[lo] == x[i] and x[hi] == x[i]:
            k += 1
        else:
            return k


def phi_run(x, i, h):
    return 1.0 / h(run_radius(x, i))


def phi_lc(x, i, r, values, default):
    block = tuple(x[i - r : i + r + 1])
    assert len(block) == 2 * r + 1
    if block in values:
        return values[block]
    if default is None:
        raise AssertionError("total table expected")
    return default


def brute_partition(words, phi_at):
    """ln sum over words of e^{S(w)}, S from a per-word site evaluator."""
    sums = []
    for w in words:
        sums.append(math.fsum(phi_at(w, i) for i in range(len(w))))
    m = max(sums)
    return m + math.log(math.fsum(math.exp(s - m) for s in sums))
