"""Independent brute-force references used by the tests.

Nothing here imports the package. Languages are produced by filtering
every word over the alphabet, extendability is decided by breadth-first
search with a pumping-length horizon, and partial sums are evaluated on
concrete padded words. Partition references that must hold with zero
slack are computed in 60-digit decimal arithmetic from the exact values of
the float inputs. Block graphs come from membership of every joined word,
with connectivity by boolean closure, and the Perron root and the Markov
equilibrium from dense numpy eigenvalues and eigenvectors. Slow on
purpose; keep instances at desk scale.
"""

import itertools
import math
from decimal import Decimal, localcontext

import numpy as np

DIGITS = 60  # working precision of the decimal references


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


def window_admissible(h, window):
    """Membership in the window cut of a bounded density shift, h as in
    bd_admissible: every window of length <= window sums to at most
    h[length]; longer windows are not checked."""

    def ok(w):
        n = len(w)
        return all(sum(w[i:j]) <= h[j - i]
                   for i in range(n) for j in range(i + 1, min(n, i + window) + 1))

    return ok


def bd_language(k, h, n):
    return list(filter(bd_admissible(h), all_words(k + 1, n)))


def bd_allowance(k, h, w):
    """Allowance profile of the admissible word w over symbols 0..k, h as in
    bd_admissible with its last entry h[n_max]: a(j), the largest sum the
    next j symbols may have, for j = 1 .. n_max - len(w). A window of the
    next j symbols alone is capped by h(j) and by k j; one that takes in
    the last i symbols of w too, by h(i + j) less their sum."""
    t, n_max = len(w), len(h) - 1
    return [
        min([h[j], k * j] + [h[i + j] - sum(w[t - i:]) for i in range(1, t + 1)])
        for j in range(1, n_max - t + 1)
    ]


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


def gap_row(words, ok, filler_of, mode, m_max, f_declared, strategy, pairs=None):
    """GapRow fields over the (i, j) index pairs of words, in the order
    given; by default all ordered pairs in lexicographic order.

    Transitivity: each pair's least gap, trying the strategy then
    exhaustive search at each gap, so the strategy picks only the filler;
    the first pair with none exhausts the horizon.
    Specification: the first pair and least m in [f_declared (or the
    measured gap), m_max] where neither the strategy nor exhaustive search
    glues.
    """
    if pairs is None:
        pairs = [(i, j) for i in range(len(words)) for j in range(len(words))]
    coverage = len(pairs) / len(words) ** 2
    worst, witness = -1, None
    for i, j in pairs:
        v, w = words[i], words[j]
        got = least_gap(ok, v, w, range(m_max + 1), [strategy, "exhaustive"], filler_of)
        if got is None:
            return {"f_empirical": None, "witness": witness,
                    "counterexample": (v, w, m_max), "status": "horizon_exhausted",
                    "coverage": coverage}
        if got[0] > worst:
            worst, witness = got[0], (v, got[1], w)
    row = {"f_empirical": worst, "witness": witness, "counterexample": None,
           "status": "ok", "coverage": coverage}
    if mode == "specification":
        start = worst if f_declared is None else f_declared
        row["counterexample"] = next(
            ((words[i], words[j], m) for i, j in pairs for m in range(start, m_max + 1)
             if least_gap(ok, words[i], words[j], [m], [strategy, "exhaustive"],
                          filler_of) is None),
            None,
        )
    return row


def _text(w):
    return "".join(map(str, w))


def sparse_glue(words_by_n, ok, filler_of, f, strategy, pairs_by_n=None):
    """(margins, witnesses) of the transitivity certificate over the (i, j)
    index pairs of each length's words in pairs_by_n, in the order given
    (by default all ordered pairs in lexicographic order): each pair's
    least gap <= f(n), trying the strategy then exhaustive search at each
    gap. Words are rendered as digit strings."""
    margins, witnesses = [], {}
    for n, words in words_by_n.items():
        pairs = pairs_by_n[n] if pairs_by_n else [
            (i, j) for i in range(len(words)) for j in range(len(words))
        ]
        worst, worst_pair, failed = -1, None, None
        for i, j in pairs:
            v, w = words[i], words[j]
            got = least_gap(ok, v, w, range(f(n) + 1), [strategy, "exhaustive"], filler_of)
            if got is None:
                failed = (v, w)
                break
            if got[0] > worst:
                worst, worst_pair = got[0], (v, got[1], w)
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


def phi_levels(x, i, levels, limit):
    k = run_radius(x, i)
    return levels[k] if k < len(levels) else limit


def completion_hull(w, i, ext, phi, limit):
    """Hull of phi(x, j) over the binary points x through w, w[i] at site j.

    Each side of w gets every ext-symbol extension, closed by a symbol
    unlike w[i], which reaches every run radius up to ext past the visible
    one. A constant w also completes to the constant point, worth limit.
    So ext must reach every radius whose value the limit does not bound.
    """
    b = (1 - w[i],)
    vals = [phi(b + u + tuple(w) + v + b, 1 + ext + i)
            for u in all_words(2, ext) for v in all_words(2, ext)]
    if len(set(w)) == 1:
        vals.append(limit)
    return min(vals), max(vals)


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


# ---------------------------------------------------------------------------
# 60-digit decimal partition references
# ---------------------------------------------------------------------------


def decimal_partition(words, phi_at):
    """ln sum over words of e^{S(w)} in decimal, S summed exactly from the
    float site values phi_at(w, i)."""
    with localcontext() as ctx:
        ctx.prec = DIGITS
        z = sum(
            sum(Decimal(phi_at(w, i)) for i in range(len(w))).exp() for w in words
        )
        return z.ln()


def ln_count(count):
    """ln(count) for a positive integer count."""
    with localcontext() as ctx:
        ctx.prec = DIGITS
        return Decimal(count).ln()


def radius0_binomial(v0, v1, n):
    """ln Z_n on the binary full shift for the site values v0 (symbol 0)
    and v1 (symbol 1): the binomial sum over the number k of 1s."""
    with localcontext() as ctx:
        ctx.prec = DIGITS
        a, b = Decimal(v0), Decimal(v1)
        z = sum(math.comb(n, k) * (k * b + (n - k) * a).exp() for k in range(n + 1))
        return z.ln()


def radius1_transfer(phi, alphabet_size, pair_ok, n, edge):
    """ln Z_n of a radius-1 table phi(block) on the 1-step shift whose
    words are those with every adjacent pair allowed by pair_ok, n >= 2.

    The two edge sites take edge (min or max) of phi over the hidden
    neighbour; interior sites take phi of their block. A decimal transfer
    product over the allowed pairs (a, b) = (w[i-1], w[i]).
    """
    syms = range(alphabet_size)
    with localcontext() as ctx:
        ctx.prec = DIGITS

        def e(x):
            return Decimal(x).exp()

        vec = {
            (a, b): e(edge(phi((s, a, b)) for s in syms))
            for a in syms for b in syms if pair_ok(a, b)
        }
        for _ in range(n - 2):
            grown = {}
            for (a, b), x in vec.items():
                for c in syms:
                    if pair_ok(b, c):
                        grown[(b, c)] = grown.get((b, c), 0) + x * e(phi((a, b, c)))
            vec = grown
        z = sum(x * e(edge(phi((a, b, s)) for s in syms)) for (a, b), x in vec.items())
        return z.ln()


# ---------------------------------------------------------------------------
# block graphs, from membership of the joined words
# ---------------------------------------------------------------------------


def block_graph(ok, alphabet_size, n):
    """(states, succ) of the block graph at block length n.

    states are the admissible n-words in lexicographic order; succ[i][s]
    is the index of states[i][1:] + (s,) when the joined word
    states[i] + (s,) is admissible, else -1.
    """
    states = [w for w in all_words(alphabet_size, n) if ok(w)]
    index = {u: i for i, u in enumerate(states)}
    succ = [
        [index[u[1:] + (s,)] if ok(u + (s,)) else -1 for s in range(alphabet_size)]
        for u in states
    ]
    return states, succ


def _dense(states, succ, phi):
    """Dense weighted adjacency: e^phi(joined word) on each edge."""
    mat = np.zeros((len(states), len(states)))
    for i, u in enumerate(states):
        for s, j in enumerate(succ[i]):
            if j >= 0:
                mat[i, j] = math.exp(phi(u + (s,)))
    return mat


def strongly_connected(succ):
    """Whether every state reaches every other, by boolean closure squaring."""
    reach = _dense([()] * len(succ), succ, lambda w: 0.0) > 0
    reach |= np.eye(len(succ), dtype=bool)
    for _ in range(max(1, len(succ)).bit_length()):
        reach = (reach.astype(float) @ reach.astype(float)) > 0
    return bool(reach.all())


def block_graph_ln_lambda(states, succ, phi=lambda w: 0.0):
    """ln of the spectral radius of the weighted block graph (numpy eigvals)."""
    return math.log(max(abs(np.linalg.eigvals(_dense(states, succ, phi)))))


def block_graph_cylinders(states, succ, phi, n):
    """Equilibrium measure of every word of length <= n (n <= block length)
    from the weighted block graph's Perron eigenvectors (numpy eig):
    pi(u) = l(u) r(u) / <l, r>, and a word's measure adds pi over the
    blocks it begins. Words outside the language are absent."""
    mat = _dense(states, succ, phi)

    def perron_vector(m):
        # the Perron root is the one eigenvalue of largest real part; on a
        # periodic graph other eigenvalues share its modulus
        vals, vecs = np.linalg.eig(m)
        v = np.real(vecs[:, int(np.argmax(vals.real))])
        return v / v.sum()

    right, left = perron_vector(mat), perron_vector(mat.T)
    pi = left * right / (left @ right)
    measure = {}
    for u, p in zip(states, pi):
        for k in range(1, n + 1):
            measure[u[:k]] = measure.get(u[:k], 0.0) + float(p)
    return measure
