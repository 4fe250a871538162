import functools
import math
import random

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import cases
import oracles
from shiftpress.errors import BudgetExceededError, ConstructionError, InputError
from shiftpress.potentials import ZeroPotential
from shiftpress.pressure import partition_function, partition_table
from shiftpress.subshifts import (
    Tally,
    count_language,
    iter_language,
    language_counts,
    make_bounded_density,
    make_full_shift,
    make_golden_mean,
    make_sft,
    make_sparse_sturmian,
    make_sturmian_factors,
    product_subshift,
    states_built,
    walk,
    word_admissible,
)
from shiftpress.transfer import build_transfer
from shiftpress.verify import _heaviest
from shiftpress.words import format_word

HALF = [math.ceil(n / 2) for n in range(1, 41)]


def test_full_shift_language():
    fs = make_full_shift(2)
    for n in range(1, 7):
        assert list(iter_language(fs, n)) == oracles.all_words(2, n)


def test_golden_mean_language_matches_bfs_oracle():
    gm = make_golden_mean()
    for n in range(1, 11):
        assert list(iter_language(gm, n)) == oracles.sft_language(2, [(1, 1)], n)


def test_golden_mean_counts_are_fibonacci():
    gm = make_golden_mean()
    for n in range(1, 13):
        assert count_language(gm, n) == oracles.fib(n + 2)


def test_sft_with_dead_blocks_trims_to_exact_language():
    # forbidding 00 and 01 leaves only the all-ones point
    spec = make_sft(2, [(0, 0), (0, 1)])
    for n in range(1, 6):
        assert list(iter_language(spec, n)) == [(1,) * n]
        assert list(iter_language(spec, n)) == oracles.sft_language(
            2, [(0, 0), (0, 1)], n
        )


def test_sft_longer_blocks():
    forb = [(0, 0, 0), (1, 1, 1)]
    spec = make_sft(2, forb)
    for n in range(1, 9):
        assert list(iter_language(spec, n)) == oracles.sft_language(2, forb, n)


def test_sft_empty_language_is_a_construction_error():
    with pytest.raises(ConstructionError):
        make_sft(2, [(0,), (1,)])


def test_bounded_density_language_matches_filter_oracle():
    bd = make_bounded_density(1, HALF)
    for n in range(1, 11):
        assert list(iter_language(bd, n)) == oracles.bd_language(1, [0] + HALF, n)


def test_bounded_density_equals_golden_mean_here():
    # cap ceil(n/2) forbids exactly adjacent ones on two symbols
    bd = make_bounded_density(1, HALF)
    gm = make_golden_mean()
    for n in range(1, 11):
        assert list(iter_language(bd, n)) == list(iter_language(gm, n))


def test_bounded_density_alpha_and_gap():
    bd = make_bounded_density(1, HALF)
    params = bd.params["density"]
    assert params.alpha == 0.5
    assert bd.declared_gap(2) == 2
    assert bd.declared_gap(8) == 2
    assert not params.e_monotone  # raw excess dips back to 0 at even n


def test_bounded_density_three_symbols():
    h = [2 * n for n in range(1, 13)]
    bd = make_bounded_density(2, h)
    for n in range(1, 6):
        assert list(iter_language(bd, n)) == oracles.bd_language(2, [0] + h, n)


def test_bounded_density_rejects_bad_height():
    with pytest.raises(ConstructionError):
        make_bounded_density(1, [2, 1])  # decreasing
    with pytest.raises(ConstructionError):
        make_bounded_density(1, [0, 1])  # not positive
    with pytest.raises(ConstructionError):
        make_bounded_density(1, [1, 2, 4])  # not subadditive


def test_sturmian_factor_counts():
    fs = make_sturmian_factors(8, 21, 4)
    for k in range(1, 5):
        assert len(fs.factors[k]) == k + 1
        assert fs.factors[k] == frozenset(oracles.mechanical_factors(8, 21, k))


def test_sturmian_validation():
    with pytest.raises(ConstructionError):
        make_sturmian_factors(2, 4, 1)  # not coprime
    with pytest.raises(ConstructionError):
        make_sturmian_factors(8, 21, 11)  # past q/2


def test_sparse_language_matches_window_oracle():
    fs = make_sturmian_factors(8, 21, 2)
    sp = make_sparse_sturmian(fs, (4, 12))
    for n in range(1, 9):
        assert list(iter_language(sp, n)) == oracles.sparse_language(8, 21, (4, 12), n)


def test_sparse_constraints_bind_past_the_window():
    # the length-1 factor set is all of {0,1}, so the first binding
    # window comes from k=2: length n_2 + 4
    fs = make_sturmian_factors(13, 21, 2)
    sp = make_sparse_sturmian(fs, (2, 8))
    assert count_language(sp, 11) == 2**11
    lang = list(iter_language(sp, 12))
    assert (0,) * 12 not in lang  # 00 is not a slope-13/21 factor
    assert lang == oracles.sparse_language(13, 21, (2, 8), 12)


def test_sparse_window_sixteen_excludes_exactly_the_zero_word():
    # for slope 13/21 a window misses all of {01, 10, 11} only if it is
    # all zeros, so at length 16 exactly one word drops out
    fs = make_sturmian_factors(13, 21, 2)
    sp = make_sparse_sturmian(fs, (4, 12))
    assert not word_admissible(sp, (0,) * 16)
    assert word_admissible(sp, (0,) * 15 + (1,))
    assert count_language(sp, 16) == 2**16 - 1


def test_sparse_sequence_validation():
    fs = make_sturmian_factors(8, 21, 3)
    with pytest.raises(ConstructionError):
        make_sparse_sturmian(fs, (4, 9))  # needs n_2 >= 2 n_1 + 4
    with pytest.raises(ConstructionError):
        make_sparse_sturmian(fs, (4, 12, 20, 50))  # more terms than factors


def test_product_language():
    gm = make_golden_mean()
    fs = make_full_shift(2)
    prod = product_subshift(gm, fs)
    for n in range(1, 7):
        left = list(iter_language(gm, n))
        expect = sorted(
            tuple(a * 2 + b for a, b in zip(wa, wb))
            for wa in left
            for wb in oracles.all_words(2, n)
        )
        assert list(iter_language(prod, n)) == expect
        assert count_language(prod, n) == len(left) * 2**n


def test_word_admissible_replays_the_walker():
    gm = make_golden_mean()
    assert word_admissible(gm, (0, 1, 0, 1))
    assert not word_admissible(gm, (0, 1, 1))
    with pytest.raises(InputError):
        word_admissible(gm, (0, 2))


def test_iter_language_prefix():
    gm = make_golden_mean()
    words = list(iter_language(gm, 5, prefix=(1,)))
    assert all(w[0] == 1 for w in words)
    assert len(words) == oracles.fib(5)  # 1 then any length-4 word starting 0


def test_budget_exhaustion_reports_progress():
    fs = make_full_shift(3)
    with pytest.raises(BudgetExceededError) as ei:
        list(iter_language(fs, 12, budget=50))
    assert ei.value.budget == 50
    assert ei.value.nodes >= 50


# the criterion-3 families, which hold the five the language_dump benchmark
# enumerates, and an alphabet of 12, where format_word dots words holding
# a symbol >= 10
TEXT_CASES = [(f.label, f.spec, 7) for f in cases.FAMILIES] + [
    ("product_4x3", lambda: product_subshift(make_full_shift(4), make_full_shift(3)), 4)
]


@pytest.mark.parametrize("label, make, n_top", TEXT_CASES, ids=[c[0] for c in TEXT_CASES])
def test_text_lines_are_the_formatted_words(label, make, n_top):
    spec = make()
    for n in range(n_top + 1):
        for prefix in ((), (1,), (1, 1)):
            words = list(iter_language(spec, n, prefix=prefix))
            want = "".join(format_word(w) + "\n" for w in words)
            assert "".join(iter_language(spec, n, prefix=prefix, text=True)) == want
    lines = list(iter_language(spec, n_top, text=True))
    assert (spec.alphabet_size > 10) == any("." in line for line in lines)


@pytest.mark.parametrize("fam", cases.FAMILIES, ids=[f.label for f in cases.FAMILIES])
def test_one_walk_counts_every_length(fam):
    spec, calls = cases.counted(fam.spec())
    n, a_size = 8, spec.alphabet_size
    want = [1] + [len(fam.language(k)) for k in range(1, n + 1)]
    tree = a_size * sum(want[:n])  # a prefix-tree walk's child calls
    tally = Tally()
    text = "".join(iter_language(spec, n, text=True, tally=tally))
    assert tally.counts == want and text.count("\n") == want[n]
    # the budget is charged what the tree walk makes; the count and the
    # text together make no more calls than that walk
    assert tally.nodes == tree
    assert calls[0] <= tree
    # the count makes exactly the calls it reports, one per state and symbol
    calls[0] = 0
    assert language_counts(spec, n, tally=tally) == want
    assert calls[0] == tally.nodes <= tree
    assert cases.count_calls(fam.label, n) in (None, calls[0])
    calls[0] = 0
    assert count_language(spec, n) == want[n]
    assert calls[0] == tally.nodes


class WordKeyed:
    """A walker keyed by the word it has read, so no two prefixes share a
    state: every level of a count is as wide as the language."""

    def __init__(self, inner, word=()):
        self.inner, self.word = inner, word

    def child(self, sym):
        ch = self.inner.child(sym)
        return None if ch is None else WordKeyed(ch, self.word + (sym,))

    def key(self):
        return self.word


def _word_keyed(spec):
    root = spec.root_walker
    return cases.with_root(spec, lambda: WordKeyed(root()))


def _sampled(words, most=12):
    return words[:: max(1, len(words) // most)]


class DeadEnds:
    """Binary words holding 11 only as their last two symbols: words ending
    in 11 are admissible but never extend, so some suffix blocks are empty."""

    def __init__(self, tail=()):
        self.tail = tail

    def child(self, sym):
        return None if self.tail == (1, 1) else DeadEnds((self.tail + (sym,))[-2:])

    def key(self):
        return self.tail


def _dead_ends():
    return cases.with_root(make_golden_mean(), DeadEnds)


def test_dead_end_words_are_counted_and_listed():
    spec = _dead_ends()
    for n in range(8):
        want = [w for w in oracles.all_words(2, n) if not oracles.occurs((1, 1), w[:-1])]
        assert list(iter_language(spec, n)) == want
        assert language_counts(spec, n)[n] == len(want)


TEXT_EDGE_CASES = TEXT_CASES + [("dead_ends", _dead_ends, 7)] + [
    (f"{f.label}_word_keyed", lambda f=f: _word_keyed(f.spec()), 7) for f in cases.FAMILIES
]


@pytest.mark.parametrize("label, make, n_top", TEXT_EDGE_CASES,
                         ids=[c[0] for c in TEXT_EDGE_CASES])
def test_text_chunks_at_the_edges(label, make, n_top):
    # lengths 0 and 1, prefixes of length n - 1 and n (admissible or not),
    # words that never extend, and walkers whose keys never merge
    spec = make()
    a_size = spec.alphabet_size
    for n in (0, 1, 2, n_top):
        tally = Tally()
        lines = [format_word(w) + "\n" for w in iter_language(spec, n, tally=tally)]
        counts, widest = tally.counts, tally.states
        chunks = list(iter_language(spec, n, text=True, tally=tally))
        assert "".join(chunks) == "".join(lines) and all(c.endswith("\n") for c in chunks)
        assert tally.counts == counts and tally.states == widest
        if label.endswith("word_keyed"):
            assert widest == (max(counts[1:]) if n else 0)
        near = [w for k in (n - 1, n) if k >= 0 for w in _sampled(oracles.all_words(a_size, k))]
        for prefix in near:
            words = list(iter_language(spec, n, prefix=prefix))
            want = "".join(format_word(w) + "\n" for w in words)
            assert "".join(iter_language(spec, n, prefix=prefix, text=True)) == want


@pytest.mark.parametrize("fam", cases.FAMILIES, ids=[f.label for f in cases.FAMILIES])
def test_count_budget_is_exact(fam):
    spec, n = fam.spec(), 12
    tally = Tally()
    want = language_counts(spec, n, tally=tally)
    assert language_counts(spec, n, budget=tally.nodes) == want
    with pytest.raises(BudgetExceededError) as ei:
        language_counts(spec, n, budget=tally.nodes - 1)
    assert ei.value.nodes == tally.nodes and ei.value.budget == tally.nodes - 1
    # zero-potential partition rows are charged the same count
    table = partition_table(spec, ZeroPotential(), n, budget=tally.nodes)
    assert table.nodes == tally.nodes and table.max_states == tally.states
    with pytest.raises(BudgetExceededError):
        partition_table(spec, ZeroPotential(), n, budget=tally.nodes - 1)


def test_count_budget_error_names_the_length_reached():
    # golden-mean levels 0, 1 and 2 hold 1, 2 and 3 states: 2 + 4 + 6 > 10
    with pytest.raises(BudgetExceededError, match="budget 10 exhausted at length 3$"):
        language_counts(make_golden_mean(), 20, budget=10)


# the entry points of the forward passes, run on the golden mean to n: the
# count, the heaviest sums of the density certificate, the partition sweep
# and the closure pass of the class graph (which n does not bound)
PASSES = {
    "count": lambda n, b: language_counts(make_golden_mean(), n, b),
    "heaviest": lambda n, b: _heaviest(make_golden_mean().root_walker(), 2, n, b),
    "sweep": lambda n, b: partition_table(make_golden_mean(), ZeroPotential(), n, b),
    "class_graph": lambda n, b: build_transfer(make_golden_mean(), ZeroPotential(), n, b),
}


def _budget_error(name, n, budget):
    """(nodes, message) of the pass's budget error, None when it fits."""
    try:
        PASSES[name](n, budget)
    except BudgetExceededError as exc:
        return exc.nodes, str(exc)
    return None


def test_every_forward_pass_charges_one_rule():
    # a_size nodes per class expanded, before its child calls. The levels
    # hold 1, 2, then 3 classes, so the passes to n = 8 expand 21 classes;
    # the class graph closes after the root, 0, 1, 00, 01 and 10
    total, graph = 2 * (1 + 2 + 3 * 6), 2 * 6
    for budget in range(1, total + 1):
        got = {name: _budget_error(name, 8, budget) for name in PASSES}
        assert got["count"] == got["heaviest"] == got["sweep"], budget
        assert got["class_graph"] == (got["count"] if budget < graph else None), budget
    assert _budget_error("count", 8, total - 1) == (total, f"node budget {total - 1} "
                                                    "exhausted at length 8")
    assert _budget_error("sweep", 8, 2) == (4, "node budget 2 exhausted at length 2")
    assert _budget_error("count", 8, total) is None


@pytest.mark.parametrize("run", [
    lambda b: list(iter_language(make_golden_mean(), 8, b)),
    lambda b: language_counts(make_golden_mean(), 8, b),
    lambda b: partition_table(make_golden_mean(), ZeroPotential(), 8, b),
    lambda b: build_transfer(make_golden_mean(), ZeroPotential(), 2, b),
], ids=["iter_language", "language_counts", "partition_table", "build_transfer"])
def test_a_budget_below_one_is_an_input_error(run):
    for budget in (0, -3):
        with pytest.raises(InputError, match="budget must be >= 1"):
            run(budget)


@settings(deadline=None, max_examples=60)
@given(st.integers(min_value=1, max_value=8), st.data())
def test_language_is_hereditary(n, data):
    # every factor of an admissible word is admissible
    gm = make_golden_mean()
    words = list(iter_language(gm, n))
    w = data.draw(st.sampled_from(words))
    i = data.draw(st.integers(min_value=0, max_value=n - 1))
    j = data.draw(st.integers(min_value=i + 1, max_value=n))
    assert word_admissible(gm, w[i:j])


@settings(deadline=None, max_examples=40)
@given(st.integers(min_value=1, max_value=7))
def test_counts_agree_with_enumeration(n):
    fs = make_sturmian_factors(8, 21, 2)
    for spec in (
        make_full_shift(2),
        make_golden_mean(),
        make_bounded_density(1, HALF),
        make_sparse_sturmian(fs, (4, 12)),
    ):
        assert count_language(spec, n) == len(list(iter_language(spec, n)))


def test_enumeration_is_sorted_and_deduplicated():
    rng = random.Random(7)
    forb = [(0, 0, 0), (1, 0, 1)]
    spec = make_sft(2, forb)
    for n in (3, 5, 7):
        words = list(iter_language(spec, n))
        assert words == sorted(set(words))


# ---------------------------------------------------------------------------
# walker keys: equal keys admit exactly the same continuations
# ---------------------------------------------------------------------------


def _instance(desc):
    """(spec, brute-force membership test) for a hashable family description."""
    kind, args = desc[0], desc[1:]
    if kind == "full":
        return make_full_shift(args[0]), lambda w: True
    if kind == "sft":
        forb = [tuple(f) for f in args[0]]
        return make_sft(2, forb), oracles.sft_admissible(2, forb)
    if kind == "bd":
        k, h = args
        return make_bounded_density(k, h), oracles.bd_admissible((0,) + h)
    if kind == "bdw":  # read from spec.root_walker(window)
        k, h, window = args
        return make_bounded_density(k, h), oracles.window_admissible((0,) + h, window)
    if kind == "sparse":
        p, q, n_seq = args
        fs = make_sturmian_factors(p, q, len(n_seq))
        return make_sparse_sturmian(fs, n_seq), oracles.sparse_admissible(p, q, n_seq)
    gm = oracles.sft_admissible(2, [(1, 1)])
    return (
        product_subshift(make_golden_mean(), make_full_shift(2)),
        oracles.product_admissible(gm, lambda w: True, 2),
    )


@functools.lru_cache(maxsize=None)
def _language(desc, n):
    spec, ok = _instance(desc)
    return frozenset(filter(ok, oracles.all_words(spec.alphabet_size, n)))


def _window(desc):
    """The window a family description's root walker is asked for."""
    return desc[3] if desc[0] == "bdw" else None


def _family(desc, lengths, cont_max):
    return st.tuples(desc, st.just(lengths), st.just(cont_max))


_BINARY = st.lists(st.integers(0, 1), min_size=2, max_size=3).map(tuple)


def _heights(n_max):
    """ceil(num n / den) + c for n = 1..n_max: subadditive and non-decreasing."""
    return st.builds(
        lambda num, den, c: tuple(-(-num * n // den) + c for n in range(1, n_max + 1)),
        st.integers(1, 3), st.integers(2, 5), st.integers(0, 2),
    )


_HEIGHTS = _heights(16)
# packed density keys give each profile entry bit_length(k n_max) + 1 bits:
# k n_max = 255 takes 9, 256 takes 10, on either side of the boundary
_WIDE = st.one_of(
    st.tuples(st.just(1), st.sampled_from([255, 256])),
    st.tuples(st.just(2), st.sampled_from([127, 128])),
).flatmap(lambda kn: st.tuples(st.just("bd"), st.just(kn[0]), _heights(kn[1])))
# floor(n/3) + ceil(2 sqrt n): excess growing like sqrt n, far past the walk
_SQRT = tuple(n // 3 + math.isqrt(4 * n - 1) + 1 for n in range(1, 41))
# (description, prefix lengths, longest continuation), sized so that the
# brute-force languages stay below 2^15 words
_FAMILIES = st.one_of(
    _family(st.tuples(st.just("full"), st.integers(1, 3)), (0, 4), 2),
    _family(st.just(("sft", ((1, 1),))), (0, 7), 3),
    _family(
        st.tuples(st.just("sft"),
                  st.lists(_BINARY, min_size=1, max_size=3, unique=True).map(tuple)),
        (0, 7), 3,
    ),
    _family(st.tuples(st.just("bd"), st.just(1), _HEIGHTS), (0, 7), 3),
    # the table ends where the longest continuation does, so every entry
    # of the allowance profile is tested
    _family(st.tuples(st.just("bd"), st.just(1), _HEIGHTS.map(lambda h: h[:10])), (0, 7), 3),
    _family(st.just(("bd", 1, _SQRT)), (0, 8), 3),
    _family(st.tuples(st.just("bd"), st.just(2), _HEIGHTS), (0, 5), 2),
    _family(_WIDE, (0, 5), 2),
    # window cuts: the profile keeps K fields, refilled with c(K)
    _family(st.tuples(st.just("bdw"), st.just(1), _HEIGHTS, st.integers(1, 8)), (0, 7), 3),
    _family(st.just(("bdw", 1, _SQRT, 11)), (0, 9), 3),
    _family(st.tuples(st.just("bdw"), st.just(2), _HEIGHTS, st.integers(1, 5)), (0, 5), 2),
    # sparse keys hold no length, so prefixes start at the empty word
    _family(st.sampled_from([("sparse", 8, 21, (2, 8)), ("sparse", 13, 21, (2, 8))]), (0, 13), 2),
    _family(st.just(("product",)), (0, 4), 2),
)


@settings(deadline=None, max_examples=60)
@given(_FAMILIES)
@example((("sft", ((0, 0), (1, 0, 1))), (0, 7), 3))  # language {1^n}: 0 never extends
@example((("bdw", 1, _SQRT, 11), (0, 9), 3))  # the first binding window is 11 long
def test_equal_keys_admit_the_same_continuations(family):
    desc, (lo, hi), cont_max = family
    try:
        spec, _ = _instance(desc)
    except ConstructionError:
        assume(False)
    conts = [c for k in range(cont_max + 1) for c in oracles.all_words(spec.alphabet_size, k)]
    followers_of = {}
    for n in range(lo, hi + 1):
        for p in sorted(_language(desc, n)):
            key = walk(spec.root_walker(_window(desc)), p).key()
            followers = frozenset(c for c in conts if p + c in _language(desc, n + len(c)))
            assert followers_of.setdefault(key, followers) == followers, (desc, p, key)


# (description, length): SFTs, products, bounded density k = 1 and 2 (also
# with a table ending at the length counted to) and sparse shifts, sized so
# that the brute-force languages stay small
_COUNTED = st.one_of(
    st.tuples(
        st.tuples(st.just("sft"),
                  st.lists(_BINARY, min_size=1, max_size=3, unique=True).map(tuple)),
        st.integers(0, 10),
    ),
    st.tuples(st.just(("product",)), st.integers(0, 6)),
    st.tuples(st.tuples(st.just("bd"), st.just(1), _HEIGHTS), st.integers(0, 10)),
    st.builds(lambda h, n: (("bd", 1, h[:n]), n), _HEIGHTS, st.integers(1, 10)),
    st.tuples(st.tuples(st.just("bd"), st.just(2), _HEIGHTS), st.integers(0, 6)),
    st.builds(lambda h, n: (("bd", 2, h[:n]), n), _HEIGHTS, st.integers(1, 6)),
    st.tuples(st.just(("bd", 1, _SQRT[:12])), st.just(12)),
    st.tuples(
        st.sampled_from([("sparse", 8, 21, (2, 8)), ("sparse", 13, 21, (2, 8)),
                         ("sparse", 8, 21, (4, 12))]),
        st.integers(0, 13),
    ),
)


@settings(deadline=None, max_examples=80)
@given(_COUNTED, st.data())
def test_forward_counts_match_the_oracle(case, data):
    desc, n = case
    try:
        spec, _ = _instance(desc)
    except ConstructionError:
        assume(False)
    m = data.draw(st.integers(0, n))
    assume(_language(desc, m))
    admissible = data.draw(st.sampled_from(sorted(_language(desc, m))))
    anything = data.draw(st.lists(st.integers(0, spec.alphabet_size - 1), max_size=n + 1))
    for prefix in ((), admissible, tuple(anything)):
        want = [
            sum(w[: len(prefix)] == prefix for w in _language(desc, k)) for k in range(n + 1)
        ]
        assert language_counts(spec, n, prefix=prefix) == want, prefix
        if n:
            assert partition_function(spec, ZeroPotential(), n, prefix=prefix).count == want[n]


def test_keys_merge_states():
    # the contract above is not vacuous: keys identify many words
    gm = make_golden_mean()
    assert {walk(gm.root_walker(), w).key() for w in list(iter_language(gm, 6))} == {
        (0, 0), (0, 1), (1, 0)
    }
    sp = make_sparse_sturmian(make_sturmian_factors(8, 21, 2), (2, 8))
    words = list(iter_language(sp, 13))
    assert len({walk(sp.root_walker(), w).key() for w in words}) < len(words)
    assert walk(make_full_shift(3).root_walker(), (2, 0, 1)).key() == ()
    # the golden-mean height table: a word ends in 1 or it does not
    bd = make_bounded_density(1, HALF)
    assert len({walk(bd.root_walker(), w).key() for w in iter_language(bd, 12)}) == 2
    # one constraint j = 2, W = 16: the last symbol and d_2 in -1 .. W - j
    sp = make_sparse_sturmian(make_sturmian_factors(8, 21, 2), (4, 12))
    words = list(iter_language(sp, 8))
    assert len(words) == 256
    assert len({walk(sp.root_walker(), w).key() for w in words}) <= 2 * (16 - 2 + 2)


@pytest.mark.parametrize("fam", cases.FAMILIES, ids=[f.label for f in cases.FAMILIES])
def test_each_state_is_built_once_per_root(fam):
    spec = fam.spec()
    root = spec.root_walker()
    prefixes = [w for n in range(7) for w in iter_language(spec, n)]
    ends = [walk(root, w) for w in prefixes]
    assert all(walk(root, w) is end for w, end in zip(prefixes, ends))
    keys = {end.key() for end in ends}
    assert len({id(end) for end in ends}) == len(keys)
    assert states_built(root) == len(keys)
    other = walk(spec.root_walker(), prefixes[-1])
    assert other is not ends[-1] and other.key() == ends[-1].key()


def _unpack(key, k, n_max):
    """The fields of a packed density key, checking its guard and sentinel bits."""
    w = (k * n_max).bit_length() + 1
    length = (key.bit_length() - 1) // w
    assert key >> (length * w) == 1
    fields = [key >> (i * w) & ((1 << w) - 1) for i in range(length)]
    assert [f >> (w - 1) for f in fields] == [0] * length
    return fields


@settings(deadline=None, max_examples=60)
@given(
    st.sampled_from([(1, 6), (3, 5), (1, 255), (1, 256), (2, 127), (2, 128)]).flatmap(
        lambda kn: st.tuples(st.just(kn[0]), _heights(kn[1]))
    ),
    st.lists(st.integers(0, 3), max_size=12),
)
def test_packed_density_keys_decode_to_the_allowance_profile(table, draws):
    k, h = table
    ok = oracles.bd_admissible((0,) + h)
    prefix = ()
    for s in draws[: len(h)]:  # up to the table's end, where the profile is empty
        prefix += (min(s, k),) if ok(prefix + (min(s, k),)) else (0,)
    spec = make_bounded_density(k, h)
    for t in range(len(prefix) + 1):
        key = walk(spec.root_walker(), prefix[:t]).key()
        assert _unpack(key, k, len(h)) == oracles.bd_allowance(k, (0,) + h, prefix[:t])


# ceil(2n/5) + 1: windows of length 4 and more bind
FIFTHS = [-(-2 * n // 5) + 1 for n in range(1, 41)]


@pytest.mark.parametrize("h", [HALF, FIFTHS], ids=["half", "fifths"])
@pytest.mark.parametrize("window", [1, 2, 3, 4, 5, 8, 12])
def test_window_walker_accepts_the_window_oracle_language(h, window):
    spec = make_bounded_density(1, h)
    ok = oracles.window_admissible([0] + h, window)
    root = spec.root_walker(window)
    for n in range(13):
        for w in oracles.all_words(2, n):
            assert (walk(root, w) is not None) == ok(w), w


def test_a_window_past_the_height_table_is_an_input_error():
    spec = make_bounded_density(1, HALF[:6])
    assert walk(spec.root_walker(6), (0, 1) * 20) is not None  # never at the table's end
    for window in (0, 7):
        msg = f"^bounded density height table only covers lengths <= 6, not the window {window}$"
        with pytest.raises(InputError, match=msg):
            spec.root_walker(window)


def test_height_table_end_raises_where_it_did():
    spec = make_bounded_density(1, HALF[:6])
    assert count_language(spec, 6) == oracles.fib(8)
    msg = "^bounded density height table only covers lengths <= 6$"
    with pytest.raises(InputError, match=msg):
        count_language(spec, 7)
    end = walk(spec.root_walker(), (0, 1, 0, 1, 0, 1))
    for s in (0, 1):  # before the symbol itself is checked
        with pytest.raises(InputError, match=msg):
            end.child(s)
