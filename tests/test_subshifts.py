import functools
import math
import random

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import oracles
from shiftpress.errors import BudgetExceededError, ConstructionError, InputError
from shiftpress.subshifts import (
    count_language,
    enumerate_language,
    iter_language,
    make_bounded_density,
    make_full_shift,
    make_golden_mean,
    make_sft,
    make_sparse_sturmian,
    make_sturmian_factors,
    product_subshift,
    walk,
    word_admissible,
)

HALF = [math.ceil(n / 2) for n in range(1, 41)]


def test_full_shift_language():
    fs = make_full_shift(2)
    for n in range(1, 7):
        assert enumerate_language(fs, n) == oracles.all_words(2, n)


def test_golden_mean_language_matches_bfs_oracle():
    gm = make_golden_mean()
    for n in range(1, 11):
        assert enumerate_language(gm, n) == oracles.sft_language(2, [(1, 1)], n)


def test_golden_mean_counts_are_fibonacci():
    gm = make_golden_mean()
    for n in range(1, 13):
        assert count_language(gm, n) == oracles.fib(n + 2)


def test_sft_with_dead_blocks_trims_to_exact_language():
    # forbidding 00 and 01 leaves only the all-ones point
    spec = make_sft(2, [(0, 0), (0, 1)])
    for n in range(1, 6):
        assert enumerate_language(spec, n) == [(1,) * n]
        assert enumerate_language(spec, n) == oracles.sft_language(
            2, [(0, 0), (0, 1)], n
        )


def test_sft_longer_blocks():
    forb = [(0, 0, 0), (1, 1, 1)]
    spec = make_sft(2, forb)
    for n in range(1, 9):
        assert enumerate_language(spec, n) == oracles.sft_language(2, forb, n)


def test_sft_empty_language_is_a_construction_error():
    with pytest.raises(ConstructionError):
        make_sft(2, [(0,), (1,)])


def test_bounded_density_language_matches_filter_oracle():
    bd = make_bounded_density(1, HALF)
    for n in range(1, 11):
        assert enumerate_language(bd, n) == oracles.bd_language(1, [0] + HALF, n)


def test_bounded_density_equals_golden_mean_here():
    # cap ceil(n/2) forbids exactly adjacent ones on two symbols
    bd = make_bounded_density(1, HALF)
    gm = make_golden_mean()
    for n in range(1, 11):
        assert enumerate_language(bd, n) == enumerate_language(gm, n)


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
        assert enumerate_language(bd, n) == oracles.bd_language(2, [0] + h, n)


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
        assert enumerate_language(sp, n) == oracles.sparse_language(8, 21, (4, 12), n)


def test_sparse_constraints_bind_past_the_window():
    # the length-1 factor set is all of {0,1}, so the first binding
    # window comes from k=2: length n_2 + 4
    fs = make_sturmian_factors(13, 21, 2)
    sp = make_sparse_sturmian(fs, (2, 8))
    assert count_language(sp, 11) == 2**11
    lang = enumerate_language(sp, 12)
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
        left = enumerate_language(gm, n)
        expect = sorted(
            tuple(a * 2 + b for a, b in zip(wa, wb))
            for wa in left
            for wb in oracles.all_words(2, n)
        )
        assert enumerate_language(prod, n) == expect
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
        enumerate_language(fs, 12, budget=50)
    assert ei.value.budget == 50
    assert ei.value.nodes >= 50


@settings(deadline=None, max_examples=60)
@given(st.integers(min_value=1, max_value=8), st.data())
def test_language_is_hereditary(n, data):
    # every factor of an admissible word is admissible
    gm = make_golden_mean()
    words = enumerate_language(gm, n)
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
        assert count_language(spec, n) == len(enumerate_language(spec, n))


def test_enumeration_is_sorted_and_deduplicated():
    rng = random.Random(7)
    forb = [(0, 0, 0), (1, 0, 1)]
    spec = make_sft(2, forb)
    for n in (3, 5, 7):
        words = enumerate_language(spec, n)
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


def _family(desc, lengths, cont_max):
    return st.tuples(desc, st.just(lengths), st.just(cont_max))


_BINARY = st.lists(st.integers(0, 1), min_size=2, max_size=3).map(tuple)
_HEIGHTS = st.builds(
    lambda num, den, c: tuple(-(-num * n // den) + c for n in range(1, 17)),
    st.integers(1, 3), st.integers(2, 5), st.integers(0, 2),
)
# (description, prefix lengths, longest continuation), sized so that the
# brute-force languages stay below 2^15 words
_FAMILIES = st.one_of(
    _family(st.tuples(st.just("full"), st.integers(1, 3)), (0, 4), 2),
    _family(st.just(("sft", ((1, 1),))), (0, 7), 3),
    _family(
        st.tuples(st.just("sft"), st.lists(_BINARY, min_size=1, max_size=3, unique=True).map(tuple)),
        (0, 7), 3,
    ),
    _family(st.tuples(st.just("bd"), st.just(1), _HEIGHTS), (0, 7), 3),
    _family(st.tuples(st.just("bd"), st.just(2), _HEIGHTS), (0, 5), 2),
    _family(st.sampled_from([("sparse", 8, 21, (2, 8)), ("sparse", 13, 21, (2, 8))]), (10, 13), 2),
    _family(st.just(("product",)), (0, 4), 2),
)


@settings(deadline=None, max_examples=60)
@given(_FAMILIES)
@example((("sft", ((0, 0), (1, 0, 1))), (0, 7), 3))  # language {1^n}: 0 never extends
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
            key = walk(spec.root_walker(), p).key()
            followers = frozenset(c for c in conts if p + c in _language(desc, n + len(c)))
            assert followers_of.setdefault(key, followers) == followers, (desc, p, key)


def test_keys_merge_states():
    # the contract above is not vacuous: keys identify many words
    gm = make_golden_mean()
    assert {walk(gm.root_walker(), w).key() for w in enumerate_language(gm, 6)} == {
        (0, 0), (0, 1), (1, 0)
    }
    sp = make_sparse_sturmian(make_sturmian_factors(8, 21, 2), (2, 8))
    words = enumerate_language(sp, 13)
    assert len({walk(sp.root_walker(), w).key() for w in words}) < len(words)
    assert walk(make_full_shift(3).root_walker(), (2, 0, 1)).key() == ()
