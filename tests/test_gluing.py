import math
import random

import pytest

import oracles
from shiftpress.errors import ConstructionError, InputError
from shiftpress.gluing import (
    MODE_SPECIFICATION,
    MODE_TRANSITIVITY,
    find_glue,
    glue_candidates,
    min_gap_profile,
    min_glue_gap,
    sample_pairs,
)
from shiftpress.subshifts import (
    enumerate_language,
    make_bounded_density,
    make_full_shift,
    make_golden_mean,
    make_sft,
    make_sparse_sturmian,
    make_sturmian_factors,
    word_admissible,
)


def sparse_instance():
    return make_sparse_sturmian(make_sturmian_factors(8, 21, 2), (4, 12))


def seeded_sft(seed):
    """Two forbidden binary words of length 3, redrawn until the SFT is nonempty."""
    rng = random.Random(seed)
    while True:
        forb = rng.sample(oracles.all_words(2, 3), 2)
        try:
            return make_sft(2, forb), forb
        except ConstructionError:
            continue


# ---------------------------------------------------------------------------
# candidate generation and single-pair search
# ---------------------------------------------------------------------------


def test_candidates_empty_filler():
    gm = make_golden_mean()
    assert list(glue_candidates(gm, 0, "exhaustive")) == [()]
    assert list(glue_candidates(gm, 0, "zero_glue")) == [()]


def test_zero_glue_offers_one_filler():
    gm = make_golden_mean()
    assert list(glue_candidates(gm, 3, "zero_glue")) == [(0, 0, 0)]


def test_factor_glue_candidates_are_factor_concatenations():
    sp = sparse_instance()
    got = set(glue_candidates(sp, 2, "factor_glue"))
    assert got == {(0, 0), (0, 1), (1, 0), (1, 1)}
    # beyond 2 * k_max nothing can be assembled
    assert list(glue_candidates(sp, 5, "factor_glue")) == []


def test_candidate_validation():
    gm = make_golden_mean()
    with pytest.raises(InputError):
        list(glue_candidates(gm, -1, "exhaustive"))
    with pytest.raises(InputError):
        list(glue_candidates(gm, 2, "no_such_strategy"))
    with pytest.raises(InputError):
        list(glue_candidates(gm, 2, "factor_glue"))  # not a sparse instance


def test_find_glue_and_min_gap_on_the_blocked_pair():
    gm = make_golden_mean()
    assert find_glue(gm, (0, 1), (1, 0), 0, "exhaustive") is None
    assert min_glue_gap(gm, (0, 1), (1, 0), 4, "exhaustive") == (1, (0,))


# ---------------------------------------------------------------------------
# pair sampling
# ---------------------------------------------------------------------------


def test_sample_pairs_small_sets_are_exhaustive():
    words = enumerate_language(make_golden_mean(), 3)
    pairs, coverage = sample_pairs(words, 10_000, seed=7)
    assert coverage == 1.0
    assert len(pairs) == len(words) ** 2


def test_sample_pairs_budgeted_sample_is_deterministic_and_marked():
    words = enumerate_language(make_golden_mean(), 6)  # 21 words
    pairs, coverage = sample_pairs(words, 120, seed=3)
    again, coverage2 = sample_pairs(words, 120, seed=3)
    assert pairs == again and coverage == coverage2
    assert coverage == pytest.approx(len(pairs) / 441)
    assert len(pairs) >= 120
    n = len(words)
    heavy = max(range(n), key=lambda i: (sum(words[i]), i))
    got = set(pairs)
    for j in range(n):
        for i in (0, n - 1, heavy):
            assert (i, j) in got and (j, i) in got
    assert pairs == sorted(pairs)


def test_sample_pairs_different_seeds_differ():
    words = enumerate_language(make_golden_mean(), 6)
    a, _ = sample_pairs(words, 120, seed=0)
    b, _ = sample_pairs(words, 120, seed=1)
    assert a != b


# ---------------------------------------------------------------------------
# gap profiles
# ---------------------------------------------------------------------------


def test_full_shift_needs_no_gap():
    row = min_gap_profile(make_full_shift(2), 4, MODE_TRANSITIVITY, 4)
    assert row.f_empirical == 0
    assert row.f_declared == 0
    assert row.status == "ok"
    assert row.coverage == 1.0


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_golden_empirical_gap_is_one(n):
    row = min_gap_profile(make_golden_mean(), n, MODE_TRANSITIVITY, 4)
    assert row.f_empirical == 1
    assert row.f_declared == 1
    v, u, w = row.witness
    assert len(u) == 1
    assert word_admissible(make_golden_mean(), v + u + w)
    assert find_glue(make_golden_mean(), v, w, 0, "exhaustive") is None  # minimal


def test_golden_specification_holds_at_declared_gap():
    row = min_gap_profile(make_golden_mean(), 4, MODE_SPECIFICATION, 6)
    assert row.counterexample is None
    assert row.status == "ok"


def test_alternating_shift_fails_specification():
    alt = make_sft(2, [(0, 0), (1, 1)])
    row = min_gap_profile(alt, 2, MODE_SPECIFICATION, 3)
    assert row.f_empirical == 1  # every pair glues at gap 0 or 1
    assert row.witness == ((0, 1), (0,), (1, 0))
    assert row.counterexample == ((0, 1), (0, 1), 1)  # odd gaps break parity


def test_horizon_exhaustion_is_reported():
    row = assert_row_matches_oracle(
        make_golden_mean(), oracles.sft_admissible(2, [(1, 1)]), 2, MODE_TRANSITIVITY, 0
    )
    assert row.status == "horizon_exhausted"
    assert row.f_empirical is None
    assert row.counterexample == ((0, 1), (1, 0), 0)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_zero_glue_matches_exhaustive_on_bounded_density(n):
    bd = make_bounded_density(1, [math.ceil(k / 2) for k in range(1, 33)])
    a = min_gap_profile(bd, n, MODE_TRANSITIVITY, 6, "zero_glue")
    b = min_gap_profile(bd, n, MODE_TRANSITIVITY, 6, "exhaustive")
    assert a.f_empirical == b.f_empirical
    assert a.status == b.status == "ok"


def test_sparse_transitivity_within_declared_budget():
    sp = sparse_instance()
    row = min_gap_profile(sp, 4, MODE_TRANSITIVITY, strategy="factor_glue")
    assert row.status == "ok"
    assert row.f_declared == 2  # first window level active at n=4
    assert row.f_empirical <= row.f_declared


def test_sparse_declared_gap_steps_with_the_window_levels():
    sp = sparse_instance()
    assert sp.declared_gap(4) == 2
    assert sp.declared_gap(10) == 4
    with pytest.raises(InputError):
        sp.declared_gap(13)  # past the constraint horizon


def test_profile_validation():
    gm = make_golden_mean()
    with pytest.raises(InputError):
        min_gap_profile(gm, 3, "no_such_mode", 2)
    with pytest.raises(InputError):
        min_gap_profile(gm, 3, MODE_TRANSITIVITY, 2, "no_such_strategy")


# ---------------------------------------------------------------------------
# gap profiles against the brute-force oracle (every pair and filler
# replayed from scratch)
# ---------------------------------------------------------------------------


def assert_row_matches_oracle(spec, ok, n, mode, m_max, strategy="exhaustive", factors=None):
    row = min_gap_profile(spec, n, mode, m_max, strategy)
    words = [w for w in oracles.all_words(spec.alphabet_size, n) if ok(w)]
    if m_max is None:  # the documented default horizon
        m_max = (n if row.f_declared is None else row.f_declared) + 2 * min(n, 8)
    want = oracles.gap_row(
        words, ok, lambda m, s: oracles.fillers(m, s, spec.alphabet_size, factors),
        mode, m_max, row.f_declared, strategy,
    )
    got = {k: getattr(row, k) for k in want}
    assert got == want
    return row


@pytest.mark.parametrize("n", range(2, 9))
@pytest.mark.parametrize("mode", [MODE_TRANSITIVITY, MODE_SPECIFICATION])
def test_golden_profile_matches_oracle(n, mode):
    # the default horizon is 1 + 2n; past n = 6 a shorter one keeps the
    # oracle's specification pass to a few seconds
    m_max = None if n <= 6 else 8
    row = assert_row_matches_oracle(
        make_golden_mean(), oracles.sft_admissible(2, [(1, 1)]), n, mode, m_max
    )
    assert row.status == "ok" and row.counterexample is None


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("mode", [MODE_TRANSITIVITY, MODE_SPECIFICATION])
def test_seeded_sft_profile_matches_oracle(seed, mode):
    spec, forb = seeded_sft(seed)
    for n in (3, 5):
        assert_row_matches_oracle(spec, oracles.sft_admissible(2, forb), n, mode, 6)


def test_underdeclared_sft_counterexample_matches_oracle():
    spec = make_sft(2, [(1, 1)], declared_gap=0)
    row = assert_row_matches_oracle(
        spec, oracles.sft_admissible(2, [(1, 1)]), 3, MODE_SPECIFICATION, 4
    )
    assert row.counterexample == ((0, 0, 1), (1, 0, 0), 0)


def test_zero_glue_miss_falls_back_to_exhaustive():
    # avoiding 00, the zero filler never joins ...0 to 0...; the exhaustive
    # retry over the whole horizon finds the filler 1
    spec = make_sft(2, [(0, 0)])
    row = assert_row_matches_oracle(
        spec, oracles.sft_admissible(2, [(0, 0)]), 3, MODE_TRANSITIVITY, 4, "zero_glue"
    )
    assert row.witness == ((0, 1, 0), (1,), (0, 1, 0))


@pytest.mark.parametrize("n", [4, 6])
def test_factor_glue_miss_falls_back_to_exhaustive(n):
    # no concatenation of two factors has length 5 or 6 (k_max = 2), so the
    # specification pass retries those gaps exhaustively
    factors = {k: oracles.mechanical_factors(8, 21, k) for k in (1, 2)}
    assert list(glue_candidates(sparse_instance(), 5, "factor_glue")) == []
    row = assert_row_matches_oracle(
        sparse_instance(), oracles.sparse_admissible(8, 21, (4, 12)), n,
        MODE_SPECIFICATION, 6, "factor_glue", factors,
    )
    assert row.f_declared == {4: 2, 6: 4}[n]
    assert row.counterexample is None
