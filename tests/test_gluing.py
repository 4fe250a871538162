import math
import random

import pytest

import oracles
from shiftpress.errors import ConstructionError, InputError
from shiftpress.gluing import (
    MODE_SPECIFICATION,
    MODE_TRANSITIVITY,
    FillerLevels,
    GlueWork,
    find_glue,
    glue_candidates,
    min_gap_profile,
    sample_pairs,
)
from shiftpress.subshifts import (
    DEFAULT_NODE_BUDGET,
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


def test_zero_glue_lists_no_filler():
    # 0^m is the least word of length m, so the filler levels offer it
    # first whenever it joins; a list of it would only repeat that walk
    gm = make_golden_mean()
    assert list(glue_candidates(gm, 3, "zero_glue")) == []


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
    start = walk(gm.root_walker(), (0, 1))
    assert FillerLevels(gm, DEFAULT_NODE_BUDGET).least(start, (1, 0), range(5)) == (1, (0,))


def _gluing_case(name):
    """(spec, oracle membership test) for the lexicographic filler tests."""
    if name == "golden":
        return make_golden_mean(), oracles.sft_admissible(2, [(1, 1)])
    if name == "density":
        h = [math.ceil(k / 2) for k in range(1, 17)]
        return make_bounded_density(1, h), oracles.bd_admissible([0, *h])
    sft, forb = seeded_sft(int(name[3:]))
    return sft, oracles.sft_admissible(2, forb)


# many fillers share an end key on the golden mean and the density shift;
# the seeded SFTs have gaps up to 2, pairs with no filler and fillers with a 1
@pytest.mark.parametrize("case", ["golden", "density", "sft1", "sft12"])
def test_exhaustive_tries_match_the_lexicographic_oracle(case):
    # an exhaustive try reads filler levels, not a list of every word: the
    # filler it finds must still be the first in lexicographic order
    spec, ok = _gluing_case(case)

    def filler_of(m, strategy):
        return oracles.fillers(m, strategy, 2)

    tries = ("zero_glue", "exhaustive")
    fillers = FillerLevels(spec, DEFAULT_NODE_BUDGET)
    words = list(iter_language(spec, 3))
    for v in words:
        start = walk(fillers.root, v)
        for w in words:
            want = oracles.least_gap(ok, v, w, range(5), tries, filler_of)
            assert fillers.least(start, w, range(5), "zero_glue") == want
            for m in range(5):
                first = next((u for u in filler_of(m, "exhaustive") if ok(v + u + w)), None)
                assert find_glue(spec, v, w, m, "exhaustive") == first


# ---------------------------------------------------------------------------
# pair sampling
# ---------------------------------------------------------------------------


def end_keys(spec, words):
    root = spec.root_walker()
    return len({walk(root, v).key() for v in words})


def test_sample_pairs_small_sets_are_exhaustive():
    # a set that fits the budget reaches the scan as every column, not as a
    # sample, up to keys x |L_n| = pair_budget
    words = list(iter_language(make_golden_mean(), 3))
    n = len(words)
    assert sample_pairs(words, n, 10_000, seed=7) == (range(n), 1.0)
    assert sample_pairs(words, n, n ** 2, seed=7) == (range(n), 1.0)


def test_sample_pairs_pass_a_sample_as_columns():
    # past the budget the columns are a seeded sample, pair_budget // keys
    words = list(iter_language(make_golden_mean(), 6))
    columns, coverage = sample_pairs(words, 3, 60, seed=3)
    assert (columns, coverage) == sample_pairs(words, 3, 60, seed=3)
    assert isinstance(columns, list) and (len(columns), coverage) == (20, 20 / 21)


def test_sample_pairs_are_full_once_the_decisions_fit_the_budget():
    # a full scan decides each (end key of v, w) once: on the golden mean
    # at n = 6 that is 3 keys x 21 words = 63 decisions for 441 pairs
    gm = make_golden_mean()
    words = list(iter_language(gm, 6))
    keys = end_keys(gm, words)
    assert (keys, len(words)) == (3, 21)
    assert sample_pairs(words, keys, 63, seed=3) == (range(21), 1.0)
    columns, coverage = sample_pairs(words, keys, 62, seed=3)  # 62 // 3 columns
    assert (len(columns), coverage) == (20, 20 / 21)
    # the old rule, one key per word, leaves only the three marked columns
    assert len(sample_pairs(words, 21, 63, seed=3)[0]) == 3
    assert min_gap_profile(gm, 6, m_max=4, pair_budget=63).coverage == 1.0
    assert min_gap_profile(gm, 6, m_max=4, pair_budget=62).coverage == coverage


@pytest.mark.parametrize("mode", [MODE_TRANSITIVITY, MODE_SPECIFICATION])
@pytest.mark.parametrize("n", [14, 16])
def test_golden_profiles_past_the_pair_budget_scan_every_pair(mode, n):
    # |L_16|^2 = 6,677,056 pairs, but 3 end keys x 2584 words fit the budget
    work = GlueWork()
    row = min_gap_profile(make_golden_mean(), n, mode, m_max=4, work=work)
    assert (row.coverage, row.f_empirical, row.status) == (1.0, 1, "ok")
    assert work.pairs == len(list(iter_language(make_golden_mean(), n))) ** 2


def test_sampled_scans_keep_their_probes_within_the_pair_budget():
    # golden mean at n = 16: 3 end keys x 2584 words, full from 7752 on
    gm = make_golden_mean()
    words = list(iter_language(gm, 16))
    assert (end_keys(gm, words), len(words)) == (3, 2584)
    coverages = []
    for pair_budget in (100, 600, 6000, 7751, 7752):
        work = GlueWork()
        row = min_gap_profile(gm, 16, m_max=4, pair_budget=pair_budget, work=work)
        assert (row.f_empirical, row.status) == (1, "ok")
        assert work.probes <= pair_budget
        assert work.pairs == len(words) * round(row.coverage * len(words))
        coverages.append(row.coverage)
    assert coverages == sorted(coverages)
    assert coverages[0] == 33 / 2584 and coverages[-2] >= 0.999 and coverages[-1] == 1.0


def test_sample_pairs_budgeted_sample_is_deterministic_and_marked():
    words = list(iter_language(make_golden_mean(), 6))  # 21 words, 3 end keys
    columns, coverage = sample_pairs(words, 3, 45, seed=3)
    assert (columns, coverage) == sample_pairs(words, 3, 45, seed=3)
    assert len(columns) == 15 and coverage == 15 / 21
    n = len(words)
    heavy = max(range(n), key=lambda i: (sum(words[i]), i))
    assert {0, n - 1, heavy} <= set(columns)
    assert columns == sorted(set(columns))
    # never fewer columns than the marked words, whatever the budget
    assert sample_pairs(words, 3, 2, seed=3)[0] == sorted({0, n - 1, heavy})


def test_sample_pairs_different_seeds_differ():
    words = list(iter_language(make_golden_mean(), 16))
    a, _ = sample_pairs(words, 3, 600, seed=0)
    b, _ = sample_pairs(words, 3, 600, seed=1)
    assert a != b and len(a) == len(b) == 200


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


# the ternary SFT avoiding 11 and 101 joins 1 to 1 with the filler 2 at
# gap 1, and with the zero filler only at gap 2
@pytest.mark.parametrize("spec, n, m_max", [
    *(pytest.param(make_sft(3, [(1, 1), (1, 0, 1)]), n, 4, id=f"ternary-{n}") for n in (1, 2, 3)),
    *(pytest.param(make_bounded_density(1, [math.ceil(k / 2) for k in range(1, 33)]), n, 6,
                   id=f"density-{n}") for n in (2, 3, 4, 5, 6)),
])
@pytest.mark.parametrize("mode", [MODE_TRANSITIVITY, MODE_SPECIFICATION])
def test_a_strategy_never_moves_a_rows_gap(spec, n, m_max, mode):
    a = min_gap_profile(spec, n, mode, m_max, "zero_glue")
    b = min_gap_profile(spec, n, mode, m_max, "exhaustive")
    assert a._replace(strategy="exhaustive") == b
    assert a.status == "ok"


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
    for mode in (MODE_TRANSITIVITY, MODE_SPECIFICATION):  # glues at m = 0, still refused
        with pytest.raises(InputError, match="factor_glue needs a sparse Sturmian instance"):
            min_gap_profile(make_full_shift(2), 2, mode, 3, "factor_glue")


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
    # avoiding 00, the zero filler never joins ...0 to 0...; the least
    # filler at gap 1 does, the filler 1
    spec = make_sft(2, [(0, 0)])
    row = assert_row_matches_oracle(
        spec, oracles.sft_admissible(2, [(0, 0)]), 3, MODE_TRANSITIVITY, 4, "zero_glue"
    )
    assert row.witness == ((0, 1, 0), (1,), (0, 1, 0))


# k = 1 tables: the half-density cap (worst gap 1), and floor(L/3) + 1
# (worst gap 3 from n = 3)
DENSITY_TABLES = {
    "half": [math.ceil(k / 2) for k in range(1, 25)],
    "third": [k // 3 + 1 for k in range(1, 25)],
}


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("mode", [MODE_TRANSITIVITY, MODE_SPECIFICATION])
@pytest.mark.parametrize("table", sorted(DENSITY_TABLES))
def test_bounded_density_profile_matches_oracle(table, mode, n):
    h = DENSITY_TABLES[table]
    spec = make_bounded_density(1, h)
    row = assert_row_matches_oracle(
        spec, oracles.bd_admissible([0, *h]), n, mode, spec.declared_gap(n) + 2
    )
    assert row.status == "ok" and row.witness is not None


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("mode", [MODE_TRANSITIVITY, MODE_SPECIFICATION])
def test_product_profile_matches_oracle(mode, n):
    # golden mean x full shift on 2 symbols: symbol 2 i + j is the pair (i, j)
    spec = product_subshift(make_golden_mean(), make_full_shift(2))
    ok = oracles.product_admissible(oracles.sft_admissible(2, [(1, 1)]), lambda w: True, 2)
    row = assert_row_matches_oracle(spec, ok, n, mode, 3)
    assert row.f_empirical == 1 and len(row.witness[1]) == 1


def test_specification_needs_a_horizon_reaching_the_declared_gap():
    with pytest.raises(InputError, match="horizons.m_max: 0 is below f_declared"):
        min_gap_profile(make_golden_mean(), 3, MODE_SPECIFICATION, 0)
    assert min_gap_profile(make_golden_mean(), 3, MODE_TRANSITIVITY, 0).status == (
        "horizon_exhausted"
    )


@pytest.mark.parametrize("n", [4, 6])
def test_factor_glue_miss_falls_back_to_exhaustive(n):
    # no concatenation of two factors has length 5 or 6 (k_max = 2), so the
    # levels' least filler answers those gaps of the specification pass
    factors = {k: oracles.mechanical_factors(8, 21, k) for k in (1, 2)}
    assert list(glue_candidates(sparse_instance(), 5, "factor_glue")) == []
    row = assert_row_matches_oracle(
        sparse_instance(), oracles.sparse_admissible(8, 21, (4, 12)), n,
        MODE_SPECIFICATION, 6, "factor_glue", factors,
    )
    assert row.f_declared == {4: 2, 6: 4}[n]
    assert row.counterexample is None


# ---------------------------------------------------------------------------
# sampled pair sets against the oracle replaying the same sample pair by pair
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("forbidden, declared, n, mode, m_max, pair_budget, status, counter", [
    # the golden mean has 3 end keys, so its budgets sit below 3 |L_n|
    ([(1, 1)], None, 6, MODE_TRANSITIVITY, 4, 60, "ok", False),
    ([(1, 1)], None, 6, MODE_SPECIFICATION, 4, 60, "ok", False),
    ([(1, 1)], None, 5, MODE_TRANSITIVITY, 0, 36, "horizon_exhausted", True),
    ([(1, 1)], 0, 5, MODE_SPECIFICATION, 4, 36, "ok", True),  # under-declared
    ([(0, 0, 0), (1, 1, 1)], None, 7, MODE_SPECIFICATION, 4, 50, "ok", True),
    ([(0, 1, 1), (1, 0, 1)], None, 7, MODE_TRANSITIVITY, 4, 50, "horizon_exhausted", True),
])
@pytest.mark.parametrize("seed", [0, 5])
def test_sampled_profile_matches_oracle_replay(
    forbidden, declared, n, mode, m_max, pair_budget, status, counter, seed
):
    spec = make_sft(2, forbidden, declared_gap=declared)
    ok = oracles.sft_admissible(2, forbidden)
    words = [w for w in oracles.all_words(2, n) if ok(w)]
    columns, coverage = sample_pairs(words, end_keys(spec, words), pair_budget, seed)
    assert coverage < 1.0
    pairs = [(i, j) for i in range(len(words)) for j in columns]
    work = GlueWork()
    row = min_gap_profile(spec, n, mode, m_max, pair_budget=pair_budget, seed=seed, work=work)
    want = oracles.gap_row(
        words, ok, lambda m, s: oracles.fillers(m, s, 2), mode, m_max, row.f_declared,
        "exhaustive", pairs,
    )
    assert {k: getattr(row, k) for k in want} == want
    assert row.status == status
    assert (row.counterexample is not None) == counter
    # each scan reaches the pairs up to its stopping one, and probes each
    # (end key of v, w) among them once
    root = spec.root_walker()
    keys = [walk(root, v).key() for v in words]
    scans = [pairs] if status != "ok" or mode == MODE_TRANSITIVITY else [pairs, pairs]
    if row.counterexample is not None:
        v, w, _ = row.counterexample
        scans[-1] = pairs[: pairs.index((words.index(v), words.index(w))) + 1]
    probes = sum(len({(keys[i], j) for i, j in reached}) for reached in scans)
    assert (work.probes, work.memo_hits) == (probes, sum(map(len, scans)) - probes)
