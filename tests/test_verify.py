import itertools
import math
import random

import pytest

import oracles
from shiftpress import gluing, subshifts, verify
from shiftpress.errors import BudgetExceededError, IdentityCheckError, InputError
from shiftpress.gluing import GlueWork, sample_pairs
from shiftpress.potentials import ZeroPotential
from shiftpress.pressure import partition_table
from shiftpress.subshifts import (
    Tally,
    language_counts,
    make_bounded_density,
    make_full_shift,
    make_golden_mean,
    make_sft,
    make_sparse_sturmian,
    make_sturmian_factors,
    walk,
)
from shiftpress.transfer import build_transfer, markov_equilibrium
from shiftpress.verify import (
    FAIL,
    PASS,
    PRECONDITION_FAIL,
    BoundReport,
    verify_density_glue,
    verify_measure_lower,
    verify_partition_upper_anchor,
    verify_partition_upper_spec,
    verify_partition_upper_trans,
    verify_sparse_glue,
)

LOG_PHI = math.log((1 + math.sqrt(5)) / 2)
LN2 = math.log(2.0)


def half_density(n_max=64):
    return make_bounded_density(1, [math.ceil(n / 2) for n in range(1, n_max + 1)])


def zero_g(n):
    return 0.0


# ---------------------------------------------------------------------------
# report plumbing
# ---------------------------------------------------------------------------


def test_bound_report_helpers():
    rep = BoundReport(check="x", verdict=PASS, margins=((3, 0.5), (4, -0.25)))
    assert rep.ok
    assert rep.min_margin() == -0.25
    assert BoundReport(check="x", verdict=PASS, margins=()).min_margin() == math.inf


# ---------------------------------------------------------------------------
# density gluing
# ---------------------------------------------------------------------------


def test_density_glue_passes_at_declared_gap():
    bd = half_density()
    rep = verify_density_glue(bd, range(2, 9))
    assert rep.verdict == PASS
    assert rep.min_margin() >= 0.0
    assert rep.extra == {"e_monotone": False}


def test_density_glue_underdeclared_gap_yields_the_extremal_pair():
    # the least slack at n = 2, gap 0 is h(2) - M(1) - M(1) = -1, reached by
    # 0 H(1) and H(1) 0, H(1) = 1
    bd = half_density()
    rep = verify_density_glue(bd, [2], f=lambda n: 0)
    assert rep.verdict == FAIL
    assert rep.margins == ((2, -1.0),)
    assert rep.witnesses[2] == {"words": ["01", "10"], "m": 0}


def test_density_glue_raises_when_the_walker_contradicts_the_profiles():
    # profiles read from a looser height table than the walker enforces: the
    # quotient passes, and walking its worst window core must raise, not assert
    strict, loose = half_density(), make_bounded_density(1, list(range(1, 65)))
    strict.params["density"] = loose.params["density"]
    with pytest.raises(IdentityCheckError):
        verify_density_glue(strict, [2], f=lambda n: 0)


def _density_glue_reference(k, h, n, m):
    """Brute-force least slack of a window across the gaps of a list of
    length-n words joined by m zeros: h(L) less the largest sum of the last
    a symbols of a word of L_n, whole times the largest sum of one, and the
    largest sum of the first b symbols of one, over every whole and split
    (a, b) whose length L = a + b + m + whole (n + m) is within the table."""
    words = oracles.bd_language(k, h, n)
    suf = [max(sum(v[n - a:]) for v in words) for a in range(n + 1)]
    pre = [max(sum(w[:b]) for w in words) for b in range(n + 1)]
    n_max = len(h) - 1
    return float(min(
        h[a + b + m + whole * (n + m)] - suf[a] - whole * suf[n] - pre[b]
        for whole in range(n_max) for a in range(1, n + 1) for b in range(1, n + 1)
        if a + b + m + whole * (n + m) <= n_max
    ))


def _genuine(h, n, witness):
    """Whether a witness lists words of L_n whose join at its gap is
    forbidden, h as in oracles.bd_admissible; windows past the table are
    not checked, as the walker does not check them."""
    ok = oracles.window_admissible(h, len(h) - 1)
    words = [tuple(map(int, x)) for x in witness["words"]]
    joined = sum(((0,) * witness["m"] + w for w in words[1:]), words[0])
    return all(len(w) == n and ok(w) for w in words) and not ok(joined)


@pytest.mark.parametrize("k, heights, n_range, f", [
    (1, [math.ceil(n / 2) for n in range(1, 25)], range(2, 8), None),  # e not monotone
    (2, [n + 1 for n in range(1, 17)], range(2, 5), None),
    (1, [math.ceil(n / 2) for n in range(1, 25)], range(2, 6), lambda n: 0),
])
def test_density_glue_margins_match_brute_force(k, heights, n_range, f):
    bd = make_bounded_density(k, heights)
    f_at = f if f is not None else bd.declared_gap
    rep = verify_density_glue(bd, n_range, f=f)
    h = [0] + heights
    expect = tuple((n, _density_glue_reference(k, h, n, f_at(n))) for n in n_range)
    assert rep.margins == expect
    assert sorted(rep.witnesses) == [n for n, m in expect if m < 0]
    assert all(_genuine(h, n, got) for n, got in rep.witnesses.items())
    assert rep.verdict == (FAIL if rep.witnesses else PASS)
    if f is not None:
        assert rep.witnesses[2] == {"words": ["01", "10"], "m": 0}


@pytest.mark.parametrize("gap", [None, 0])
def test_density_glue_margins_come_without_listing_the_language(monkeypatch, gap):
    # h(j) = ceil(j/2) on {0, 1} is the golden mean, |L_29| = fib(31) =
    # 1,346,269; the heaviest words are 1010..., so M(a) = ceil(a/2). The
    # declared gap passes; gap 0 fails at every length, and neither lists L_n
    # nor probes a pair
    def refuse(*args, **kwargs):
        raise AssertionError("L_n listed or scanned")

    monkeypatch.setattr(subshifts, "iter_language", refuse)
    monkeypatch.setattr(gluing, "glue_pairs", refuse)
    bd, ns, work = half_density(), range(2, 30), GlueWork()
    f = bd.declared_gap if gap is None else (lambda n: gap)
    assert oracles.fib(31) == 1_346_269
    tally = Tally()
    language_counts(bd, 29, tally=tally)
    assert tally.nodes <= 2 * 2 * 29  # two keys a level: the last symbol
    with pytest.raises(BudgetExceededError):
        verify_density_glue(bd, ns, f=f, budget=tally.nodes - 1)
    rep = verify_density_glue(bd, ns, f=f, budget=tally.nodes, work=work)
    assert rep.verdict == (PASS if gap is None else FAIL)

    def half(j):  # h(j) and M(j) alike
        return -(-j // 2)

    want = []
    for n in ns:
        m = f(n)
        want.append((n, float(min(
            half(a + b + m + whole * (n + m)) - half(a) - half(b) - whole * half(n)
            for whole in range(64) for a in range(1, n + 1) for b in range(1, n + 1)
            if a + b + m + whole * (n + m) <= 64
        ))))
    assert rep.margins == tuple(want)
    assert work.words == sum(oracles.fib(n + 2) for n in ns)
    assert work.pairs == sum(oracles.fib(n + 2) ** 2 for n in ns)
    assert work.probes == work.memo_hits == 0
    assert work.states <= 2 * 64 + 1  # the window cores reach length 64


def test_density_glue_triple_witnesses_are_genuine():
    # h(L) = min(L, 2 + L // 2) at gap 2 joins every pair but not every
    # triple at n = 3, and not every pair at n = 4, 5 and 6; the profile
    # decides them all, so nothing is probed
    h = [min(L, 2 + L // 2) for L in range(1, 41)]
    work = GlueWork()
    rep = verify_density_glue(make_bounded_density(1, h), range(2, 7), f=lambda n: 2,
                              work=work)
    assert rep.verdict == FAIL
    assert rep.margins == ((2, 1.0), (3, -3.0), (4, -6.0), (5, -3.0), (6, -4.0))
    assert rep.witnesses == {
        3: {"words": ["111", "111", "111"], "m": 2},
        4: {"words": ["0111", "1111"], "m": 2},
        5: {"words": ["00111", "11110"], "m": 2},
        6: {"words": ["000111", "111100"], "m": 2},
    }
    assert all(_genuine([0, *h], n, got) for n, got in rep.witnesses.items())
    assert not _density_glue_failures(1, [0, *h], 3, 2, most=2)  # n = 3 pairs all glue
    assert (work.probes, work.memo_hits) == (0, 0)


def _density_glue_failures(k, h, n, m, most=5):
    """Brute force: whether some list of up to `most` words of L_n joined by
    m zeros is forbidden, h as in oracles.bd_admissible; windows past the
    table are not checked, as the walker does not check them. Lists grow
    one word at a time from the admissible ones, testing the windows that
    end in the new word, so the first forbidden list is found."""
    words = oracles.bd_language(k, h, n)
    n_max = len(h) - 1
    joins = words
    for _ in range(most - 1):
        grown = []
        for t in joins:
            for u in words:
                x = t + (0,) * m + u
                p = [0, *itertools.accumulate(x)]
                if any(p[j] - p[i] > h[j - i] for j in range(len(t) + 1, len(x) + 1)
                       for i in range(max(0, j - n_max), j)):
                    return True
                grown.append(x)
        joins = grown
    return False


def _check_against_brute_force(k, heights, n, gap):
    rep = verify_density_glue(make_bounded_density(k, heights), [n], f=lambda n: gap)
    h = [0, *heights]
    assert rep.verdict == (FAIL if _density_glue_failures(k, h, n, gap) else PASS)
    assert sorted(rep.witnesses) == ([n] if rep.verdict == FAIL else [])
    assert all(_genuine(h, n, got) for got in rep.witnesses.values())
    return rep


def test_density_glue_refutes_a_triple_no_pair_refutes():
    # every pair glues at gap 2, but 12 00 012 00 12 sums to 9 > h(11) = 8
    heights = [2, 3, 3, 4, 5, 6, 6, 6, 8, 8, 8, 9, 9]
    rep = _check_against_brute_force(2, heights, 3, 2)
    assert rep.margins == ((3, -1.0),)
    assert rep.witnesses == {3: {"words": ["012", "012", "120"], "m": 2}}
    assert not _density_glue_failures(2, [0, *heights], 3, 2, most=2)


def test_density_glue_refutes_a_five_word_list_no_shorter_one_refutes():
    # h(j) = min(j, 13 + floor(3(j - 13)/4)): 011 111 111 111 111 has the
    # 14-window 1^14 > h(14) = 13, and every list of four words of L_3 at
    # gap 0 is at most 12 long; the window 1^40 gives the margin
    heights = [min(j, 13 + 3 * (j - 13) // 4) for j in range(1, 41)]
    rep = _check_against_brute_force(1, heights, 3, 0)
    assert rep.margins == ((3, -7.0),)
    assert rep.witnesses == {3: {"words": ["011", "111", "111", "111", "111"], "m": 0}}
    assert not _density_glue_failures(1, [0, *heights], 3, 0, most=4)


def test_density_glue_verdicts_match_brute_force_over_lists_of_words():
    # seeded positive, non-decreasing, subadditive tables too short for a
    # window across four entire words, so lists of five words decide them
    # (a window of the table then touches at most five words)
    rng = random.Random(7)
    sizes = set()
    for _ in range(150):
        k = rng.choice((1, 2))
        n = rng.choice((1, 2, 3)) if k == 1 else rng.choice((1, 2))
        gap = rng.randrange(3)
        n_max = rng.randrange(2 * n + gap, 2 + gap + 4 * (n + gap))
        h = [0, rng.randint(1, k)]
        for j in range(2, n_max + 1):
            cap = min(h[i] + h[j - i] for i in range(1, j))
            h.append(min(cap, h[-1] + rng.randrange(3)))
        rep = _check_against_brute_force(k, h[1:], n, gap)
        sizes.add(len(rep.witnesses[n]["words"]) if rep.witnesses else 0)
    assert sizes == {0, 2, 3, 4, 5}  # passes, and witnesses of every size


def test_density_glue_input_guards():
    with pytest.raises(InputError):
        verify_density_glue(make_golden_mean(), [2])
    bd = half_density(n_max=10)
    verify_density_glue(bd, [4])  # 2 * 4 + f(4) = 10 fits
    with pytest.raises(InputError):
        verify_density_glue(bd, [5])  # needs heights past the table end


# ---------------------------------------------------------------------------
# sparse gluing
# ---------------------------------------------------------------------------


def test_sparse_glue_passes_with_factor_strategy():
    sp = make_sparse_sturmian(make_sturmian_factors(8, 21, 2), (4, 12))
    rep = verify_sparse_glue(sp, [2, 3, 4], strategy="factor_glue")
    assert rep.verdict == PASS
    assert all(m >= 0 for _, m in rep.margins)
    assert all(rep.extra["coverage"][n] == 1.0 for n in (2, 3, 4))


def test_sparse_glue_sampled_run_reports_coverage():
    sp = make_sparse_sturmian(make_sturmian_factors(8, 21, 2), (4, 12))
    rep = verify_sparse_glue(sp, [5], strategy="factor_glue", pair_budget=100)
    assert rep.verdict == PASS
    assert 0 < rep.extra["coverage"][5] < 1.0
    assert 5 in rep.witnesses["worst"]


def test_sparse_glue_catches_underdeclared_bound():
    # denser slope: every 12-window needs a 1 somewhere, so 0^6 . 0^6 fails
    sp = make_sparse_sturmian(make_sturmian_factors(13, 21, 2), (2, 8))
    rep = verify_sparse_glue(sp, [6], f=lambda n: 0)
    assert rep.verdict == FAIL
    assert rep.witnesses[6] == {"v": "000000", "w": "000000", "m_max": 0}
    assert rep.margins == ((6, -1.0),)


@pytest.mark.parametrize("strategy", ["factor_glue", "exhaustive"])
@pytest.mark.parametrize("slope, n_seq, f", [
    ((8, 21), (4, 12), None),
    ((13, 21), (2, 8), None),
    ((13, 21), (2, 8), lambda n: 0),  # under-declared: a pair fails at n = 6
])
def test_sparse_glue_matches_oracle(strategy, slope, n_seq, f):
    p, q = slope
    sp = make_sparse_sturmian(make_sturmian_factors(p, q, 2), n_seq)
    ok = oracles.sparse_admissible(p, q, n_seq)
    factors = {k: oracles.mechanical_factors(p, q, k) for k in (1, 2)}
    ns = [2, 4, 6, 7]
    rep = verify_sparse_glue(sp, ns, strategy=strategy, f=f)
    margins, witnesses = oracles.sparse_glue(
        {n: oracles.sparse_language(p, q, n_seq, n) for n in ns},
        ok, lambda m, s: oracles.fillers(m, s, 2, factors),
        f or sp.declared_gap, strategy,
    )
    assert rep.margins == margins
    assert rep.witnesses == witnesses
    assert rep.verdict == (FAIL if any(m < 0 for _, m in margins) else PASS)
    assert (rep.verdict == FAIL) == (f is not None)
    assert rep.extra["coverage"] == {n: 1.0 for n in ns}


@pytest.mark.parametrize("slope, n_seq, f, pair_budget, verdict", [
    ((8, 21), (4, 12), None, 100, PASS),
    ((13, 21), (2, 8), None, 60, PASS),
    ((13, 21), (2, 8), lambda n: 0, 60, FAIL),  # a sampled pair fails at n = 6
])
@pytest.mark.parametrize("seed", [0, 9])
def test_sampled_sparse_glue_matches_oracle_replay(slope, n_seq, f, pair_budget, verdict, seed):
    p, q = slope
    sp = make_sparse_sturmian(make_sturmian_factors(p, q, 2), n_seq)
    factors = {k: oracles.mechanical_factors(p, q, k) for k in (1, 2)}
    ns = [5, 6, 7]
    words_by_n = {n: oracles.sparse_language(p, q, n_seq, n) for n in ns}
    root = sp.root_walker()
    sampled = {
        n: sample_pairs(words, len({walk(root, v).key() for v in words}), pair_budget, seed)
        for n, words in words_by_n.items()
    }
    rep = verify_sparse_glue(sp, ns, strategy="factor_glue", f=f,
                             pair_budget=pair_budget, seed=seed)
    margins, witnesses = oracles.sparse_glue(
        words_by_n, oracles.sparse_admissible(p, q, n_seq),
        lambda m, s: oracles.fillers(m, s, 2, factors), f or sp.declared_gap, "factor_glue",
        {n: [(i, j) for i in range(len(words_by_n[n])) for j in columns]
         for n, (columns, _) in sampled.items()},
    )
    assert rep.margins == margins
    assert rep.witnesses == witnesses
    assert rep.verdict == verdict
    assert rep.extra["coverage"] == {n: cov for n, (_, cov) in sampled.items()}
    assert all(cov < 1.0 for _, cov in sampled.values())


def test_sparse_glue_needs_a_bound():
    plain = make_sft(2, [(1, 1)])
    with pytest.raises(InputError):
        verify_sparse_glue(plain, [3])


# ---------------------------------------------------------------------------
# partition upper bounds
# ---------------------------------------------------------------------------


def golden_table(n_max=24):
    gm = make_golden_mean()
    return partition_table(gm, ZeroPotential(), n_max)


def test_partition_spec_bound_on_the_full_shift_is_tight():
    t = partition_table(make_full_shift(2), ZeroPotential(), 12)
    rep = verify_partition_upper_spec(t, LN2, lambda n: 0, zero_g, 0.0)
    assert rep.verdict == PASS
    for n, m in rep.margins:
        assert abs(m) <= 1e-12 * n


def test_partition_spec_bound_on_golden():
    rep = verify_partition_upper_spec(golden_table(), LOG_PHI, lambda n: 1, zero_g, 0.0)
    assert rep.verdict == PASS
    # n = 1: margin is 2 ln(phi) - ln 2
    assert rep.margins[0] == (1, pytest.approx(2 * LOG_PHI - LN2, abs=1e-12))


def test_partition_spec_bound_catches_understated_pressure():
    rep = verify_partition_upper_spec(golden_table(), 0.9 * LN2 - 0.1, lambda n: 0, zero_g, 0.0)
    assert rep.verdict == FAIL
    assert rep.witnesses["violations"]


def test_partition_spec_bound_is_linear_in_g():
    base = verify_partition_upper_spec(golden_table(), LOG_PHI, lambda n: 1, zero_g, 0.0)
    lifted = verify_partition_upper_spec(
        golden_table(), LOG_PHI, lambda n: 1, lambda n: 10.0, 0.0
    )
    for (n0, m0), (n1, m1) in zip(base.margins, lifted.margins):
        assert n0 == n1
        assert m1 == pytest.approx(m0 + 10.0, abs=1e-9)


def test_anchor_bound_clears_every_anchor():
    rep = verify_partition_upper_anchor(golden_table(), LOG_PHI, (8, 13, 18), 0.5)
    assert rep.verdict == PASS
    assert rep.extra["onset_index"] == 1
    # worst index is i = 1, so the anchor margin has a closed form
    for nk, m in rep.margins:
        assert m == pytest.approx(LOG_PHI - LN2 + 0.5 * math.log(nk), abs=1e-12)


def test_anchor_bound_onset_skips_a_failing_first_anchor():
    rep = verify_partition_upper_anchor(golden_table(), LOG_PHI, (8, 13, 18), 0.1)
    assert rep.verdict == PASS
    assert rep.extra["onset_index"] == 2  # eps ln 8 cannot cover ln 2 - ln phi
    assert rep.margins[0][1] < 0 < rep.margins[1][1]


def test_anchor_bound_fails_without_the_epsilon_term():
    rep = verify_partition_upper_anchor(golden_table(), LOG_PHI, (8, 13, 18), 0.0)
    assert rep.verdict == FAIL
    assert rep.extra["onset_index"] is None
    assert rep.witnesses["uncleared"] == [8, 13, 18]


def test_anchor_bound_validation():
    t = golden_table(6)
    with pytest.raises(InputError):
        verify_partition_upper_anchor(t, LOG_PHI, (), 0.5)
    with pytest.raises(InputError):
        verify_partition_upper_anchor(t, LOG_PHI, (4,), -0.5)


def test_trans_bound_passes_with_generous_constants():
    rep = verify_partition_upper_trans(
        golden_table(), LOG_PHI, 2.0, 3, lambda n: 1, zero_g, 0.0
    )
    assert rep.verdict == PASS
    assert 0.0 < rep.extra["least_exponent_multiplier"] < 1.0
    assert rep.extra["exponent"] == pytest.approx(LOG_PHI + 3.0, abs=1e-12)


def test_trans_bound_precondition_names_the_first_violation():
    rep = verify_partition_upper_trans(
        golden_table(), LOG_PHI, 0.55, 5, lambda n: 1, zero_g, 0.0
    )
    assert rep.verdict == PRECONDITION_FAIL
    assert rep.witnesses["n"] == 5
    assert rep.witnesses["cap"] == pytest.approx(0.55 * math.log(5), abs=1e-12)
    assert rep.margins == ()


def test_trans_bound_catches_understated_pressure():
    rep = verify_partition_upper_trans(
        golden_table(), 0.0, 0.1, 3, lambda n: 0, zero_g, 1.0
    )
    assert rep.verdict == FAIL
    assert rep.witnesses["violations"]


def test_trans_bound_validation():
    t = golden_table(6)
    with pytest.raises(InputError):
        verify_partition_upper_trans(t, LOG_PHI, 0.0, 3, lambda n: 1, zero_g, 0.0)
    with pytest.raises(InputError):
        verify_partition_upper_trans(t, LOG_PHI, 1.0, 2, lambda n: 1, zero_g, 0.0)
    with pytest.raises(InputError):
        verify_partition_upper_trans(
            t, LOG_PHI, 1.0, 4, lambda n: 1, zero_g, 0.0, n_range=[3]
        )


# ---------------------------------------------------------------------------
# measure lower bound
# ---------------------------------------------------------------------------


def full_shift_measure():
    model = build_transfer(make_full_shift(2), ZeroPotential(), 1)
    return markov_equilibrium(model)


def test_measure_lower_margin_is_ln2_on_the_full_shift():
    """With mu = 1/2: LHS = (n-1) ln 2, RHS = (n-2) ln 2, margin = ln 2."""
    mm = full_shift_measure()
    t = partition_table(make_full_shift(2), ZeroPotential(), 10)
    rep = verify_measure_lower(mm, (0,), range(2, 11), t, zero_g)
    assert rep.verdict == PASS
    assert rep.extra["measure"] == pytest.approx(0.5, abs=1e-12)
    for _, m in rep.margins:
        assert m == pytest.approx(LN2, abs=1e-9)


def test_measure_lower_whole_space_cylinder():
    mm = full_shift_measure()
    t = partition_table(make_full_shift(2), ZeroPotential(), 6)
    rep = verify_measure_lower(mm, (), range(1, 7), t, zero_g)
    assert rep.verdict == PASS
    assert rep.extra["measure"] == 1.0
    for _, m in rep.margins:
        assert m == pytest.approx(LN2, abs=1e-9)


def test_measure_lower_is_linear_in_g():
    mm = full_shift_measure()
    t = partition_table(make_full_shift(2), ZeroPotential(), 8)
    base = verify_measure_lower(mm, (0,), [4, 8], t, zero_g)
    lifted = verify_measure_lower(mm, (0,), [4, 8], t, lambda n: 10.0)
    for (_, m0), (_, m1) in zip(base.margins, lifted.margins):
        assert m1 == pytest.approx(m0 + 10.0, abs=1e-9)


def test_measure_lower_fails_when_g_is_too_negative():
    mm = full_shift_measure()
    t = partition_table(make_full_shift(2), ZeroPotential(), 8)
    rep = verify_measure_lower(mm, (0,), [4, 8], t, lambda n: -100.0)
    assert rep.verdict == FAIL
    assert rep.witnesses == {"violations": [4, 8]}
    for _, m in rep.margins:
        assert m == pytest.approx(LN2 - 100.0, abs=1e-9)


def test_measure_lower_on_the_golden_equilibrium():
    model = build_transfer(make_golden_mean(), ZeroPotential(), 2)
    mm = markov_equilibrium(model)
    t = partition_table(make_golden_mean(), ZeroPotential(), 10)
    rep = verify_measure_lower(mm, (0,), range(2, 11), t, zero_g)
    assert rep.verdict == PASS
    assert rep.extra["measure"] == pytest.approx((5 + math.sqrt(5)) / 10, abs=1e-10)


def test_measure_lower_rejects_null_cylinders():
    model = build_transfer(make_golden_mean(), ZeroPotential(), 2)
    mm = markov_equilibrium(model)
    t = partition_table(make_golden_mean(), ZeroPotential(), 6)
    with pytest.raises(InputError):
        verify_measure_lower(mm, (1, 1), [4], t, zero_g)
