import math
from decimal import Decimal, localcontext
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cases
import oracles
from cases import FAMILIES, POTENTIALS, counted, h_lin
from shiftpress.errors import (
    BudgetExceededError,
    InconsistentBracketError,
    InputError,
)
from shiftpress.config import build_potential, build_subshift, load_config
from shiftpress.potentials import (
    LocallyConstantPotential,
    VarProfile,
    ZeroPotential,
    make_reciprocal_run,
    make_run_levels,
    partial_sum,
    variation_profile,
)
from shiftpress.pressure import (
    anchor_sequence,
    partition_function,
    partition_table,
    pressure_bracket,
)
from shiftpress.subshifts import (
    iter_language,
    make_bounded_density,
    make_full_shift,
    make_golden_mean,
    make_sparse_sturmian,
    make_sturmian_factors,
    product_subshift,
)

LOG_PHI = math.log((1 + math.sqrt(5)) / 2)
LN2 = math.log(2.0)
CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def encloses(row, ref):
    return Decimal(row.lnz_lo) <= ref <= Decimal(row.lnz_hi)


# ---------------------------------------------------------------------------
# partition rows
# ---------------------------------------------------------------------------


def encloses_count(row):
    """lnz_lo < ln(count) < lnz_hi, strictly, in 60-digit decimal."""
    ref = oracles.ln_count(row.count)
    return Decimal(row.lnz_lo) < ref < Decimal(row.lnz_hi)


def test_full_shift_zero_potential_is_n_log2():
    fs = make_full_shift(2)
    for n in range(1, 13):
        row = partition_function(fs, ZeroPotential(), n)
        assert row.count == 2**n
        assert encloses_count(row), n


def test_golden_counts_follow_the_recurrence():
    gm = make_golden_mean()
    for n in range(1, 15):
        row = partition_function(gm, ZeroPotential(), n)
        assert row.count == oracles.fib(n + 2)
        assert encloses_count(row), n
    assert partition_function(gm, ZeroPotential(), 24).count == 121393


def test_prefix_restriction_splits_the_sum():
    cases = [
        (make_golden_mean(), make_reciprocal_run(h_lin), 6),
        (make_full_shift(2), LocallyConstantPotential(
            1, {(0, 1, 0): 0.5, (1, 1, 1): -0.25}, 2, default=0.125), 9),
    ]
    for spec, pot, n in cases:
        whole = partition_function(spec, pot, n)
        for k in (1, 2):
            parts = [partition_function(spec, pot, n, prefix=p)
                     for p in oracles.all_words(2, k)]
            assert sum(p.count for p in parts) == whole.count
            merged_hi = math.log(sum(math.exp(p.lnz_hi) for p in parts))
            merged_lo = math.log(sum(math.exp(p.lnz_lo) for p in parts))
            assert merged_hi == pytest.approx(whole.lnz_hi, abs=1e-9)
            assert merged_lo == pytest.approx(whole.lnz_lo, abs=1e-9)


def test_prefix_edge_cases():
    pot = make_reciprocal_run(h_lin)
    assert partition_function(make_full_shift(2), pot, 2, prefix=(0, 1, 1)).count == 0
    gm = make_golden_mean()
    row = partition_function(gm, pot, 5, prefix=(1, 1))
    assert (row.count, row.lnz_lo, row.lnz_hi) == (0, -math.inf, -math.inf)
    with pytest.raises(InputError):
        partition_function(gm, pot, 5, prefix=(2,))
    # the prefix alone weighs e^1200, past the float range
    big = LocallyConstantPotential(0, {(0,): 60.0, (1,): -50.0}, 2, default=None)
    row = partition_function(make_full_shift(2), big, 30, prefix=(0,) * 20)
    assert encloses(row, 1200 + oracles.radius0_binomial(60.0, -50.0, 10))


def test_partition_encloses_concrete_point_oracle():
    """Padded concrete configurations give an exact sum inside the enclosure."""
    gm = make_golden_mean()
    pot = make_reciprocal_run(h_lin)

    def point_phi(w, i):
        x, off = oracles.pad_word(w, len(w) + 4)
        return oracles.phi_run(x, off + i, h_lin)

    for n in (3, 5, 7):
        words = list(iter_language(gm, n))
        row = partition_function(gm, pot, n)
        exact = oracles.brute_partition(words, point_phi)
        assert row.lnz_lo - 1e-9 <= exact <= row.lnz_hi + 1e-9


def test_partition_rejects_bad_length_and_budget():
    gm = make_golden_mean()
    with pytest.raises(InputError):
        partition_function(gm, ZeroPotential(), 0)
    with pytest.raises(BudgetExceededError):
        partition_function(gm, make_reciprocal_run(h_lin), 12, budget=2)


def test_budget_counts_sweep_nodes():
    gm = make_golden_mean()
    pot = make_reciprocal_run(h_lin)
    table = partition_table(gm, pot, 12)
    # one child call per class and symbol: far fewer than the |L_n| tree
    assert 0 < table.nodes < sum(oracles.fib(n + 2) for n in range(1, 12))
    assert table.max_states >= 2
    partition_table(gm, pot, 12, budget=table.nodes)
    with pytest.raises(BudgetExceededError) as ei:
        partition_table(gm, pot, 12, budget=table.nodes - 1)
    assert ei.value.nodes == table.nodes and ei.value.budget == table.nodes - 1
    # zero rows report the count's work: the levels (), 0 and 1, then 00, 01, 10
    zero = partition_table(gm, ZeroPotential(), 12)
    assert zero.nodes == cases.count_calls("golden", 12) and zero.max_states == 3


@pytest.mark.parametrize("fam", FAMILIES, ids=[f.label for f in FAMILIES])
def test_zero_rows_come_from_one_walk_or_a_closed_form(fam):
    spec, calls = counted(fam.spec())
    n_max = 8
    counts = [len(fam.language(n)) for n in range(1, n_max + 1)]
    table = partition_table(spec, ZeroPotential(), n_max)
    assert [row.count for row in table.rows] == counts
    assert all(encloses_count(row) for row in table.rows)
    # one sweep over walker keys, charged and reported per state and
    # symbol: no more than a walk of the prefix tree would make
    assert calls[0] == table.nodes <= spec.alphabet_size * (1 + sum(counts[:-1]))
    assert cases.count_calls(fam.label, n_max) in (None, calls[0])
    assert table.max_states >= 1


# ---------------------------------------------------------------------------
# zero-slack enclosures against 60-digit decimal references
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("spec_of, count_of", [
    (lambda: make_full_shift(2), lambda n: 2**n),
    (lambda: make_full_shift(3), lambda n: 3**n),
    (make_golden_mean, lambda n: oracles.fib(n + 2)),
    (lambda: product_subshift(make_golden_mean(), make_full_shift(2)),
     lambda n: oracles.fib(n + 2) * 2**n),
], ids=["full2", "full3", "golden", "golden_x_full"])
def test_zero_rows_enclose_ln_count(spec_of, count_of):
    table = partition_table(spec_of(), ZeroPotential(), 200)
    for row in table.rows:
        assert row.count == count_of(row.n), row.n
        assert encloses_count(row), row.n
        assert row.lnz_hi - row.lnz_lo < 1e-14 * row.lnz_hi, row.n


def test_prefixed_zero_row_encloses_ln_count():
    # golden-mean words starting 10 are 10 then any golden word of length n - 2
    gm = make_golden_mean()
    for n in (2, 3, 50, 200):
        row = partition_function(gm, ZeroPotential(), n, prefix=(1, 0))
        assert row.count == oracles.fib(n), n
        assert encloses_count(row), n


@pytest.mark.parametrize("v0, v1, n_max", [
    (0.1, 0.7, 20), (-0.3, 0.45, 20), (2.5, -1.7, 20),
    (-4.0, -6.5, 300),  # weights fall below 2^-1000 without renormalizing
    # one site's e^v lies outside the float range
    (800.0, -790.0, 200), (-800.0, -790.5, 200),
])
def test_radius0_rows_enclose_the_binomial_sum(v0, v1, n_max):
    pot = LocallyConstantPotential(0, {(0,): v0, (1,): v1}, 2, default=None)
    table = partition_table(make_full_shift(2), pot, n_max)
    for n in [*range(1, 21), n_max]:
        row = table.row(n)
        ref = oracles.radius0_binomial(v0, v1, n)
        assert encloses(row, ref), n
        assert row.lnz_hi - row.lnz_lo < 1e-14 * (n + abs(row.lnz_hi))


def test_run_emissions_past_the_exp_range_stay_tight():
    """A whole run is emitted at once: the constant run of length n sums to
    4n here, far past where e^x overflows a float."""
    table = partition_table(make_full_shift(2), make_run_levels([4.0], 4.0), 200)
    for n in (1, 150, 178, 200):
        row = table.row(n)
        with localcontext() as ctx:
            ctx.prec = oracles.DIGITS
            ref = n * (4 + Decimal(2).ln())
        assert encloses(row, ref), n
        assert row.lnz_hi - row.lnz_lo < 1e-11, n


def _golden_pair(a, b):
    return not (a and b)


@pytest.mark.parametrize("n_max, pot_of", [
    (24, lambda: LocallyConstantPotential(
        1, {(0, 0, 0): 0.3, (0, 0, 1): LN2, (1, 0, 0): -0.2, (0, 1, 0): 0.9,
            (1, 0, 1): 0.45}, 2, default=-0.6)),
    (200, lambda: build_potential(
        load_config(CONFIG_DIR / "golden_mean_weighted.yaml").potential,
        make_golden_mean())),
])
def test_radius1_golden_rows_enclose_the_transfer_product(n_max, pot_of):
    """Each endpoint of lnZ encloses its decimal 3-state transfer product,
    with zero slack, to n = 200 for the shipped weighted golden mean."""
    pot = pot_of()

    def phi(block):
        return pot.values.get(block, pot.default)

    table = partition_table(make_golden_mean(), pot, n_max)
    for n in [*range(2, 25), n_max]:
        row = table.row(n)
        assert row.count == oracles.fib(n + 2)
        ref_lo = oracles.radius1_transfer(phi, 2, _golden_pair, n, min)
        ref_hi = oracles.radius1_transfer(phi, 2, _golden_pair, n, max)
        assert Decimal(row.lnz_lo) <= ref_lo and ref_hi <= Decimal(row.lnz_hi), n
        assert ref_lo - Decimal(row.lnz_lo) < Decimal("1e-11"), n
        assert Decimal(row.lnz_hi) - ref_hi < Decimal("1e-11"), n


@pytest.mark.parametrize("kind", ["reciprocal_run", "run_levels"])
def test_run_rows_enclose_padded_point_sums_with_zero_slack(kind):
    """Criterion 3's padded-point brute force, in decimal, with no slack."""
    levels, limit = [0.5, -0.25, 0.125], 0.3
    if kind == "reciprocal_run":
        pot = make_reciprocal_run(h_lin)

        def point_phi(w, i):
            x, off = oracles.pad_word(w, len(w) + 4)
            return oracles.phi_run(x, off + i, h_lin)
    else:
        pot = make_run_levels(levels, limit)

        def point_phi(w, i):
            x, off = oracles.pad_word(w, len(w) + 4)
            return oracles.phi_levels(x, off + i, levels, limit)

    for fam in FAMILIES:
        table = partition_table(fam.spec(), pot, fam.n_top)
        for n in range(1, fam.n_top + 1):
            words = fam.language(n)
            row = table.row(n)
            assert row.count == len(words), (fam.label, n)
            assert encloses(row, oracles.decimal_partition(words, point_phi)), (fam.label, n)


# ---------------------------------------------------------------------------
# cross-check against the per-word sum
# ---------------------------------------------------------------------------


def enumerated_row(spec, pot, n, prefix=()):
    """(count, lnz_lo, lnz_hi) from one partial_sum per word and a
    log-sum-exp over the words: the per-word sum the sweep replaced, kept
    as a reference. It rounds to nearest, so it agrees to ~1e-12, not
    exactly."""
    los, his = [], []
    for w in iter_language(spec, n, prefix=prefix):
        s = partial_sum(pot, w)
        los.append(s.lo)
        his.append(s.hi)
    if not los:
        return 0, -math.inf, -math.inf

    def lse(xs):
        m = max(xs)
        return m + math.log(math.fsum(math.exp(x - m) for x in xs))

    return len(los), lse(los), lse(his)


@pytest.mark.parametrize("kind", sorted(POTENTIALS))
def test_sweep_matches_the_per_word_sum(kind):
    for fam in FAMILIES:
        spec = fam.spec()
        pot = POTENTIALS[kind](spec.alphabet_size)
        table = partition_table(spec, pot, fam.n_top)
        for n in range(1, fam.n_top + 1):
            count, lo, hi = enumerated_row(spec, pot, n)
            row = table.row(n)
            assert row.count == count, (fam.label, n)
            assert row.lnz_lo == pytest.approx(lo, abs=1e-10), (fam.label, n)
            assert row.lnz_hi == pytest.approx(hi, abs=1e-10), (fam.label, n)
        prefix = (0, 1) if fam.label != "product" else (1, 2)
        count, lo, hi = enumerated_row(spec, pot, 7, prefix)
        row = partition_function(spec, pot, 7, prefix=prefix)
        assert row.count == count, fam.label
        assert row.lnz_lo == pytest.approx(lo, abs=1e-10), fam.label
        assert row.lnz_hi == pytest.approx(hi, abs=1e-10), fam.label


@settings(deadline=None, max_examples=40)
@given(
    st.integers(min_value=1, max_value=7),
    st.integers(min_value=1, max_value=7),
)
def test_log_partition_is_submultiplicative(m, n):
    gm = make_golden_mean()
    pot = make_reciprocal_run(h_lin)
    t = partition_table(gm, pot, 14)
    assert t.row(m + n).lnz_hi <= t.row(m).lnz_hi + t.row(n).lnz_hi + 1e-9


# ---------------------------------------------------------------------------
# pressure brackets
# ---------------------------------------------------------------------------


def test_golden_bracket_matches_closed_form_oracle():
    gm = make_golden_mean()
    t = partition_table(gm, ZeroPotential(), 24)
    br = pressure_bracket(gm, ZeroPotential(), t, variation_profile(ZeroPotential(), gm, 12))
    # zero potential, declared gap 1: both bounds have closed forms
    want_hi = min(math.log(oracles.fib(m + 2)) / m for m in range(1, 25))
    want_lo = max(math.log(oracles.fib(n + 2)) / (n + 1) for n in range(1, 25))
    assert br.best_hi == pytest.approx(want_hi, abs=1e-12)
    assert br.best_lo == pytest.approx(want_lo, abs=1e-12)
    assert br.best_lo <= LOG_PHI <= br.best_hi
    assert br.width < 0.02
    assert not br.upper_bound_only
    his = [r.hi for r in br.rows]
    assert his == sorted(his, reverse=True)  # running minimum


with localcontext() as _ctx:
    _ctx.prec = oracles.DIGITS
    SHIPPED_PRESSURE = {  # ln 2, ln phi, ln(1 + sqrt 3)
        "full_shift": Decimal(2).ln(),
        "golden_mean": ((1 + Decimal(5).sqrt()) / 2).ln(),
        # for exact ln 2 weights; the shipped float weight sits 2e-17 lower
        "golden_mean_weighted": (1 + Decimal(3).sqrt()).ln(),
    }


@pytest.mark.parametrize("name", sorted(SHIPPED_PRESSURE))
def test_shipped_brackets_enclose_the_pressure_with_zero_slack(name):
    """Every row's upper bound and the best lower bound hold against a
    60-digit reference; the full shift's bracket is at most 2 ulp wide."""
    cfg = load_config(CONFIG_DIR / f"{name}.yaml")
    spec = build_subshift(cfg.subshift)
    pot = build_potential(cfg.potential, spec)
    var_horizon = cfg.horizons.var_horizon
    if var_horizon is None:
        var_horizon = (cfg.horizons.n_max + 1) // 2
    table = partition_table(spec, pot, cfg.horizons.n_max)
    br = pressure_bracket(spec, pot, table, variation_profile(pot, spec, var_horizon))
    ref = SHIPPED_PRESSURE[name]
    assert not br.upper_bound_only
    assert all(Decimal(r.hi) >= ref for r in br.rows)
    assert Decimal(br.best_lo) <= ref <= Decimal(br.best_hi)
    if name == "full_shift":
        assert br.best_hi - br.best_lo <= 2 * math.ulp(math.log(2))


def test_bounded_density_bracket_contains_the_golden_pressure():
    bd = make_bounded_density(1, [math.ceil(n / 2) for n in range(1, 33)])
    t = partition_table(bd, ZeroPotential(), 16)
    br = pressure_bracket(bd, ZeroPotential(), t, variation_profile(ZeroPotential(), bd, 8))
    assert not br.upper_bound_only
    assert br.best_lo <= LOG_PHI <= br.best_hi


def test_transitivity_mode_gives_upper_bound_only():
    fs = make_sturmian_factors(8, 21, 2)
    sp = make_sparse_sturmian(fs, (4, 12))
    t = partition_table(sp, ZeroPotential(), 8)
    br = pressure_bracket(sp, ZeroPotential(), t, variation_profile(ZeroPotential(), sp, 4))
    assert br.upper_bound_only
    assert br.best_lo == -math.inf
    assert all(r.lo == -math.inf for r in br.rows)
    # every length up to 8 holds all 2^n words: ln 2 from above, within ulps
    assert Decimal(br.best_hi) > oracles.ln_count(2)
    assert br.best_hi - LN2 <= 8 * math.ulp(LN2)


def test_unsound_declared_gap_is_caught():
    from shiftpress.subshifts import make_sft

    liar = make_sft(2, [(1, 1)], declared_gap=0)
    t = partition_table(liar, ZeroPotential(), 12)
    with pytest.raises(InconsistentBracketError) as ei:
        pressure_bracket(liar, ZeroPotential(), t, variation_profile(ZeroPotential(), liar, 6))
    assert ei.value.best_lo > ei.value.best_hi


def test_explicit_g_table_too_short_is_an_input_error():
    gm = make_golden_mean()
    t = partition_table(gm, ZeroPotential(), 6)
    short = VarProfile(var=(0.0,), g=(0.0, 0.0))  # g(0), g(1) only
    with pytest.raises(InputError):
        pressure_bracket(gm, ZeroPotential(), t, short)


# ---------------------------------------------------------------------------
# anchors
# ---------------------------------------------------------------------------


def test_anchor_sequence_frozen_values():
    eps = (0.5, 0.4, 0.35)
    seq = anchor_sequence(lambda n: 1.0, lambda n: 0.0, 24, eps)
    assert seq.indices == (8, 13, 18)
    assert seq.complete
    # independent form: with f + g = 1 the threshold is ceil(e^(1/eps))
    prev = 0
    for e, n in zip(eps, seq.indices):
        want = max(math.ceil(math.exp(1 / e)), prev + 1)
        assert n == want
        prev = n
    for e, s in zip(eps, seq.scores):
        assert s <= e


def test_anchor_sequence_incomplete_at_short_horizon():
    seq = anchor_sequence(lambda n: 1.0, lambda n: 0.0, 10, (0.5, 0.4))
    assert seq.indices == (8,)
    assert not seq.complete


def test_anchor_sequence_validation():
    with pytest.raises(InputError):
        anchor_sequence(lambda n: 1.0, lambda n: 0.0, 24, ())
    with pytest.raises(InputError):
        anchor_sequence(lambda n: 1.0, lambda n: 0.0, 24, (0.4, 0.5))
    with pytest.raises(InputError):
        anchor_sequence(lambda n: 1.0, lambda n: 0.0, 24, (0.5, -0.1))
    with pytest.raises(InputError):
        anchor_sequence(lambda n: 1.0, lambda n: 0.0, 2, (0.5,))


def test_table_row_bounds_checked():
    gm = make_golden_mean()
    t = partition_table(gm, ZeroPotential(), 6)
    assert t.horizon == 6
    with pytest.raises(InputError):
        t.row(0)
    with pytest.raises(InputError):
        t.row(7)
