import math

import pytest

import oracles
from shiftpress.errors import IdentityCheckError, InputError
from shiftpress.potentials import ZeroPotential
from shiftpress.pressure import partition_table
from shiftpress.subshifts import (
    make_bounded_density,
    make_full_shift,
    make_golden_mean,
    make_sft,
    make_sparse_sturmian,
    make_sturmian_factors,
)
from shiftpress.transfer import build_transfer, markov_equilibrium
from shiftpress.verify import (
    FAIL,
    PASS,
    PRECONDITION_FAIL,
    BoundReport,
    density_gap_diagnostic,
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
    assert rep.extra["e_monotone"] is False


def test_density_glue_underdeclared_gap_yields_lex_least_witness():
    bd = half_density()
    rep = verify_density_glue(bd, [2], f=lambda n: 0)
    assert rep.verdict == FAIL
    assert rep.min_margin() < 0
    assert rep.witnesses[2] == {"v": "01", "w": "10", "m": 0}


def test_density_glue_raises_when_the_walker_contradicts_the_profiles():
    # profiles read from a looser height table than the walker enforces: the
    # quotient passes, and replaying its worst pair must raise, not assert
    strict, loose = half_density(), make_bounded_density(1, list(range(1, 65)))
    strict.params["density"] = loose.params["density"]
    with pytest.raises(IdentityCheckError):
        verify_density_glue(strict, [2], f=lambda n: 0)


def test_density_glue_input_guards():
    with pytest.raises(InputError):
        verify_density_glue(make_golden_mean(), [2])
    bd = half_density(n_max=10)
    with pytest.raises(InputError):
        verify_density_glue(bd, [4])  # needs heights past the table end


def test_density_diagnostic_on_the_half_table():
    diag = density_gap_diagnostic(half_density())
    assert diag["class"] == "bounded"
    assert diag["sublog_hypothesis"] is True
    with pytest.raises(InputError):
        density_gap_diagnostic(make_full_shift(2))


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
