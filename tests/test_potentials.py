import math
import re
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from cases import FAMILIES, POTENTIALS, h_lin, h_sq
from shiftpress.errors import ConstructionError, InputError
from shiftpress.potentials import (
    Interval,
    LocallyConstantPotential,
    ZeroPotential,
    interval_sum,
    make_reciprocal_run,
    make_run_levels,
    partial_sum,
    variation_profile,
    variation_sum_bounds,
)
from shiftpress.subshifts import (
    iter_language,
    make_full_shift,
    make_golden_mean,
    make_sft,
)


# ---------------------------------------------------------------------------
# interval arithmetic
# ---------------------------------------------------------------------------


def test_interval_add_exact_stays_tight():
    a = Interval(0.5, 0.5)
    b = Interval(0.25, 0.75)
    s = interval_sum([a, b])
    assert (s.lo, s.hi) == (0.75, 1.25)


@given(
    st.lists(
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=1, max_size=30
    )
)
def test_interval_sum_encloses_exact_rational_sum(xs):
    total = interval_sum([Interval(x, x) for x in xs])
    exact = sum(Fraction(x) for x in xs)
    assert Fraction(total.lo) <= exact <= Fraction(total.hi)


def _is_tightest_enclosure(iv, exact):
    # each side is on its outer side of exact, and the next float inward is not
    return (Fraction(iv.lo) <= exact < Fraction(math.nextafter(iv.lo, math.inf))
            and Fraction(math.nextafter(iv.hi, -math.inf)) < exact <= Fraction(iv.hi))


def _sum_over_sites(xs):
    # site i of the word 0 1 ... reads xs[i] from a radius-0 table
    pot = LocallyConstantPotential(0, {(i,): x for i, x in enumerate(xs)}, len(xs))
    return partial_sum(pot, tuple(range(len(xs))))


def test_partial_sum_of_exactly_representable_sum_has_zero_width():
    # 1e16 + 1 + 1 is a float, though 1e16 + 1 is not
    iv = _sum_over_sites([1e16, 1.0, 1.0])
    assert (iv.lo, iv.hi) == (1.0000000000000002e16, 1.0000000000000002e16)


@given(
    st.lists(
        st.one_of(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
                  st.floats(min_value=-1e300, max_value=1e300, allow_nan=False)),
        min_size=1, max_size=30,
    )
)
def test_partial_sum_is_the_tightest_float_enclosure(xs):
    assert _is_tightest_enclosure(_sum_over_sites(xs), sum(Fraction(x) for x in xs))


# ---------------------------------------------------------------------------
# reciprocal run weights
# ---------------------------------------------------------------------------


def test_run_eval_immediate_break_is_exact():
    pot = make_reciprocal_run(h_lin)
    iv = pot.eval((0, 1), 0)
    assert (iv.lo, iv.hi) == (1.0, 1.0)
    assert (partial_sum(pot, (0, 1)).lo, partial_sum(pot, (0, 1)).hi) == (2.0, 2.0)


def test_run_eval_center_of_00100():
    pot = make_reciprocal_run(h_lin)
    iv = pot.eval((0, 0, 1, 0, 0), 2)
    assert (iv.lo, iv.hi) == (1.0, 1.0)


def test_run_eval_no_visible_break_hulls_the_tail():
    pot = make_reciprocal_run(h_lin)
    iv = pot.eval((0, 0, 0, 0, 0), 2)
    assert (iv.lo, iv.hi) == (0.0, 1.0 / 3.0)


def test_run_eval_asymmetric_visibility():
    pot = make_reciprocal_run(h_lin)
    # break at distance 2, one-sided visibility 1: still determined
    iv = pot.eval((0, 0, 0, 1), 1)
    assert (iv.lo, iv.hi) == (0.5, 0.5)
    # break at distance 3, visibility 1: levels 1..2 possible
    iv = pot.eval((0, 0, 0, 0, 1), 1)
    assert (iv.lo, iv.hi) == (1.0 / 3.0, 0.5)


def test_run_divergence_flags():
    assert make_reciprocal_run(h_lin).sum_diverges
    assert not make_reciprocal_run(h_sq).sum_diverges


def test_run_rejects_bad_height():
    with pytest.raises(ConstructionError):
        make_reciprocal_run(lambda k: 1.0 if k == 0 else 0.5)  # decreasing
    with pytest.raises(ConstructionError):
        make_reciprocal_run(lambda k: float(k))  # h(0) = 0


@pytest.mark.parametrize("h", [h_lin, h_sq])
def test_variation_equals_reciprocal_height_exactly(h):
    pot = make_reciprocal_run(h)
    prof = variation_profile(pot, make_full_shift(2), 10)
    for n in range(11):
        assert prof.var[n] == 1.0 / h(n)


def test_variation_sum_table():
    pot = make_reciprocal_run(h_lin)
    prof = variation_profile(pot, make_full_shift(2), 4)
    assert prof.g_at(4) == pytest.approx(2 * (1 + 1 / 2 + 1 / 3), abs=1e-15)
    assert prof.g_at(0) == 2.0
    assert variation_sum_bounds([1.0, 0.5])[3] == 3.0


def test_gap_table_bounds_the_exact_variation_sum_with_zero_slack():
    # 2 * (1 + 1/2 + 1/3 + ...) rounded to nearest fell below the exact sum
    prof = variation_profile(make_reciprocal_run(h_lin), make_full_shift(2), 12)
    for n in range(len(prof.g)):
        exact = 2 * sum(Fraction(v) for v in prof.var[: n // 2 + 1])
        assert Fraction(prof.g_at(n)) >= exact, n
        assert Fraction(math.nextafter(prof.g_at(n), -math.inf)) < exact, n


# ---------------------------------------------------------------------------
# locally constant tables
# ---------------------------------------------------------------------------


def test_locally_constant_interior_lookup():
    pot = LocallyConstantPotential(1, {(0, 1, 0): 1.0}, 2)
    iv = pot.eval((0, 1, 0), 1)
    assert (iv.lo, iv.hi) == (1.0, 1.0)
    iv = pot.eval((1, 1, 1), 1)
    assert (iv.lo, iv.hi) == (0.0, 0.0)


def test_locally_constant_edge_hull_matches_completions():
    pot = LocallyConstantPotential(1, {(0, 1, 0): 1.0}, 2)
    # site 0 of '10': completions (s,1,0) give 1.0 and 0.0
    iv = pot.eval((1, 0), 0)
    assert (iv.lo, iv.hi) == (0.0, 1.0)
    iv = pot.eval((0, 1), 0)
    assert (iv.lo, iv.hi) == (0.0, 0.0)


def test_locally_constant_total_table_required_without_default():
    with pytest.raises(ConstructionError):
        LocallyConstantPotential(0, {(0,): 1.0}, 2, default=None)
    pot = LocallyConstantPotential(0, {(0,): 1.0, (1,): 2.0}, 2, default=None)
    assert pot.bounds.lo == 1.0 and pot.bounds.hi == 2.0


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("build, name", [
    (lambda v: make_run_levels([1.0], v), "limit a_inf"),
    (lambda v: make_run_levels([1.0, v], 0.0), "level a_1"),
    (lambda v: LocallyConstantPotential(0, {(0,): 1.0}, 2, default=v), "default"),
    (lambda v: LocallyConstantPotential(0, {(0,): 1.0, (1,): v}, 2), "table key (1,)"),
])
def test_non_finite_potential_parameters_fail_at_construction(build, name, bad):
    # built, a NaN limit or default would read as bounds [1.0, 1.0], and a
    # NaN level would fail only at an eval that reaches it, naming nothing
    with pytest.raises(ConstructionError, match=re.escape(name)):
        build(bad)


def test_zero_potential_flag():
    z = ZeroPotential()  # as a scanner: one state, nothing emitted
    assert z.step(z.start, 1) == ((), ()) and z.close(z.start) == ()
    iv = partial_sum(z, (0, 1, 0))
    assert (iv.lo, iv.hi) == (0.0, 0.0)


@settings(deadline=None, max_examples=80)
@given(st.integers(min_value=1, max_value=8), st.data())
def test_partial_sum_encloses_concrete_point_values(n, data):
    """A concrete admissible extension's exact sum lies in the enclosure."""
    fs = make_full_shift(2)
    pot = make_reciprocal_run(h_lin)
    w = tuple(data.draw(st.integers(min_value=0, max_value=1)) for _ in range(n))
    iv = partial_sum(pot, w)
    x, off = oracles.pad_word(w, n + 4)
    exact = math.fsum(oracles.phi_run(x, off + i, h_lin) for i in range(n))
    assert iv.lo - 1e-12 <= exact <= iv.hi + 1e-12


# ---------------------------------------------------------------------------
# run level tables and growth classes
# ---------------------------------------------------------------------------


def test_run_levels_eval():
    pot = make_run_levels([2.0, 1.0], 0.5)
    iv = pot.eval((0, 0, 1), 1)
    assert (iv.lo, iv.hi) == (2.0, 2.0)
    iv = pot.eval((0, 0, 0), 1)  # level >= 1: table tail plus the limit
    assert (iv.lo, iv.hi) == (0.5, 1.0)


SHORT_SITES = [(w, i) for n in range(1, 5) for w in oracles.all_words(2, n) for i in range(n)]
LEVEL_POOL = [-1.0, -0.0, 0.0, 0.5, 2.0]  # small, so tables repeat values


def assert_run_hulls_match_completions(pot, phi, limit):
    # 4 free symbols a side reach every radius a level table of <= 4 entries
    # or a word of <= 4 symbols tells apart; bounds is the hull through (0,)
    for w, i in SHORT_SITES:
        iv = pot.eval(w, i)
        assert (iv.lo, iv.hi) == oracles.completion_hull(w, i, 4, phi, limit), (w, i)
    assert (pot.bounds.lo, pot.bounds.hi) == oracles.completion_hull((0,), 0, 4, phi, limit)


@settings(deadline=None, max_examples=40)
@given(st.lists(st.sampled_from(LEVEL_POOL), min_size=1, max_size=4),
       st.sampled_from(LEVEL_POOL))
def test_run_levels_eval_is_the_hull_over_completions(levels, limit):
    pot = make_run_levels(levels, limit)
    assert_run_hulls_match_completions(
        pot, lambda x, j: oracles.phi_levels(x, j, levels, limit), limit)


@pytest.mark.parametrize("h", [h_lin, h_sq, lambda k: 1.0 + k // 2], ids=["lin", "sq", "steps"])
def test_reciprocal_run_eval_is_the_hull_over_completions(h):
    assert_run_hulls_match_completions(
        make_reciprocal_run(h), lambda x, j: oracles.phi_run(x, j, h), 0.0)


@pytest.mark.parametrize("w, center", [
    ((0,) * 7, 3),  # no visible break: radius >= 3
    ((0,) * 6 + (1,), 2),  # radius 2 or 3
    ((0,) * 8 + (1,), 4),  # radius exactly 3
])
def test_reciprocal_run_past_k_cap_raises(w, center):
    with pytest.raises(InputError, match="run radius 3 beyond tabulated horizon 2"):
        make_reciprocal_run(h_lin, k_cap=2).eval(w, center)


def test_variation_on_golden_mean_skips_forbidden_blocks():
    pot = make_reciprocal_run(h_lin)
    gm = make_golden_mean()
    prof = variation_profile(pot, gm, 6)
    for n in range(7):
        assert prof.var[n] == 1.0 / h_lin(n)  # all-zero blocks still admissible


# ---------------------------------------------------------------------------
# scanners and closed-form variation profiles
# ---------------------------------------------------------------------------

LANGUAGES = {
    (fam.label, n): fam.language(n) for fam in FAMILIES for n in range(1, 8)
}
ALPHABET = {fam.label: fam.spec().alphabet_size for fam in FAMILIES}


def scanned(pot, w):
    state, out = pot.start, []
    for s in w:
        state, ivs = pot.step(state, s)
        out.extend(ivs)
    return out + list(pot.close(state))


@settings(deadline=None, max_examples=300)
@given(
    st.sampled_from(sorted(ALPHABET)),
    st.sampled_from(sorted(POTENTIALS)),
    st.integers(min_value=1, max_value=7),
    st.data(),
)
def test_scanner_emits_exactly_the_site_values(family, kind, n, data):
    words = LANGUAGES[(family, n)]
    w = words[data.draw(st.integers(min_value=0, max_value=len(words) - 1))]
    pot = POTENTIALS[kind](ALPHABET[family])
    assert Counter(scanned(pot, w)) == Counter(pot.eval(w, i) for i in range(len(w)))


def test_run_scanner_reads_each_run_length_once():
    pot = make_reciprocal_run(h_lin)
    a = pot.step((0, 3, False), 1)
    b = pot.step((1, 3, False), 0)
    assert a[0] == (1, 1, False) and b[0] == (0, 1, False)
    assert a[1] is b[1] and len(a[1]) == 3
    assert scanned(pot, (0, 0, 0, 1, 1)) == scanned(pot, (1, 1, 1, 0, 0))


def enumerated_var(pot, spec, n_max):
    """The worst center width over every admissible (2n+1)-block."""
    return [
        max(pot.eval(w, n).width for w in iter_language(spec, 2 * n + 1))
        for n in range(n_max + 1)
    ]


@pytest.mark.parametrize("spec_of", [
    *(fam.spec for fam in FAMILIES),
    lambda: make_sft(2, [(0, 0), (1, 1)]),  # alternating: no constant 3-block
])
def test_closed_form_variation_matches_block_enumeration(spec_of):
    spec = spec_of()
    for kind in ("radius1", "radius2", "reciprocal_lin", "run_levels"):
        pot = POTENTIALS[kind](spec.alphabet_size)
        n_max = 4 if spec.alphabet_size == 2 else 3
        prof = variation_profile(pot, spec, n_max)
        assert list(prof.var) == enumerated_var(pot, spec, n_max), kind
