import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from cases import HALF
from shiftpress.errors import (
    ConstructionError,
    ConvergenceError,
    InputError,
    ReducibleGraphError,
)
from shiftpress.potentials import (
    LocallyConstantPotential,
    ZeroPotential,
    make_reciprocal_run,
)
from shiftpress.subshifts import (
    iter_language,
    make_bounded_density,
    make_full_shift,
    make_golden_mean,
    make_sft,
    make_sparse_sturmian,
    make_sturmian_factors,
    product_subshift,
)
from shiftpress.transfer import (
    build_transfer,
    cylinder_measure,
    markov_equilibrium,
    perron,
)

PHI = (1 + math.sqrt(5)) / 2
LN2 = math.log(2.0)


def golden_model(n_state=2, pot=None):
    return build_transfer(make_golden_mean(), pot or ZeroPotential(), n_state)


# ---------------------------------------------------------------------------
# Perron data
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n_state", [1, 2, 3])
def test_golden_eigenvalue_is_phi_at_every_block_length(n_state):
    model = golden_model(n_state)
    assert model.state_count == 3
    pd = perron(model)
    assert pd.lam == pytest.approx(PHI, abs=1e-12)
    assert pd.residual <= 1e-12 * pd.lam
    assert math.fsum(x * y for x, y in zip(pd.left, pd.right)) == pytest.approx(1.0, abs=1e-12)


def test_golden_class_graph_explores_six_classes_at_any_n_state():
    # the root, 0, 1 and the three 2-blocks; the 20-blocks of the golden
    # mean are 17,711
    model = golden_model(20)
    assert (model.explored, model.nodes, model.state_count) == (6, 12, 3)
    assert model.labels == ((0, 0), (0, 1), (1, 0))


def test_weighted_eigenvalue_closed_form():
    # weight e^(ln 2) = 2 whenever the centre symbol is 0: lam = 1 + sqrt(3)
    values = {
        (0, 0, 0): LN2,
        (0, 0, 1): LN2,
        (1, 0, 0): LN2,
        (1, 0, 1): LN2,
    }
    pot = LocallyConstantPotential(1, values, 2)
    pd = perron(golden_model(3, pot))
    assert pd.lam == pytest.approx(1 + math.sqrt(3), abs=1e-12)


def test_bounded_density_window_matches_golden():
    # every window of the ceil(n/2) table from length 2 on is the golden
    # mean, so its keys close at 2 classes where its 15-blocks are 1,597
    model = build_transfer(make_bounded_density(1, HALF), ZeroPotential(), 15)
    assert model.state_count <= 3 and model.explored <= 3
    assert math.log(perron(model).lam) == pytest.approx(math.log(PHI), abs=1e-12)


def test_perron_validation_and_convergence_failure():
    model = golden_model()
    with pytest.raises(InputError):
        perron(model, tol=0.0)
    with pytest.raises(ConvergenceError) as ei:
        perron(model, tol=1e-12, max_iter=2)
    assert ei.value.iterations == 2


# ---------------------------------------------------------------------------
# model construction guards
# ---------------------------------------------------------------------------


def test_transfer_rejects_run_potentials():
    with pytest.raises(InputError):
        build_transfer(make_golden_mean(), make_reciprocal_run(lambda k: k + 1), 3)


def test_transfer_rejects_superset_oracles():
    fs = make_sturmian_factors(8, 21, 2)
    sp = make_sparse_sturmian(fs, (4, 12))
    with pytest.raises(InputError):
        build_transfer(sp, ZeroPotential(), 3)


def test_transfer_window_must_fit_the_height_table():
    # the window n_state + 1 reads the table up to that length
    bd = make_bounded_density(1, HALF[:6])
    assert build_transfer(bd, ZeroPotential(), 5).state_count == 2
    with pytest.raises(InputError, match="only covers lengths <= 6, not the window 7$"):
        build_transfer(bd, ZeroPotential(), 6)


def test_reducible_graph_is_refused():
    frozen = make_sft(2, [(0, 1), (1, 0)])  # two disjoint fixed points
    with pytest.raises(ReducibleGraphError):
        build_transfer(frozen, ZeroPotential(), 2)


def test_one_way_graph_is_refused():
    # 0^a 1^b: the fixed points 00 and 11 are two cyclic components, joined
    # one way through 01
    one_way = make_sft(2, [(1, 0)])
    states, succ = oracles.block_graph(oracles.sft_admissible(2, [(1, 0)]), 2, 2)
    assert states[0] == (0, 0) and not oracles.strongly_connected(succ)
    with pytest.raises(ReducibleGraphError):
        build_transfer(one_way, ZeroPotential(), 2)


# ---------------------------------------------------------------------------
# models against the oracle block graph built from joined-word membership
# ---------------------------------------------------------------------------

# radius-1 and radius-0 tables with their defaults, for the package
# potential and the oracle phi
TABLE = {(0, 1, 0): 0.75, (1, 0, 1): -0.5, (0, 0, 0): 0.2}
TABLES = {1: (TABLE, 0.05), 0: ({(0,): 0.3, (1,): -0.45}, 0.0)}


def _potential(radius, alphabet_size):
    if radius is None:
        return ZeroPotential()
    values, default = TABLES[radius]
    return LocallyConstantPotential(radius, values, alphabet_size, default=default)


def _oracle_phi(radius):
    if radius is None:
        return lambda joined: 0.0
    values, default = TABLES[radius]
    return lambda joined: oracles.phi_lc(joined, radius, radius, values, default)


def compare_class_graph_with_oracle(spec, ok, n_state, radius=None, block_len=4,
                                    windowed=False):
    """ln(lambda) (1e-12) and every cylinder up to length block_len (1e-10)
    of the class graph against the oracle block graph at block_len (at
    least the constraint's and the table's width); a graph the oracle finds
    reducible must be refused. Unless windowed (a bounded density shift,
    cut to the window n_state + 1), the model must not depend on n_state.
    Returns whether the values were compared."""
    states, succ = oracles.block_graph(ok, spec.alphabet_size, block_len)
    pot = _potential(radius, spec.alphabet_size)
    if not oracles.strongly_connected(succ):
        with pytest.raises(ReducibleGraphError):
            build_transfer(spec, pot, n_state)
        return False
    model = build_transfer(spec, pot, n_state)
    if not windowed:
        again = build_transfer(spec, pot, 1)
        assert (again.labels, again.succ, again.edges) == (
            model.labels, model.succ, model.edges)
    try:
        pd = perron(model, max_iter=20_000)
    except ConvergenceError:  # periodic graph whose Perron vector is not uniform
        return False
    phi = _oracle_phi(radius)
    assert math.log(pd.lam) == pytest.approx(
        oracles.block_graph_ln_lambda(states, succ, phi), abs=1e-12
    )
    mm = markov_equilibrium(model, pd)
    want = oracles.block_graph_cylinders(states, succ, phi, block_len)
    for n in range(1, block_len + 1):
        for w in oracles.all_words(spec.alphabet_size, n):
            assert cylinder_measure(mm, w) == pytest.approx(want.get(w, 0.0), abs=1e-10), w
    return True


def assert_zero_class_graph_is_the_block_graph(spec, ok, block_len):
    """Zero potential: the recurrent classes and their successors are the
    oracle's block graph at the SFT's block length."""
    states, succ = oracles.block_graph(ok, spec.alphabet_size, block_len)
    if not oracles.strongly_connected(succ):
        return
    model = build_transfer(spec, ZeroPotential(), 1)
    assert list(model.labels) == states
    assert model.succ == succ


@pytest.mark.parametrize("n_state", [1, 2, 3, 4, 5, 6])
def test_golden_block_graph_matches_oracle(n_state):
    ok = oracles.sft_admissible(2, [(1, 1)])
    assert_zero_class_graph_is_the_block_graph(make_golden_mean(), ok, 2)
    for radius in (None, 0, 1):
        assert compare_class_graph_with_oracle(make_golden_mean(), ok, n_state, radius)


@settings(deadline=None, max_examples=40)
@given(
    st.lists(st.lists(st.integers(0, 1), min_size=2, max_size=3).map(tuple),
             min_size=1, max_size=3, unique=True),
    st.integers(1, 5),
    st.sampled_from([None, 0, 1]),
)
def test_sft_block_graphs_match_oracle(forbidden, n_state, radius):
    try:
        spec = make_sft(2, forbidden)
    except ConstructionError:
        assume(False)
    ok = oracles.sft_admissible(2, forbidden)
    assert_zero_class_graph_is_the_block_graph(spec, ok, max(len(f) for f in forbidden))
    compare_class_graph_with_oracle(spec, ok, n_state, radius)


def test_long_forbidden_word_is_exact_at_every_n_state():
    # 111 is longer than n_state 2, where the block graph saw the full
    # shift and read ln 2; the class graph reads the tribonacci root
    spec = make_sft(2, [(1, 1, 1)])
    ok = oracles.sft_admissible(2, [(1, 1, 1)])
    states, succ = oracles.block_graph(ok, 2, 3)
    want = oracles.block_graph_ln_lambda(states, succ)
    got = [math.log(perron(build_transfer(spec, ZeroPotential(), n)).lam) for n in (1, 2, 3, 6)]
    assert got[0] == pytest.approx(want, abs=1e-12) and want < LN2 - 0.08
    assert got == [got[0]] * 4


# floor(n/3) + ceil(2 sqrt n): windows up to length 10 are free, so the
# window 11 has 1,024 blocks of length 10 and closes at 11 classes
SQRT = [n // 3 + math.isqrt(4 * n - 1) + 1 for n in range(1, 1025)]


@pytest.mark.parametrize("n_state", [0, 1, 2, 3, 4, 5, 6])
@pytest.mark.parametrize("radius", [None, 1])
def test_bounded_density_window_matches_oracle(n_state, radius):
    # the window n_state + 1 is the shift of finite type that the block
    # graph at n_state presents; radius 1 reads the 3-words of a block graph
    # at block length 2 or more
    ok = oracles.window_admissible([0] + HALF, n_state + 1)
    block_len = max(n_state, 2)
    assert compare_class_graph_with_oracle(
        make_bounded_density(1, HALF), ok, n_state, radius, block_len, windowed=True)


def test_sqrt_table_window_matches_the_1024_block_oracle():
    ok = oracles.window_admissible([0] + SQRT, 11)
    spec = make_bounded_density(1, SQRT)
    assert compare_class_graph_with_oracle(spec, ok, 10, 1, block_len=10, windowed=True)
    assert build_transfer(spec, ZeroPotential(), 10).explored == 11


def test_sqrt_table_window_classes_stay_few():
    # the block graph at n_state 15 has 32,697 blocks
    model = build_transfer(make_bounded_density(1, SQRT), ZeroPotential(), 15)
    assert model.state_count <= model.explored <= 400
    assert math.log(perron(model).lam) < LN2


@pytest.mark.parametrize("n_state", [1, 2, 3])
def test_product_passes_the_window_to_both_factors(n_state):
    # the density factor is the golden mean at every window from 2 on
    window = oracles.window_admissible([0] + HALF, n_state + 1)
    ok = oracles.product_admissible(window, lambda w: True, 2)
    spec = product_subshift(make_bounded_density(1, HALF), make_full_shift(2))
    assert compare_class_graph_with_oracle(spec, ok, n_state, block_len=2, windowed=True)
    with pytest.raises(InputError, match="not the window 7$"):
        build_transfer(product_subshift(make_full_shift(2), make_bounded_density(1, HALF[:6])),
                       ZeroPotential(), 6)


@pytest.mark.parametrize("n_state", [1, 2, 3])
def test_product_block_graph_matches_oracle(n_state):
    ok = oracles.product_admissible(oracles.sft_admissible(2, [(1, 1)]), lambda w: True, 2)
    spec = product_subshift(make_golden_mean(), make_full_shift(2))
    assert compare_class_graph_with_oracle(spec, ok, n_state, block_len=2)
    assert compare_class_graph_with_oracle(spec, ok, n_state, radius=0, block_len=2)
    assert build_transfer(spec, ZeroPotential(), n_state).state_count == 3


# ---------------------------------------------------------------------------
# Markov equilibrium
# ---------------------------------------------------------------------------


def test_golden_equilibrium_frozen_cylinders():
    mm = markov_equilibrium(golden_model())
    assert mm.entropy == pytest.approx(math.log(PHI), abs=1e-10)
    assert mm.phi_integral == pytest.approx(0.0, abs=1e-12)
    assert mm.identity_gap <= 1e-8
    assert mm.stationarity_gap <= 1e-10
    assert cylinder_measure(mm, (0,)) == pytest.approx((5 + math.sqrt(5)) / 10, abs=1e-10)
    assert cylinder_measure(mm, (0, 0)) == pytest.approx(1 / math.sqrt(5), abs=1e-10)
    assert cylinder_measure(mm, (0, 1)) == pytest.approx(
        (1 - 1 / math.sqrt(5)) / 2, abs=1e-10
    )
    assert cylinder_measure(mm, (1, 1)) == 0.0
    assert cylinder_measure(mm, ()) == 1.0


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_cylinders_partition_the_space(n):
    mm = markov_equilibrium(golden_model())
    total = sum(cylinder_measure(mm, w) for w in iter_language(make_golden_mean(), n))
    assert total == pytest.approx(1.0, abs=1e-10)


def test_cylinder_additivity():
    mm = markov_equilibrium(golden_model())
    gm = make_golden_mean()
    for w in iter_language(gm, 4):
        children = [w + (s,) for s in (0, 1) if (w + (s,)) in set(iter_language(gm, 5))]
        assert cylinder_measure(mm, w) == pytest.approx(
            sum(cylinder_measure(mm, c) for c in children), abs=1e-12
        )


def test_weighted_equilibrium_satisfies_the_pressure_identity():
    values = {
        (0, 0, 0): LN2,
        (0, 0, 1): LN2,
        (1, 0, 0): LN2,
        (1, 0, 1): LN2,
    }
    pot = LocallyConstantPotential(1, values, 2)
    mm = markov_equilibrium(golden_model(3, pot))
    assert mm.entropy + mm.phi_integral == pytest.approx(
        math.log(1 + math.sqrt(3)), abs=1e-10
    )
    assert mm.entropy < math.log(PHI) + 1e-12  # tilting toward 0 lowers entropy
    assert cylinder_measure(mm, (0,)) > (5 + math.sqrt(5)) / 10  # and favours 0


def test_unknown_blocks_have_measure_zero():
    mm = markov_equilibrium(golden_model())
    assert cylinder_measure(mm, (1, 1, 0)) == 0.0
    assert cylinder_measure(mm, (0, 1, 1, 0)) == 0.0
