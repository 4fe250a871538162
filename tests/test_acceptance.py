"""Acceptance suite: ten end-to-end criteria with stated tolerances.

Each criterion is one test; the conftest hook prints a one-line verdict
per criterion after the run. Expected values come from closed forms or
from the brute-force oracles in oracles.py, never from the package.
"""

import json
import math
import time
from fractions import Fraction

import pytest
import yaml

import oracles
from shiftpress.cli import main
from shiftpress.potentials import (
    LocallyConstantPotential,
    ZeroPotential,
    make_reciprocal_run,
    variation_profile,
)
from shiftpress.pressure import anchor_sequence, partition_function, partition_table
from shiftpress.subshifts import (
    iter_language,
    make_bounded_density,
    make_full_shift,
    make_golden_mean,
    make_sft,
    make_sparse_sturmian,
    make_sturmian_factors,
    product_subshift,
    word_admissible,
)
from shiftpress.transfer import build_transfer, markov_equilibrium, perron
from shiftpress.verify import (
    PASS,
    verify_density_glue,
    verify_measure_lower,
    verify_partition_upper_anchor,
    verify_partition_upper_spec,
    verify_partition_upper_trans,
    verify_sparse_glue,
)

LN2 = math.log(2.0)
PHI = (1 + math.sqrt(5)) / 2


def h_lin(k):
    return k + 1


def h_sq(k):
    return (k + 1) ** 2


def zero_g(n):
    return 0.0


def run_cli(tmp_path, doc, *argv, name="exp.yaml", out="out"):
    cfg = tmp_path / name
    cfg.write_text(yaml.safe_dump(doc))
    out_dir = tmp_path / out
    code = main([*argv, "--config", str(cfg), "--out", str(out_dir)])
    return code, out_dir


def test_criterion_01_full_shift_exact_pressure(tmp_path):
    """Zero-potential full shift: both bracket columns are ln 2 to 1e-12."""
    t0 = time.monotonic()
    doc = {"subshift": {"family": "full_shift", "alphabet_size": 2},
           "horizons": {"n_max": 20}}
    code, out = run_cli(tmp_path, doc, "pressure")
    assert code == 0
    rows = [line.split(",") for line in (out / "bracket.csv").read_text().splitlines()
            if line and not line.startswith("#")][1:]
    assert len(rows) == 20
    for _n, lo, hi in rows:
        assert abs(float(lo) - LN2) <= 1e-12
        assert abs(float(hi) - LN2) <= 1e-12
    assert time.monotonic() - t0 < 1.0


def test_criterion_02_golden_mean_entropy(tmp_path):
    """Perron eigenvalue phi to 1e-9; horizon-24 bracket holds ln(phi)."""
    t0 = time.monotonic()
    doc = {"subshift": {"family": "golden_mean"},
           "horizons": {"n_max": 24, "n_state": 2}}
    code, out = run_cli(tmp_path, doc, "pressure")
    assert code == 0
    transfer = json.loads((out / "transfer.json").read_text())
    assert abs(transfer["lambda"] - PHI) <= 1e-9
    bracket = json.loads((out / "manifest.json").read_text())["status"]["bracket"]
    assert bracket["best_lo"] <= math.log(PHI) <= bracket["best_hi"]
    assert bracket["best_hi"] - bracket["best_lo"] < 0.05
    assert time.monotonic() - t0 < 5.0


def test_criterion_03_brute_force_partition_oracle():
    """Interval lnZ encloses padded-point partition sums, all families, n <= 10."""
    half = [math.ceil(n / 2) for n in range(1, 41)]
    golden_words = {n: oracles.sft_language(2, [(1, 1)], n) for n in range(1, 11)}
    instances = [
        ("full", make_full_shift(2),
         lambda n: oracles.all_words(2, n)),
        ("golden", make_golden_mean(),
         lambda n: golden_words[n]),
        ("sft_no_111", make_sft(2, [(1, 1, 1)]),
         lambda n: oracles.sft_language(2, [(1, 1, 1)], n)),
        ("bounded_density", make_bounded_density(1, half),
         lambda n: oracles.bd_language(1, [0] + half, n)),
        ("sparse", make_sparse_sturmian(make_sturmian_factors(8, 21, 2), (4, 12)),
         lambda n: oracles.sparse_language(8, 21, (4, 12), n)),
        ("product", product_subshift(make_golden_mean(), make_full_shift(2)),
         lambda n: [tuple(2 * i + j for i, j in zip(a, b))
                    for a in golden_words[n] for b in oracles.all_words(2, n)]),
    ]
    pot = make_reciprocal_run(h_lin)

    def point_phi(w, i):
        x, off = oracles.pad_word(w, len(w) + 4)
        return oracles.phi_run(x, off + i, h_lin)

    for label, spec, oracle_lang in instances:
        for n in range(1, 11):
            words = sorted(oracle_lang(n))
            assert list(iter_language(spec, n)) == words, (label, n)
            padded, _ = oracles.pad_word(words[0], n + 4)
            assert word_admissible(spec, padded), (label, n)
            row = partition_function(spec, pot, n)
            exact = oracles.brute_partition(words, point_phi)
            assert row.lnz_lo - 1e-9 <= exact <= row.lnz_hi + 1e-9, (label, n)


def test_criterion_04_variation_identity():
    """var(n) = 1/h(n) exactly for n <= 10; non-Bowen flag = divergence of sum."""
    fs = make_full_shift(2)
    for h, diverges in ((h_lin, True), (h_sq, False)):
        pot = make_reciprocal_run(h)
        assert pot.sum_diverges is diverges
        prof = variation_profile(pot, fs, 10)
        for n in range(1, 11):
            assert prof.var[n] == 1.0 / h(n)


def test_criterion_05_density_gluing_certificate(tmp_path):
    """Half-density shift glues at the declared envelope gap; f = 0 is refuted."""
    t0 = time.monotonic()
    bd = make_bounded_density(1, [math.ceil(n / 2) for n in range(1, 41)])
    assert bd.params["density"].alpha == Fraction(1, 2)
    for n in range(1, 13):
        assert bd.declared_gap(n) == 2  # ceil(2 * (1/2) / (1/2))
    rep = verify_density_glue(bd, range(1, 13))
    assert rep.verdict == PASS
    assert rep.min_margin() >= 0.0

    doc = {
        "subshift": {"family": "bounded_density", "k": 1,
                     "height": {"form": "ceil_frac", "num": 1, "den": 2, "n_max": 40}},
        "checks": {"density_glue": {"n_range": [2, 3, 4], "f_const": 0}},
    }
    code, out = run_cli(tmp_path, doc, "verify", "density_glue")
    assert code == 5
    report = json.loads((out / "report_density_glue.json").read_text())
    assert report["verdict"] == "fail"
    assert report["witnesses"]["2"] == {"words": ["01", "10"], "m": 0}
    assert time.monotonic() - t0 < 60.0


def test_criterion_06_sparse_gluing_certificate():
    """Slope-13/21 sparse instance: every sampled pair glues within f(n) = 2k."""
    t0 = time.monotonic()
    sp = make_sparse_sturmian(make_sturmian_factors(13, 21, 2), (4, 12))
    assert sp.declared_gap(4) == 2 and sp.declared_gap(12) == 4
    rep = verify_sparse_glue(
        sp, range(1, 13), strategy="factor_glue", pair_budget=20_000
    )
    assert rep.verdict == PASS
    assert all(m >= 0 for _, m in rep.margins)
    assert rep.extra["coverage"][7] == 1.0
    assert rep.extra["coverage"][12] < 1.0
    assert time.monotonic() - t0 < 120.0


def test_criterion_07_partition_upper_bounds(tmp_path):
    """Spec, anchored, and polynomial upper bounds hold at the Perron pressure;
    understated pressure and a bad C exit 5 and 6."""
    gm = make_golden_mean()
    table = partition_table(gm, ZeroPotential(), 24)
    pressure = math.log(perron(build_transfer(gm, ZeroPotential(), 2)).lam)

    spec_rep = verify_partition_upper_spec(table, pressure, lambda n: 1, zero_g, 0.0)
    assert spec_rep.verdict == PASS

    anchors = anchor_sequence(lambda n: 1.0, zero_g, 24, (0.5, 0.4, 0.35))
    assert anchors.complete and anchors.indices == (8, 13, 18)
    anchor_rep = verify_partition_upper_anchor(table, pressure, anchors.indices, 0.5)
    assert anchor_rep.verdict == PASS

    trans_rep = verify_partition_upper_trans(
        table, pressure, 2.0, 3, lambda n: 1, zero_g, 0.0
    )
    assert trans_rep.verdict == PASS

    full_table = partition_table(make_full_shift(2), ZeroPotential(), 20)
    eq_rep = verify_partition_upper_spec(full_table, LN2, lambda n: 0, zero_g, 0.0)
    assert eq_rep.verdict == PASS
    for n, m in eq_rep.margins:
        assert abs(m) <= 1e-12 * n

    golden_doc = {"subshift": {"family": "golden_mean"}, "horizons": {"n_max": 12}}
    doc = dict(golden_doc, checks={"partition_upper_spec": {"pressure": 0.2}})
    code, _ = run_cli(tmp_path, doc, "verify", "partition_upper_spec", out="o5")
    assert code == 5
    doc = dict(golden_doc, checks={"partition_upper_trans": {"C": 0.55, "onset": 5,
                                                             "pressure": 0.4812}})
    code, _ = run_cli(tmp_path, doc, "verify", "partition_upper_trans",
                      name="exp2.yaml", out="o6")
    assert code == 6


def test_criterion_08_variational_identity():
    """entropy + integral = ln(lambda) within 1e-8 and stationarity within
    1e-10 on six weighted class graphs, the last a bounded-density window
    cut with over 2^10 states."""
    t0 = time.monotonic()
    gm = make_golden_mean()
    fs = make_full_shift(2)
    center0 = {w: LN2 for w in [(0, 0, 0), (0, 0, 1), (1, 0, 0), (1, 0, 1)]}
    # floor(n/3) + ceil(2 sqrt n); its window 20 keeps 9,224 classes
    bd = make_bounded_density(1, [n // 3 + math.isqrt(4 * n - 1) + 1 for n in range(1, 1025)])
    instances = [
        (fs, LocallyConstantPotential(0, {(0,): 0.3, (1,): -0.2}, 2), 1),
        (gm, LocallyConstantPotential(1, center0, 2), 3),
        (make_sft(2, [(1, 1, 1)]),
         LocallyConstantPotential(1, {(0, 0, 0): 0.25, (1, 1, 0): -0.5}, 2), 3),
        (gm, LocallyConstantPotential(
            2, {(0, 0, 0, 0, 0): 0.1, (0, 0, 1, 0, 0): 0.4}, 2), 5),
        (fs, LocallyConstantPotential(1, {(0, 1, 0): 0.7}, 2), 10),
        (bd, LocallyConstantPotential(1, {(0, 1, 0): 0.7}, 2), 19),
    ]
    state_counts = []
    for spec, pot, n_state in instances:
        model = build_transfer(spec, pot, n_state)
        mm = markov_equilibrium(model, perron(model, tol=1e-12))
        assert mm.identity_gap <= 1e-8
        assert mm.stationarity_gap <= 1e-10
        state_counts.append(model.state_count)
    assert state_counts[-1] > 2**10
    assert time.monotonic() - t0 < 30.0


def test_criterion_09_measure_lower_bound():
    """Cylinder-restricted partition sums clear the lower bound, n <= 16,
    on cylinders of equilibrium measure >= 1/4."""
    cases = [
        (make_full_shift(2), 1, (0,)),
        (make_golden_mean(), 2, (0,)),
        (make_golden_mean(), 2, (1,)),
    ]
    for spec, n_state, cyl in cases:
        model = build_transfer(spec, ZeroPotential(), n_state)
        mm = markov_equilibrium(model)
        table = partition_table(spec, ZeroPotential(), 16)
        rep = verify_measure_lower(mm, cyl, range(1, 17), table, zero_g)
        assert rep.extra["measure"] >= 0.25
        assert rep.verdict == PASS


def test_criterion_10_determinism(tmp_path):
    """Re-running every command on the same configs reproduces every
    recorded content hash."""
    golden = {
        "subshift": {"family": "golden_mean"},
        "horizons": {"n_max": 12, "n_state": 2, "m_max": 6},
        "mode": "specification",
        "checks": {
            "gap_profile": {"n_range": [2, 3, 4, 5]},
            "partition_upper_spec": {},
            "partition_upper_anchor": {"epsilon": 0.5, "epsilons": [0.5]},
            "partition_upper_trans": {"C": 2.0, "onset": 3},
            "measure_lower": {"cylinder": "0", "n_range": [2, 4, 6]},
            "anchors": {"epsilons": [0.5]},
        },
    }
    density = {
        "subshift": {"family": "bounded_density", "k": 1,
                     "height": {"form": "ceil_frac", "num": 1, "den": 2, "n_max": 40}},
        "checks": {"density_glue": {"n_range": [2, 3, 4]}},
    }
    sparse = {
        "subshift": {"family": "sparse_sturmian", "slope": [8, 21],
                     "k_max": 2, "n_seq": [4, 12]},
        "strategy": "factor_glue",
        "checks": {"sparse_glue": {"n_range": [2, 3, 4]}},
    }
    suite = [
        (golden, ["enumerate"]),
        (golden, ["pressure"]),
        (golden, ["gap-profile"]),
        (golden, ["anchors"]),
        (golden, ["equilibrium"]),
        (golden, ["verify", "partition_upper_spec"]),
        (golden, ["verify", "partition_upper_anchor"]),
        (golden, ["verify", "partition_upper_trans"]),
        (golden, ["verify", "measure_lower"]),
        (density, ["verify", "density_glue"]),
        (sparse, ["verify", "sparse_glue"]),
    ]
    hashes = [{}, {}]
    for round_idx in range(2):
        for k, (doc, argv) in enumerate(suite):
            code, out = run_cli(
                tmp_path, doc, *argv,
                name=f"cfg{k}.yaml", out=f"r{round_idx}_{k}",
            )
            assert code == 0, (argv, code)
            manifest = json.loads((out / "manifest.json").read_text())
            hashes[round_idx][k] = manifest["outputs"]
    assert hashes[0] == hashes[1]
    assert all(outs for outs in hashes[0].values())
