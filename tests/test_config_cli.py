import csv
import importlib.util
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
import yaml

import cases
import oracles
from shiftpress import cli, gluing
from shiftpress.cli import main
from shiftpress.config import (
    ALL_CHECKS,
    CHECK_TABLES,
    build_potential,
    build_subshift,
    config_from_dict,
    load_config,
    read_yaml,
)
from shiftpress.errors import InputError
from shiftpress.potentials import ZeroPotential
from shiftpress.reports import sha256_file
from shiftpress.subshifts import DEFAULT_NODE_BUDGET

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
PERFBENCH = CONFIG_DIR.parent / "perfbench"


def write_yaml(tmp_path, doc, name="exp.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(doc))
    return path


def golden_doc(**overrides):
    doc = {
        "label": "golden test instance",
        "subshift": {"family": "golden_mean"},
        "potential": {"kind": "zero"},
        "horizons": {"n_max": 10, "n_state": 2},
    }
    doc.update(overrides)
    return doc


def read_csv_payload(path):
    """(comment lines, header, data rows) of a report CSV."""
    comments = []
    rows = []
    with open(path) as fh:
        for line in fh:
            if line.startswith("#"):
                comments.append(line.strip())
            else:
                rows.append(line)
    parsed = list(csv.reader(rows))
    return comments, parsed[0], parsed[1:]


# ---------------------------------------------------------------------------
# configuration layer
# ---------------------------------------------------------------------------


def test_shipped_configs_load():
    paths = sorted(CONFIG_DIR.glob("*.yaml"))
    assert len(paths) >= 6
    for p in paths:
        cfg = load_config(p)
        assert len(cfg.digest) == 64
        build_potential(cfg.potential, build_subshift(cfg.subshift))


def _workloads(monkeypatch):
    """perfbench/workloads.py, loaded by file path."""
    monkeypatch.syspath_prepend(str(PERFBENCH))  # workloads.py imports instances.py
    spec = importlib.util.spec_from_file_location("workloads", PERFBENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "workloads", workloads)  # its dataclasses look it up
    spec.loader.exec_module(workloads)
    return workloads


def test_every_shipped_and_benchmark_config_builds_and_reads_its_checks(monkeypatch):
    # the configs the benchmark writes, read the way `python -m shiftpress` reads them
    workloads = _workloads(monkeypatch)
    texts = {p.name: p.read_text() for p in CONFIG_DIR.glob("*.yaml")}
    for name in workloads.NAMES:
        for seed in (0, 41):
            wl = workloads.build(name, CONFIG_DIR.parent, seed)
            texts.update({f"{name}/{seed}/{k}": text for k, text in wl.configs.items()})
    assert len(texts) == 6 + 2 * 15
    assert set(CHECK_TABLES) == {"gap_profile", "anchors", *ALL_CHECKS}
    for name, text in sorted(texts.items()):
        doc = read_yaml(text)
        cfg = config_from_dict(doc)
        build_potential(cfg.potential, build_subshift(cfg.subshift))
        raw_checks = doc.get("checks", {})
        assert {tag: set(params) for tag, params in cfg.checks.items()} == {
            tag: set(params) for tag, params in raw_checks.items()
        }, name


def test_digest_ignores_key_order_but_not_values():
    a = config_from_dict({"label": "x", "subshift": {"family": "golden_mean"}, "seed": 1})
    b = config_from_dict({"seed": 1, "subshift": {"family": "golden_mean"}, "label": "x"})
    c = config_from_dict({"label": "x", "subshift": {"family": "golden_mean"}, "seed": 2})
    assert a.digest == b.digest
    assert a.digest != c.digest


def test_config_rejects_unknown_keys_and_families():
    with pytest.raises(InputError):
        config_from_dict({"subshift": {"family": "golden_mean"}, "junk": 1})
    with pytest.raises(InputError):
        config_from_dict({"subshift": {"family": "weird"}})
    with pytest.raises(InputError):
        config_from_dict({"subshift": {"family": "golden_mean"}, "potential": {"kind": "odd"}})
    with pytest.raises(InputError):
        config_from_dict({})


@pytest.mark.parametrize(
    "override, key",
    [
        ({"horizons": {"n_max": 10, "n_mx": 5}}, "n_mx"),
        ({"tolerances": {"peron": 1e-9}}, "peron"),
        ({"tolerances": {"margn": 1}}, "margn"),
        ({"mode": "bogus"}, "mode"),
        ({"strategy": "nope"}, "strategy"),
        ({"horizons": {"n_max": "x"}}, "horizons.n_max"),
        ({"horizons": {"n_max": 12.7}}, "horizons.n_max"),
        ({"horizons": {"n_max": True}}, "horizons.n_max"),
        ({"horizons": {"n_max": 10, "m_max": -2}}, "horizons.m_max"),
        ({"subshift": {"family": "sft", "forbidden": ["11"], "declard_gap": 1}},
         "subshift.declard_gap"),
        ({"subshift": {"family": "bounded_density", "k": 1,
                       "height": {"form": "ceil_frac", "num": 1, "den": 2, "nmax": 8}}},
         "subshift.height.nmax"),
        ({"subshift": {"family": "product", "factors": [
            {"family": "golden_mean"}, {"family": "full_shift", "alphabet_sise": 2}]}},
         "subshift.factors[1].alphabet_sise"),
        ({"potential": {"kind": "locally_constant", "radius": 1, "values": {"010": 0.5},
                        "defualt": 0.5}}, "potential.defualt"),
        ({"potential": {"kind": "reciprocal_run",
                        "height": {"form": "power", "p": 2.0, "scal": 2.0}}},
         "potential.height.scal"),
        ({"potential": {"kind": "reciprocal_run",
                        "height": {"form": "affine", "a": 1.0, "b": 1.0, "scale": 2.0}}},
         "potential.height.scale"),
        ({"checks": {"sparse_glue": {"stratgy": "factor_glue"}}}, "checks.sparse_glue.stratgy"),
        ({"horizons": {"n_max": 10, "var_horizon": 0}}, "horizons.var_horizon"),
        ({"horizons": {"n_max": 10, "var_horizon": 4}}, "horizons.var_horizon"),
        ({"subshift": {"family": "full_shift", "alphabet_size": 2},
          "potential": {"kind": "locally_constant", "radius": 0, "values": {"1": -math.inf}}},
         "potential.values"),
        ({"potential": {"kind": "run_levels", "levels": [0.5, math.nan], "limit": 0.0}},
         "potential.levels"),
        ({"potential": {"kind": "reciprocal_run",
                        "height": {"form": "affine", "a": math.inf, "b": 1.0}}},
         "potential.height.a"),
        ({"tolerances": {"margin": math.nan}}, "tolerances.margin"),
        # the transfer model's window n_state + 1 is past the height table
        ({"subshift": {"family": "bounded_density", "k": 1, "height": {
            "form": "ceil_frac", "num": 1, "den": 2, "n_max": 64}},
          "horizons": {"n_max": 10, "n_state": 70}}, "horizons.n_state"),
    ],
)
def test_misspelled_keys_and_values_exit_2_naming_the_key(tmp_path, capsys, override, key):
    cfg_path = write_yaml(tmp_path, golden_doc(**override))
    out = tmp_path / "out"
    assert main(["pressure", "--config", str(cfg_path), "--out", str(out)]) == 2
    assert key in capsys.readouterr().err
    assert not out.exists()


def test_integer_settings_are_read_strictly():
    doc = golden_doc(horizons={"n_max": 12.0, "m_max": "4"}, seed=3.0, pair_budget=50)
    cfg = config_from_dict(doc)
    assert (cfg.horizons.n_max, cfg.horizons.m_max, cfg.seed) == (12, 4, 3)
    for override, path in [
        ({"seed": 1.5}, "seed"),
        ({"pair_budget": False}, "pair_budget"),
        ({"horizons": {"n_state": "three"}}, "horizons.n_state"),
        ({"horizons": {"var_horizon": [4]}}, "horizons.var_horizon"),
    ]:
        with pytest.raises(InputError, match=f"^{path}: expected an integer, got "):
            config_from_dict(golden_doc(**override))


BD_HEIGHT = {"form": "ceil_frac", "num": 1, "den": 2, "n_max": 8}
GOLDEN_WEIGHTS = {"kind": "locally_constant", "radius": 1, "values": {"010": 0.5}}


def _bd(**over):
    return {"family": "bounded_density", "k": 1, "height": dict(BD_HEIGHT), **over}


def _cli_rejects(tmp_path, capsys, doc, path, command="pressure"):
    """command on doc exits 2 naming path, and writes nothing."""
    cfg_path = write_yaml(tmp_path, doc)
    out = tmp_path / "out"
    assert main([*command.split(), "--config", str(cfg_path), "--out", str(out)]) == 2
    assert f"{path}: " in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("subshift, potential, path", [
    (_bd(k=True), None, "subshift.k"),
    (_bd(height={**BD_HEIGHT, "num": False}), None, "subshift.height.num"),
    ({"family": "sft", "forbidden": ["11"], "declared_gap": True}, None, "subshift.declared_gap"),
    ({"family": "golden_mean"}, {**GOLDEN_WEIGHTS, "radius": True}, "potential.radius"),
], ids=["k", "num", "declared_gap", "radius"])
def test_family_and_potential_integers_reject_bools(tmp_path, capsys, subshift, potential, path):
    doc = golden_doc(subshift=subshift, horizons={"n_max": 4})
    if potential is not None:
        doc["potential"] = potential
    _cli_rejects(tmp_path, capsys, doc, path)


@pytest.mark.parametrize("subshift, potential, path", [
    (_bd(height={**BD_HEIGHT, "n_max": 8.9}), None, "subshift.height.n_max"),
    ({"family": "full_shift", "alphabet_size": 2.7}, None, "subshift.alphabet_size"),
    ({"family": "product", "factors": [{"family": "golden_mean"},
                                       {"family": "full_shift", "alphabet_size": 2.5}]},
     None, "subshift.factors[1].alphabet_size"),
    ({"family": "full_shift", "alphabet_size": 2},
     {"kind": "reciprocal_run", "height": {"form": "affine", "a": 1.0, "b": 1.0},
      "k_cap": 6.5}, "potential.k_cap"),
], ids=["n_max", "alphabet_size", "factor", "k_cap"])
def test_family_and_potential_integers_reject_fractions(
    tmp_path, capsys, subshift, potential, path
):
    doc = golden_doc(subshift=subshift, horizons={"n_max": 4})
    if potential is not None:
        doc["potential"] = potential
    _cli_rejects(tmp_path, capsys, doc, path)


@pytest.mark.parametrize("subshift, potential, path", [
    (_bd(height={"form": "linear", "a": "one", "n_max": 8}), None, "subshift.height.a"),
    ({"family": "sparse_sturmian", "slope": [8, "x"], "n_seq": [4, 12]}, None,
     "subshift.slope"),
    ({"family": "sparse_sturmian", "slope": [8, 21], "n_seq": [4, "twelve"]}, None,
     "subshift.n_seq"),
    ({"family": "golden_mean"}, {**GOLDEN_WEIGHTS, "radius": "one"}, "potential.radius"),
], ids=["a", "slope", "n_seq", "radius"])
def test_family_and_potential_integers_reject_words(tmp_path, capsys, subshift, potential, path):
    doc = golden_doc(subshift=subshift, horizons={"n_max": 4})
    if potential is not None:
        doc["potential"] = potential
    _cli_rejects(tmp_path, capsys, doc, path)


def test_shipped_density_config_rejects_a_bool_k(tmp_path, capsys):
    doc = yaml.safe_load((CONFIG_DIR / "bounded_density.yaml").read_text())
    doc["subshift"]["k"] = True  # built k = 1 and exited 0 while read with int()
    _cli_rejects(tmp_path, capsys, doc, "subshift.k")
    doc["subshift"]["k"] = 1.0
    spec = build_subshift(doc["subshift"])
    assert spec.family == "bounded_density"


@pytest.mark.parametrize("command, checks, path", [
    ("gap-profile", {"gap_profile": {"n_rang": [2, 3]}}, "checks.gap_profile.n_rang"),
    ("verify measure_lower", {"measure_lower": {"cylinder": "0", "n_ragne": [2]}},
     "checks.measure_lower.n_ragne"),
    ("enumerate", {"partition_upper_trans": {"C": 2.0, "onest": 3}},
     "checks.partition_upper_trans.onest"),
    ("enumerate", {"gap_profle": {"n_range": [2]}}, "checks.gap_profle"),
])
def test_unknown_check_keys_exit_2_naming_the_key(tmp_path, capsys, command, checks, path):
    _cli_rejects(tmp_path, capsys, golden_doc(checks=checks), path, command)


def test_load_rejects_missing_and_invalid_files(tmp_path):
    with pytest.raises(InputError):
        load_config(tmp_path / "nope.yaml")
    bad = tmp_path / "bad.yaml"
    bad.write_text("label: [unclosed\n")
    with pytest.raises(InputError):
        load_config(bad)
    empty = tmp_path / "empty.yaml"
    empty.write_text("")
    with pytest.raises(InputError):
        load_config(empty)


def test_build_subshift_families():
    golden = build_subshift({"family": "sft", "forbidden": ["11"], "declared_gap": 1})
    assert golden.family == "sft"
    full = build_subshift({"family": "full_shift", "alphabet_size": 3})
    assert full.alphabet_size == 3
    bd_frac = build_subshift(
        {"family": "bounded_density", "k": 1,
         "height": {"form": "ceil_frac", "num": 1, "den": 2, "n_max": 8}}
    )
    bd_table = build_subshift(
        {"family": "bounded_density", "k": 1,
         "height": {"form": "table", "values": [math.ceil(n / 2) for n in range(1, 9)]}}
    )
    bd_linear = build_subshift(
        {"family": "bounded_density", "k": 1,
         "height": {"form": "linear", "a": 1, "b": 1, "n_max": 8}}
    )
    assert bd_frac.params["density"].h == bd_table.params["density"].h
    for den in range(1, 10):  # ceil_frac is the exact ceiling of num n / den
        for num in range(1, 2 * den + 2):
            height = {"form": "ceil_frac", "num": num, "den": den, "n_max": 12}
            h = build_subshift({"family": "bounded_density", "k": 1, "height": height})
            want = [math.ceil(Fraction(num * n, den)) for n in range(1, 13)]
            assert h.params["density"].h == (0, *want), (num, den)
    assert bd_linear.params["density"].h == (0, *range(2, 10))  # h(n) = n + 1
    sparse = build_subshift(
        {"family": "sparse_sturmian", "slope": [8, 21], "k_max": 2, "n_seq": [4, 12]}
    )
    assert sparse.alphabet_size == 2
    prod = build_subshift(
        {"family": "product",
         "factors": [{"family": "golden_mean"}, {"family": "full_shift", "alphabet_size": 2}]}
    )
    assert prod.alphabet_size == 4
    with pytest.raises(InputError):
        build_subshift({"family": "sparse_sturmian", "slope": 0.4, "n_seq": [4, 12]})
    with pytest.raises(InputError):
        build_subshift({"family": "bounded_density", "k": 1,
                        "height": {"form": "exotic", "n_max": 4}})


def test_build_potential_kinds():
    spec = build_subshift({"family": "golden_mean"})
    assert isinstance(build_potential({}, spec), ZeroPotential)
    lc = build_potential(
        {"kind": "locally_constant", "radius": 1, "values": {"010": 1.5}}, spec
    )
    assert lc.eval((0, 1, 0), 1).lo == 1.5
    rr = build_potential(
        {"kind": "reciprocal_run", "height": {"form": "affine", "a": 1, "b": 1}}, spec
    )
    assert rr.eval((0, 1), 0).lo == 1.0
    rr_pow = build_potential(
        {"kind": "reciprocal_run", "height": {"form": "power", "p": 2}}, spec
    )
    assert not rr_pow.sum_diverges
    rr_table = build_potential(
        {"kind": "reciprocal_run", "height": {"form": "table", "values": [1, 2, 4]}}, spec
    )
    assert (rr_table.k_cap, rr_table.h_table) == (2, [1.0, 2.0, 4.0])
    rl = build_potential({"kind": "run_levels", "levels": [2.0, 1.0], "limit": 0.5}, spec)
    assert rl.eval((0, 1), 0).lo == 2.0


# ---------------------------------------------------------------------------
# command line, in process
# ---------------------------------------------------------------------------


def test_enumerate_writes_counts_words_and_manifest(tmp_path):
    cfg_path = write_yaml(tmp_path, golden_doc(horizons={"n_max": 6}))
    out = tmp_path / "out"
    assert main(["enumerate", "--config", str(cfg_path), "--out", str(out)]) == 0
    comments, header, rows = read_csv_payload(out / "counts.csv")
    assert header == ["n", "count"]
    assert [int(r[1]) for r in rows] == [oracles.fib(n + 2) for n in range(1, 7)]
    words = (out / "language_n6.txt").read_text().splitlines()
    assert len(words) == 21
    assert words == sorted(words)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "enumerate"
    assert manifest["config_digest"] == load_config(cfg_path).digest
    assert any(c.startswith("# config_digest=") for c in comments)
    assert set(manifest["outputs"]) == {"counts.csv", "language_n6.txt"}
    for name, digest in manifest["outputs"].items():
        assert sha256_file(out / name) == digest


def test_pressure_outputs_and_determinism(tmp_path):
    cfg_path = write_yaml(tmp_path, golden_doc())
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["pressure", "--config", str(cfg_path), "--out", str(out1)]) == 0
    assert main(["pressure", "--config", str(cfg_path), "--out", str(out2)]) == 0
    for name in ("partition.csv", "bracket.csv", "transfer.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    m1 = json.loads((out1 / "manifest.json").read_text())
    m2 = json.loads((out2 / "manifest.json").read_text())
    m1.pop("wall_clock_s"), m2.pop("wall_clock_s")
    assert m1 == m2
    transfer = json.loads((out1 / "transfer.json").read_text())
    assert transfer["ln_lambda"] == pytest.approx(
        math.log((1 + math.sqrt(5)) / 2), abs=1e-10
    )
    comments, _, _ = read_csv_payload(out1 / "bracket.csv")
    assert any(c.startswith("# best_hi=") for c in comments)
    assert any(c == "# upper_bound_only=false" for c in comments)


# Results of every shipped config under `pressure` and each declared
# partition_upper_* check, recorded before partition rows moved from the
# per-word sum to the forward sweep, and under `enumerate`, recorded before
# it became one streamed walk; the `transfer.json`, `equilibrium` and
# `verify measure_lower` hashes were recorded before the transfer model left
# scipy. Zero-potential, enumerate and transfer payloads must stay
# byte-identical; other lnZ values may move by outward rounding only. The
# `gap-profile`, `anchors`, `verify density_glue`, `verify sparse_glue` and
# remaining `equilibrium` pins were recorded before the bounded-density and
# sparse walkers became follower-set states; with them every command runs
# pinned on every shipped config. `sparse_sturmian:anchors` was recorded
# once its anchor search stopped at the declared gap's reach (it exited 2
# before). The `transfer.json` and `equilibrium.json` hashes of
# `full_shift`, `golden_mean` and `golden_mean_weighted`, and the `verify
# measure_lower` hashes of the two golden-mean configs, were re-recorded
# when the transfer model moved from the block graph at n_state to the
# closed class graph; exit codes and verdicts are unchanged, and margins
# stay within 1e-10 of the recorded ones. The `pressure` hashes
# (`partition.csv`, `bracket.csv`) of `bounded_density`, `full_shift`,
# `golden_mean` and `sparse_sturmian`, and the `verify measure_lower`
# hashes of the two golden-mean configs, were re-recorded when the sweep
# moved to `decimal` directed rounding and exact sums stopped widening;
# lnZ, brackets and margins moved by less than 1e-13. The `status.glue`
# counters of the glue commands (all but `states`, which counts a
# search's walker states and moved when density_glue stopped listing L_n)
# were recorded before pair scans were summarised per end key.
# `full_shift_run:pressure` gained payload hashes when g(n) began to be
# summed exactly and rounded up: its bracket lower sides at n = 4, 5 and 8
# dropped one ulp, and its partition rows and best_lo did not move. The
# `bounded_density` hashes were re-recorded when `slack`, which no check
# reads, left `configs/bounded_density.yaml`: the config digest in each
# payload moved, and `report_density_glue.json` lost its `slack` field.
PINS = json.loads((Path(__file__).resolve().parent / "shipped_cli_pins.json").read_text())
TRANSFER_COMMANDS = ("pressure", "equilibrium", "verify measure_lower")
GLUE_COMMANDS = ("gap-profile", "verify density_glue", "verify sparse_glue")
GLUE_PINNED = ("memo_hits", "pairs", "probes", "words")


def _near(want, got, tol=1e-10):
    return want == got or abs(want - got) <= tol


@pytest.mark.parametrize("case", sorted(PINS))
def test_shipped_config_results_are_pinned(tmp_path, case):
    name, command = case.split(":")
    want = PINS[case]
    out = tmp_path / "out"
    config = CONFIG_DIR / f"{name}.yaml"
    argv = [*command.split(), "--config", str(config), "--out", str(out)]
    assert main(argv) == want["exit"]
    if want["exit"] == 2:  # input errors write nothing, not even the directory
        assert not out.exists()
        return
    for payload, digest in want.get("sha256", {}).items():
        assert sha256_file(out / payload) == digest, payload
    status = json.loads((out / "manifest.json").read_text())["status"]
    assert ("glue" in status) == (command in GLUE_COMMANDS)
    if command in GLUE_COMMANDS:
        work = status["glue"]
        assert sorted(work) == ["memo_hits", "pairs", "probes", "states", "words"]
        assert work["words"] >= 1 and work["pairs"] >= 1 and work["states"] >= 1
        if command == "verify density_glue":  # a passing certificate makes no probes
            assert work["probes"] == work["memo_hits"] == 0
        else:
            assert work["probes"] >= 1 and work["memo_hits"] >= 0
        assert {k: work[k] for k in GLUE_PINNED} == want["glue"]
    n_state = load_config(config).horizons.n_state
    if command in TRANSFER_COMMANDS and n_state is not None:
        work = status["transfer"]
        assert work["n_state"] == n_state and work["budget"] == DEFAULT_NODE_BUDGET
        assert 0 < work["nodes"] <= work["budget"] and work["iterations"] >= 1
        assert 0 < work["states"] <= work["edges"] and work["residual"] >= 0.0
        assert work["states"] <= work["explored"]
    if command == "enumerate":
        work = status["enumerate"]
        assert work["count"] == want["count"] and work["budget"] == DEFAULT_NODE_BUDGET
        assert 0 < work["nodes"] <= work["budget"] and 1 <= work["states"] <= work["count"]
        return
    if command.startswith("verify"):
        report = json.loads((out / f"report_{command.split()[1]}.json").read_text())
        assert report["verdict"] == want["verdict"]
        assert [n for n, _ in report["margins"]] == [n for n, _ in want["margins"]]
        assert all(_near(w, g) for (_, w), (_, g) in zip(want["margins"], report["margins"]))
        return
    if command != "pressure":
        return
    _, _, rows = read_csv_payload(out / "partition.csv")
    assert [int(r[1]) for r in rows] == want["count"]
    for (lo, hi), row in zip(want["lnz"], rows):
        assert _near(lo, float(row[2])) and _near(hi, float(row[3])), row
    assert _near(want["best_lo"], status["bracket"]["best_lo"])
    assert _near(want["best_hi"], status["bracket"]["best_hi"])
    work = status["partition"]
    assert work["budget"] == DEFAULT_NODE_BUDGET
    # the sweep's work, for every potential
    assert 0 < work["nodes"] <= work["budget"] and work["max_states"] >= 1


# Payload sha256s and status.glue counters of the benchmark's glue_search
# ops at two seeds, recorded before pair scans were summarised per end key
# and density_glue stopped listing L_n; the bd.density_glue hashes were
# re-recorded when its report lost its `slack` field.
GLUE_SEARCH_PINS = json.loads(
    (Path(__file__).resolve().parent / "glue_search_pins.json").read_text()
)


@pytest.mark.parametrize("seed", [0, 41])
def test_benchmark_glue_ops_are_pinned(tmp_path, monkeypatch, seed):
    wl = _workloads(monkeypatch).build("glue_search", CONFIG_DIR.parent, seed)
    for op in wl.ops:
        config, out = tmp_path / op.config, tmp_path / op.name
        config.write_text(wl.configs[op.config])
        assert main([*op.command, "--config", str(config), "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        want = GLUE_SEARCH_PINS[f"{seed}:{op.name}"]
        assert manifest["outputs"] == want["sha256"], op.name
        work = manifest["status"]["glue"]
        assert {k: work[k] for k in GLUE_PINNED} == want["glue"], op.name


def test_invalid_family_exits_2_and_writes_nothing(tmp_path):
    cfg_path = write_yaml(tmp_path, {"subshift": {"family": "weird"}})
    out = tmp_path / "out"
    assert main(["pressure", "--config", str(cfg_path), "--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize(
    "name", ["full_shift", "golden_mean", "bounded_density", "sparse_sturmian", "product"]
)
def test_enumerate_budget_is_exact_and_exit_3_leaves_no_language_file(
    tmp_path, monkeypatch, name
):
    # the five families the language_dump benchmark enumerates
    built = []

    def counted_subshift(sub):
        built.append(cases.counted(build_subshift(sub)))
        return built[-1][0]

    monkeypatch.setattr(cli, "build_subshift", counted_subshift)
    if name == "product":
        factors = [{"family": "golden_mean"}, {"family": "full_shift", "alphabet_size": 2}]
        doc = golden_doc(subshift={"family": "product", "factors": factors})
    else:
        doc = yaml.safe_load((CONFIG_DIR / f"{name}.yaml").read_text())
    doc["horizons"] = {"n_max": 9}
    cfg_path = write_yaml(tmp_path, doc)

    def run(out, *flags):
        return main(["enumerate", "--config", str(cfg_path), "--out", str(out), *flags])

    assert run(tmp_path / "free") == 0
    manifest = json.loads((tmp_path / "free" / "manifest.json").read_text())
    nodes = manifest["status"]["enumerate"]["nodes"]
    _, _, rows = read_csv_payload(tmp_path / "free" / "counts.csv")
    # the budget unit: each admissible word shorter than 9 is charged one
    # node per symbol (2(2^9 - 1) on the full shift)
    spec, calls = built[0]
    tree = spec.alphabet_size * (1 + sum(int(r[1]) for r in rows[:-1]))
    assert nodes == tree
    # the count, the walk to the split at length 4 and one block of
    # length-5 suffixes per state there make no more calls than the tree
    # walk did; on the full shift 18 + 30 + 62, on the golden mean 48 + 22
    # + (38 + 24 + 38) for the blocks from 00, 01 and 10
    assert calls[0] <= tree
    assert {"full_shift": 110, "golden_mean": 170}.get(name, calls[0]) == calls[0]
    assert 1 <= manifest["status"]["enumerate"]["states"] <= int(rows[-1][1])
    assert run(tmp_path / "exact", "--budget", str(nodes)) == 0
    language = (tmp_path / "free" / "language_n9.txt").read_bytes()
    assert (tmp_path / "exact" / "language_n9.txt").read_bytes() == language
    assert run(tmp_path / "short", "--budget", str(nodes - 1)) == 3
    assert not list((tmp_path / "short").glob("language_n9.txt*"))


def _equilibrium_budget(tmp_path, config, budget):
    out = tmp_path / f"b{budget}"
    argv = ["equilibrium", "--config", str(config), "--out", str(out), "--budget", str(budget)]
    code = main(argv)
    status = json.loads((out / "manifest.json").read_text())["status"] if code == 0 else None
    return code, status


@pytest.mark.parametrize("name, n_state, explored, states", [
    ("full_shift", None, 1, 1),
    ("golden_mean", None, 6, 3),
    ("golden_mean_weighted", None, 6, 3),
    ("bounded_density", 4, 2, 2),
], ids=["full_shift", "golden_mean", "golden_mean_weighted", "bounded_density"])
def test_transfer_budget_is_the_enumeration_budget(tmp_path, name, n_state, explored, states):
    # the class graph is charged in the unit of the count and the sweep, one
    # node per (class, symbol) child call: one class on the full shift; the
    # root, 0, 1, 00, 01 and 10 on the golden mean, with or without weights;
    # the root, which 0 leads back to, and 1 on the ceil(n/2) table cut to
    # the window 5
    nodes = 2 * explored
    doc = yaml.safe_load((CONFIG_DIR / f"{name}.yaml").read_text())
    if n_state is not None:
        doc["horizons"]["n_state"] = n_state
    config = write_yaml(tmp_path, doc)
    code, status = _equilibrium_budget(tmp_path, config, nodes)
    assert code == 0
    work = status["transfer"]
    assert (work["explored"], work["states"]) == (explored, states)
    assert work["nodes"] == work["budget"] == nodes
    assert _equilibrium_budget(tmp_path, config, nodes - 1)[0] == 3


def test_cli_import_loads_no_scipy():
    src = str(Path(__file__).resolve().parent.parent / "src")
    code = "import sys, shiftpress.cli; print([m for m in sys.modules if m.startswith('scipy')])"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_budget_exhaustion_exits_3(tmp_path):
    cfg_path = write_yaml(tmp_path, golden_doc(horizons={"n_max": 12}))
    out = tmp_path / "out"
    code = main(["enumerate", "--config", str(cfg_path), "--out", str(out), "--budget", "2"])
    assert code == 3


@pytest.mark.parametrize("budget", ["0", "-3"])
def test_non_positive_budget_exits_2(tmp_path, capsys, budget):
    cfg_path = write_yaml(tmp_path, golden_doc())
    out = tmp_path / "out"
    code = main(["enumerate", "--config", str(cfg_path), "--out", str(out), "--budget", budget])
    assert code == 2
    assert "--budget must be a positive node count" in capsys.readouterr().err
    assert not out.exists()


SPARSE_STURMIAN = {"family": "sparse_sturmian", "slope": [8, 21], "k_max": 2, "n_seq": [4, 12]}


@pytest.mark.parametrize("command, params, key", [
    ("gap-profile", {"gap_profile": {"n_range": 5}}, "gap_profile.n_range"),
    ("gap-profile", {"gap_profile": {"n_range": []}}, "gap_profile.n_range"),
    ("verify density_glue", {"density_glue": {"slack": "four"}}, "density_glue.slack"),
    ("verify sparse_glue", {"sparse_glue": {"f_const": "one"}}, "sparse_glue.f_const"),
    ("verify partition_upper_spec", {"partition_upper_spec": {"n_range": [1, "x"]}},
     "partition_upper_spec.n_range"),
    ("verify partition_upper_anchor", {"partition_upper_anchor": {"epsilon": "half"}},
     "partition_upper_anchor.epsilon"),
    ("verify partition_upper_anchor", {"partition_upper_anchor": {"epsilons": 0.5}},
     "partition_upper_anchor.epsilons"),
    ("verify partition_upper_anchor", {"partition_upper_anchor": {"anchors": None}},
     "partition_upper_anchor.anchors"),
    ("verify partition_upper_trans", {"partition_upper_trans": {"C": "two"}},
     "partition_upper_trans.C"),
    ("verify partition_upper_trans", {"partition_upper_trans": {"C": 2.0, "onset": "x"}},
     "partition_upper_trans.onset"),
    ("verify partition_upper_trans", {"partition_upper_trans": {"onset": 5}},
     "partition_upper_trans.C"),  # C not given
    ("verify partition_upper_trans", {"partition_upper_trans": {"C": 0}},
     "partition_upper_trans.C"),  # the bound C ln n needs C > 0
    ("verify partition_upper_trans", {"partition_upper_trans": {"C": -1}},
     "partition_upper_trans.C"),
    ("verify measure_lower", {"measure_lower": {"n_range": [2, 4]}},
     "measure_lower.cylinder"),  # cylinder not given
    ("anchors", {"anchors": {"epsilons": ["a"]}}, "anchors.epsilons"),
    ("gap-profile", {"gap_profile": {"n_range": [2.9, 3]}}, "gap_profile.n_range"),
    ("verify density_glue", {"density_glue": {"slack": True}}, "density_glue.slack"),
    ("verify partition_upper_trans", {"partition_upper_trans": {"C": 2.0, "onset": 3.5}},
     "partition_upper_trans.onset"),
    ("verify density_glue", {"density_glue": {"slack": -1}}, "density_glue.slack"),
    ("verify density_glue", {"density_glue": {"f_const": -3}}, "density_glue.f_const"),
    ("gap-profile", {"gap_profile": {"n_range": [0, 2]}}, "gap_profile.n_range"),
    ("anchors", {"anchors": {"epsilons": [-0.5]}}, "anchors.epsilons"),
    ("verify partition_upper_anchor", {"partition_upper_anchor": {"epsilons": [0.5, 0.0]}},
     "partition_upper_anchor.epsilons"),
    ("verify partition_upper_anchor", {"partition_upper_anchor": {"epsilon": -0.1}},
     "partition_upper_anchor.epsilon"),
    # the shipped sparse shift's declared gap bound answers only up to n = 12
    ("verify partition_upper_spec", {"partition_upper_spec": {"n_range": [4, 13]},
                                     "subshift": SPARSE_STURMIAN},
     "partition_upper_spec.n_range"),
    ("verify partition_upper_trans", {"partition_upper_trans": {"C": 4.0, "n_range": [13]},
                                      "subshift": SPARSE_STURMIAN},
     "partition_upper_trans.n_range"),
    # lengths a check would skip or read past the partition rows (n_max 10)
    ("verify partition_upper_trans", {"partition_upper_trans": {"C": 2.0, "onset": 30}},
     "partition_upper_trans.onset"),  # the onset leaves no length to check
    ("verify partition_upper_trans", {"partition_upper_trans": {"C": 2.0, "n_range": [2]}},
     "partition_upper_trans.n_range"),  # below the onset 3
    ("verify partition_upper_spec", {"partition_upper_spec": {"n_range": [40]}},
     "partition_upper_spec.n_range"),
    ("verify partition_upper_trans", {"partition_upper_trans": {"C": 2.0, "n_range": [40]}},
     "partition_upper_trans.n_range"),
    ("verify measure_lower", {"measure_lower": {"cylinder": "0", "n_range": [40]}},
     "measure_lower.n_range"),
    # symbols outside the alphabet are read before the transfer build
    ("verify measure_lower", {"measure_lower": {"cylinder": "7"}}, "measure_lower.cylinder"),
    ("verify sparse_glue", {"sparse_glue": {"strategy": "factor_glue"}}, "sparse_glue.strategy"),
    ("verify partition_upper_anchor", {"partition_upper_anchor": {"anchors": [400]}},
     "partition_upper_anchor.anchors"),
    # the anchor search starts at n = 3
    ("anchors", {"horizons": {"n_max": 2}}, "horizons.n_max"),
    ("verify partition_upper_anchor", {"horizons": {"n_max": 2}}, "horizons.n_max"),
    ("verify sparse_glue", {"sparse_glue": {"n_range": [4, 13]}, "subshift": SPARSE_STURMIAN},
     "sparse_glue.n_range"),  # past the declared bound's reach
    # anchor_sequence needs the epsilons tightest last
    ("anchors", {"anchors": {"epsilons": [0.4, 0.5]}}, "anchors.epsilons"),
    ("verify partition_upper_anchor", {"partition_upper_anchor": {"epsilons": [0.4, 0.5]}},
     "partition_upper_anchor.epsilons"),
    # n = 31 needs h up to 2 * 31 + f(31) = 64 and n = 32 needs 66 > 64; the
    # slack, read by no check, is not blamed
    ("verify density_glue", {"density_glue": {"slack": 60, "n_range": [31, 32]},
                             "subshift": _bd(height={**BD_HEIGHT, "n_max": 64})},
     "density_glue.n_range"),
    # no Perron iteration meets a tolerance of 0, and a negative margin
    # crosses every bracket
    ("pressure", {"tolerances": {"perron": 0}}, "tolerances.perron"),
    ("verify partition_upper_trans", {"partition_upper_trans": {"C": 2.0},
                                      "tolerances": {"perron": 0}}, "tolerances.perron"),
    ("pressure", {"tolerances": {"margin": -1}}, "tolerances.margin"),
    ("verify partition_upper_spec", {"tolerances": {"margin": -1}}, "tolerances.margin"),
])
def test_malformed_check_parameters_exit_2_naming_the_key(tmp_path, capsys, command, params, key):
    # a budget of 5 nodes runs out at length 2 of any sweep, so every check
    # must read its parameters and lengths before it searches to name the
    # bad one; horizons.* and tolerances.* keys name themselves, the others
    # checks.<key>
    params = dict(params)
    subshift = params.pop("subshift", {"family": "golden_mean"})
    horizons = params.pop("horizons", {"n_max": 10, "n_state": 2})
    tolerances = params.pop("tolerances", {})
    cfg_path = write_yaml(tmp_path, golden_doc(subshift=subshift, horizons=horizons,
                                               tolerances=tolerances, checks=params))
    out = tmp_path / "out"
    argv = [*command.split(), "--config", str(cfg_path), "--out", str(out), "--budget", "5"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert (key if key.startswith(("horizons.", "tolerances.")) else f"checks.{key}") in err
    assert not out.exists()


@pytest.mark.parametrize("name", ["bounded_density", "full_shift_run"])
def test_spec_check_computes_each_run_value_once(tmp_path, monkeypatch, name):
    # both configs take the pressure from the bracket, which reads the table
    # and g that the check itself reads again
    calls = []

    def counted(module, fn):
        def wrapper(*args, **kwargs):
            calls.append(fn.__name__)
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, fn.__name__, wrapper)

    counted(cli, cli.variation_profile)
    counted(cli.pressure, cli.pressure.partition_table)
    counted(cli.pressure, cli.pressure.pressure_bracket)
    out = tmp_path / "out"
    argv = ["verify", "partition_upper_spec", "--config", str(CONFIG_DIR / f"{name}.yaml"),
            "--out", str(out)]
    assert main(argv) == 0
    assert sorted(calls) == ["partition_table", "pressure_bracket", "variation_profile"]


def test_crossed_bracket_exits_4(tmp_path):
    doc = golden_doc(
        subshift={"family": "sft", "forbidden": ["11"], "declared_gap": 0},
        horizons={"n_max": 12},
    )
    cfg_path = write_yaml(tmp_path, doc)
    assert main(["pressure", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 4


def test_lower_side_above_the_transfer_ln_lambda_exits_4_and_writes_nothing(tmp_path, capsys):
    # m = 2 cannot glue ..1 to 1.. when 1001 is forbidden, so the declared
    # gap 1 is false; the bracket [0.7015, 0.7140] does not cross, but its
    # lower side sits above ln lambda = 0.69956
    doc = golden_doc(
        subshift={"family": "sft", "forbidden": ["11", "1001"], "declared_gap": 1},
        potential={"kind": "locally_constant", "radius": 0, "values": {"0": 0.0, "1": 1.0}},
        horizons={"n_max": 40, "n_state": 4},
    )
    out = tmp_path / "out"
    assert main(["pressure", "--config", str(write_yaml(tmp_path, doc)), "--out", str(out)]) == 4
    err = capsys.readouterr().err
    assert "transfer ln lambda 0.69955" in err and "best_lo=0.70150" in err
    assert not out.exists()


def test_windowed_transfer_ln_lambda_may_exceed_the_upper_side(tmp_path):
    # the sqrt table h(n) = floor(n/3) + ceil(2 sqrt n) cut to windows of
    # length 15 presents a superset: ln lambda 0.692694 > best_hi 0.692549
    heights = [n // 3 + math.isqrt(4 * n - 1) + 1 for n in range(1, 41)]
    doc = golden_doc(subshift=_bd(height={"form": "table", "values": heights}),
                     horizons={"n_max": 22, "n_state": 14})
    out = tmp_path / "out"
    assert main(["pressure", "--config", str(write_yaml(tmp_path, doc)), "--out", str(out)]) == 0
    status = json.loads((out / "manifest.json").read_text())["status"]
    assert status["transfer"]["ln_lambda"] > status["bracket"]["best_hi"]


def test_failed_transfer_model_exits_4_and_writes_nothing(tmp_path, capsys):
    # the SFT avoiding 10 (language 0*1*) has two cyclic components, which
    # the transfer model refuses after the partition rows are known
    doc = golden_doc(subshift={"family": "sft", "forbidden": ["10"]})
    out = tmp_path / "out"
    assert main(["pressure", "--config", str(write_yaml(tmp_path, doc)), "--out", str(out)]) == 4
    assert "inconsistency: " in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("tag, checks", [
    ("partition_upper_spec", {}),
    ("partition_upper_trans", {"C": 4.0}),  # its precondition reads f up to n_max
])
def test_default_lengths_beyond_the_gap_reach_exit_2_naming_n_max(tmp_path, capsys, tag, checks):
    # n_max 14 against the sparse shift's reach of 12, found before any sweep
    doc = golden_doc(subshift=SPARSE_STURMIAN, horizons={"n_max": 14}, checks={tag: checks})
    out = tmp_path / "out"
    argv = ["verify", tag, "--config", str(write_yaml(tmp_path, doc)), "--out", str(out),
            "--budget", "5"]
    assert main(argv) == 2
    assert "horizons.n_max: n=14 is beyond n=12" in capsys.readouterr().err
    assert not out.exists()


def test_density_glue_checks_its_height_table_before_its_pass(tmp_path, capsys):
    # n = 60 needs h up to 2 * 60 + f(60) = 122 > 64; a budget of 50
    # nodes would run out at length 14 of the pass, so the need is read first
    doc = read_yaml((CONFIG_DIR / "bounded_density.yaml").read_text())
    doc["checks"]["density_glue"]["n_range"] = [2, 60]
    out = tmp_path / "out"
    argv = ["verify", "density_glue", "--config", str(write_yaml(tmp_path, doc)),
            "--out", str(out), "--budget", "50"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "checks.density_glue.n_range: height table" in err and "need 122 for n=60" in err
    assert not out.exists()


def test_gap_profile_past_the_declared_reach_leaves_f_declared_blank(tmp_path):
    # the shipped sparse shift's bound answers up to n = 12; transitivity
    # mode with m_max set reads no bound, so 13 and 14 are measured alone
    doc = read_yaml((CONFIG_DIR / "sparse_sturmian.yaml").read_text())
    rows = {}
    for ns in ([12], [12, 13, 14]):
        doc["checks"]["gap_profile"]["n_range"] = ns
        out = tmp_path / f"out{len(ns)}"
        argv = ["gap-profile", "--config", str(write_yaml(tmp_path, doc)), "--out", str(out)]
        assert main(argv) == 0
        rows[len(ns)] = read_csv_payload(out / "gap_profile.csv")[1:]
    header, data = rows[3]
    assert data[0] == rows[1][1][0]  # the row at n = 12 is unchanged
    f_declared = header.index("f_declared")
    assert [(r[0], r[f_declared]) for r in data] == [("12", "4"), ("13", ""), ("14", "")]
    assert all(r[header.index("status")] == "ok" for r in data)


def test_verify_fail_exits_5(tmp_path):
    doc = golden_doc(checks={"partition_upper_spec": {"pressure": 0.2}})
    cfg_path = write_yaml(tmp_path, doc)
    out = tmp_path / "out"
    code = main(["verify", "partition_upper_spec", "--config", str(cfg_path), "--out", str(out)])
    assert code == 5
    report = json.loads((out / "report_partition_upper_spec.json").read_text())
    assert report["verdict"] == "fail"


@pytest.mark.parametrize("n_state", [0, 1])
def test_any_set_n_state_makes_the_transfer_the_default_pressure(tmp_path, n_state):
    # a set n_state, 0 included, selects ln lambda of the golden mean's
    # class graph, which no n_state changes, and records the transfer work
    doc = golden_doc(horizons={"n_max": 10, "n_state": n_state},
                     checks={"partition_upper_spec": {}})
    cfg_path = write_yaml(tmp_path, doc)
    out = tmp_path / "out"
    code = main(["verify", "partition_upper_spec", "--config", str(cfg_path), "--out", str(out)])
    assert code == 0
    report = json.loads((out / "report_partition_upper_spec.json").read_text())
    ln_phi = math.log((1 + math.sqrt(5)) / 2)
    assert report["extra"]["pressure"] == pytest.approx(ln_phi, abs=1e-12)
    status = json.loads((out / "manifest.json").read_text())["status"]
    assert status["transfer"]["n_state"] == n_state


def test_precondition_fail_exits_6(tmp_path):
    doc = golden_doc(checks={"partition_upper_trans": {"C": 0.55, "onset": 5}})
    cfg_path = write_yaml(tmp_path, doc)
    out = tmp_path / "out"
    code = main(["verify", "partition_upper_trans", "--config", str(cfg_path), "--out", str(out)])
    assert code == 6
    report = json.loads((out / "report_partition_upper_trans.json").read_text())
    assert report["verdict"] == "precondition_fail"
    assert report["witnesses"]["n"] == 5


def test_gap_profile_horizon_exhaustion_exits_3(tmp_path):
    doc = golden_doc(horizons={"n_max": 4, "m_max": 0},
                     checks={"gap_profile": {"n_range": [2, 3]}})
    cfg_path = write_yaml(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["gap-profile", "--config", str(cfg_path), "--out", str(out)]) == 3
    comments, header, rows = read_csv_payload(out / "gap_profile.csv")
    assert header[0] == "n"
    assert any(r[6] == "horizon_exhausted" for r in rows)


def test_gap_profile_success(tmp_path):
    doc = golden_doc(mode="specification",
                     horizons={"n_max": 5, "m_max": 4},
                     checks={"gap_profile": {"n_range": [2, 3, 4]}})
    cfg_path = write_yaml(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["gap-profile", "--config", str(cfg_path), "--out", str(out)]) == 0
    _, _, rows = read_csv_payload(out / "gap_profile.csv")
    assert all(r[1] == "1" for r in rows)  # f_declared
    assert all(r[2] == "1" for r in rows)  # f_empirical


def test_gap_profile_under_the_empirical_gap_exits_5(tmp_path, capsys):
    # the golden mean needs a 0 between two 1s, so a declared gap of 0 fails
    doc = golden_doc(subshift={"family": "sft", "forbidden": ["11"], "declared_gap": 0},
                     mode="specification", horizons={"n_max": 5, "m_max": 3},
                     checks={"gap_profile": {"n_range": [2, 3]}})
    out = tmp_path / "out"
    assert main(["gap-profile", "--config", str(write_yaml(tmp_path, doc)), "--out", str(out)]) == 5
    # at gap 0, 01 10 and 001 100 hold 11: each length's least (v, w, m)
    assert ("declared bound violated at n=[2, 3]; at n=2 no filler of length 0 joins v=01 "
            "and w=10") in capsys.readouterr().err
    status = json.loads((out / "manifest.json").read_text())["status"]["gap_profile"]
    assert status["counterexamples"] == {"2": {"v": "01", "w": "10", "m": 0},
                                         "3": {"v": "001", "w": "100", "m": 0}}
    _, _, rows = read_csv_payload(out / "gap_profile.csv")
    assert [(r[1], r[2]) for r in rows] == [("0", "1"), ("0", "1")]  # f_declared, f_empirical


@pytest.mark.parametrize("command, doc", [
    ("gap-profile", golden_doc(mode="specification",
                               checks={"gap_profile": {"n_range": [4, 5, 6]}})),
    ("verify sparse_glue", {"subshift": SPARSE_STURMIAN,
                            "checks": {"sparse_glue": {"n_range": [4, 6, 8]}}}),
], ids=["gap-profile", "sparse_glue"])
@pytest.mark.parametrize("pair_budget", [None, 20])
def test_every_glue_scan_takes_its_columns_from_sample_pairs(
    tmp_path, monkeypatch, command, doc, pair_budget
):
    # sample_pairs is the one column rule: full scans reach it too, so a
    # hook on it sees each length scanned once, sampled or not
    calls, sample_pairs = [], gluing.sample_pairs

    def counted(*args):
        calls.append(sample_pairs(*args))
        return calls[-1]

    monkeypatch.setattr(gluing, "sample_pairs", counted)
    if pair_budget is not None:
        doc = {**doc, "pair_budget": pair_budget}
    out = tmp_path / "out"
    assert main([*command.split(), "--config", str(write_yaml(tmp_path, doc)),
                 "--out", str(out)]) == 0
    assert len(calls) == 3
    assert all((cov == 1.0) == (pair_budget is None) for _, cov in calls)


def test_specification_horizon_below_the_declared_gap_exits_2(tmp_path, capsys):
    # f_declared(n) = 2 on the shipped density config: m_max 1 checks no
    # gap, which used to pass every row
    doc = yaml.safe_load((CONFIG_DIR / "bounded_density.yaml").read_text())
    doc["horizons"]["m_max"] = 1
    _cli_rejects(tmp_path, capsys, doc, "horizons.m_max", "gap-profile")
    doc["horizons"]["m_max"] = 2
    out = tmp_path / "at_gap"
    assert main(["gap-profile", "--config", str(write_yaml(tmp_path, doc)), "--out", str(out)]) == 0
    assert (out / "gap_profile.csv").exists()


@pytest.mark.parametrize("command, mode", [
    (["gap-profile"], "specification"),
    (["gap-profile"], "transitivity"),
    (["verify", "sparse_glue"], "transitivity"),
], ids=["specification", "transitivity", "sparse_glue"])
def test_factor_glue_off_the_sparse_family_exits_2(tmp_path, capsys, command, mode):
    # every full-shift pair glues at m = 0, so no search needs a factor
    # candidate; the strategy is still checked against the family first
    doc = yaml.safe_load((CONFIG_DIR / "full_shift.yaml").read_text())
    doc["strategy"], doc["mode"] = "factor_glue", mode
    doc["checks"] = {"sparse_glue": {"n_range": [2, 3], "f_const": 1, "strategy": "factor_glue"}}
    out = tmp_path / "out"
    assert main([*command, "--config", str(write_yaml(tmp_path, doc)), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert "factor_glue needs a sparse Sturmian instance" in captured.err
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("command, over, key", [
    ("gap-profile", {"strategy": "factor_glue"}, "strategy"),
    ("verify sparse_glue", {"strategy": "factor_glue"}, "strategy"),
    ("verify density_glue", {}, "subshift.family"),
])
def test_family_settings_exit_2_naming_the_key_before_any_pass(tmp_path, capsys, command, over,
                                                               key):
    # a budget of 1 node runs out at length 1 of any pass on the golden mean
    out = tmp_path / "out"
    argv = [*command.split(), "--config", str(write_yaml(tmp_path, golden_doc(**over))),
            "--out", str(out), "--budget", "1"]
    assert main(argv) == 2
    assert f"input error: {key}: " in capsys.readouterr().err
    assert not out.exists()


def test_zero_measure_cylinder_exits_2_naming_the_key(tmp_path, capsys):
    doc = golden_doc(checks={"measure_lower": {"cylinder": "11"}})
    _cli_rejects(tmp_path, capsys, doc, "checks.measure_lower.cylinder", "verify measure_lower")


@pytest.mark.parametrize("table, rc", [(9, 0), (8, 2)])
def test_transitivity_reads_the_density_table_only_to_the_least_gap(tmp_path, capsys, table, rc):
    # at n = 4 the least gap is 1, so v u w needs lengths <= 9; filler
    # levels grow only to the gap each pair asks for, never to m_max = 8
    doc = {"subshift": _bd(height={**BD_HEIGHT, "n_max": table}), "mode": "transitivity",
           "strategy": "exhaustive", "horizons": {"n_max": 4, "m_max": 8},
           "checks": {"gap_profile": {"n_range": [4]}}}
    out = tmp_path / "out"
    argv = ["gap-profile", "--config", str(write_yaml(tmp_path, doc)), "--out", str(out)]
    assert main(argv) == rc
    if rc:
        assert "height table only covers lengths <= 8" in capsys.readouterr().err
        assert not out.exists()
    else:
        assert [r[2] for r in read_csv_payload(out / "gap_profile.csv")[2]] == ["1"]


@pytest.mark.parametrize("budget, rc", [(174, 0), (173, 3)])
def test_filler_levels_are_charged_the_budget(tmp_path, capsys, budget, rc):
    # golden mean, n = 2, gaps 1..30: from each start key (the last two
    # symbols) the filler levels hold 1, 2 (or 1), 3, 3, ... keys; gap 30
    # expands levels 0..29, at most 87 keys of 2 nodes each. Listing L_2
    # costs 6 nodes, so the levels alone pass the budget.
    doc = golden_doc(mode="specification", horizons={"n_max": 4, "m_max": 30},
                     checks={"gap_profile": {"n_range": [2]}})
    out = tmp_path / "out"
    argv = ["gap-profile", "--config", str(write_yaml(tmp_path, doc)), "--out", str(out)]
    assert main([*argv, "--budget", str(budget)]) == rc
    if rc:
        assert (f"budget exhausted: node budget {budget} exhausted at length 30"
                in capsys.readouterr().err)
        assert not out.exists()


def test_verify_density_glue_via_cli(tmp_path):
    doc = {
        "label": "half density",
        "subshift": {"family": "bounded_density", "k": 1,
                     "height": {"form": "ceil_frac", "num": 1, "den": 2, "n_max": 40}},
        "horizons": {"n_max": 8},
        "checks": {"density_glue": {"n_range": [2, 3, 4, 5], "slack": 3}},
    }
    cfg_path = write_yaml(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["verify", "density_glue", "--config", str(cfg_path), "--out", str(out)]) == 0
    report = json.loads((out / "report_density_glue.json").read_text())
    assert report["verdict"] == "pass"
    assert [n for n, _ in report["margins"]] == [2, 3, 4, 5]
    assert "slack" not in report["extra"]  # accepted, and read by no check


def test_verify_density_glue_reports_a_five_word_witness_via_cli(tmp_path):
    # h(j) = min(j, 13 + floor(3(j - 13)/4)): at gap 0 every list of four
    # words of L_3 glues, but 011 111 111 111 111 holds 1^14 > h(14) = 13
    doc = {
        "subshift": {"family": "bounded_density", "k": 1, "height": {
            "form": "table", "values": [min(j, 13 + 3 * (j - 13) // 4) for j in range(1, 41)]}},
        "horizons": {"n_max": 8},
        "checks": {"density_glue": {"n_range": [3], "f_const": 0}},
    }
    cfg_path = write_yaml(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["verify", "density_glue", "--config", str(cfg_path), "--out", str(out)]) == 5
    report = json.loads((out / "report_density_glue.json").read_text())
    assert report["verdict"] == "fail"
    assert report["margins"] == [[3, -7.0]]
    assert report["witnesses"]["3"] == {"words": ["011", "111", "111", "111", "111"], "m": 0}
    status = json.loads((out / "manifest.json").read_text())["status"]["glue"]
    assert status["probes"] == status["memo_hits"] == 0


def test_verify_sparse_glue_via_cli(tmp_path):
    doc = {
        "subshift": {"family": "sparse_sturmian", "slope": [8, 21],
                     "k_max": 2, "n_seq": [4, 12]},
        "strategy": "factor_glue",
        "mode": "transitivity",
        "checks": {"sparse_glue": {"n_range": [2, 3, 4]}},
    }
    cfg_path = write_yaml(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["verify", "sparse_glue", "--config", str(cfg_path), "--out", str(out)]) == 0


def test_verify_measure_lower_via_cli(tmp_path):
    doc = golden_doc(checks={"measure_lower": {"cylinder": "0", "n_range": [2, 4, 6]}})
    cfg_path = write_yaml(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["verify", "measure_lower", "--config", str(cfg_path), "--out", str(out)]) == 0


def test_verify_anchor_via_cli(tmp_path):
    doc = golden_doc(
        horizons={"n_max": 20},
        checks={"partition_upper_anchor": {"epsilon": 0.5, "epsilons": [0.5, 0.4]}},
    )
    cfg_path = write_yaml(tmp_path, doc)
    out = tmp_path / "out"
    argv = ["verify", "partition_upper_anchor", "--config", str(cfg_path), "--out", str(out)]
    assert main(argv) == 0
    report = json.loads((out / "report_partition_upper_anchor.json").read_text())
    assert report["extra"]["onset_index"] == 1
    assert [n for n, _ in report["margins"]] == [8, 13]


def test_anchor_search_names_the_limit_that_binds(tmp_path, capsys):
    # sparse_sturmian's gap bound answers n <= 12, below its n_max of 14
    argv = ["verify", "partition_upper_anchor", "--out", str(tmp_path / "sparse")]
    assert main([*argv, "--config", str(CONFIG_DIR / "sparse_sturmian.yaml")]) == 2
    err = capsys.readouterr().err
    assert "up to n=12, the reach of the declared gap bound" in err
    assert "horizons.n_max" not in err
    doc = golden_doc(checks={"partition_upper_anchor": {"epsilons": [0.01]}})
    argv = ["verify", "partition_upper_anchor", "--out", str(tmp_path / "golden")]
    assert main([*argv, "--config", str(write_yaml(tmp_path, doc))]) == 2
    assert "raise horizons.n_max or the epsilons" in capsys.readouterr().err


def test_equilibrium_via_cli(tmp_path):
    cfg_path = write_yaml(tmp_path, golden_doc())
    out = tmp_path / "out"
    assert main(["equilibrium", "--config", str(cfg_path), "--out", str(out)]) == 0
    payload = json.loads((out / "equilibrium.json").read_text())
    assert sum(payload["stationary"].values()) == pytest.approx(1.0, abs=1e-10)
    assert payload["symbol_cylinders"]["0"] == pytest.approx(
        (5 + math.sqrt(5)) / 10, abs=1e-9
    )


def test_anchors_via_cli(tmp_path):
    doc = golden_doc(horizons={"n_max": 24},
                     checks={"anchors": {"epsilons": [0.5, 0.4, 0.35]}})
    cfg_path = write_yaml(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["anchors", "--config", str(cfg_path), "--out", str(out)]) == 0
    _, header, rows = read_csv_payload(out / "anchors.csv")
    assert [int(r[2]) for r in rows] == [8, 13, 18]


def test_anchors_incomplete_exits_3(tmp_path):
    doc = golden_doc(horizons={"n_max": 24}, checks={"anchors": {"epsilons": [0.2]}})
    cfg_path = write_yaml(tmp_path, doc)
    assert main(["anchors", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 3


def test_unknown_verify_tag_is_a_usage_error(tmp_path):
    cfg_path = write_yaml(tmp_path, golden_doc())
    with pytest.raises(SystemExit) as ei:
        main(["verify", "no_such_check", "--config", str(cfg_path)])
    assert ei.value.code == 2
