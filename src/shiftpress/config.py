"""Experiment configuration: one YAML document describes one experiment.

The document carries a subshift declaration, a potential declaration,
horizons, tolerances, strategy selections, and per-check parameter
blocks. Loading keeps the raw mapping alongside the parsed view so the
configuration digest (sha256 of the canonical JSON form) and YAML
round-trips are stable. No environment variables are consulted except an
output-root override handled by the command line layer.

Schema sketch::

    label: golden mean, zero potential
    subshift:
      family: sft                 # full_shift | sft | golden_mean |
      forbidden: ["11"]           #   bounded_density | sparse_sturmian | product
      declared_gap: 1
    potential:
      kind: zero                  # zero | locally_constant | reciprocal_run | run_levels
    horizons: {n_max: 16, n_state: 3, var_horizon: 8, m_max: 10}
    tolerances: {margin: 1.0e-9, perron: 1.0e-12}
    strategy: exhaustive
    mode: specification
    seed: 0
    pair_budget: 200000
    checks:
      density_glue: {n_range: [2, 3, 4], slack: 4}
    output_dir: out
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Any

import yaml

from .errors import InputError
from .gluing import MODE_SPECIFICATION, MODE_TRANSITIVITY, STRATEGIES
from .potentials import (
    LocallyConstantPotential,
    Potential,
    ZeroPotential,
    make_reciprocal_run,
    make_run_levels,
)
from .subshifts import (
    SubshiftSpec,
    make_bounded_density,
    make_full_shift,
    make_golden_mean,
    make_sft,
    make_sparse_sturmian,
    make_sturmian_factors,
    product_subshift,
)
from .words import parse_word

FAMILIES = (
    "full_shift",
    "sft",
    "golden_mean",
    "bounded_density",
    "sparse_sturmian",
    "product",
)
POTENTIAL_KINDS = ("zero", "locally_constant", "reciprocal_run", "run_levels")


@dataclass(frozen=True)
class Horizons:
    n_max: int = 12
    m_max: int | None = None
    n_state: int | None = None
    var_horizon: int | None = None


@dataclass(frozen=True)
class Tolerances:
    margin: float = 1e-9
    perron: float = 1e-12


@dataclass(frozen=True)
class ExperimentConfig:
    raw: dict
    label: str
    subshift: dict
    potential: dict
    horizons: Horizons
    tolerances: Tolerances
    strategy: str
    mode: str
    seed: int
    pair_budget: int
    checks: dict = field(default_factory=dict)
    output_dir: str = "out"

    @property
    def digest(self) -> str:
        return config_digest(self)


def _require(d: dict, key: str, ctx: str) -> Any:
    if key not in d:
        raise InputError(f"{ctx}: missing required key {key!r}")
    return d[key]


def _as_mapping(value: Any, ctx: str) -> dict:
    if not isinstance(value, dict):
        raise InputError(f"{ctx}: expected a mapping, got {type(value).__name__}")
    return value


def _only_known(d: dict, known, ctx: str) -> None:
    unknown = set(d) - set(known)
    if unknown:
        raise InputError(f"{ctx}: unknown keys {sorted(unknown)}")


def read_int(value: Any) -> int:
    """value as an int: an int, an integral float or an integer string.
    Anything else, bools included, raises ValueError."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, str):
        try:
            return int(value)
        except ValueError:
            pass
    raise ValueError(f"expected an integer, got {value!r}")


def _int(value: Any, ctx: str) -> int:
    try:
        return read_int(value)
    except ValueError as exc:
        raise InputError(f"{ctx}: {exc}") from None


def _int_list(value: Any, ctx: str) -> list[int]:
    if not isinstance(value, (list, tuple)):
        raise InputError(f"{ctx}: expected a list of integers, got {value!r}")
    return [_int(v, ctx) for v in value]


def _one_of(value: Any, choices: tuple, ctx: str) -> str:
    if value not in choices:
        raise InputError(f"{ctx}: unknown value {value!r}; choose from {choices}")
    return value


def config_from_dict(doc: dict) -> ExperimentConfig:
    doc = _as_mapping(doc, "config")
    _only_known(doc, (
        "label", "subshift", "potential", "horizons", "tolerances",
        "strategy", "mode", "seed", "pair_budget", "checks", "output_dir",
    ), "config")
    sub = _as_mapping(_require(doc, "subshift", "config"), "subshift")
    fam = _require(sub, "family", "subshift")
    if fam not in FAMILIES:
        raise InputError(f"subshift: unknown family {fam!r}; choose from {FAMILIES}")
    pot = _as_mapping(doc.get("potential", {"kind": "zero"}), "potential")
    kind = pot.get("kind", "zero")
    if kind not in POTENTIAL_KINDS:
        raise InputError(
            f"potential: unknown kind {kind!r}; choose from {POTENTIAL_KINDS}"
        )
    hz = _as_mapping(doc.get("horizons", {}), "horizons")
    _only_known(hz, ("n_max", "m_max", "n_state", "var_horizon"), "horizons")
    horizons = Horizons(
        n_max=_int(hz.get("n_max", 12), "horizons.n_max"),
        **{key: _int(hz[key], f"horizons.{key}")
           for key in ("m_max", "n_state", "var_horizon") if hz.get(key) is not None},
    )
    if horizons.n_max < 1:
        raise InputError("horizons: n_max must be >= 1")
    tl = _as_mapping(doc.get("tolerances", {}), "tolerances")
    _only_known(tl, ("margin", "perron"), "tolerances")
    tolerances = Tolerances(
        margin=float(tl.get("margin", 1e-9)),
        perron=float(tl.get("perron", 1e-12)),
    )
    strategy = _one_of(doc.get("strategy", "exhaustive"), STRATEGIES, "strategy")
    mode = _one_of(
        doc.get("mode", MODE_TRANSITIVITY), (MODE_TRANSITIVITY, MODE_SPECIFICATION), "mode"
    )
    return ExperimentConfig(
        raw=doc,
        label=str(doc.get("label", fam)),
        subshift=sub,
        potential=pot,
        horizons=horizons,
        tolerances=tolerances,
        strategy=strategy,
        mode=mode,
        seed=_int(doc.get("seed", 0), "seed"),
        pair_budget=_int(doc.get("pair_budget", 200_000), "pair_budget"),
        checks=_as_mapping(doc.get("checks", {}), "checks"),
        output_dir=str(doc.get("output_dir", "out")),
    )


def load_config(path: str | Path) -> ExperimentConfig:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise InputError(f"cannot read config {path}: {exc}") from exc
    try:
        doc = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise InputError(f"config {path} is not valid YAML: {exc}") from exc
    if doc is None:
        raise InputError(f"config {path} is empty")
    return config_from_dict(doc)


def save_config(cfg: ExperimentConfig, path: str | Path) -> None:
    Path(path).write_text(yaml.safe_dump(cfg.raw, sort_keys=True))


def config_digest(cfg: ExperimentConfig) -> str:
    canon = json.dumps(cfg.raw, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------


def _height_table(decl: dict, ctx: str) -> list[int]:
    """Window-sum cap table h(1..n_max) from a height declaration."""
    decl = _as_mapping(decl, ctx)
    form = _require(decl, "form", ctx)
    if form == "table":
        return _int_list(_require(decl, "values", ctx), f"{ctx}.values")
    n_max = _int(_require(decl, "n_max", ctx), f"{ctx}.n_max")
    if n_max < 1:
        raise InputError(f"{ctx}: n_max must be >= 1")
    if form == "ceil_frac":
        num = _int(_require(decl, "num", ctx), f"{ctx}.num")
        den = _int(_require(decl, "den", ctx), f"{ctx}.den")
        if den <= 0:
            raise InputError(f"{ctx}: den must be positive")
        return [math.ceil(Fraction(num * n, den)) for n in range(1, n_max + 1)]
    if form == "linear":
        a = _int(_require(decl, "a", ctx), f"{ctx}.a")
        b = _int(decl.get("b", 0), f"{ctx}.b")
        return [a * n + b for n in range(1, n_max + 1)]
    raise InputError(f"{ctx}: unknown height form {form!r}")


def _run_height(decl: dict, ctx: str):
    """Run-length denominator h(0), h(1), ... from a height declaration."""
    decl = _as_mapping(decl, ctx)
    form = _require(decl, "form", ctx)
    if form == "table":
        vals = [float(v) for v in _require(decl, "values", ctx)]
        return vals
    if form == "affine":
        a = float(_require(decl, "a", ctx))
        b = float(_require(decl, "b", ctx))
        return lambda k: a * k + b
    if form == "power":
        p = float(_require(decl, "p", ctx))
        scale = float(decl.get("scale", 1.0))
        return lambda k: scale * (k + 1.0) ** p
    raise InputError(f"{ctx}: unknown height form {form!r}")


def build_subshift(decl: dict, ctx: str = "subshift") -> SubshiftSpec:
    """The subshift a declaration names; ctx is its path in the config."""
    decl = _as_mapping(decl, ctx)
    fam = _require(decl, "family", ctx)

    def integer(key: str, default=None) -> int:
        value = _require(decl, key, ctx) if default is None else decl.get(key, default)
        return _int(value, f"{ctx}.{key}")

    if fam == "full_shift":
        return make_full_shift(integer("alphabet_size"))
    if fam == "golden_mean":
        return make_golden_mean()
    if fam == "sft":
        forbidden = [parse_word(str(w)) for w in _require(decl, "forbidden", ctx)]
        dg = None if decl.get("declared_gap") is None else integer("declared_gap")
        return make_sft(integer("alphabet_size", 2), forbidden, declared_gap=dg)
    if fam == "bounded_density":
        h = _height_table(_require(decl, "height", ctx), f"{ctx}.height")
        return make_bounded_density(integer("k"), h)
    if fam == "sparse_sturmian":
        slope = _int_list(_require(decl, "slope", ctx), f"{ctx}.slope")
        if len(slope) != 2:
            raise InputError(f"{ctx}.slope: expected a [p, q] pair, got {slope!r}")
        n_seq = _int_list(_require(decl, "n_seq", ctx), f"{ctx}.n_seq")
        fs = make_sturmian_factors(slope[0], slope[1], integer("k_max", len(n_seq)))
        return make_sparse_sturmian(fs, n_seq)
    if fam == "product":
        factors = _require(decl, "factors", ctx)
        if not (isinstance(factors, list) and len(factors) == 2):
            raise InputError(f"{ctx}: factors must list exactly two declarations")
        a, b = (build_subshift(f, f"{ctx}.factors[{i}]") for i, f in enumerate(factors))
        return product_subshift(a, b)
    raise InputError(f"{ctx}: unknown family {fam!r}")


def build_potential(decl: dict, spec: SubshiftSpec) -> Potential:
    decl = _as_mapping(decl, "potential")
    kind = decl.get("kind", "zero")
    if kind == "zero":
        return ZeroPotential()
    if kind == "locally_constant":
        radius = _int(_require(decl, "radius", "locally_constant"), "potential.radius")
        table = _as_mapping(_require(decl, "values", "locally_constant"), "values")
        values = {parse_word(str(k)): float(v) for k, v in table.items()}
        default = decl.get("default", 0.0)
        return LocallyConstantPotential(
            radius,
            values,
            spec.alphabet_size,
            default=None if default is None else float(default),
        )
    if kind == "reciprocal_run":
        h = _run_height(_require(decl, "height", "reciprocal_run"), "height")
        kw = {}
        if "k_cap" in decl:
            kw["k_cap"] = _int(decl["k_cap"], "potential.k_cap")
        return make_reciprocal_run(h, **kw)
    if kind == "run_levels":
        levels = _require(decl, "levels", "run_levels")
        a_inf = float(_require(decl, "limit", "run_levels"))
        return make_run_levels([float(v) for v in levels], a_inf)
    raise InputError(f"potential: unknown kind {kind!r}")
