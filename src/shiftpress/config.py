"""Experiment configuration: one YAML document describes one experiment.

The document carries a subshift declaration, a potential declaration,
horizons, tolerances, strategy selections and per-check parameter blocks.
Each section is read against its key table below. An unknown key at any
level, or a value its reader rejects, is an InputError naming its dotted
path (`subshift.factors[1].alphabet_size`), so the command line exits 2
before it writes anything. The raw mapping is kept beside the converted
view, so the config digest (sha256 of the canonical JSON form) and YAML
round-trips are stable. No environment variables are consulted.

Schema sketch, with the keys each family, form and kind allows::

    label: golden mean, zero potential
    subshift:
      family: sft          # full_shift: alphabet_size | golden_mean
      alphabet_size: 2     # sft: alphabet_size, forbidden, declared_gap
      forbidden: ["11"]    # bounded_density: k, height | product: factors (two blocks)
      declared_gap: 1      # sparse_sturmian: slope, k_max, n_seq
    #   height.form:         table: values | ceil_frac: num, den, n_max | linear: a, b, n_max
    potential:
      kind: zero           # zero | locally_constant: radius, values, default
                           # reciprocal_run: height, k_cap | run_levels: levels, limit
    #   height.form:         table: values | affine: a, b | power: p, scale
    horizons: {n_max: 16, n_state: 3, var_horizon: 8, m_max: 10}
    tolerances: {margin: 1.0e-9, perron: 1.0e-12}
    strategy: exhaustive
    mode: specification
    seed: 0
    pair_budget: 200000
    checks:                # CHECK_TABLES lists each check's keys
      density_glue: {n_range: [2, 3, 4], slack: 4}
    output_dir: out
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field, fields
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

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
    potential: dict = field(default_factory=lambda: {"kind": "zero"})
    horizons: Horizons = Horizons()
    tolerances: Tolerances = Tolerances()
    strategy: str = "exhaustive"
    mode: str = MODE_TRANSITIVITY
    seed: int = 0
    pair_budget: int = 200_000
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


# A reader maps (value, path) to the converted value. Leaf readers raise
# ValueError or TypeError, reported at the key's path by _read; section
# readers raise InputError naming the nested path themselves.
Reader = Callable[[Any, str], Any]


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


def _int_from(least: float) -> Reader:
    def read(value, path):
        n = read_int(value)
        if n < least:
            raise ValueError(f"expected an integer >= {least}, got {value!r}")
        return n

    return read


_int, _natural, _positive = _int_from(-math.inf), _int_from(0), _int_from(1)


def _float(value, path) -> float:
    if isinstance(value, bool) or not math.isfinite(x := float(value)):
        raise ValueError(f"expected a finite number, got {value!r}")
    return x


def _float_from(least: float, strict: bool = False) -> Reader:
    """A finite number >= least, or > least when strict."""

    def read(value, path):
        x = _float(value, path)
        if not (x > least if strict else x >= least):
            raise ValueError(f"expected a number {'>' if strict else '>='} {least}, got {value!r}")
        return x

    return read


def _str(value, path) -> str:
    return str(value)


def _word(value, path) -> str:
    """Word text parse_word accepts; YAML reads an unquoted word as an int."""
    if isinstance(value, bool) or not isinstance(value, (str, int)):
        raise ValueError(f"expected a word, got {value!r}")
    try:
        parse_word(str(value))
    except InputError as exc:
        raise ValueError(exc) from None
    return str(value)


def _word_floats(value, path) -> dict[str, float]:
    return {_word(k, path): _float(v, path) for k, v in _as_mapping(value, path).items()}


def _pressure(value, path) -> str | float:
    """A check's pressure source: 'transfer', 'bracket' or a number."""
    return value if value in ("transfer", "bracket") else _float(value, path)


def _one_of(*choices) -> Reader:
    def read(value, path):
        if value not in choices:
            raise ValueError(f"unknown value {value!r}; choose from {choices}")
        return value

    return read


def _or_none(read: Reader) -> Reader:
    return lambda value, path: None if value is None else read(value, path)


def _list_of(read: Reader, least: int = 0, most: float = math.inf) -> Reader:
    """A list of least..most items, each read by read; a nested section
    names item i path[i]."""

    def read_list(value, path):
        if not isinstance(value, (list, tuple)):
            raise ValueError(f"expected a list, got {value!r}")
        if not least <= len(value) <= most:
            size = least if most == least else f"{least} or more"
            raise ValueError(f"expected {size} items, got {value!r}")
        return [read(v, f"{path}[{i}]") for i, v in enumerate(value)]

    return read_list


def _read(read: Reader, value: Any, path: str) -> Any:
    try:
        return read(value, path)
    except (TypeError, ValueError) as exc:
        raise InputError(f"{path}: {exc}") from None


def read_section(value: Any, table: dict, path: str) -> dict:
    """value, a mapping, with each key converted by its reader in table (a
    dict there is a nested section's table). An unknown key, or a value its
    reader rejects, raises InputError naming the dotted path; "" is the
    top level. Absent keys stay absent."""
    out = {}
    for key, item in _as_mapping(value, path or "config").items():
        at = f"{path}.{key}" if path else str(key)
        if key not in table:
            raise InputError(f"{at}: unknown key; choose from {tuple(table)}")
        read = table[key]
        out[key] = read_section(item, read, at) if isinstance(read, dict) else _read(read, item, at)
    return out


def _tagged(tag: str, tables: dict[str, dict], default: str | None = None) -> Reader:
    """Reader of a section whose `tag` value picks its key table."""
    pick = _one_of(*tables)

    def read(value, path):
        value = _as_mapping(value, path)
        if default is None:
            _require(value, tag, path)
        name = _read(pick, value.get(tag, default), f"{path}.{tag}")
        return {**read_section(value, {tag: pick, **tables[name]}, path), tag: name}

    return read


# subshift.height: window-sum caps h(1..n_max)
HEIGHT_TABLES = {
    "table": {"values": _list_of(_int)},
    "ceil_frac": {"num": _int, "den": _positive, "n_max": _positive},
    "linear": {"a": _int, "b": _int, "n_max": _positive},
}
# potential.height: run-length denominators h(0), h(1), ...
RUN_HEIGHT_TABLES = {
    "table": {"values": _list_of(_float)},
    "affine": {"a": _float, "b": _float},
    "power": {"p": _float, "scale": _float},
}
FAMILY_TABLES = {
    "full_shift": {"alphabet_size": _positive},
    "sft": {"alphabet_size": _positive, "forbidden": _list_of(_word),
            "declared_gap": _or_none(_natural)},
    "golden_mean": {},
    "bounded_density": {"k": _positive, "height": _tagged("form", HEIGHT_TABLES)},
    "sparse_sturmian": {"slope": _list_of(_int, 2, 2), "k_max": _positive,
                        "n_seq": _list_of(_positive)},
    # two subshift blocks; _read_subshift is bound below
    "product": {"factors": _list_of(lambda value, path: _read_subshift(value, path), 2, 2)},
}
_read_subshift = _tagged("family", FAMILY_TABLES)
KIND_TABLES = {
    "zero": {},
    "locally_constant": {"radius": _natural, "values": _word_floats,
                         "default": _or_none(_float)},
    "reciprocal_run": {"height": _tagged("form", RUN_HEIGHT_TABLES), "k_cap": _positive},
    "run_levels": {"levels": _list_of(_float), "limit": _float},
}
_read_potential = _tagged("kind", KIND_TABLES, default="zero")
# checks.<tag>: the parameters a command, or `verify <tag>`, reads
_N_RANGE, _EPSILONS = _list_of(_positive, 1), _list_of(_float_from(0, strict=True))
CHECK_TABLES = {
    "gap_profile": {"n_range": _N_RANGE},
    "anchors": {"epsilons": _EPSILONS},
    "density_glue": {"n_range": _N_RANGE, "slack": _natural, "f_const": _natural},
    "sparse_glue": {"n_range": _N_RANGE, "strategy": _one_of(*STRATEGIES),
                    "f_const": _natural},
    "partition_upper_spec": {"pressure": _pressure, "f_const": _natural, "n_range": _N_RANGE},
    "partition_upper_anchor": {"pressure": _pressure, "epsilon": _float_from(0),
                               "epsilons": _EPSILONS, "anchors": _N_RANGE},
    "partition_upper_trans": {"pressure": _pressure, "C": _float, "onset": _int_from(3),
                              "f_const": _natural, "n_range": _N_RANGE},
    "measure_lower": {"cylinder": _word, "n_range": _N_RANGE},
}
CONFIG_TABLE = {
    "label": _str, "subshift": _read_subshift, "potential": _read_potential,
    "horizons": {f.name: _or_none(_natural) for f in fields(Horizons)} | {"n_max": _positive},
    "tolerances": {f.name: _float for f in fields(Tolerances)},
    "strategy": _one_of(*STRATEGIES), "mode": _one_of(MODE_TRANSITIVITY, MODE_SPECIFICATION),
    "seed": _int, "pair_budget": _natural, "checks": CHECK_TABLES, "output_dir": _str,
}


def config_from_dict(doc: dict) -> ExperimentConfig:
    c = read_section(doc, CONFIG_TABLE, "")
    family = _require(c, "subshift", "config")["family"]
    return ExperimentConfig(
        raw=doc, label=c.pop("label", family),
        horizons=Horizons(**c.pop("horizons", {})),
        tolerances=Tolerances(**c.pop("tolerances", {})), **c,
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
# builders: each reads its declaration first, raw or already converted
# ---------------------------------------------------------------------------


def _height_table(decl: dict, ctx: str) -> list[int]:
    """Window-sum cap table h(1..n_max) from a read height declaration."""
    if decl["form"] == "table":
        return _require(decl, "values", ctx)
    ns = range(1, _require(decl, "n_max", ctx) + 1)
    if decl["form"] == "ceil_frac":
        num, den = _require(decl, "num", ctx), _require(decl, "den", ctx)
        return [math.ceil(Fraction(num * n, den)) for n in ns]
    a, b = _require(decl, "a", ctx), decl.get("b", 0)
    return [a * n + b for n in ns]


def _run_height(decl: dict, ctx: str):
    """Run-length denominator h(0), h(1), ... from a read height declaration."""
    if decl["form"] == "table":
        return _require(decl, "values", ctx)
    if decl["form"] == "affine":
        a, b = _require(decl, "a", ctx), _require(decl, "b", ctx)
        return lambda k: a * k + b
    p, scale = _require(decl, "p", ctx), decl.get("scale", 1.0)
    return lambda k: scale * (k + 1.0) ** p


def _build_subshift(decl: dict, ctx: str) -> SubshiftSpec:
    fam = decl["family"]
    if fam == "full_shift":
        return make_full_shift(_require(decl, "alphabet_size", ctx))
    if fam == "golden_mean":
        return make_golden_mean()
    if fam == "sft":
        forbidden = [parse_word(w) for w in _require(decl, "forbidden", ctx)]
        return make_sft(
            decl.get("alphabet_size", 2), forbidden, declared_gap=decl.get("declared_gap")
        )
    if fam == "bounded_density":
        h = _height_table(_require(decl, "height", ctx), f"{ctx}.height")
        return make_bounded_density(_require(decl, "k", ctx), h)
    if fam == "sparse_sturmian":
        p, q = _require(decl, "slope", ctx)
        n_seq = _require(decl, "n_seq", ctx)
        fs = make_sturmian_factors(p, q, decl.get("k_max", len(n_seq)))
        return make_sparse_sturmian(fs, n_seq)
    a, b = (
        _build_subshift(f, f"{ctx}.factors[{i}]")
        for i, f in enumerate(_require(decl, "factors", ctx))
    )
    return product_subshift(a, b)


def build_subshift(decl: dict, ctx: str = "subshift") -> SubshiftSpec:
    """The subshift a declaration names; ctx is its path in the config."""
    return _build_subshift(_read_subshift(decl, ctx), ctx)


def build_potential(decl: dict, spec: SubshiftSpec) -> Potential:
    ctx = "potential"
    decl = _read_potential(decl, ctx)
    kind = decl["kind"]
    if kind == "zero":
        return ZeroPotential()
    if kind == "locally_constant":
        values = {parse_word(k): v for k, v in _require(decl, "values", ctx).items()}
        return LocallyConstantPotential(
            _require(decl, "radius", ctx),
            values,
            spec.alphabet_size,
            default=decl.get("default", 0.0),
        )
    if kind == "reciprocal_run":
        h = _run_height(_require(decl, "height", ctx), f"{ctx}.height")
        kw = {"k_cap": decl["k_cap"]} if "k_cap" in decl else {}
        return make_reciprocal_run(h, **kw)
    levels = _require(decl, "levels", ctx)
    return make_run_levels(levels, _require(decl, "limit", ctx))
